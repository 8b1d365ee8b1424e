import pytest

from lexinduce import (
    CycleConstraints,
    DictionarySpec,
    InferenceParams,
    InvalidSpec,
    LexicalEntry,
    ScoredPair,
    SynthParams,
    make_entry,
)
from lexinduce.entries import normalize_lang


def test_normalization_trims_and_nfc():
    # e + combining acute composes to the precomposed form
    e = make_entry("  café ", " FR ", "n")
    assert e.rep == "café"
    assert e.lang == "fr"


def test_normalized_language_code_is_shared():
    code = "fr"
    assert normalize_lang(code) is code
    assert normalize_lang(" FR ") == "fr"
    assert make_entry("chien", code, "n").lang is code


def test_case_preserved():
    assert make_entry("Paris", "fr", "np").rep == "Paris"


def test_multiword_rep_keeps_internal_spaces():
    assert make_entry("guinea pig", "en", "n").rep == "guinea pig"


def test_equality_is_triple_equality():
    assert make_entry("dog", "en", "n") == LexicalEntry("dog", "en", "n")
    assert make_entry("dog", "en", "n") != LexicalEntry("dog", "en", "v")


@pytest.mark.parametrize("rep,lang,pos", [("", "en", "n"), ("dog", "e", "n"), ("dog", "engl", "n"), ("dog", "en", "")])
def test_invalid_fields_rejected(rep, lang, pos):
    with pytest.raises(ValueError):
        LexicalEntry(rep, lang, pos)


# Each way to build a `cls` from `fields`; `_replace` starts from the valid `base`.
CONSTRUCTIONS = {
    "positional": lambda cls, base, fields: cls(*fields),
    "keyword": lambda cls, base, fields: cls(**dict(zip(cls._fields, fields))),
    "_make": lambda cls, base, fields: cls._make(fields),
    "_replace": lambda cls, base, fields: cls(*base)._replace(**dict(zip(cls._fields, fields))),
}


@pytest.mark.parametrize("how", CONSTRUCTIONS)
@pytest.mark.parametrize("fields,reason", [
    (("", "en", "n"), "empty written form"),
    (("dog", "EN", "n"), "bad language code"),
    (("dog", "en", "n\0"), "NUL byte"),
    (("d\0g", "en", "n"), "NUL byte"),
])
def test_every_construction_path_validates(how, fields, reason):
    with pytest.raises(ValueError, match=reason):
        CONSTRUCTIONS[how](LexicalEntry, ("dog", "en", "n"), fields)


DOG, CHIEN = LexicalEntry("dog", "en", "n"), LexicalEntry("chien", "fr", "n")


@pytest.mark.parametrize("how", CONSTRUCTIONS)
@pytest.mark.parametrize("cls, base, bad, reason", [
    (CycleConstraints, (4, 6, 3), (4, 7, 3), "max_len must be <= 2 \\* context_depth"),
    (CycleConstraints, (4, 6, 3), (3, 3, 0), "context_depth must be >= 1"),
    (InferenceParams, (CycleConstraints(), 0.6, frozenset({"np"}), 4), (CycleConstraints(), 1.5, frozenset(), 4),
     "threshold must be in"),
    (InferenceParams, (CycleConstraints(), 0.6, frozenset({"np"}), 4), (CycleConstraints(), 0.6, frozenset(), 0),
     "transitive_depth must be >= 1"),
    (ScoredPair, (DOG, CHIEN, 0.5, "cycle"), (DOG, CHIEN, 0.5, "guess"), "unknown provenance"),
    (ScoredPair, (DOG, CHIEN, 0.5, "cycle"), (DOG, DOG, 0.5, "cycle"), "share a language"),
    (ScoredPair, (DOG, CHIEN, 0.5, "cycle"), (DOG, CHIEN, 1.5, "cycle"), "confidence must be in"),
    (DictionarySpec, ("d.tsv", "en", "fr"), ("d.tsv", "en", "en"), "identical languages"),
    (SynthParams, (3, 10, 1, 0.0, 1.0, 0), (3, 10, 1, 0.0, 1.5, 0), "probabilities must be in"),
    (SynthParams, (3, 10, 1, 0.0, 1.0, 0), (1, 10, 1, 0.0, 1.0, 0), "at least 2 languages"),
    (SynthParams, (676, 10, 1, 0.0, 1.0, 0), (677, 10, 1, 0.0, 1.0, 0), "n_langs must be <= 676"),
    (SynthParams, (3, 10, 1, 0.0, 1.0, 0), (3, 0, 1, 0.0, 1.0, 0), "at least 1 sense"),
    (SynthParams, (3, 10, 1, 0.0, 1.0, 0), (3, 10, -1, 0.0, 1.0, 0), "word count must be >= 0"),
], ids=["CycleConstraints", "CycleConstraints-depth", "InferenceParams", "InferenceParams-transitive-depth",
        "ScoredPair-provenance", "ScoredPair-languages", "ScoredPair-confidence", "DictionarySpec", "SynthParams",
        "SynthParams-languages", "SynthParams-too-many-languages", "SynthParams-senses", "SynthParams-words"])
def test_every_record_construction_path_validates(how, cls, base, bad, reason):
    assert CONSTRUCTIONS[how](cls, base, base) == base
    with pytest.raises((ValueError, InvalidSpec), match=reason):
        CONSTRUCTIONS[how](cls, base, bad)


def test_scored_pairs_sort_by_source_target_confidence_provenance():
    other = LexicalEntry("chat", "fr", "n")
    pairs = [ScoredPair(DOG, CHIEN, 1.0, "type_b"), ScoredPair(DOG, CHIEN, 0.5, "cycle"),
             ScoredPair(DOG, other, 1.0, "type_a"), ScoredPair(DOG, CHIEN, 1.0, "transitive"),
             ScoredPair(CHIEN, DOG, 0.7, "cycle")]
    assert sorted(pairs) == [pairs[4], pairs[2], pairs[1], pairs[3], pairs[0]]


def test_entry_is_immutable():
    e = LexicalEntry("dog", "en", "n")
    with pytest.raises(AttributeError):
        e.rep = "cat"
    with pytest.raises(AttributeError):
        e.extra = 1


def test_repr_and_order():
    entries = [LexicalEntry("dog", "en", "v"), LexicalEntry("Zebra", "en", "n"),
               LexicalEntry("dog", "de", "n"), LexicalEntry("dog", "en", "n")]
    assert repr(entries[0]) == "LexicalEntry(rep='dog', lang='en', pos='v')"
    assert sorted(entries) == [LexicalEntry("Zebra", "en", "n"), LexicalEntry("dog", "de", "n"),
                               LexicalEntry("dog", "en", "n"), LexicalEntry("dog", "en", "v")]


def test_entry_hashes_and_compares_as_its_tuple():
    e = make_entry(" dog ", "EN", "n")
    assert hash(e) == hash(LexicalEntry("dog", "en", "n")) == hash(("dog", "en", "n"))
    assert e == ("dog", "en", "n")
    assert {("dog", "en", "n"): 1}[e] == 1
