import pytest

from lexinduce import LexicalEntry, make_entry


def test_normalization_trims_and_nfc():
    # e + combining acute composes to the precomposed form
    e = make_entry("  café ", " FR ", "n")
    assert e.rep == "café"
    assert e.lang == "fr"


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


CONSTRUCTIONS = {
    "positional": lambda fields: LexicalEntry(*fields),
    "keyword": lambda fields: LexicalEntry(**dict(zip(("rep", "lang", "pos"), fields))),
    "_make": lambda fields: LexicalEntry._make(fields),
    "_replace": lambda fields: LexicalEntry("dog", "en", "n")._replace(rep=fields[0], lang=fields[1], pos=fields[2]),
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
        CONSTRUCTIONS[how](fields)


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
