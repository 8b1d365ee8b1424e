"""Bilingual dictionary induction over multilingual translation graphs.

Builds an undirected translation graph from raw bilingual dictionaries
and infers new language pairs with OTIC (single-pivot inverse
consultation), cycle density (densest bounded cycle scoring), and
augmented cycle density (cycle density plus unique-pivot-image pairs at
confidence 1), with an evaluation harness and a synthetic-instance
generator for oracle testing.
"""
import sys

# Each public name and the submodule that defines it. Names and submodules
# resolve on first access (PEP 562), so a command imports only the modules
# it runs.
_EXPORTS = {
    "acd": ("AcdConfig", "acd_predict", "merge_scored", "predict", "threshold_filter"),
    "dictio": (
        "DictionarySpec", "parse_dictionaries", "parse_dictionary", "parse_manifest",
        "read_dictionaries", "read_predictions", "write_dictionary", "write_predictions",
    ),
    "entries": ("LexicalEntry", "make_entry"),
    "errors": (
        "IntraLanguagePair", "InvalidSpec", "LanguageMismatch", "LexinduceError", "MalformedLine",
        "MissingFile", "MissingPivotDictionaries", "NotACycle", "UnknownLanguage", "UnknownVertex",
    ),
    "evaluation": ("EvalReport", "evaluate"),
    "graph": ("TranslationGraph", "build_graph"),
    "inference": (
        "CycleConstraints", "InferenceParams", "ScoredPair", "cd_predict", "cycle_density",
        "enumerate_cycles", "transitive_predict",
    ),
    "metagraph": ("largest_biconnected_language_component",),
    "otic": ("PivotTable", "build_pivot_table", "otic_predict", "otic_type_a", "otic_type_b"),
    "synth": ("SynthInstance", "SynthParams", "generate", "lang_codes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")  # binds the submodule here as it imports it
        return sys.modules[f"{__name__}.{name}"]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
