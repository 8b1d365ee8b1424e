"""Bilingual dictionary induction over multilingual translation graphs.

Builds an undirected translation graph from raw bilingual dictionaries
and infers new language pairs with OTIC (single-pivot inverse
consultation), cycle density (densest bounded cycle scoring), and
augmented cycle density (cycle density plus unique-pivot-image pairs at
confidence 1), with an evaluation harness and a synthetic-instance
generator for oracle testing.
"""
from .acd import AcdConfig, acd_predict, merge_scored, predict, threshold_filter
from .dictio import (
    DictionarySpec,
    parse_dictionaries,
    parse_dictionary,
    parse_manifest,
    read_predictions,
    write_dictionary,
    write_predictions,
)
from .entries import LexicalEntry, make_entry
from .errors import (
    IntraLanguagePair,
    InvalidSpec,
    LanguageMismatch,
    LexinduceError,
    MalformedLine,
    MissingFile,
    MissingPivotDictionaries,
    NotACycle,
    UnknownLanguage,
    UnknownVertex,
)
from .evaluation import EvalReport, evaluate
from .graph import TranslationGraph, build_graph
from .inference import (
    CycleConstraints,
    InferenceParams,
    ScoredPair,
    cd_predict,
    cycle_density,
    enumerate_cycles,
    transitive_predict,
)
from .metagraph import largest_biconnected_language_component
from .otic import PivotTable, build_pivot_table, otic_predict, otic_type_a, otic_type_b
from .synth import SynthInstance, SynthParams, generate, lang_codes

__version__ = "0.1.0"

__all__ = [
    "AcdConfig",
    "CycleConstraints",
    "DictionarySpec",
    "EvalReport",
    "InferenceParams",
    "IntraLanguagePair",
    "InvalidSpec",
    "LanguageMismatch",
    "LexicalEntry",
    "LexinduceError",
    "MalformedLine",
    "MissingFile",
    "MissingPivotDictionaries",
    "NotACycle",
    "PivotTable",
    "ScoredPair",
    "SynthInstance",
    "SynthParams",
    "TranslationGraph",
    "UnknownLanguage",
    "UnknownVertex",
    "acd_predict",
    "build_graph",
    "build_pivot_table",
    "cd_predict",
    "cycle_density",
    "enumerate_cycles",
    "evaluate",
    "generate",
    "lang_codes",
    "largest_biconnected_language_component",
    "make_entry",
    "merge_scored",
    "otic_predict",
    "otic_type_a",
    "otic_type_b",
    "parse_dictionaries",
    "parse_dictionary",
    "parse_manifest",
    "predict",
    "read_predictions",
    "threshold_filter",
    "transitive_predict",
    "write_dictionary",
    "write_predictions",
]
