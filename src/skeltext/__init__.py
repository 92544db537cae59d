"""Skeleton-first table-to-text generation."""

from .config import RunConfig
from .data import (
    Attribute,
    Example,
    Table,
    Vocabulary,
    build_vocabulary,
    linearize_table,
    load_corpus,
    parse_corpus,
    save_corpus,
    tokenize,
)
from .decoding import DecodeTrace, init_state, iterate
from .editor import EditRealizer, EditState
from .metrics import MetricReport, bleu, evaluate_outputs, parent, parent_t
from .oracle import (
    apply_insertions,
    edit_loss_example,
    lcs,
    levenshtein_distance,
    make_intermediate,
    oracle_deletion,
    oracle_insertion,
)
from .pointer import SkeletonPointer
from .skeleton import StopWordList, annotate_corpus, annotate_skeleton, default_stop_words
from .synth import TemplateSpec, generate
from .training import train_editor, train_pointer

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "DecodeTrace",
    "EditRealizer",
    "EditState",
    "Example",
    "MetricReport",
    "RunConfig",
    "SkeletonPointer",
    "StopWordList",
    "Table",
    "TemplateSpec",
    "Vocabulary",
    "annotate_corpus",
    "annotate_skeleton",
    "apply_insertions",
    "bleu",
    "build_vocabulary",
    "default_stop_words",
    "edit_loss_example",
    "evaluate_outputs",
    "generate",
    "init_state",
    "iterate",
    "lcs",
    "levenshtein_distance",
    "linearize_table",
    "load_corpus",
    "make_intermediate",
    "oracle_deletion",
    "oracle_insertion",
    "parent",
    "parent_t",
    "parse_corpus",
    "save_corpus",
    "tokenize",
    "train_editor",
    "train_pointer",
]
