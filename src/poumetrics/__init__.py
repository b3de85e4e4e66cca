"""Static complexity profiling for IEC 61131-3 programs.

The package reduces POUs written in Structured Text or stored as PLCopen
TC6 XML (FBD, LD, SFC) to a language-neutral set of facts, computes six
complexity metrics over them, and ranks every POU in a sample by a
weighted overall value relative to the sample medians.  High ranks point
at refactoring candidates.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .aggregate import (
    SFC_PROFILE,
    UNIFORM_PROFILE,
    Grouping,
    GroupStats,
    WeightProfile,
    aggregate,
    default_profile,
    sample_row,
)
from .chart import render_chart, write_chart
from .config import AnalysisConfig, config_from_mapping, load_config
from .errors import (
    AnalysisError,
    EmptySample,
    InvalidConfig,
    NoPousFound,
    ParseError,
    WeightSumViolation,
    XmlMalformed,
)
from .ir import (
    BodyFacts,
    CallSite,
    DecisionSpan,
    Language,
    Pou,
    PouKind,
    SourceRef,
    Token,
    TokenClass,
    TypeClass,
    VariableDecl,
    VarSection,
    validate_pou,
)
from .load import load_sample
from .metrics import (
    COMPLEXITY_CLASSES,
    DEFAULT_WEIGHT_TABLE,
    METRIC_KEYS,
    MetricVector,
    WeightTable,
    compute_vector,
    cyclomatic_complexity,
    data_structure_weight,
    difficulty,
    information_flow,
    program_length,
    vocabulary,
)
from .report import analyze_paths, emit_csv, emit_json, fmt4, render_table, write_csv, write_json
from .st import StSource, parse_st_pou, st_fragment_facts

__all__ = [
    "__version__",
    "AnalysisConfig",
    "AnalysisError",
    "BodyFacts",
    "CallSite",
    "COMPLEXITY_CLASSES",
    "DEFAULT_WEIGHT_TABLE",
    "DecisionSpan",
    "EmptySample",
    "Grouping",
    "GroupStats",
    "InvalidConfig",
    "Language",
    "METRIC_KEYS",
    "MetricVector",
    "NoPousFound",
    "ParseError",
    "Pou",
    "PouKind",
    "SFC_PROFILE",
    "SourceRef",
    "StSource",
    "Token",
    "TokenClass",
    "TypeClass",
    "UNIFORM_PROFILE",
    "VariableDecl",
    "VarSection",
    "WeightProfile",
    "WeightSumViolation",
    "WeightTable",
    "XmlMalformed",
    "aggregate",
    "analyze_paths",
    "compute_vector",
    "config_from_mapping",
    "cyclomatic_complexity",
    "data_structure_weight",
    "default_profile",
    "difficulty",
    "emit_csv",
    "emit_json",
    "fmt4",
    "information_flow",
    "load_config",
    "load_sample",
    "parse_st_pou",
    "program_length",
    "render_chart",
    "render_table",
    "sample_row",
    "st_fragment_facts",
    "validate_pou",
    "vocabulary",
    "write_chart",
    "write_csv",
    "write_json",
]
