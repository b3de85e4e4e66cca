"""The record contract: the IR and result records are immutable named
tuples, and the weight classes check their values when they are built."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poumetrics import (
    DEFAULT_WEIGHT_TABLE,
    SFC_PROFILE,
    UNIFORM_PROFILE,
    AnalysisConfig,
    BodyFacts,
    CallSite,
    DecisionSpan,
    Grouping,
    GroupStats,
    InvalidConfig,
    Language,
    MetricVector,
    Pou,
    PouKind,
    SampleEntry,
    SourceRef,
    StSource,
    Token,
    TokenClass,
    TypeClass,
    VariableDecl,
    VarSection,
    WeightProfile,
    WeightSumViolation,
    WeightTable,
)
from poumetrics.aggregate import Coefficients, PouResult
from poumetrics.errors import AnalysisWarning
from poumetrics.st import StUnit, _EOF, LineTable
from poumetrics.typesys import FbMember, RawDecl, TypeSpec

SRC = Path(__file__).resolve().parent.parent / "src"

VECTOR = MetricVector(10, 2, 4, 6, Fraction(7, 3), 5)
REF = SourceRef("a.st", 3, 7)
COEFFICIENTS = Coefficients((Fraction(1, 6),) * 6, ((100, 1),) * 6, (1,) * 6, 6)

# Per record: the fields given, the defaults of those left out, and one
# field to replace with another value.
RECORDS = [
    (SourceRef, {}, {"path": "", "line": 0, "column": 0, "element": ""}, ("line", 4)),
    (Token, {"lexeme": "x", "cls": TokenClass.OPERAND, "identity_key": "x"}, {}, ("lexeme", "X")),
    (
        VariableDecl,
        {"name": "v", "section": VarSection.LOCAL, "type_class": TypeClass.SIMPLE, "type_name": "INT"},
        {"sub_variables": range(0)},
        ("name", "w"),
    ),
    (CallSite, {"callee": "F", "args_passed": 2, "returns_used": 1}, {}, ("returns_used", 0)),
    (DecisionSpan, {"kind": "if", "ref": REF}, {}, ("kind", "while")),
    (
        BodyFacts,
        {},
        {
            "tokens": (),
            "decision_spans": (),
            "calls": (),
            "external_reads": frozenset(),
            "external_writes": frozenset(),
        },
        ("external_reads", frozenset({"g"})),
    ),
    (
        Pou,
        {"name": "P", "kind": PouKind.PROGRAM, "language": Language.ST},
        {"variables": (), "body": BodyFacts(), "source_ref": SourceRef()},
        ("language", Language.FBD),
    ),
    (AnalysisWarning, {"code": "c", "message": "m"}, {"path": "", "pou": ""}, ("pou", "P")),
    (TypeSpec, {"kind": "named"}, {"name": "", "dims": (), "element": None, "fields": ()}, ("name", "INT")),
    (RawDecl, {"name": "v", "section": VarSection.INPUT, "spec": TypeSpec("named", "INT")}, {}, ("name", "w")),
    (FbMember, {"name": "PT", "section": VarSection.INPUT}, {}, ("section", VarSection.OUTPUT)),
    (
        MetricVector,
        dict(zip(MetricVector._fields, VECTOR)),
        {},
        ("difficulty", Fraction(1, 2)),
    ),
    (
        SampleEntry,
        {"name": "P", "kind": PouKind.PROGRAM, "language": Language.ST, "vector": VECTOR},
        {"tag": ""},
        ("tag", "hot"),
    ),
    (
        GroupStats,
        {"label": "all", "size": 3, "medians": (Fraction(1),) * 6, "excluded": frozenset()},
        {},
        ("size", 4),
    ),
    (
        Coefficients,
        {"weights": (Fraction(1, 6),) * 6, "percent": ((100, 1),) * 6, "weighted": (1,) * 6, "denominator": 6},
        {},
        ("denominator", 12),
    ),
    (
        PouResult,
        {
            "name": "P",
            "kind": PouKind.PROGRAM,
            "language": Language.ST,
            "vector": VECTOR,
            "group": "all",
            "coefficients": COEFFICIENTS,
            "oc_rel": Fraction(100),
        },
        {"scale": Fraction(1), "tag": ""},
        ("oc_rel", Fraction(50)),
    ),
    (StSource, {"path": "p.st", "text": "PROGRAM P END_PROGRAM"}, {}, ("path", "q.st")),
    (StUnit, {"kind": "pou", "tokens": [_EOF], "end": _EOF, "lines": LineTable("")}, {}, ("kind", "types")),
]
RECORD_IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, given, defaults, change", RECORDS, ids=RECORD_IDS)
def test_record_contract(cls, given, defaults, change):
    record = cls(**given)
    assert set(cls._fields) == set(given) | set(defaults)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert not hasattr(record, "__dict__")
    assert not {"count", "index"} & set(cls._fields)  # no tuple method is shadowed

    name, value = change
    with pytest.raises(AttributeError):
        setattr(record, name, value)

    changed = record._replace(**{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert [getattr(changed, f) for f in cls._fields if f != name] == [
        getattr(record, f) for f in cls._fields if f != name
    ]
    assert getattr(record, name) != value  # the original is unchanged

    twin = cls(**given)
    assert twin == record
    if cls is not StUnit:  # a unit's token list is not hashable
        assert hash(twin) == hash(record)
    assert changed != record
    # A record compares equal to the tuple of its values.
    assert record == tuple(getattr(record, f) for f in cls._fields)


def test_analysis_config_contract():
    cfg = AnalysisConfig()
    assert cfg.profiles == {lang: (SFC_PROFILE if lang is Language.SFC else UNIFORM_PROFILE) for lang in Language}
    assert (cfg.weight_table, cfg.array_sub_cap, cfg.grouping, cfg.normalize, cfg.annotations) == (
        DEFAULT_WEIGHT_TABLE, None, Grouping.WHOLE_SAMPLE, False, {}
    )
    # Each config has dicts of its own.
    other = AnalysisConfig()
    assert other == cfg
    assert other.profiles is not cfg.profiles and other.annotations is not cfg.annotations
    with pytest.raises(AttributeError):
        cfg.normalize = True
    changed = cfg._replace(grouping=Grouping.PER_LANGUAGE)
    assert type(changed) is AnalysisConfig and changed.grouping is Grouping.PER_LANGUAGE
    assert changed.profiles is cfg.profiles and cfg.grouping is Grouping.WHOLE_SAMPLE
    given = AnalysisConfig(annotations={"p": "hot"}, array_sub_cap=8)
    assert given.annotations == {"p": "hot"} and given.array_sub_cap == 8


def test_weight_table_contract():
    table = WeightTable()
    assert [getattr(table, f) for f in WeightTable._fields] == [3, 4, 1, 2, 1, 1]
    assert WeightTable(local_complex=3) == table._replace(local_complex=3) != table
    assert hash(WeightTable()) == hash(table) and WeightTable() == table
    with pytest.raises(AttributeError):
        table.local_simple = 2
    assert table.local_simple == 1
    assert repr(table) == (
        "WeightTable(interface_simple=3, interface_complex=4, local_simple=1, local_complex=2, "
        "sub_simple=1, sub_complex=1)"
    )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"local_simple": 0}, "variable weights must be positive integers"),
        ({"local_simple": 3}, "interface weights must exceed local weights"),
        ({"interface_simple": 5}, "complex weights must not undercut simple weights"),
        ({"sub_complex": 2}, "sub-variable weights must not depend on the type class"),
    ],
)
def test_weight_table_checks_every_build(changes, message):
    with pytest.raises(InvalidConfig, match=message):
        WeightTable(**changes)
    with pytest.raises(InvalidConfig, match=message):
        DEFAULT_WEIGHT_TABLE._replace(**changes)


def test_weight_profile_contract():
    profile = WeightProfile(weights=(Fraction(1, 6),) * 6)
    assert profile == UNIFORM_PROFILE and hash(profile) == hash(UNIFORM_PROFILE)
    assert profile != SFC_PROFILE
    with pytest.raises(AttributeError):
        profile.weights = SFC_PROFILE.weights
    assert profile.weights == (Fraction(1, 6),) * 6
    with pytest.raises(WeightSumViolation, match="metric weights sum to 7/6, expected exactly 1"):
        WeightProfile((Fraction(1, 3),) + (Fraction(1, 6),) * 5)


def test_importing_the_cli_generates_no_code():
    """No record class is built by `dataclasses`, whose import also loads
    `inspect`, `ast` and `dis`: a fresh import of the CLI loads none."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import poumetrics.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.split() == []

