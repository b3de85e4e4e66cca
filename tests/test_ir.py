"""Invariant checks on the intermediate representation."""

from __future__ import annotations

import gc
import json
import pickle
import pickletools
import shutil
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

from golden_ir import CORPUS, GOLDEN, canonical_ir
from stgen import generate_program
from poumetrics import (
    BodyFacts,
    CallSite,
    DecisionSpan,
    Language,
    MetricVector,
    Pou,
    PouKind,
    SampleEntry,
    SourceRef,
    Token,
    TokenClass,
    TypeClass,
    VariableDecl,
    VarSection,
    load_sample,
    validate_pou,
)
from poumetrics import load, plcopen, st
from poumetrics.errors import AnalysisWarning
from poumetrics.typesys import FbMember, RawDecl, TypeSpec, named


def make_pou(**overrides) -> Pou:
    base = dict(
        name="P",
        kind=PouKind.PROGRAM,
        language=Language.ST,
        variables=(),
        body=BodyFacts(),
        source_ref=SourceRef(path="x.st"),
    )
    base.update(overrides)
    return Pou(**base)


def test_minimal_pou_is_valid():
    assert validate_pou(make_pou()) == []


def test_empty_name_is_flagged():
    problems = validate_pou(make_pou(name=""))
    assert any("name is empty" in p for p in problems)


def test_blank_name_is_flagged():
    assert validate_pou(make_pou(name=" \t ")) == ["pou name is empty or blank"]


def test_token_constructors_casefold_identity():
    assert Token.operator("AND").identity_key == "and"
    assert Token.operand("Level_1").identity_key == "level_1"
    # explicit identity overrides the lexeme
    assert Token.operator("Max", "max()").identity_key == "max()"


def test_token_constructors_share_one_instance_per_value():
    direct = [
        Token("AND", TokenClass.OPERATOR, "and"),
        Token("Level_1", TokenClass.OPERAND, "level_1"),
        Token("Max", TokenClass.OPERATOR, "max()"),
    ]
    shared = [Token.operator("AND"), Token.operand("Level_1"), Token.operator("Max", "max()")]
    for tok, ref in zip(shared, direct):
        assert not hasattr(tok, "__dict__")
        assert tok == ref and hash(tok) == hash(ref) and repr(tok) == repr(ref)
        assert tok.identity_key == ref.identity_key
    assert Token.operator("AND") is Token.operator("AND", None) is Token.operator("AND", "And")
    assert Token.operator("x") != Token.operand("x")


def test_unpickled_token_is_the_shared_instance():
    for tok in (Token.operator("x"), Token.operand("x"), Token.operator("Max", "max()")):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(tok, protocol)) is tok


def test_records_that_pass_1_pickles_round_trip_field_by_field():
    ref = SourceRef("a.st", 3, 7, "step1")
    spec = TypeSpec("array", "Arr", ((1, 2), (0, 4)), named("INT"), ("f",))
    vector = MetricVector(12, 3, 4, 9, Fraction(7, 3), 5)
    for record in (
        ref,
        DecisionSpan("if", ref),
        AnalysisWarning("unknown-type", "type 'X' of 'y' ...", "a.st", "P"),
        spec,
        RawDecl("v", VarSection.IN_OUT, spec),
        FbMember("PT", VarSection.INPUT),
        # the rows that round 2 sends back
        SampleEntry("P", PouKind.FUNCTION_BLOCK, Language.SFC, vector, "hot"),
    ):
        data = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        copy = pickle.loads(data)
        assert copy == record and type(copy) is type(record)
        assert not hasattr(copy, "__dict__")
        # a constructor call: no per-instance state is pickled beside it
        assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(data)}


def test_corpus_tokens_equal_by_value_are_one_object(corpus_sample):
    first: dict[Token, tuple[Token, str]] = {}
    across_pous = 0
    for pou in corpus_sample.pous:
        for tok in pou.body.tokens:
            kept, owner = first.setdefault(tok, (tok, pou.name))
            assert kept is tok, tok
            across_pous += owner != pou.name
    assert across_pous > 0


def test_identity_in_both_classes_is_flagged():
    body = BodyFacts(tokens=(Token.operator("x"), Token.operand("X")))
    problems = validate_pou(make_pou(body=body))
    assert any("both operator and operand" in p for p in problems)


def test_simple_variable_with_sub_variables_is_flagged():
    bad = VariableDecl(
        name="v",
        section=VarSection.LOCAL,
        type_class=TypeClass.SIMPLE,
        type_name="INT",
        sub_variables=range(1),
    )
    problems = validate_pou(make_pou(variables=(bad,)))
    assert any("sub-variables" in p for p in problems)


def test_build_keeps_decision_count_in_sync():
    spans = (DecisionSpan("if", SourceRef()), DecisionSpan("for", SourceRef()))
    body = BodyFacts.build(tokens=(), decisions=spans)
    assert body.decision_count == 2
    assert validate_pou(make_pou(body=body)) == []


def test_negative_call_counts_are_flagged():
    body = BodyFacts(calls=(CallSite("f", args_passed=-1, returns_used=0),))
    problems = validate_pou(make_pou(body=body))
    assert any("negative" in p for p in problems)


def test_empty_callee_is_flagged():
    body = BodyFacts(calls=(CallSite("", 0, 0),))
    problems = validate_pou(make_pou(body=body))
    assert any("empty callee" in p for p in problems)


def test_corpus_pous_all_validate(corpus_sample):
    for pou in corpus_sample.pous:
        assert validate_pou(pou) == [], pou.name


def test_corpus_ir_matches_golden(corpus_sample):
    # The golden IR was written by tests/golden_ir.py; a change that means
    # to alter the IR rewrites it with that script.
    assert canonical_ir(corpus_sample.pous, CORPUS) == json.loads(GOLDEN.read_text(encoding="utf-8"))


# ------------------------- memory -------------------------


def test_load_frees_each_unit_and_xml_tree_once_its_pous_are_built(monkeypatch, tmp_path):
    # Every ST unit and XML tree of a file must be gone before the next
    # file is read.  The last file read holds several POUs, so the state
    # pass 1 keeps between files is checked too.  The spies see this
    # process only, so pass 1 runs here alone.
    monkeypatch.setattr(load, "_usable_cpus", lambda: 1)
    shutil.copytree(CORPUS, tmp_path, dirs_exist_ok=True)
    (tmp_path / "zz_last.st").write_text(
        "".join("PROGRAM Last%d\nx := %d;\nEND_PROGRAM\n" % (i, i) for i in range(3))
    )
    expected_pous = len(load_sample([str(CORPUS)]).pous) + 3
    made: list[weakref.ref] = []
    alive_at_read: list[int] = []

    def alive():
        return sum(ref() is not None for ref in made)

    def read_text(self, *args, real=Path.read_text, **kwargs):
        alive_at_read.append(alive())
        return real(self, *args, **kwargs)

    class Tokens(list):
        """A unit's token list, which a weak reference can watch."""

    # A unit is a named tuple, which no weak reference can watch, so its
    # token list is watched: the list lives as long as the unit does.
    def split_st_units(source, real=st.split_st_units):
        units = [unit._replace(tokens=Tokens(unit.tokens)) for unit in real(source)]
        made.extend(weakref.ref(unit.tokens) for unit in units)
        return units

    def parse_xml(text, path="", real=plcopen.parse_xml):
        root = real(text, path)
        made.append(weakref.ref(root))
        return root

    monkeypatch.setattr(Path, "read_text", read_text)
    monkeypatch.setattr(st, "split_st_units", split_st_units)
    monkeypatch.setattr(plcopen, "parse_xml", parse_xml)
    sample = load_sample([str(tmp_path)])
    assert len(sample.pous) == expected_pous
    assert len(alive_at_read) == len(list(tmp_path.rglob("*.*"))) - 2  # the two golden JSON files are not read
    assert alive_at_read == [0] * len(alive_at_read)
    assert alive() == 0
    assert len(made) > len(alive_at_read)


def test_load_sample_retains_under_100_bytes_per_body_token(tmp_path):
    for seed in range(200):
        prog = generate_program(seed)
        (tmp_path / ("%s.st" % prog.name)).write_text(prog.source)
    gc.collect()
    tracemalloc.start()
    try:
        sample = load_sample([str(tmp_path)])
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tokens = sum(len(pou.body.tokens) for pou in sample.pous)
    assert tokens >= 20_000
    assert retained / tokens < 100, "%d B retained for %d body tokens" % (retained, tokens)
