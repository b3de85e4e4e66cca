"""Invariant checks on the intermediate representation."""

from __future__ import annotations

import json

from golden_ir import CORPUS, GOLDEN, canonical_ir
from poumetrics import (
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


def test_token_constructors_casefold_identity():
    assert Token.operator("AND").identity_key == "and"
    assert Token.operand("Level_1").identity_key == "level_1"
    # explicit identity overrides the lexeme
    assert Token.operator("Max", "max()").identity_key == "max()"


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
