"""The six per-POU metrics against the hand-tallied corpus oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from poumetrics import (
    BodyFacts,
    DEFAULT_WEIGHT_TABLE,
    InvalidConfig,
    Language,
    Pou,
    PouKind,
    Token,
    TypeClass,
    VariableDecl,
    VarSection,
    WeightTable,
    compute_vector,
    cyclomatic_complexity,
    data_structure_weight,
    difficulty,
    information_flow,
    program_length,
    vocabulary,
)
from poumetrics.metrics import fan_in, fan_out, token_counts


def var(name, section, type_class=TypeClass.SIMPLE, subs=0):
    return VariableDecl(
        name=name,
        section=section,
        type_class=type_class,
        type_name="INT",
        sub_variables=range(subs),
    )


def bare_pou(variables=(), body=BodyFacts()):
    return Pou("P", PouKind.PROGRAM, Language.ST, tuple(variables), body)


# ------------------------- corpus oracle -------------------------


def test_every_corpus_metric_matches_oracle(corpus_pous, oracle):
    assert set(corpus_pous) == set(oracle)
    for name, pou in corpus_pous.items():
        exp = oracle[name]
        vec = compute_vector(pou)
        assert vec.program_length == exp["program_length"], name
        assert vec.cyclomatic == exp["cyclomatic"], name
        assert vec.fifo == exp["fifo"], name
        assert vec.vocabulary == exp["vocabulary"], name
        assert vec.difficulty == Fraction(exp["difficulty"]), name
        assert vec.data_structure == exp["data_structure"], name


def test_corpus_count_components_match_oracle(corpus_pous, oracle):
    for name, pou in corpus_pous.items():
        exp = oracle[name]
        n1_occ, n2_occ, n1_uni, n2_uni = token_counts(pou.body)
        assert n1_occ == exp["operator_occurrences"], name
        assert n2_occ == exp["operand_occurrences"], name
        assert n1_uni == exp["unique_operators"], name
        assert n2_uni == exp["unique_operands"], name
        assert pou.body.decision_count == exp["decisions"], name
        assert fan_in(pou) == exp["fan_in"], name
        assert fan_out(pou) == exp["fan_out"], name


def test_corpus_kind_and_language_match_oracle(corpus_pous, oracle):
    for name, pou in corpus_pous.items():
        assert pou.kind.value == oracle[name]["kind"], name
        assert pou.language.value == oracle[name]["language"], name


# ------------------------- formula identities -------------------------


def test_length_is_occurrence_sum(corpus_pous):
    for pou in corpus_pous.values():
        n1, n2, _, _ = token_counts(pou.body)
        assert program_length(pou) == n1 + n2


def test_vocabulary_is_unique_sum(corpus_pous):
    for pou in corpus_pous.values():
        _, _, n1, n2 = token_counts(pou.body)
        assert vocabulary(pou) == n1 + n2


def test_cyclomatic_is_decisions_plus_one(corpus_pous):
    for pou in corpus_pous.values():
        assert cyclomatic_complexity(pou) == pou.body.decision_count + 1


def test_information_flow_is_product(corpus_pous):
    for pou in corpus_pous.values():
        assert information_flow(pou) == fan_in(pou) * fan_out(pou)


def test_difficulty_formula_exact(corpus_pous):
    for pou in corpus_pous.values():
        _, big_n2, n1, n2 = token_counts(pou.body)
        if n2:
            assert difficulty(pou) == Fraction(n1, 2) * Fraction(big_n2, n2)


def test_difficulty_zero_when_no_operands():
    body = BodyFacts(tokens=(Token.operator("return"),))
    assert difficulty(bare_pou(body=body)) == Fraction(0)
    assert difficulty(bare_pou()) == Fraction(0)


def test_empty_body_baseline():
    pou = bare_pou()
    assert program_length(pou) == 0
    assert cyclomatic_complexity(pou) == 1
    assert vocabulary(pou) == 0


# ------------------------- data-structure weighting -------------------------


def test_default_weight_table_values():
    t = DEFAULT_WEIGHT_TABLE
    assert (t.interface_simple, t.interface_complex) == (3, 4)
    assert (t.local_simple, t.local_complex) == (1, 2)
    assert (t.sub_simple, t.sub_complex) == (1, 1)


def test_two_simple_locals_weigh_two():
    pou = bare_pou([var("a", VarSection.LOCAL), var("b", VarSection.LOCAL)])
    assert data_structure_weight(pou) == 2


def test_regrouping_local_to_interface_raises_weight():
    # the same two simple variables, one promoted to the interface:
    # weight climbs from 2 to 4 with the default table
    local_pair = bare_pou([var("a", VarSection.LOCAL), var("b", VarSection.LOCAL)])
    promoted = bare_pou([var("a", VarSection.INPUT), var("b", VarSection.LOCAL)])
    assert data_structure_weight(local_pair) == 2
    assert data_structure_weight(promoted) == 4


def test_complex_variables_and_sub_variables():
    pou = bare_pou(
        [
            var("p", VarSection.INPUT, TypeClass.COMPLEX, subs=2),
            var("q", VarSection.LOCAL, TypeClass.COMPLEX, subs=2),
        ]
    )
    # 4 + 2 sub + 2 + 2 sub
    assert data_structure_weight(pou) == 10


def test_external_and_global_declarations_carry_no_weight():
    pou = bare_pou(
        [
            var("g", VarSection.EXTERNAL),
            var("h", VarSection.GLOBAL),
            var("x", VarSection.LOCAL),
        ]
    )
    assert data_structure_weight(pou) == 1


def test_temp_counts_as_local_scope():
    pou = bare_pou([var("t", VarSection.TEMP)])
    assert data_structure_weight(pou) == 1


def test_custom_table_changes_weight():
    table = WeightTable(interface_simple=5, interface_complex=8, local_simple=2, local_complex=3)
    pou = bare_pou([var("a", VarSection.INPUT), var("b", VarSection.LOCAL)])
    assert data_structure_weight(pou, table) == 7


def test_weight_table_rejects_non_positive():
    with pytest.raises(InvalidConfig):
        WeightTable(local_simple=0)


def test_weight_table_rejects_interface_not_above_local():
    with pytest.raises(InvalidConfig):
        WeightTable(interface_simple=1, local_simple=1)


def test_weight_table_rejects_complex_below_simple():
    with pytest.raises(InvalidConfig):
        WeightTable(interface_simple=3, interface_complex=2)


def test_weight_table_rejects_type_dependent_sub_weight():
    with pytest.raises(InvalidConfig):
        WeightTable(sub_simple=1, sub_complex=2)


# ------------------------- fan-in / fan-out -------------------------


def test_fan_counts_interface_and_externals():
    body = BodyFacts(
        external_reads=frozenset({"%ix0.0", "gtotal"}),
        external_writes=frozenset({"%qw4"}),
    )
    pou = bare_pou(
        [
            var("i1", VarSection.INPUT),
            var("io", VarSection.IN_OUT),
            var("o1", VarSection.OUTPUT),
        ],
        body,
    )
    assert fan_in(pou) == 1 + 1 + 2  # input + inout + reads
    assert fan_out(pou) == 1 + 1 + 1  # output + inout + writes
    assert information_flow(pou) == 12
