"""The six per-POU complexity metrics.

All functions are pure over the IR.  Values are integers except
difficulty, which is kept as an exact Fraction so downstream math never
rounds.

m1 program length   N1 + N2 (total operator + operand occurrences)
m2 cyclomatic       decision points + 1
m3 information flow fan_in * fan_out
m4 vocabulary       n1 + n2 (unique operators + unique operands)
m5 difficulty       (n1 / 2) * (N2 / n2), 0 when no operands
m6 data structure   weighted sum over declared variables and their
                    first-level sub-variables
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidConfig
from .ir import INTERFACE_SECTIONS, BodyFacts, Pou, TokenClass, TypeClass, VarSection


class MetricVector(NamedTuple):
    program_length: int
    cyclomatic: int
    fifo: int
    vocabulary: int
    difficulty: Fraction
    data_structure: int


METRIC_KEYS = MetricVector._fields

# Reporting taxonomy: which complexity class each metric belongs to.
METRIC_CLASSES = {
    "program_length": "Size",
    "cyclomatic": "Control Flow",
    "fifo": "Information Flow",
    "vocabulary": "Software Science",
    "difficulty": "Software Science",
    "data_structure": "Data Structure",
}

COMPLEXITY_CLASSES = tuple(dict.fromkeys(METRIC_CLASSES.values()))


class _WeightFields(NamedTuple):
    interface_simple: int = 3
    interface_complex: int = 4
    local_simple: int = 1
    local_complex: int = 2
    sub_simple: int = 1
    sub_complex: int = 1


class WeightTable(_WeightFields):
    """Variable weights for the data-structure metric.

    Rows are where the variable is declared (interface vs. local scope,
    plus the flat sub-variable row), columns its type class.  A table is
    checked whenever it is built, by `_make` and `_replace` too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any((not isinstance(v, int)) or v <= 0 for v in self):
            raise InvalidConfig("variable weights must be positive integers")
        if not (self.interface_simple > self.local_simple and self.interface_complex > self.local_complex):
            raise InvalidConfig("interface weights must exceed local weights")
        if self.interface_complex < self.interface_simple or self.local_complex < self.local_simple:
            raise InvalidConfig("complex weights must not undercut simple weights")
        if self.sub_simple != self.sub_complex:
            raise InvalidConfig("sub-variable weights must not depend on the type class")
        return self

    @classmethod
    def _make(cls, values) -> "WeightTable":
        return cls(*values)

    def variable_weight(self, section: VarSection, type_class: TypeClass) -> int:
        interface = section in INTERFACE_SECTIONS
        complex_ = type_class is TypeClass.COMPLEX
        if interface:
            return self.interface_complex if complex_ else self.interface_simple
        return self.local_complex if complex_ else self.local_simple

    @property
    def sub_weight(self) -> int:
        return self.sub_simple


DEFAULT_WEIGHT_TABLE = WeightTable()


# ------------------------- counting helpers -------------------------


def token_counts(body: BodyFacts) -> tuple[int, int, int, int]:
    """(N1, N2, n1, n2): operator and operand occurrences, then unique
    operator and operand identities, in one pass over the tokens."""
    operator = TokenClass.OPERATOR
    ops: list[str] = []
    operands: list[str] = []
    for t in body.tokens:
        (ops if t.cls is operator else operands).append(t.identity_key)
    return len(ops), len(operands), len(set(ops)), len(set(operands))


def fan_in(pou: Pou) -> int:
    inputs = sum(1 for v in pou.variables if v.section is VarSection.INPUT)
    inouts = sum(1 for v in pou.variables if v.section is VarSection.IN_OUT)
    returns = sum(c.returns_used for c in pou.body.calls)
    return inputs + inouts + len(pou.body.external_reads) + returns


def fan_out(pou: Pou) -> int:
    outputs = sum(1 for v in pou.variables if v.section is VarSection.OUTPUT)
    inouts = sum(1 for v in pou.variables if v.section is VarSection.IN_OUT)
    args = sum(c.args_passed for c in pou.body.calls)
    return outputs + inouts + len(pou.body.external_writes) + args


# ------------------------- the six metrics -------------------------


def program_length(pou: Pou) -> int:
    return len(pou.body.tokens)


def cyclomatic_complexity(pou: Pou) -> int:
    return pou.body.decision_count + 1


def information_flow(pou: Pou) -> int:
    return fan_in(pou) * fan_out(pou)


def vocabulary(pou: Pou) -> int:
    _, _, n1, n2 = token_counts(pou.body)
    return n1 + n2


def difficulty(pou: Pou) -> Fraction:
    return _difficulty(*token_counts(pou.body))


def _difficulty(big_n1: int, big_n2: int, n1: int, n2: int) -> Fraction:
    if n2 == 0:
        return Fraction(0)
    return Fraction(n1, 2) * Fraction(big_n2, n2)


def data_structure_weight(pou: Pou, table: WeightTable = DEFAULT_WEIGHT_TABLE) -> int:
    # External/global access declarations reference data owned elsewhere,
    # so they add nothing to this POU's own declaration weight.
    total = 0
    for var in pou.variables:
        if var.section in (VarSection.EXTERNAL, VarSection.GLOBAL):
            continue
        total += table.variable_weight(var.section, var.type_class)
        total += table.sub_weight * len(var.sub_variables)
    return total


def compute_vector(pou: Pou, table: WeightTable = DEFAULT_WEIGHT_TABLE) -> MetricVector:
    """All six metrics for one POU."""
    counts = token_counts(pou.body)
    return MetricVector(
        program_length=program_length(pou),
        cyclomatic=cyclomatic_complexity(pou),
        fifo=information_flow(pou),
        vocabulary=counts[2] + counts[3],
        difficulty=_difficulty(*counts),
        data_structure=data_structure_weight(pou, table),
    )
