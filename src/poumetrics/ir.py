"""Language-neutral intermediate representation for analyzed POUs.

Every frontend (textual ST, PLCopen TC6 XML) reduces a program
organization unit to the same small set of immutable named tuples:
declared variables, a classified token stream, decision points, call
sites and external data accesses.  Everything downstream (metrics, aggregation,
reporting) is a pure function over these records.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple

# Bound on the token values kept shared.  Past it the least recently used
# value gets a new instance when it recurs: sharing is lost, nothing else.
_TOKEN_CACHE_SIZE = 1 << 16


class PouKind(Enum):
    PROGRAM = "Program"
    FUNCTION_BLOCK = "FunctionBlock"
    FUNCTION = "Function"
    ORGANIZATION_BLOCK = "OrganizationBlock"


class Language(Enum):
    ST = "ST"
    LD = "LD"
    FBD = "FBD"
    SFC = "SFC"


class VarSection(Enum):
    INPUT = "Input"
    OUTPUT = "Output"
    IN_OUT = "InOut"
    LOCAL = "Local"
    TEMP = "Temp"
    EXTERNAL = "External"
    GLOBAL = "Global"


# Sections that form a POU's interface to its callers.
INTERFACE_SECTIONS = (VarSection.INPUT, VarSection.OUTPUT, VarSection.IN_OUT)


class TypeClass(Enum):
    SIMPLE = "Simple"
    COMPLEX = "Complex"


class TokenClass(Enum):
    OPERATOR = "Operator"
    OPERAND = "Operand"


class SourceRef(NamedTuple):
    """Location of a construct: file path plus 1-based line/column.

    Graphical bodies have no lines; they carry the element's localId in
    `element` and leave line/column at 0.
    """

    path: str = ""
    line: int = 0
    column: int = 0
    element: str = ""


class Token(NamedTuple):
    """One classified lexical element of a POU body.

    identity_key is the case-folded identity used for vocabulary
    counting; two tokens with equal identity_key and equal cls are one
    unique symbol.  `operator` and `operand` hand out one shared
    instance per distinct value, so a body token costs one reference.
    """

    lexeme: str
    cls: TokenClass
    identity_key: str

    @staticmethod
    @lru_cache(maxsize=_TOKEN_CACHE_SIZE)
    def operator(lexeme: str, identity: str | None = None) -> "Token":
        return _shared_token(lexeme, TokenClass.OPERATOR, (identity if identity is not None else lexeme).casefold())

    @staticmethod
    @lru_cache(maxsize=_TOKEN_CACHE_SIZE)
    def operand(lexeme: str, identity: str | None = None) -> "Token":
        return _shared_token(lexeme, TokenClass.OPERAND, (identity if identity is not None else lexeme).casefold())

    def __reduce__(self):
        # An unpickled token rejoins the shared instance of its value.
        return _shared_token, (self.lexeme, self.cls, self.identity_key)


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _shared_token(lexeme: str, cls: TokenClass, identity_key: str) -> Token:
    """The one instance per token value, whichever arguments named it
    (`operator("x")`, `operator("x", None)` and `operator("x", "X")`)."""
    return Token(lexeme, cls, identity_key)


class VariableDecl(NamedTuple):
    """One declared variable.  `sub_variables` is a range as long as the
    variable has first-level members (struct fields, array elements or FB
    interface members); only their number is modeled."""

    name: str
    section: VarSection
    type_class: TypeClass
    type_name: str
    sub_variables: range = range(0)


class CallSite(NamedTuple):
    """One invocation of another POU.

    args_passed counts actual parameters handed over; returns_used counts
    consumed results (function value, wired or => outputs, distinct FB
    output members read back).
    """

    callee: str
    args_passed: int
    returns_used: int


class DecisionSpan(NamedTuple):
    """Source span of one decision point, labeled by construct kind."""

    kind: str
    ref: SourceRef


class BodyFacts(NamedTuple):
    tokens: tuple[Token, ...] = ()
    decision_spans: tuple[DecisionSpan, ...] = ()
    calls: tuple[CallSite, ...] = ()
    external_reads: frozenset[str] = frozenset()
    external_writes: frozenset[str] = frozenset()

    @staticmethod
    def build(
        tokens=(),
        decisions=(),
        calls=(),
        external_reads=(),
        external_writes=(),
    ) -> "BodyFacts":
        """Constructor from any iterables."""
        return BodyFacts(
            tokens=tuple(tokens),
            decision_spans=tuple(decisions),
            calls=tuple(calls),
            external_reads=frozenset(external_reads),
            external_writes=frozenset(external_writes),
        )

    @property
    def decision_count(self) -> int:
        return len(self.decision_spans)


class Pou(NamedTuple):
    name: str
    kind: PouKind
    language: Language
    variables: tuple[VariableDecl, ...] = ()
    body: BodyFacts = BodyFacts()
    source_ref: SourceRef = SourceRef()


# ------------------------- validation -------------------------


def validate_pou(pou: Pou) -> list[str]:
    """Return every invariant violation found in `pou` (empty list: valid).

    Violations indicate frontend bugs, not bad user input, so they are
    reported as strings for diagnostics rather than raised.
    """
    problems: list[str] = []
    if not pou.name.strip():
        problems.append("pou name is empty or blank")

    for var in pou.variables:
        if var.sub_variables and var.type_class is not TypeClass.COMPLEX:
            problems.append(
                "variable %r is %s but carries %d sub-variables"
                % (var.name, var.type_class.value, len(var.sub_variables))
            )
        if not var.name:
            problems.append("variable with empty name in section %s" % var.section.value)

    body = pou.body
    seen: dict[str, TokenClass] = {}
    flagged: set[str] = set()
    for tok in body.tokens:
        prior = seen.setdefault(tok.identity_key, tok.cls)
        if prior is not tok.cls and tok.identity_key not in flagged:
            flagged.add(tok.identity_key)
            problems.append(
                "identity %r classified as both operator and operand" % tok.identity_key
            )

    for call in body.calls:
        if not call.callee:
            problems.append("call site with empty callee")
        if call.args_passed < 0 or call.returns_used < 0:
            problems.append("call site %r with negative counts" % call.callee)

    return problems
