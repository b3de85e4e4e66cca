"""Type classification shared by the textual and XML frontends.

Declared variables are sorted into Simple (single-element) and Complex
(multi-element) types, and the sub-variables of Complex ones are counted
one level deep: struct fields, declared array elements, or the interface
members of a function block instance.  Only their number is kept, so an
array costs the same whatever its bounds.  Deeper levels are
intentionally ignored.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

from .errors import AnalysisWarning
from .ir import INTERFACE_SECTIONS, TypeClass, VariableDecl, VarSection

# Elementary IEC types: single value, Simple weight class.
ELEMENTARY_TYPES = frozenset(
    name.casefold()
    for name in (
        "BOOL", "BYTE", "WORD", "DWORD", "LWORD",
        "SINT", "INT", "DINT", "LINT",
        "USINT", "UINT", "UDINT", "ULINT",
        "REAL", "LREAL",
        "TIME", "LTIME", "DATE", "LDATE",
        "TIME_OF_DAY", "TOD", "DATE_AND_TIME", "DT", "LTOD", "LDT",
        "STRING", "WSTRING", "CHAR", "WCHAR",
    )
)


@dataclass(frozen=True, slots=True)
class TypeSpec:
    """Structural description of a declared type.

    kind: "named" | "string" | "array" | "struct" | "enum" | "subrange"
    """

    kind: str
    name: str = ""
    dims: tuple[tuple[int, int], ...] = ()
    element: "TypeSpec | None" = None
    fields: tuple[str, ...] = ()  # struct: member names

    def __reduce__(self):
        # Pickled as a constructor call: the dataclass default for a
        # frozen slotted class runs __getstate__/__setstate__ in Python.
        return TypeSpec, (self.kind, self.name, self.dims, self.element, self.fields)

    def render(self) -> str:
        if self.kind == "named":
            return self.name
        if self.kind == "string":
            return self.name or "STRING"
        if self.kind == "array":
            dims = ", ".join("%d..%d" % (lo, hi) for lo, hi in self.dims)
            inner = self.element.render() if self.element else "?"
            return "ARRAY [%s] OF %s" % (dims, inner)
        if self.kind == "struct":
            return "STRUCT"
        if self.kind == "enum":
            return "ENUM"
        if self.kind == "subrange":
            return self.element.render() if self.element else self.name
        return self.name or self.kind

    def element_count(self) -> int:
        """Declared array elements; none for an array without dimensions."""
        n = 1 if self.dims else 0
        for lo, hi in self.dims:
            n *= max(hi - lo + 1, 0)
        return n


def named(name: str) -> TypeSpec:
    return TypeSpec("named", name=name)


@dataclass(frozen=True, slots=True)
class RawDecl:
    """One declared name with its section and unclassified type, as a
    frontend reads it from a POU interface."""

    name: str
    section: VarSection
    spec: TypeSpec

    def __reduce__(self):
        return RawDecl, (self.name, self.section, self.spec)


@dataclass(frozen=True)
class FbMember:
    name: str
    section: VarSection


def _fb(inputs: str, outputs: str) -> tuple[FbMember, ...]:
    return tuple(FbMember(n, VarSection.INPUT) for n in inputs.split()) + tuple(
        FbMember(n, VarSection.OUTPUT) for n in outputs.split()
    )


# Interfaces of the ubiquitous standard function blocks, so instances of
# them have sub-variables and their output reads resolve without
# the user supplying source for them.
STANDARD_FBS: dict[str, tuple[FbMember, ...]] = {
    "ton": _fb("IN PT", "Q ET"),
    "tof": _fb("IN PT", "Q ET"),
    "tp": _fb("IN PT", "Q ET"),
    "ctu": _fb("CU R PV", "Q CV"),
    "ctd": _fb("CD LD PV", "Q CV"),
    "ctud": _fb("CU CD R LD PV", "QU QD CV"),
    "r_trig": _fb("CLK", "Q"),
    "f_trig": _fb("CLK", "Q"),
    "sr": _fb("S1 R", "Q1"),
    "rs": _fb("S R1", "Q1"),
}


@dataclass
class TypeContext:
    """User TYPE definitions plus known function-block interfaces.

    Built in a first pass over all input files, then consulted in the
    second, when each POU's declarations are classified.
    """

    definitions: dict[str, TypeSpec] = field(default_factory=dict)
    fb_interfaces: dict[str, tuple[FbMember, ...]] = field(default_factory=dict)
    array_sub_cap: int | None = None
    # casefolded user-defined type name -> what `_resolve` found for it
    _resolved: dict[str, tuple[range, str]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def define(self, name: str, spec: TypeSpec) -> None:
        self.definitions[name.casefold()] = spec
        self._resolved.clear()

    def lookup(self, name: str) -> TypeSpec | None:
        return self.definitions.get(name.casefold())

    def register_fb(self, name: str, decls: list[RawDecl]) -> None:
        """Record a function block's interface: its input, output and
        in/out declarations."""
        self.fb_interfaces[name.casefold()] = tuple(
            FbMember(d.name, d.section) for d in decls if d.section in INTERFACE_SECTIONS
        )
        self._resolved.clear()

    def fb_members(self, type_name: str) -> tuple[FbMember, ...] | None:
        key = type_name.casefold()
        if key in self.fb_interfaces:
            return self.fb_interfaces[key]
        return STANDARD_FBS.get(key)

    def is_fb(self, type_name: str) -> bool:
        return self.fb_members(type_name) is not None

    def fb_output_names(self, type_name: str) -> frozenset[str]:
        members = self.fb_members(type_name) or ()
        return frozenset(m.name.casefold() for m in members if m.section in (VarSection.OUTPUT, VarSection.IN_OUT))

    # ------------------------- classification -------------------------

    def declare(
        self, pou_name: str, decls: list[RawDecl], return_spec: TypeSpec | None = None
    ) -> tuple[list[VariableDecl], list[AnalysisWarning]]:
        """Classify a POU's declarations into IR variables.

        A function's return value comes first, as an output named after
        the POU.  Warnings are attributed to `pou_name`.
        """
        if return_spec is not None:
            decls = [RawDecl(pou_name, VarSection.OUTPUT, return_spec), *decls]
        variables: list[VariableDecl] = []
        warnings: list[AnalysisWarning] = []
        for d in decls:
            type_class, subs, ws = self.classify(d.spec, d.name)
            variables.append(VariableDecl(d.name, d.section, type_class, d.spec.render(), subs))
            warnings.extend(replace(w, pou=pou_name) for w in ws)
        return variables, warnings

    def classify(
        self, spec: TypeSpec, base_name: str
    ) -> tuple[TypeClass, range, list[AnalysisWarning]]:
        """Classify a declared type and count its first-level sub-variables,
        as a range of that length.

        Named types resolve through user aliases (see `_resolve`).  A
        user-defined name is Complex even when it resolves to a bare
        scalar, and an alias cycle is Complex without sub-variables."""
        if spec.kind == "named" and not _is_elementary(spec.name):
            subs, unknown = self._resolve(spec)
            if not unknown:
                return TypeClass.COMPLEX, subs, []
            warning = AnalysisWarning(
                code="unknown-type",
                message="type %r of %r is not defined; treated as Complex without sub-variables"
                % (unknown, base_name),
            )
            return TypeClass.COMPLEX, range(0), [warning]
        # Elementary names and strings are Simple; enums and subranges
        # (range-restricted scalars) are user-defined, without members.
        simple = spec.kind in ("named", "string")
        return (TypeClass.SIMPLE if simple else TypeClass.COMPLEX), self._members(spec), []

    def _resolve(self, spec: TypeSpec) -> tuple[range, str]:
        """Follow a type name that is not elementary through user aliases,
        in a loop, to the sub-variables of the type it ends at, and the
        undefined name it ends at instead ("" when there is none).  The
        outcome is kept for every defined name on the way, so a chain is
        walked once, not once per declaration that uses it."""
        defined: set[str] = set()
        while True:
            key = spec.name.casefold()
            outcome = self._resolved.get(key)
            if outcome is not None:
                break
            if key in defined:  # an alias cycle
                outcome = range(0), ""
                break
            definition = self.lookup(spec.name)
            if definition is None:
                members = self.fb_members(spec.name)
                outcome = (range(0), spec.name) if members is None else (range(len(members)), "")
                break
            defined.add(key)
            spec = definition
            if spec.kind != "named" or _is_elementary(spec.name):
                outcome = self._members(spec), ""
                break
        for key in defined:
            self._resolved[key] = outcome
        return outcome

    def _members(self, spec: TypeSpec) -> range:
        """First-level sub-variables of a type that is not a name."""
        if spec.kind == "array":
            # len() of a range must fit in a C ssize_t.
            count = min(spec.element_count(), sys.maxsize)
            if self.array_sub_cap is not None:
                count = min(count, max(self.array_sub_cap, 0))
            return range(count)
        if spec.kind == "struct":
            return range(len(spec.fields))
        return range(0)


def _is_elementary(name: str) -> bool:
    return name.casefold().split("(")[0].strip() in ELEMENTARY_TYPES
