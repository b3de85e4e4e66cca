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


@dataclass(frozen=True)
class TypeSpec:
    """Structural description of a declared type.

    kind: "named" | "string" | "array" | "struct" | "enum" | "subrange"
    """

    kind: str
    name: str = ""
    dims: tuple[tuple[int, int], ...] = ()
    element: "TypeSpec | None" = None
    fields: tuple[str, ...] = ()  # struct: member names

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


@dataclass(frozen=True)
class RawDecl:
    """One declared name with its section and unclassified type, as a
    frontend reads it from a POU interface."""

    name: str
    section: VarSection
    spec: TypeSpec


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

    def define(self, name: str, spec: TypeSpec) -> None:
        self.definitions[name.casefold()] = spec

    def lookup(self, name: str) -> TypeSpec | None:
        return self.definitions.get(name.casefold())

    def register_fb(self, name: str, decls: list[RawDecl]) -> None:
        """Record a function block's interface: its input, output and
        in/out declarations."""
        self.fb_interfaces[name.casefold()] = tuple(
            FbMember(d.name, d.section) for d in decls if d.section in INTERFACE_SECTIONS
        )

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

        Named types resolve through user aliases in a loop.  A user-defined
        name is Complex even when it resolves to a bare scalar, and an
        alias cycle is Complex without sub-variables."""
        seen: set[str] = set()
        while spec.kind == "named":
            key = spec.name.casefold()
            if key.split("(")[0].strip() in ELEMENTARY_TYPES:
                break
            if key in seen:
                return TypeClass.COMPLEX, range(0), []
            seen.add(key)
            definition = self.lookup(spec.name)
            if definition is None:
                members = self.fb_members(spec.name)
                if members is not None:
                    return TypeClass.COMPLEX, range(len(members)), []
                warning = AnalysisWarning(
                    code="unknown-type",
                    message="type %r of %r is not defined; treated as Complex without sub-variables"
                    % (spec.name, base_name),
                )
                return TypeClass.COMPLEX, range(0), [warning]
            spec = definition

        if spec.kind == "array":
            # len() of a range must fit in a C ssize_t.
            count = min(spec.element_count(), sys.maxsize)
            if self.array_sub_cap is not None:
                count = min(count, max(self.array_sub_cap, 0))
            return TypeClass.COMPLEX, range(count), []
        if spec.kind == "struct":
            return TypeClass.COMPLEX, range(len(spec.fields)), []
        # Elementary names and strings are Simple unless reached through
        # an alias; enums and subranges (range-restricted scalars) are
        # user-defined, without members.
        simple = spec.kind in ("named", "string") and not seen
        return (TypeClass.SIMPLE if simple else TypeClass.COMPLEX), range(0), []
