"""Input discovery and two-pass sample loading.

A sample may span many files: textual sources carrying POUs, TYPE blocks
and VAR_GLOBAL lists, plus PLCopen XML projects.  Loading runs in two
passes so cross-file knowledge (user types, FB interfaces, globals, the
set of POU names) is complete before any body is analyzed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import plcopen, st
from .errors import AnalysisError, AnalysisWarning, ParseError, XmlMalformed
from .ir import Pou, PouKind
from .typesys import TypeContext

ST_SUFFIXES = frozenset({".st", ".iecst", ".scl", ".pou", ".typ", ".gvl"})
XML_SUFFIXES = frozenset({".xml"})


@dataclass
class LoadedSample:
    """Everything the metrics stage needs, plus loader diagnostics."""

    pous: list[Pou] = field(default_factory=list)
    warnings: list[AnalysisWarning] = field(default_factory=list)
    context: TypeContext = field(default_factory=TypeContext)
    global_names: frozenset[str] = frozenset()


def discover_inputs(paths) -> list[Path]:
    """Expand files and directories into a sorted list of input files."""
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*")):
                if sub.is_file() and sub.suffix.casefold() in (ST_SUFFIXES | XML_SUFFIXES):
                    found.append(sub)
        elif p.exists():
            found.append(p)
        else:
            raise AnalysisError("input path does not exist: %s" % p)
    seen = set()
    unique = []
    for p in sorted(found, key=str):
        if str(p) not in seen:
            seen.add(str(p))
            unique.append(p)
    return unique


def _looks_like_xml(text: str) -> bool:
    return text.lstrip()[:1] == "<"


def load_sample(paths, array_sub_cap: int | None = None) -> LoadedSample:
    """Load every POU reachable from `paths`.

    Per-POU problems become warnings and the POU is skipped (a PLCopen
    file that is malformed or whose data types or function block
    interfaces do not parse is skipped whole); duplicate POU names
    across the whole sample are an error.
    """
    files = discover_inputs(paths)
    context = TypeContext(array_sub_cap=array_sub_cap)
    warnings: list[AnalysisWarning] = []
    global_names: set[str] = set()
    pou_names: set[str] = set()
    st_units: list[tuple[st.StUnit, str, str]] = []  # unit, path, POU name
    xml_roots: list[tuple[object, str]] = []

    # Pass 1: types, interfaces, globals and the project-wide name set.
    for path in files:
        label = str(path)
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            text = path.read_text(encoding="latin-1")
        is_xml = path.suffix.casefold() in XML_SUFFIXES or (
            path.suffix.casefold() not in ST_SUFFIXES and _looks_like_xml(text)
        )
        if is_xml:
            try:
                root = plcopen.parse_xml(text, label)
            except XmlMalformed as exc:
                warnings.append(AnalysisWarning("xml-malformed", exc.detail, label, ""))
                continue
            try:
                plcopen.register_project_types(root, context, label)
            except ParseError as exc:
                warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, ""))
                continue
            global_names.update(plcopen.project_global_names(root))
            pou_names.update(plcopen.project_pou_names(root))
            xml_roots.append((root, label))
            continue

        try:
            units = st.split_st_units(st.StSource(label, text))
        except ParseError as exc:
            warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, ""))
            continue
        for unit in units:
            try:
                if unit.kind == "types":
                    st.parse_type_block(unit, context, label)
                elif unit.kind == "globals":
                    global_names.update(n.casefold() for n in st.parse_global_names(unit, label))
                else:
                    name, kind, decls, _, _ = st.interface_of_unit(unit, label)
                    pou_names.add(name.casefold())
                    if kind is PouKind.FUNCTION_BLOCK:
                        context.register_fb(name, decls)
                    st_units.append((unit, label, name))
            except ParseError as exc:
                warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, ""))
        units.clear()  # st_units now holds the only reference to each POU unit

    frozen_globals = frozenset(global_names)
    frozen_names = frozenset(pou_names)
    pous: list[Pou] = []

    # Pass 2: bodies.  Each unit and XML tree is popped as it is handled,
    # so its raw tokens or elements are freed once its POUs are built.
    st_units.reverse()
    while st_units:
        unit, label, name = st_units.pop()
        try:
            pou, ws = st.parse_pou_unit(unit, label, context, frozen_globals)
        except ParseError as exc:
            warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, name))
            continue
        pous.append(pou)
        warnings.extend(ws)
    xml_roots.reverse()
    while xml_roots:
        root, label = xml_roots.pop()
        extracted, ws = plcopen.extract_pous(root, label, context, frozen_globals, frozen_names)
        pous.extend(extracted)
        warnings.extend(ws)

    by_name: dict[str, str] = {}
    for pou in pous:
        key = pou.name.casefold()
        if key in by_name:
            raise AnalysisError(
                "duplicate POU name %r (in %s and %s)" % (pou.name, by_name[key], pou.source_ref.path)
            )
        by_name[key] = pou.source_ref.path

    return LoadedSample(pous=pous, warnings=warnings, context=context, global_names=frozen_globals)
