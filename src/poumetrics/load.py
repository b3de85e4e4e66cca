"""Input discovery and two-pass sample loading.

A sample may span many files: textual sources carrying POUs, TYPE blocks
and VAR_GLOBAL lists, plus PLCopen XML projects.  Pass 1 reads one file
at a time: it parses each POU's declarations once, walks its body, which
needs no other file, and records the file's share of the cross-file
knowledge (user types, FB interfaces, globals, POU names).  Only
these compact facts outlive the file's tokens or XML tree.  Pass 2,
once that knowledge is complete, classifies each POU's declarations and
resolves its body facts against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
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
    return sorted({str(p): p for p in found}.values(), key=str)


def _looks_like_xml(text: str) -> bool:
    return text.lstrip()[:1] == "<"


def load_sample(paths, array_sub_cap: int | None = None) -> LoadedSample:
    """Load every POU reachable from `paths`.

    Per-POU problems become warnings and the POU is skipped (a PLCopen
    file that is malformed or whose data types or function block
    interfaces do not parse is skipped whole); duplicate POU names
    across the whole sample are an error.  Pass 1's warnings come first,
    in file order, then each POU's own, ST POUs before XML POUs.
    """
    files = discover_inputs(paths)
    context = TypeContext(array_sub_cap=array_sub_cap)
    warnings: list[AnalysisWarning] = []
    global_names: set[str] = set()
    st_pous: list[st.WalkedPou] = []
    xml_docs: list[list[st.WalkedPou]] = []

    # Pass 1: one file at a time; its tokens or tree die before the next
    # file is read.
    for path in files:
        label = str(path)
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            text = path.read_text(encoding="latin-1")
        is_xml = path.suffix.casefold() in XML_SUFFIXES or (
            path.suffix.casefold() not in ST_SUFFIXES and _looks_like_xml(text)
        )
        try:
            if is_xml:
                xml_docs.append(_walk_xml_file(text, label, context, global_names))
            else:
                st_pous.extend(_walk_st_file(text, label, context, global_names, warnings))
        except XmlMalformed as exc:
            warnings.append(AnalysisWarning("xml-malformed", exc.detail, label, ""))
        except ParseError as exc:
            warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, ""))

    frozen_globals = frozenset(global_names)
    pou_names = frozenset(w.name.casefold() for w in chain(st_pous, *xml_docs) if w.name)
    pous: list[Pou] = []

    # Pass 2: each POU's facts are popped as they are handled, so they
    # are freed once its POU is built.
    st_pous.reverse()
    while st_pous:
        walked_pou = st_pous.pop()
        try:
            pou, ws = st.parse_pou_unit(walked_pou, context, frozen_globals)
        except ParseError as exc:
            warnings.append(AnalysisWarning("pou-parse-error", exc.detail, exc.path, walked_pou.name))
            continue
        pous.append(pou)
        warnings.extend(ws)
    xml_docs.reverse()
    while xml_docs:
        extracted, ws = plcopen.extract_pous(xml_docs.pop(), context, frozen_globals, pou_names)
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


def _walk_xml_file(text, label, context, global_names) -> list[st.WalkedPou]:
    """Pass 1 for one PLCopen file, which is skipped whole when it is
    malformed or a data type or FB interface does not parse."""
    root = plcopen.parse_xml(text, label)
    walked = plcopen.walk_pous(root, label)
    plcopen.register_project_types(root, walked, context, label)
    global_names.update(plcopen.project_global_names(root))
    return walked


def _walk_st_file(text, label, context, global_names, warnings) -> list[st.WalkedPou]:
    """Pass 1 for one ST file: its types, globals and FB interfaces go
    to the sample, and its POUs are walked."""
    walked: list[st.WalkedPou] = []
    for unit in st.split_st_units(st.StSource(label, text)):
        try:
            if unit.kind == "types":
                st.parse_type_block(unit, context, label)
            elif unit.kind == "globals":
                global_names.update(n.casefold() for n in st.parse_global_names(unit, label))
            else:
                pou = st.walk_pou_unit(unit, label)
                if pou.kind is PouKind.FUNCTION_BLOCK:
                    context.register_fb(pou.name, pou.decls)
                walked.append(pou)
        except ParseError as exc:
            warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, ""))
    return walked
