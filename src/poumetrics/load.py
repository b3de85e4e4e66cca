"""Input discovery and two-pass sample loading.

A sample may span many files: textual sources carrying POUs, TYPE blocks
and VAR_GLOBAL lists, plus PLCopen XML projects.  Pass 1 is a function
of one file alone (`_walk_file`): it parses each POU's declarations
once, walks its body, which needs no other file, and returns the file's
share of the cross-file knowledge (user types, globals, the walked POUs
with their FB interfaces and names) as one compact record.  The file's
tokens or XML tree die with the call.

Pass 1 runs in k processes, one per usable CPU but no more than there
are files, or k = 1 while another thread runs.  Process j of k walks
every k-th file from the j-th: the loading process is j = 0, and a
forked child takes each other j and sends back its records, one pickle
per file, through a pipe.  A child that fails or is cut short has its
files walked again in the loading process, which then raises any error
a serial walk would; a child still running when the loading process's
own files raise is killed and reaped.  The records are applied in file
order, so the sample is the same as a one-process walk's.

Pass 2, once that knowledge is complete, classifies each POU's
declarations and resolves its body facts against them, or reports its
pass-1 error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from . import plcopen, st
from .errors import AnalysisError, AnalysisWarning, ParseError, XmlMalformed
from .ir import Pou, PouKind
from .typesys import TypeContext, TypeSpec

ST_SUFFIXES = frozenset({".st", ".iecst", ".scl", ".pou", ".typ", ".gvl"})
XML_SUFFIXES = frozenset({".xml"})


@dataclass
class LoadedSample:
    """Everything the metrics stage needs, plus loader diagnostics."""

    pous: list[Pou] = field(default_factory=list)
    warnings: list[AnalysisWarning] = field(default_factory=list)
    context: TypeContext = field(default_factory=TypeContext)
    global_names: frozenset[str] = frozenset()


class _WalkedFile(NamedTuple):
    """What pass 1 keeps of one file."""

    label: str
    pous: list[st.WalkedPou]
    is_xml: bool
    types: list[tuple[str, TypeSpec]]  # in definition order
    global_names: list[str]  # casefolded
    warnings: list[AnalysisWarning]


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

    # Pass 1: each file's record, applied in file order.
    for walked in _walk_files(files):
        warnings.extend(walked.warnings)
        for name, spec in walked.types:
            context.define(name, spec)
        global_names.update(walked.global_names)
        if walked.is_xml:
            xml_docs.append(walked.pous)
        else:
            st_pous.extend(walked.pous)
        for w in walked.pous:
            if w.kind is PouKind.FUNCTION_BLOCK and w.decls is not None:
                context.register_fb(w.name, w.decls)

    frozen_globals = frozenset(global_names)
    pou_names = frozenset(w.name.casefold() for w in chain(st_pous, *xml_docs) if w.name)
    pous: list[Pou] = []

    # Pass 2: each POU's facts are popped as they are handled, so they
    # are freed once its POU is built.
    st_pous.reverse()
    while st_pous:
        pou, ws = st.parse_pou_unit(st_pous.pop(), context, frozen_globals)
        warnings.extend(ws)
        if pou is not None:
            pous.append(pou)
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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform does not say,
    which keeps pass 1 in this process."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _threaded() -> bool:
    import threading

    return threading.active_count() > 1


def _walk_files(files: list[Path]) -> list[_WalkedFile]:
    """Pass 1 over `files`: their records in file order.  Process j of
    k walks `files[j::k]`; k is 1 while another thread runs, since a
    forked child gets only the thread that forked it."""
    import signal

    k = 1 if _threaded() else max(1, min(_usable_cpus(), len(files)))
    walked: list = [None] * len(files)
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        pids = [_fork_walker(files[j::k], children) for j in range(1, k)]
        walked[::k] = [_walk_file(p) for p in files[::k]]
        for j, pid in enumerate(pids, 1):
            share = files[j::k]
            records = None if pid is None else _receive(pid, children, len(share))
            walked[j::k] = [_walk_file(p) for p in share] if records is None else records
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return walked


def _fork_walker(share: list[Path], children: dict[int, int]) -> int | None:
    """Fork a child that walks `share`, then writes each file's record to
    a pipe, each with a fresh pickle memo, and enter the pipe's read end
    in `children`.  Returns the child's pid, or None when no process can
    be started."""
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            # Only the loading process reads, so a child whose reader
            # died stops at its next write.
            for fd in (read_end, *children.values()):
                os.close(fd)
            records = [_walk_file(p) for p in share]
            with open(write_end, "wb") as out:
                for record in records:
                    pickle.dump(record, out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    children[pid] = read_end
    os.close(write_end)
    return pid


def _receive(pid: int, children: dict[int, int], count: int) -> list[_WalkedFile] | None:
    """Read `count` records from a child and reap it.  None when it did
    not exit cleanly or its stream ended early."""
    import pickle

    records: list[_WalkedFile] | None = []
    with open(children[pid], "rb", closefd=False) as stream:
        try:
            for _ in range(count):
                records.append(pickle.load(stream))
        except (EOFError, pickle.UnpicklingError):
            records = None
    _, status = os.waitpid(pid, 0)
    os.close(children.pop(pid))
    return records if status == 0 else None


def _walk_file(path: Path) -> _WalkedFile:
    """Pass 1 for one file.  A file that does not parse gives a warning."""
    label = str(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        text = path.read_text(encoding="latin-1")
    is_xml = path.suffix.casefold() in XML_SUFFIXES or (
        path.suffix.casefold() not in ST_SUFFIXES and _looks_like_xml(text)
    )
    walked = _WalkedFile(label, [], is_xml, [], [], [])
    try:
        if is_xml:
            _walk_xml_file(text, walked)
        else:
            _walk_st_file(text, walked)
    except XmlMalformed as exc:
        walked.warnings.append(AnalysisWarning("xml-malformed", exc.detail, label, ""))
    except ParseError as exc:
        walked.warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, ""))
    return walked


def _walk_xml_file(text: str, walked: _WalkedFile) -> None:
    """Pass 1 for one PLCopen file, which is skipped whole when it is
    malformed or a data type or FB interface does not parse."""
    root = plcopen.parse_xml(text, walked.label)
    pous = plcopen.walk_pous(root, walked.label)
    walked.types.extend(plcopen.register_project_types(root, pous, walked.label))
    walked.global_names.extend(plcopen.project_global_names(root))
    walked.pous.extend(pous)


def _walk_st_file(text: str, walked: _WalkedFile) -> None:
    """Pass 1 for one ST file: its types, globals and walked POUs."""
    label = walked.label
    for unit in st.split_st_units(st.StSource(label, text)):
        try:
            if unit.kind == "types":
                walked.types.extend(st.parse_type_block(unit, label))
            elif unit.kind == "globals":
                walked.global_names.extend(n.casefold() for n in st.parse_global_names(unit, label))
            else:
                walked.pous.append(st.walk_pou_unit(unit, label))
        except ParseError as exc:
            walked.warnings.append(AnalysisWarning("pou-parse-error", exc.detail, label, ""))
