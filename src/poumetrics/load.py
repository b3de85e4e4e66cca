"""Input discovery and two-pass sample loading.

A sample may span many files: textual sources carrying POUs, TYPE blocks
and VAR_GLOBAL lists, plus PLCopen XML projects.  Pass 1 is a function
of one file alone (`_walk_file`): it parses each POU's declarations
once, walks its body, which needs no other file, and returns the walked
POUs with the file's share of the cross-file knowledge: user types,
globals, FB interfaces and POU names.  The file's tokens or XML tree die
with the call.  Pass 2, once that knowledge is complete, classifies each
POU's declarations and resolves its body facts against it, or reports
its pass-1 error.

Both passes run in k processes, one per usable CPU but no more than
there are files, or k = 1 while another thread runs: the loading process
and k - 1 forked children.  Before any fork, the loading process writes
the index of every file into one pipe, the claims, and closes its write
end.  Each process claims its next file with one read until the pipe is
empty, so a process that walks faster walks more files.  The work goes
in two rounds over a pair of pipes per child:

1. once the claims run out, the child sends up the indices of the
   files it walked, then each one's knowledge (`_Declared`), one pickle
   per file; the loading process applies every file's knowledge in file order and
   sends the result (`_Shared`) down to each child;
2. each process runs pass 2 on the files it walked, applying the
   caller's `finish` to each POU, and a child sends up only those
   results, with each POU's name and path and the warnings
   (`_Finished`), in the same order and in one pickle.

A file that has no record once the children have answered was claimed
by a child that failed in round 1, and it is walked in the loading
process; a child that fails in round 2 has the files it reported walked
again for pass 2 only, since their knowledge is already applied.  A
child still running when the loading process raises is killed, and
every child is reaped.  The results are assembled in file order, so the
sample is the same as a one-process load's, whichever process walked
each file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from . import plcopen, st
from .errors import AnalysisError, AnalysisWarning, ParseError, XmlMalformed
from .ir import Pou, PouKind
from .typesys import RawDecl, TypeContext, TypeSpec

ST_SUFFIXES = frozenset({".st", ".iecst", ".scl", ".pou", ".typ", ".gvl"})
XML_SUFFIXES = frozenset({".xml"})
_INPUT_SUFFIXES = ST_SUFFIXES | XML_SUFFIXES
_UTF16_BOMS = (b"\xff\xfe", b"\xfe\xff")

# A claim is one entry of _CLAIM_WIDTH bytes: the number of a run of
# consecutive files.  All entries fit in 4096 bytes, the smallest buffer
# Linux gives a pipe, so writing them before the fork never blocks.
_CLAIM_WIDTH = 2
_CLAIM_ENTRIES = 4096 // _CLAIM_WIDTH


class LoadedSample:
    """Everything the metrics stage needs, plus loader diagnostics."""

    def __init__(
        self, pous: list, warnings: list[AnalysisWarning], context: TypeContext, global_names: frozenset[str]
    ):
        self.pous = pous  # Pou, or what `finish` made of each
        self.warnings = warnings
        self.context = context
        self.global_names = global_names


class _WalkedFile(NamedTuple):
    """What pass 1 keeps of one file."""

    label: str
    pous: list[st.WalkedPou]
    is_xml: bool
    types: list[tuple[str, TypeSpec]]  # in definition order
    global_names: list[str]  # casefolded
    warnings: list[AnalysisWarning]


class _Declared(NamedTuple):
    """What the other files' pass 2 needs of one file's pass 1, and the
    file's pass-1 warnings."""

    types: list[tuple[str, TypeSpec]]
    global_names: list[str]
    warnings: list[AnalysisWarning]
    fbs: list[tuple[str, list[RawDecl]]]  # each function block's name and declarations
    names: list[str]  # casefolded POU names


class _Shared(NamedTuple):
    """The whole sample's knowledge that pass 2 resolves against."""

    context: TypeContext
    global_names: frozenset[str]
    pou_names: frozenset[str]


class _Finished(NamedTuple):
    """What pass 2 made of one file."""

    is_xml: bool
    results: list  # `finish` of each POU built
    keys: list[tuple[str, str]]  # each POU's name and path
    warnings: list[AnalysisWarning]


def discover_inputs(paths) -> list[Path]:
    """Expand files and directories into a sorted list of input files.

    A directory is searched as `Path.rglob("*")` searches it: symlinked
    files count, but neither a symlinked nor an unreadable directory is
    entered.  A file found there is kept when its suffix, in any case, is
    an ST or XML one; a file named outright is kept whatever its suffix."""
    found: set[str] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            _scan(str(p), found)
        elif p.exists():
            found.add(str(p))
        else:
            raise AnalysisError("input path does not exist: %s" % p)
    return [Path(s) for s in sorted(found)]


def _scan(top: str, found: set[str]) -> None:
    """Add the input files below the directory `top` to `found`, each
    spelt as `Path(top) / ...` spells it."""
    cut = 2 if top == "." else 0  # Path(".") / "a.st" is "a.st", not "./a.st"
    pending = [top]
    while pending:
        try:
            entries = os.scandir(pending.pop())
        except OSError:
            continue
        with entries:
            for entry in entries:
                try:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(entry.path)
                    elif _suffix(entry.name).casefold() in _INPUT_SUFFIXES and entry.is_file():
                        found.add(entry.path[cut:])
                except OSError:  # a symlink loop, or a target that cannot be read
                    pass


def _suffix(name: str) -> str:
    """`PurePath(name).suffix`: from the last dot, unless the name starts
    or ends with it."""
    i = name.rfind(".")
    return name[i:] if 0 < i < len(name) - 1 else ""


def _looks_like_xml(text: str) -> bool:
    return text.lstrip()[:1] == "<"


def load_sample(paths, array_sub_cap: int | None = None, finish=None) -> LoadedSample:
    """Load every POU reachable from `paths`.

    Per-POU problems become warnings and the POU is skipped (a PLCopen
    file that is malformed or whose data types or function block
    interfaces do not parse is skipped whole); duplicate POU names
    across the whole sample are an error.  Pass 1's warnings come first,
    in file order, then each POU's own, ST POUs before XML POUs.

    `finish`, when given, is applied to each POU in the process that
    walked its file, and `pous` holds its results in place of the POUs.
    """
    files = discover_inputs(paths)
    shared, warnings, finished = _run_passes(files, TypeContext(array_sub_cap=array_sub_cap), finish or _same)
    results: list = []
    by_name: dict[str, str] = {}
    for is_xml in (False, True):
        for done in finished:
            if done.is_xml is not is_xml:
                continue
            results.extend(done.results)
            warnings.extend(done.warnings)
            for name, path in done.keys:
                key = name.casefold()
                if key in by_name:
                    raise AnalysisError("duplicate POU name %r (in %s and %s)" % (name, by_name[key], path))
                by_name[key] = path
    return LoadedSample(results, warnings, shared.context, shared.global_names)


def _same(pou: Pou) -> Pou:
    return pou


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform does not say,
    which keeps both passes in this process."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _threaded() -> bool:
    import threading

    return threading.active_count() > 1


def _run_passes(
    files: list[Path], context: TypeContext, finish
) -> tuple[_Shared, list[AnalysisWarning], list[_Finished]]:
    """Both passes over `files`: the sample's shared knowledge, built in
    `context`, pass 1's warnings in file order, and what pass 2 made of
    each file, in file order.  Each process claims its files from one
    pipe; k is 1 while another thread runs, since a forked child gets
    only the thread that forked it."""
    import pickle

    count = len(files)
    k = 1 if _threaded() else max(1, min(_usable_cpus(), count))
    run = max(1, -(-count // _CLAIM_ENTRIES))  # files per claim
    walked: list = [None] * count  # the records of the files walked here
    declared: list = [None] * count
    finished: list = [None] * count
    children: list[_Child] = []  # until reaped
    claims = _claim_pipe(-(-count // run))
    try:
        for _ in range(1, k):
            child = _fork_walker(files, claims, run, finish, children)
            if child is not None:
                children.append(child)
        for i in _claims(claims, run, count):
            walked[i] = _walk_file(files[i])

        # Round 1: each file's knowledge, applied in file order, then sent
        # to every child.  A file without a record was claimed by a child
        # that failed: it is walked here.
        for child in list(children):
            records = child.receive(1)
            if records is not None:
                child.claimed = records[0]
                records = child.receive(len(child.claimed))
            if records is None:
                children.remove(child)
                _reap(child)
            else:
                for i, d in zip(child.claimed, records):
                    declared[i] = d
        for i in range(count):
            if declared[i] is None:
                if walked[i] is None:
                    walked[i] = _walk_file(files[i])
                declared[i] = _declared(walked[i])
        shared, warnings = _share(declared, context)
        blob = pickle.dumps(shared, pickle.HIGHEST_PROTOCOL)
        for child in children:
            child.send(blob)

        # Round 2: pass 2 on the files walked here, each record freed once
        # its file is done, then the children's results.
        for i, w in enumerate(walked):
            if w is not None:
                walked[i] = None
                finished[i] = _finish_file(w, shared, finish)
        while children:
            child = children.pop(0)
            records = child.receive(1)
            if _reap(child, kill=records is None) and records is not None:
                for i, done in zip(child.claimed, records[0]):
                    finished[i] = done
            else:
                # The failed child's knowledge is applied: walk its files
                # again for pass 2 only.
                for i in child.claimed:
                    finished[i] = _finish_file(_walk_file(files[i]), shared, finish)
    finally:
        os.close(claims)
        for child in children:
            _reap(child)
    return shared, warnings, finished


def _claim_pipe(entries: int) -> int:
    """The read end of a pipe that holds the claims 0 to `entries` - 1,
    its write end already closed."""
    read, write = os.pipe()
    try:
        os.write(write, b"".join(e.to_bytes(_CLAIM_WIDTH, "little") for e in range(entries)))
    finally:
        os.close(write)
    return read


def _claims(fd: int, run: int, count: int):
    """Claim runs of `run` files from the pipe `fd` until it is empty: the
    index of each file claimed, in order.  Every entry is in the pipe
    before the first read, so a read never waits, and it gets a whole
    entry or, at the end, nothing."""
    while True:
        entry = os.read(fd, _CLAIM_WIDTH)
        if len(entry) < _CLAIM_WIDTH:
            return
        start = int.from_bytes(entry, "little") * run
        yield from range(start, min(start + run, count))


class _Child:
    """A forked process that claims files and runs both passes on them,
    the loading process's ends of its two pipes, `up` carrying its records
    and `down` the sample's shared knowledge, and the index of each file
    it reported walking."""

    def __init__(self, pid: int, up, down: int):
        self.pid, self.up, self.down = pid, up, down
        self.claimed: list[int] = []

    def receive(self, count: int) -> list | None:
        """The child's next `count` records, or None when its stream ends
        early or holds something else."""
        import pickle

        try:
            return [pickle.load(self.up) for _ in range(count)]
        except (EOFError, pickle.UnpicklingError):
            return None

    def send(self, blob: bytes) -> None:
        """Write `blob` to the child and close its pipe.  A file object
        writes all of `blob`, even where a signal cuts one write short.  A
        child that is gone sends nothing back in round 2, so its files
        are finished here."""
        down, self.down = self.down, -1
        try:
            with open(down, "wb") as out:
                out.write(blob)
        except OSError:
            pass


def _reap(child: _Child, kill: bool = True) -> bool:
    """Close the loading process's pipe ends of `child`, kill it unless
    told not to, and wait for it: True when it exited with status 0."""
    import signal

    child.up.close()
    if child.down >= 0:
        os.close(child.down)
    if kill:
        os.kill(child.pid, signal.SIGKILL)
    _, status = os.waitpid(child.pid, 0)
    return status == 0


def _fork_walker(files: list[Path], claims: int, run: int, finish, siblings) -> _Child | None:
    """Fork a child that walks the files it claims from the pipe `claims`,
    then writes upward the list of their indices and each one's
    `_Declared`, reads the `_Shared` knowledge, and writes upward the list
    of each one's `_Finished`.  None when no process can be started."""
    import pickle

    up_read, up_write = os.pipe()
    down_read, down_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_read, up_write, down_read, down_write):
            os.close(fd)
        return None
    if pid == 0:
        status = 1
        try:
            # Only the loading process reads, so a child whose reader
            # died stops at its next write.
            for fd in (up_read, down_write, *(fd for c in siblings for fd in (c.up.fileno(), c.down))):
                os.close(fd)
            walked = [(i, _walk_file(files[i])) for i in _claims(claims, run, len(files))]
            with open(up_write, "wb") as out:
                # Sent only once the claims are out, so no claim waits
                # for the loading process to make room in the pipe.  One
                # pickle per file, each with a fresh memo, keeps the
                # loading process's peak lower than one pickle of all.
                pickle.dump([i for i, _ in walked], out, pickle.HIGHEST_PROTOCOL)
                for _, w in walked:
                    pickle.dump(_declared(w), out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                with open(down_read, "rb") as stream:
                    shared = pickle.load(stream)
                # All of pass 2 runs before the first write, so none of
                # it waits for the loading process to make room in the pipe.
                finished = [_finish_file(w, shared, finish) for _, w in walked]
                del walked
                pickle.dump(finished, out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(up_write)
    os.close(down_read)
    return _Child(pid, open(up_read, "rb"), down_write)


def _declared(walked: _WalkedFile) -> _Declared:
    return _Declared(
        walked.types,
        walked.global_names,
        walked.warnings,
        [(w.name, w.decls) for w in walked.pous if w.kind is PouKind.FUNCTION_BLOCK and w.decls is not None],
        [w.name.casefold() for w in walked.pous if w.name],
    )


def _share(declared: list[_Declared], context: TypeContext) -> tuple[_Shared, list[AnalysisWarning]]:
    """Apply each file's knowledge to `context`, in file order: the
    sample's shared knowledge and pass 1's warnings."""
    warnings: list[AnalysisWarning] = []
    global_names: set[str] = set()
    pou_names: set[str] = set()
    for d in declared:
        warnings.extend(d.warnings)
        for name, spec in d.types:
            context.define(name, spec)
        global_names.update(d.global_names)
        for name, decls in d.fbs:
            context.register_fb(name, decls)
        pou_names.update(d.names)
    return _Shared(context, frozenset(global_names), frozenset(pou_names)), warnings


def _finish_file(walked: _WalkedFile, shared: _Shared, finish) -> _Finished:
    """Pass 2 for one file's walked POUs, each POU built mapped by `finish`."""
    context, global_names, pou_names = shared
    if walked.is_xml:
        pous, warnings = plcopen.extract_pous(walked.pous, context, global_names, pou_names)
    else:
        pous, warnings = [], []
        for w in walked.pous:
            pou, ws = st.parse_pou_unit(w, context, global_names)
            warnings.extend(ws)
            if pou is not None:
                pous.append(pou)
    return _Finished(
        walked.is_xml, [finish(p) for p in pous], [(p.name, p.source_ref.path) for p in pous], warnings
    )


def _walk_file(path: Path) -> _WalkedFile:
    """Pass 1 for one file.  A file that does not parse gives a warning."""
    label = str(path)
    text = _decode(path.read_bytes())
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


def _decode(data: bytes) -> str:
    """A source file's text: UTF-16 after its BOM, else UTF-8 with or
    without its BOM, else Latin-1.  Line ends read as "\\n", as in a file
    opened in text mode."""
    try:
        text = data.decode("utf-16" if data[:2] in _UTF16_BOMS else "utf-8-sig")
    except UnicodeDecodeError:
        text = data.decode("latin-1")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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
