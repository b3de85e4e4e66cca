"""Seeded corpus generators and their independent oracles.

Each workload generator returns a `Corpus`: the files to write (relative
path -> text) and, for every POU it wrote, the raw metric values the
report must show.  None of the expected values come from poumetrics:

* stgen programs carry the cyclomatic number of the control-flow graph
  `tests/stgen.py` builds beside the source text;
* PLCopen copies carry the hand-tallied entry of the fixture they were
  copied from (`tests/corpus/expected_metrics.json`);
* project function blocks carry cyclomatic from stgen, plus `fifo` and
  `data_structure` worked out here from what the generator declared,
  using the README's price table and fan-in/fan-out rules.

The same seed gives byte-identical files.  Sizes are fixed by byte or
POU budgets rather than by counts of random-sized programs, so the work
per run hardly depends on the seed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "corpus"

WORKLOADS = ("st_generated", "st_project", "plcopen_projects")

# Work per workload.  Chosen so one analyze takes a few seconds on a
# 2-core machine: long enough that interpreter start does not dominate,
# short enough for several samples per run.
ST_GENERATED_BYTES = 1_500_000
ST_PROJECT_BYTES = 1_000_000
PLCOPEN_COPY_SETS = 500

# Report columns m1..m6 in metric order (README "The six metrics").
COLUMNS = {
    "program_length": "m1",
    "cyclomatic": "m2",
    "fifo": "m3",
    "vocabulary": "m4",
    "difficulty": "m5",
    "data_structure": "m6",
}

# Default declaration prices (README "The six metrics").
INTERFACE_SIMPLE, INTERFACE_COMPLEX = 3, 4
LOCAL_SIMPLE, LOCAL_COMPLEX = 1, 2
SUB_VARIABLE = 1
TON_MEMBERS = ("IN", "PT", "Q", "ET")
TON_OUTPUTS = ("Q", "ET")


@dataclass
class Corpus:
    files: dict[str, str] = field(default_factory=dict)
    # POU name -> {report column: expected cell}
    expected: dict[str, dict[str, object]] = field(default_factory=dict)

    def add(self, other: "Corpus") -> None:
        self.files.update(other.files)
        self.expected.update(other.expected)

    def write(self, directory: Path) -> None:
        for rel, text in self.files.items():
            path = directory / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))

    def digest(self) -> str:
        h = hashlib.sha256()
        for rel in sorted(self.files):
            h.update(rel.encode() + b"\0" + self.files[rel].encode("utf-8") + b"\0")
        h.update(json.dumps(self.expected, sort_keys=True).encode())
        return h.hexdigest()

    @property
    def size_bytes(self) -> int:
        return sum(len(t.encode("utf-8")) for t in self.files.values())


def fmt4(value: Fraction) -> str:
    """Four fractional digits, ties to even, as the report renders them."""
    q = round(Fraction(value) * 10000)
    return "%d.%04d" % (q // 10000, q % 10000)


def _stgen():
    """tests/stgen.py, loaded by path (tests/ is not a package)."""
    if "stgen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("stgen", ROOT / "tests" / "stgen.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["stgen"] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules["stgen"]


def build(workload: str, seed: int) -> Corpus:
    return {"st_generated": st_generated, "st_project": st_project, "plcopen_projects": plcopen_projects}[workload](seed)


# ------------------------- st_generated -------------------------


def _program_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def stgen_programs(seed: int, budget: int, prefix: str, comments: bool) -> Corpus:
    """Single-POU stgen files until `budget` bytes are written."""
    gen = _stgen()
    corpus = Corpus()
    total = index = 0
    while total < budget:
        pseed = _program_seed(seed, index)
        prog = gen.generate_program(pseed)
        text = gen.sprinkle_comments(prog.source, pseed) if comments else prog.source
        corpus.files["%s/d%02d/%05d.st" % (prefix, index % 20, index)] = text
        corpus.expected[prog.name] = {"m2": prog.cyclomatic}
        total += len(text.encode("utf-8"))
        index += 1
    return corpus


def st_generated(seed: int) -> Corpus:
    corpus = stgen_programs(seed, ST_GENERATED_BYTES, "gen", comments=True)
    # A handful of PLCopen POUs, so every layer the traced run reports
    # does some work on every workload.
    corpus.add(plcopen_copies(random.Random(seed), 2, "xml"))
    return corpus


# ------------------------- plcopen_projects -------------------------

_POU_RE = re.compile(r"<pou\b.*?</pou>", re.S)
_POU_NAME_RE = re.compile(r'<pou name="([^"]+)"')
_GLOBALS_RE = re.compile(r"<globalVars>(.*?)</globalVars>", re.S)

_PROJECT_HEAD = """<?xml version="1.0" encoding="utf-8"?>
<project xmlns="http://www.plcopen.org/xml/tc6_0201">
  <fileHeader companyName="bench" productName="bench" productVersion="1.0" creationDateTime="2024-01-01T00:00:00"/>
  <contentHeader name="%s">
    <coordinateInfo>
      <fbd><scaling x="1" y="1"/></fbd>
      <ld><scaling x="1" y="1"/></ld>
      <sfc><scaling x="1" y="1"/></sfc>
    </coordinateInfo>
  </contentHeader>
  <types>
    <dataTypes/>
    <pous>
"""
_PROJECT_TAIL = """    </pous>
  </types>
  <instances>
    <configurations>
      <configuration name="Config0">
        <resource name="Res0">
          <globalVars>%s</globalVars>
        </resource>
      </configuration>
    </configurations>
  </instances>
</project>
"""


def _fixtures() -> tuple[dict[str, str], str, dict[str, dict]]:
    """(POU name -> <pou> element text, global variable elements, tally)."""
    pous: dict[str, str] = {}
    globals_xml = []
    for path in sorted(FIXTURES.glob("*.xml")):
        text = path.read_text(encoding="utf-8")
        for block in _POU_RE.findall(text):
            pous[_POU_NAME_RE.search(block).group(1)] = block
        globals_xml.extend(g for g in _GLOBALS_RE.findall(text))
    tally = json.loads((FIXTURES / "expected_metrics.json").read_text(encoding="utf-8"))["pous"]
    return pous, "".join(globals_xml), tally


def _expected_from_tally(entry: dict) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, column in COLUMNS.items():
        if key == "difficulty":
            out[column] = fmt4(Fraction(entry[key]))
        else:
            out[column] = entry[key]
    return out


def _rename(block: str, names: list[str], suffix: str) -> str:
    """Rename every fixture POU and every reference to one: the POU's own
    name, derived-type references and block typeNames."""
    pattern = re.compile(r'\b(name|typeName)="(%s)"' % "|".join(map(re.escape, names)))
    return pattern.sub(lambda m: '%s="%s%s"' % (m.group(1), m.group(2), suffix), block)


def plcopen_copies(rng: random.Random, copy_sets: int, prefix: str) -> Corpus:
    """Project files holding `copy_sets` renamed copies of every fixture POU."""
    pous, globals_xml, tally = _fixtures()
    names = sorted(pous)
    ids = rng.sample(range(100_000), copy_sets)
    corpus = Corpus()
    file_index = 0
    start = 0
    while start < copy_sets:
        take = rng.randint(3, 7)
        blocks = []
        for set_id in ids[start : start + take]:
            suffix = "_%05d" % set_id
            for name in names:
                blocks.append(_rename(pous[name], names, suffix))
                corpus.expected[name + suffix] = _expected_from_tally(tally[name])
        rng.shuffle(blocks)
        label = "%s_%03d" % (prefix, file_index)
        body = "".join("      %s\n" % b for b in blocks)
        corpus.files["%s/%s.xml" % (prefix, label)] = (
            _PROJECT_HEAD % label + body + _PROJECT_TAIL % globals_xml
        )
        start += take
        file_index += 1
    return corpus


def plcopen_projects(seed: int) -> Corpus:
    corpus = plcopen_copies(random.Random(seed), PLCOPEN_COPY_SETS, "projects")
    # A few ST files, so the ST layers the traced run reports do some work.
    corpus.add(stgen_programs(seed, 8_000, "st", comments=False))
    return corpus


# ------------------------- st_project -------------------------

_SIMPLE_TYPES = ("BOOL", "INT", "REAL", "DINT", "TIME")
_STGEN_VAR_RE = re.compile(r"^    (v\d+) : INT;$", re.M)


def _stgen_body(prog) -> tuple[list[str], list[str]]:
    """(declared stgen locals, body lines) of a generated PROGRAM."""
    lines = prog.source.splitlines()
    names = _STGEN_VAR_RE.findall(prog.source)
    start = lines.index("  END_VAR") + 1 if names else 1
    return names, lines[start : lines.index("END_PROGRAM")]


# Array element counts.  Each is also the size of one TYPE alias.
_ARRAY_SIZES = (16, 24, 32, 48, 64, 96, 128, 192, 256)


class _Deck:
    """Draws from shuffled copies of `values`, so many draws add up to
    nearly the same total whatever the seed."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.values)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class _ProjectFb:
    """One FUNCTION_BLOCK plus the fifo/data-structure it must score."""

    def __init__(self, rng, name, structs, decks, globals_, prog):
        self.decls: dict[str, list[str]] = {}
        self.stmts: list[str] = []
        self.ds = 0
        fan_in = fan_out = 0

        inputs = []
        for k in range(rng.randint(1, 4)):
            inputs.append("i_%d" % k)
            self.declare("VAR_INPUT", "i_%d : %s;" % (k, rng.choice(_SIMPLE_TYPES)), INTERFACE_SIMPLE)
        for k in range(rng.randint(0, 2)):
            sname, sfields = rng.choice(structs)
            self.declare("VAR_INPUT", "s_%d : %s;" % (k, sname), INTERFACE_COMPLEX + SUB_VARIABLE * len(sfields))
            self.stmts.append("tmp := s_%d.%s;" % (k, rng.choice(sfields)[0]))
            fan_in += 1
        if rng.random() < 0.2:
            size = decks["size"].draw()
            self.declare("VAR_INPUT", "a_in : Buf%d;" % size, INTERFACE_COMPLEX + SUB_VARIABLE * size)
            self.stmts.append("tmp := a_in[0];")
            fan_in += 1
        fan_in += len(inputs)

        outputs = ["o_%d" % k for k in range(rng.randint(1, 3))]
        for o in outputs:
            self.declare("VAR_OUTPUT", "%s : %s;" % (o, rng.choice(_SIMPLE_TYPES)), INTERFACE_SIMPLE)
        fan_out += len(outputs)
        if rng.random() < 0.3:
            self.declare("VAR_IN_OUT", "io_0 : INT;", INTERFACE_SIMPLE)
            self.stmts.append("io_0 := io_0 + 1;")
            fan_in += 1
            fan_out += 1

        stgen_names, body = _stgen_body(prog)
        for v in stgen_names:
            self.declare("VAR", "%s : INT;" % v, LOCAL_SIMPLE)
        self.declare("VAR", "tmp : REAL;", LOCAL_SIMPLE)
        for k in range(decks["arrays"].draw()):
            size = decks["size"].draw()
            shape = rng.random()
            if shape < 0.4:
                spec = "ARRAY[1..%d] OF INT" % size
            elif shape < 0.7:
                rows = rng.choice((2, 4, 8))
                spec = "ARRAY[1..%d, 0..%d] OF INT" % (rows, size // rows - 1)
            else:
                spec = "Buf%d" % size
            self.declare("VAR", "buf_%d : %s;" % (k, spec), LOCAL_COMPLEX + SUB_VARIABLE * size)
            self.stmts.append("buf_%d[1] := %d;" % (k, rng.randint(0, 99)))

        # TON instances: each call passes IN and PT; every distinct output
        # member read back is one used return.
        for k in range(rng.randint(0, 2)):
            self.declare("VAR", "t_%d : TON;" % k, LOCAL_COMPLEX + SUB_VARIABLE * len(TON_MEMBERS))
            self.stmts.append("t_%d(IN := %s, PT := T#%dms);" % (k, rng.choice(inputs), rng.randint(10, 5000)))
            fan_out += 2
            for member in rng.sample(TON_OUTPUTS, rng.randint(0, 2)):
                self.stmts.append("%s := t_%d.%s;" % (rng.choice(outputs), k, member))
                fan_in += 1
        if rng.random() < 0.5:
            self.stmts.append("%s := MAX(%s, %d);" % (rng.choice(outputs), rng.choice(inputs), rng.randint(0, 9)))
            fan_in += 1
            fan_out += 2

        # Globals accessed through VAR_EXTERNAL: each distinct name read
        # adds to fan-in, each distinct name written to fan-out.
        for gname, gtype in rng.sample(globals_, rng.randint(0, 3)):
            self.declare("VAR_EXTERNAL", "%s : %s;" % (gname, gtype), 0)
            role = rng.choice(("read", "write", "both"))
            if role == "read":
                self.stmts.append("%s := %s;" % (rng.choice(outputs), gname))
                fan_in += 1
            elif role == "write":
                self.stmts.append("%s := %s;" % (gname, rng.choice(inputs)))
                fan_out += 1
            else:
                self.stmts.append("%s := %s + 1;" % (gname, gname))
                fan_in += 1
                fan_out += 1

        sections = []
        for section, lines in self.decls.items():
            sections.append("  %s\n%s  END_VAR\n" % (section, "".join("    %s\n" % line for line in lines)))
        statements = "".join("  %s\n" % s for s in self.stmts)
        self.text = "FUNCTION_BLOCK %s\n%s%s%s\nEND_FUNCTION_BLOCK\n" % (
            name, "".join(sections), statements, "\n".join(body)
        )
        self.expected = {"m2": prog.cyclomatic, "m3": fan_in * fan_out, "m6": self.ds}

    def declare(self, section: str, line: str, price: int) -> None:
        self.decls.setdefault(section, []).append(line)
        self.ds += price


def st_project(seed: int) -> Corpus:
    rng = random.Random(seed)
    gen = _stgen()
    corpus = Corpus()

    structs = []
    for k in range(12):
        fields = []
        for f in range(2 + k % 7):
            ftype = "ARRAY[0..3] OF INT" if rng.random() < 0.15 else rng.choice(_SIMPLE_TYPES)
            fields.append(("f%d" % f, ftype))
        structs.append(("Rec%d" % k, fields))
    decks = {"size": _Deck(rng, _ARRAY_SIZES), "arrays": _Deck(rng, (1, 2, 3))}
    types = ["TYPE\n"]
    for sname, sfields in structs:
        members = "".join("    %s : %s;\n" % f for f in sfields)
        types.append("  %s : STRUCT\n%s  END_STRUCT;\n" % (sname, members))
    types.extend("  Buf%d : ARRAY[0..%d] OF INT;\n" % (size, size - 1) for size in _ARRAY_SIZES)
    types.append("END_TYPE\n")
    corpus.files["project/types.typ"] = "".join(types)

    globals_ = [("g_%d" % k, rng.choice(_SIMPLE_TYPES)) for k in range(40)]
    corpus.files["project/globals.gvl"] = "VAR_GLOBAL\n%sEND_VAR\n" % "".join(
        "  %s : %s;\n" % g for g in globals_
    )

    total = sum(len(t) for t in corpus.files.values())
    fbs: list[str] = []
    index = 0
    while total < ST_PROJECT_BYTES:
        prog = gen.generate_program(_program_seed(seed, index))
        fb = _ProjectFb(rng, "Fb%d" % index, structs, decks, globals_, prog)
        fbs.append(fb.text)
        corpus.expected["Fb%d" % index] = fb.expected
        total += len(fb.text)
        index += 1

    file_index = start = 0
    while start < len(fbs):
        take = rng.randint(4, 8)
        corpus.files["project/unit_%03d.st" % file_index] = "\n".join(fbs[start : start + take])
        start += take
        file_index += 1

    corpus.add(plcopen_copies(rng, 2, "xml"))
    return corpus
