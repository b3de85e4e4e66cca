"""
Drawing the stacked complexity chart
====================================

Analyzes the same mini project as the ranking demo and renders the
SVG chart: one horizontal bar per POU, six stacked segments per bar,
bars sorted so the least complex POU comes first. The file lands in
the current working directory. The bar order and lengths are listed
from the JSON report, whose `pous` entries come in the same order.
"""

import json
import tempfile
from pathlib import Path

from poumetrics import analyze_paths, emit_json, render_chart

SOURCES = {
    "conveyor.st": """\
PROGRAM Conveyor
  VAR
    speed : INT;
    target : INT;
    jam : BOOL;
    state : INT;
  END_VAR

  CASE state OF
    0: speed := 0;
    1, 2:
      IF speed < target THEN
        speed := speed + 5;
      END_IF;
    3: speed := target;
  ELSE
    state := 0;
  END_CASE;
  IF jam THEN
    speed := 0;
    state := 0;
  END_IF;
END_PROGRAM
""",
    "blinker.st": """\
FUNCTION_BLOCK Blinker
  VAR_INPUT
    enable : BOOL;
  END_VAR
  VAR_OUTPUT
    lamp : BOOL;
  END_VAR
  VAR
    tick : INT;
  END_VAR

  IF enable THEN
    tick := tick + 1;
  END_IF;
  lamp := (tick MOD 2) = 0;
END_FUNCTION_BLOCK
""",
    "clamp.st": """\
FUNCTION Clamp : INT
  VAR_INPUT
    x : INT;
    lo : INT;
    hi : INT;
  END_VAR

  Clamp := x;
  IF x < lo THEN
    Clamp := lo;
  END_IF;
  IF x > hi THEN
    Clamp := hi;
  END_IF;
END_FUNCTION
""",
}

with tempfile.TemporaryDirectory() as workdir:
    root = Path(workdir)
    for name, text in SOURCES.items():
        (root / name).write_text(text)
    run = analyze_paths([str(root)])

svg = render_chart(run)
out = Path("complexity_chart.svg")
out.write_text(svg)

print("wrote", out.resolve())
print()
print("bar order (least complex first):")
for pou in json.loads(emit_json(run))["pous"]:
    print("  %-10s overall %s%%" % (pou["name"], pou["oc_rel"]))
