"""Canonical, JSON-ready form of a loaded sample's IR.

`canonical_ir` reduces every POU to plain lists and strings with paths
relative to the sample's root, so the IR of two runs (or two versions
of the frontends) compares with `==`.  Run this file to rewrite
`tests/corpus/expected_ir.json` from the current frontends:

    PYTHONPATH=src python tests/golden_ir.py

Only do that when a change to the IR is intended; the golden file
exists to show that a refactor left the IR unchanged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = CORPUS / "expected_ir.json"


def _ref(ref, root) -> list:
    path = os.path.relpath(ref.path, root) if ref.path else ""
    return [path, ref.line, ref.column, ref.element]


def canonical_pou(pou, root) -> dict:
    body = pou.body
    return {
        "kind": pou.kind.value,
        "language": pou.language.value,
        "source": _ref(pou.source_ref, root),
        "variables": [
            [v.name, v.section.value, v.type_class.value, v.type_name, len(v.sub_variables)] for v in pou.variables
        ],
        "tokens": [[t.lexeme, t.cls.value, t.identity_key] for t in body.tokens],
        "decisions": [[d.kind, *_ref(d.ref, root)] for d in body.decision_spans],
        "calls": [[c.callee, c.args_passed, c.returns_used] for c in body.calls],
        "external_reads": sorted(body.external_reads),
        "external_writes": sorted(body.external_writes),
    }


def canonical_ir(pous, root) -> dict:
    """POU name -> canonical record, for POUs loaded from under `root`."""
    return {pou.name: canonical_pou(pou, root) for pou in sorted(pous, key=lambda p: p.name)}


def dump(ir: dict) -> str:
    """One line per POU field, so a diff of the golden file names the
    POU and the field that changed."""
    lines = ["{"]
    for i, (name, record) in enumerate(ir.items()):
        lines.append("  %s: {" % json.dumps(name))
        fields = ["    %s: %s" % (json.dumps(k), json.dumps(v)) for k, v in record.items()]
        lines.append(",\n".join(fields))
        lines.append("  }" + ("," if i < len(ir) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    from poumetrics import load_sample

    GOLDEN.write_text(dump(canonical_ir(load_sample([str(CORPUS)]).pous, CORPUS)), encoding="utf-8")
