"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import pytest

import corpora
import run
import speedprobe
import tracing

sys.path.insert(0, str(corpora.ROOT / "src"))

from poumetrics import cli  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(corpora, "ST_GENERATED_BYTES", 20_000)
    monkeypatch.setattr(corpora, "ST_PROJECT_BYTES", 40_000)
    monkeypatch.setattr(corpora, "PLCOPEN_COPY_SETS", 6)


def analyze(corpus: corpora.Corpus, tmp_path) -> dict:
    corpus.write(tmp_path / "corpus")
    report = tmp_path / "report.json"
    assert cli.main(["analyze", str(tmp_path / "corpus"), "--json", str(report)]) == 0
    return json.loads(report.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_same_seed_gives_identical_corpus(workload):
    first = corpora.build(workload, 7)
    assert first.digest() == corpora.build(workload, 7).digest()
    assert first.digest() != corpora.build(workload, 8).digest()


def test_written_files_hash_like_the_corpus(tmp_path, small):
    corpus = corpora.build("st_project", 3)
    corpus.write(tmp_path)
    on_disk = {str(p.relative_to(tmp_path)): p.read_text(encoding="utf-8") for p in tmp_path.rglob("*") if p.is_file()}
    assert corpora.Corpus(on_disk, corpus.expected).digest() == corpus.digest()


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_oracle_agrees_with_the_analyzer(workload, tmp_path, small):
    corpus = corpora.build(workload, 5)
    assert len(corpus.expected) > 10
    report = analyze(corpus, tmp_path)
    assert run.Checker(corpus.expected).oracle_failures(report) == []


def test_project_oracle_checks_flow_and_declarations(small):
    expected = corpora.build("st_project", 5).expected
    project = [cells for name, cells in expected.items() if name[:2] == "Fb" and name[2:].isdigit()]
    assert project and all(set(cells) == {"m2", "m3", "m6"} for cells in project)
    assert any(cells["m3"] > 0 for cells in project)


def test_renaming_covers_type_references():
    corpus = corpora.plcopen_copies(random.Random(1), 1, "xml")
    (text,) = corpus.files.values()
    (selector,) = [n for n in corpus.expected if n.startswith("FbdSelect_")]
    suffix = selector[len("FbdSelect"):]
    assert '<derived name="Scaler%s"/>' % suffix in text
    assert 'typeName="Scaler%s"' % suffix in text
    assert 'name="Scaler"' not in text


def test_checker_counts_wrong_missing_and_extra_pous():
    checker = run.Checker({"A": {"m2": 3}, "B": {"m2": 1}, "C": {"m2": 1}})
    report = {
        "pous": [{"name": "A", "m2": 4}, {"name": "B", "m2": 1}, {"name": "D", "m2": 1}],
        "warnings": [{"code": "pou-parse-error", "pou": "B"}],
    }
    failures = checker.oracle_failures(report)
    assert len(failures) == 4  # A wrong, B skipped, C missing, D unexpected


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a
        ["c", 2.0, 3.0, 1],
        ["d", 9.0, 12.0, 0],  # runs past its parent
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    totals = tracing.layer_totals(spans + [["a", 11.0, 11.5, -1]])
    assert totals["a"] == {"self_s": 2.5, "calls": 2}


def test_classify_calls_are_attributed_to_their_ancestor():
    spans = [
        ["st.parse_pou_unit", 0.0, 1.0, -1],
        ["typesys.classify", 0.1, 0.2, 0],
        ["plcopen.extract_pous", 1.0, 2.0, -1],
        ["typesys.classify", 1.1, 1.2, 2],
    ]
    assert tracing.classify_calls_under(spans, "st.parse_pou_unit") == 1


def test_scaling_removes_probe_time_and_divides_by_probe_speed():
    probe = {"probes": 100, "probe_s": 100 * 2 * speedprobe.REFERENCE_S}  # host at half speed
    assert speedprobe.scale(1.0 + probe["probe_s"], probe) == pytest.approx(0.5)


def test_probe_samples_a_running_call():
    probe = speedprobe.SpeedProbe(0.001)
    probe.start()
    deadline = time.perf_counter() + 0.05
    while time.perf_counter() < deadline:
        pass
    sample = probe.stop()
    assert sample["probes"] >= 5 and 0 < sample["probe_s"] < 0.05


def test_traced_child_wraps_the_names_callers_use(tmp_path, small):
    corpus = corpora.build("st_generated", 2)
    corpus.write(tmp_path / "corpus")
    out = tmp_path / "child.json"
    subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), str(out), "traced", "analyze", str(tmp_path / "corpus")],
        check=True, env=dict(os.environ, PYTHONPATH=str(corpora.ROOT / "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["probe"]["probes"] > 0 and result["import_probe"]["probes"] > 0
    spans = result["spans"]
    names = {s[0] for s in spans}
    assert names >= set(tracing.SELF_TIMED) - {"report.emit_json", "report.emit_csv", "chart.render_chart"}
    parent = {i: s[3] for i, s in enumerate(spans)}
    lex_parents = {spans[parent[i]][0] for i, s in enumerate(spans) if s[0] == "st.lex"}
    assert lex_parents == {"st.split_st_units", "st.st_fragment_facts"}
    metrics = tracing.layer_metrics(spans, result["counters"])
    assert metrics["metrics.pous"] == len(corpus.expected)
    assert metrics["load.files"] == len(corpus.files)
    assert metrics["st.type_parses_per_var"] == 2.0
    assert set(metrics) | {"trace.overhead_s"} == {name for name, _, _ in tracing.PER_LAYER}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((corpora.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(corpora.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
