"""perfbench compares two versions of poumetrics on corpora it builds
from `tests/stgen.py` and `tests/corpus/*.xml`, so an edit to either
changes the benchmark's workload as well as the tests.  This pins each
workload's seed-1 corpus by its digest.  It reads `perfbench/corpora.py`
without importing or changing anything under `perfbench/`."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

CORPORA = Path(__file__).resolve().parents[1] / "perfbench" / "corpora.py"

SEED_1_DIGESTS = {
    "st_generated": "d48198efa923b6466d425ba9242619f6115c86d85bb949cceeecb33e3125df6c",
    "st_project": "6c185065ba17848682b09cb296ccb386d667404679e7bd90d4371a42359e4d58",
    "plcopen_projects": "2aa26e06d72f8fdfdf71c52573c15caa6cedbc37004a8e59b9b10b17da3257a7",
}


@pytest.fixture(scope="module")
def corpora() -> types.ModuleType:
    module = types.ModuleType("perfbench_corpora")
    module.__file__ = str(CORPORA)  # corpora.py finds the tests from its own path
    # dataclasses look the module of a class up by name while defining it
    sys.modules[module.__name__] = module
    try:
        exec(compile(CORPORA.read_text(), str(CORPORA), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_workload_is_pinned(corpora):
    assert sorted(corpora.WORKLOADS) == sorted(SEED_1_DIGESTS)


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_benchmark_input_is_unchanged(corpora, workload):
    digest = corpora.build(workload, 1).digest()
    assert digest == SEED_1_DIGESTS[workload], (
        "the benchmark's input changed: the seed-1 %s corpus, built from tests/stgen.py and "
        "tests/corpus/*.xml, has digest %s. perfbench compares the parent and the change on this "
        "corpus, so change its inputs only on purpose, and then in a change of its own." % (workload, digest)
    )
