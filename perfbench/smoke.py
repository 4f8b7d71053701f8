"""Smoke test of the benchmark itself.

Usage: python3 perfbench/smoke.py

Runs every workload for one round, untraced and traced, and checks that
- every metric BENCHMARK.json lists is emitted with its unit;
- the traced run writes spans whose parents and requests resolve;
- a deliberately wrong expected verdict is counted as a failure.
Exits 0 when all checks hold.  Takes about a minute on two CPUs.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = result_of(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    print(f"ok   {workload} trace={trace}: {len(wanted)} metrics with units")


def check_spans(workload: str) -> None:
    spans = json.loads((ROOT / ".bench_out" / f"spans-{workload}-seed{SEED}.json").read_text())
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans), "span ids repeat"
    requests = {s["id"] for s in spans if s["name"] == "request"}
    assert requests, "no request spans"
    for s in spans:
        assert s["parent"] is None or s["parent"] in ids, s
        assert s["request"] in requests, s
        assert s["start"] <= s["end"], s
    names = {s["name"] for s in spans}
    for layer in ("parser.", "kb.validate", "normalize", "materialize.", "datalog.", "rc.", "model.", "entry."):
        assert any(n.startswith(layer) for n in names), (workload, layer)
    print(f"ok   {workload}: {len(spans)} spans, parents resolve")


def check_wrong_verdict_fails() -> None:
    sys.path.insert(0, str(HERE))
    import catalog
    import run

    good = catalog.CATALOG
    first = good[0]
    flipped = "not-entailed" if first.expected == "entailed" else "entailed"
    catalog.CATALOG = (first._replace(expected=flipped),) + good[1:]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "queries", "--seed", str(SEED), "--seconds", "1"])
    finally:
        catalog.CATALOG = good
    result = result_of(out.getvalue())
    assert code == 0
    assert result["correct"] is False and result["failed"] == 1, result
    print("ok   a wrong expected verdict counts as one failure")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("queries", "closure", "cli"):
        check_metrics(workload, 0, spec)
        check_metrics(workload, 1, spec)
        check_spans(workload)
    check_wrong_verdict_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
