"""The typel benchmark: verdict latency per entry point, checked verdicts.

Usage:
    python3 perfbench/run.py --workload {queries,closure,cli} --seed N \\
        --seconds S --trace {0,1}

Every workload is a closed loop with one client, one process and no
threads.  A run executes whole rounds until --seconds have passed; a round
is a fixed multiset of requests in a seeded order, so every seed asks the
same mix.  Each verdict is compared with an expected verdict that does not
come from typel: the hand-written catalog for the fixtures, or the
construction of the generated knowledge bases.

--trace 0 measures the end-to-end metrics with typel unmodified.  --trace 1
first runs half the time untraced, then replays the same requests with
spans recorded around every layer boundary, and reports the per-layer
metrics, the floor probes and the tracing overhead.  The metric names and
units are those of BENCHMARK.json at the root of the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is the run
record (Python version, nproc, platform, seed, samples per entry point),
also written with the spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import count
from pathlib import Path
from typing import Callable, NamedTuple

import catalog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".bench_out"
WORKLOADS = ("queries", "closure", "cli")
SETUP_REPEATS = 5
FLOOR_REPEATS = 5
CLI_TIMEOUT_S = 120
POSITIVE = frozenset({"entailed", "consistent", "in-closure", "none-found"})


class Request(NamedTuple):
    op: str
    family: str
    kb: object  # a parsed KB (queries), KB text (closure) or fixture path (cli)
    arg: object
    expected: object


class Outcome(NamedTuple):
    samples: list[tuple[str, float]]
    failures: list[dict]
    elapsed: float  # measured time, reference tasks left out
    rounds: list[list[Request]]
    refs: list[float]  # reference-task times in ms, one after each request


# --- workloads ---


def _fixture_kbs(names) -> dict:
    import typel

    return {
        name: typel.parse_kb((FIXTURES / f"{name}.kbt").read_text(), filename=f"{name}.kbt")
        for name in sorted(set(names))
    }


def setup(workload: str, seed: int):
    """Everything a workload prepares before its first request."""
    if workload == "queries":
        return _fixture_kbs(e.fixture for e in catalog.CATALOG)
    if workload == "closure":
        import families

        families.closure_round(random.Random(seed), 0)
        return None
    import typel.cli  # noqa: F401  the CLI processes import it too

    paths = {e.fixture: FIXTURES / f"{e.fixture}.kbt" for e in catalog.CLI_CATALOG}
    missing = [str(p) for p in paths.values() if not p.is_file()]
    if missing:
        raise FileNotFoundError(f"missing fixtures: {missing}")
    return paths


def make_round(workload: str, state, rng: random.Random, round_no: int) -> list[Request]:
    if workload == "closure":
        import families

        return [Request(g.op, g.family, g.text, g.arg, g.expected)
                for g in families.closure_round(rng, round_no)]
    entries = catalog.CATALOG if workload == "queries" else catalog.CLI_CATALOG
    out = [Request(e.op, e.fixture, state[e.fixture], e.arg, e.expected) for e in entries]
    rng.shuffle(out)
    return out


# --- executing one request ---


def _verdict(flag: bool, yes: str, no: str) -> str:
    return yes if flag else no


def call_library(req: Request, entry=lambda op: nullcontext()):
    """Parse what the request carries as text, then call its entry point.

    Module attributes are looked up at call time, so a traced run sees its
    wrappers and an untraced run sees typel unmodified.
    """
    import typel

    parser, mat, rc = typel.parser, typel.materialize, typel.rc
    kb = parser.parse_kb(req.kb) if isinstance(req.kb, str) else req.kb
    if req.op == "rc_ranks":
        query = tuple(parser.parse_concept(c, kb) for c in req.arg)
    elif req.arg is not None:
        query = parser.parse_query(req.arg, kb)
    with entry(req.op):
        if req.op == "check":
            return _verdict(mat.check_instance(kb, query).entailed, "entailed", "not-entailed")
        if req.op == "subsumes":
            return _verdict(mat.check_subsumption(kb, query).entailed, "entailed", "not-entailed")
        if req.op == "consistent":
            return _verdict(mat.check_consistency(kb), "consistent", "inconsistent")
        if req.op == "refute":
            found = typel.model.refute(kb, query) is not None
            return _verdict(found, "counter-model", "none-found")
        if req.op == "rc_ranks":
            return tuple(sorted(rc.compute_ranks(kb, query).rows()))
        if req.op == "rc_check":
            return _verdict(rc.rc_entails(kb, query).in_closure, "in-closure", "not-in-closure")
        if req.op == "rc_consistent":
            return _verdict(rc.rc_consistent(kb), "consistent", "inconsistent")
    raise ValueError(f"unknown op {req.op!r}")


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def call_cli(req: Request, spans_path: Path | None = None):
    """One CLI process; checks the exit code and reads the records verdict."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "typel.cli"]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(spans_path)]
    cmd += [catalog.CLI_COMMAND[req.op], str(req.kb)]
    if req.op == "rc_ranks":
        for concept in req.arg:
            cmd += ["--concept", concept]
    elif req.arg is not None:
        cmd.append(req.arg)
    cmd += ["--format", "records"]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, env=cli_env(), cwd=ROOT
    )
    want = 0 if req.op == "rc_ranks" or req.expected in POSITIVE else 1
    if proc.returncode != want:
        raise RuntimeError(f"exit code {proc.returncode}, expected {want}: {proc.stderr.strip()}")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if req.op == "rc_ranks":
        return tuple(sorted((r["query"], r["verdict"]) for r in records))
    if len(records) != 1:
        raise RuntimeError(f"expected one verdict record, got {len(records)}")
    return records[0]["verdict"]


def executor(workload: str, tracer=None) -> Callable[[Request], object]:
    if tracer is None:
        return call_cli if workload == "cli" else call_library
    if workload != "cli":
        return lambda req: call_library(req, lambda op: tracer.span(f"entry.{op}"))
    spans_path = OUT / f"cli-spans-{os.getpid()}.json"

    def traced_cli(req: Request):
        try:
            return call_cli(req, spans_path)
        finally:
            if spans_path.exists():
                child = json.loads(spans_path.read_text())
                spans_path.unlink()
                request_span = tracer.current()
                tracer.adopt(child["spans"], request_span[0], request_span[5])
                request_span[6]["child_probes"] = child["probes"]
                request_span[6]["child_rows"] = child["rows"]

    return traced_cli


# --- the measurement loop ---


def reference_task() -> int:
    """Fixed pure-Python hash-join work, independent of typel.

    The speed of a shared machine drifts by a fifth and more over tens of
    seconds.  Timing this task after every request and dividing each
    latency by the reference times around it gives figures that follow
    typel, not the machine.
    """
    rows = [(i % 211, i % 97, i) for i in range(6000)]
    index: dict = {}
    for r in rows:
        index.setdefault((r[0], r[1]), []).append(r)
    out = set()
    for r in rows:
        for m in index.get((r[1] % 211, r[0] % 97), ()):
            out.add((r[2], m[2]))
    return len(out)


def timed_reference() -> float:
    """Milliseconds for one reference task, with the collector off so that
    the size of typel's heap does not leak into the ruler."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_task()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


def run_rounds(rounds, execute, seconds: float | None = None, tracer=None) -> Outcome:
    """Execute whole rounds; stop after the round that passes seconds."""
    samples: list[tuple[str, float]] = []
    refs: list[float] = []
    failures: list[dict] = []
    done: list[list[Request]] = []
    start = time.perf_counter()
    for reqs in rounds:
        for req in reqs:
            ctx = tracer.span("request") if tracer is not None else nullcontext({})
            with ctx as attrs:
                if tracer is not None:
                    attrs.update(op=req.op, family=req.family)
                    probes, rows = tracer.probes, tracer.rows
                t0 = time.perf_counter()
                try:
                    verdict = execute(req)
                    error = None
                except Exception:  # a failed request is counted, the run goes on
                    verdict, error = None, traceback.format_exc(limit=3)
                ms = (time.perf_counter() - t0) * 1000.0
                if tracer is not None:
                    attrs["probes"] = tracer.probes - probes + attrs.get("child_probes", 0)
                    attrs["rows"] = tracer.rows - rows + attrs.get("child_rows", 0)
            samples.append((req.op, ms))
            refs.append(timed_reference())
            if error is not None or verdict != req.expected:
                failures.append({
                    "op": req.op, "family": req.family, "arg": repr(req.arg),
                    "expected": repr(req.expected), "got": repr(verdict), "error": error,
                })
        done.append(reqs)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start - sum(refs) / 1000.0
    return Outcome(samples, failures, elapsed, done, refs)


def live_rounds(workload: str, state, seed: int):
    rng = random.Random(seed)
    return (make_round(workload, state, rng, k) for k in count())


# --- probes in fresh processes ---


def _wall(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=CLI_TIMEOUT_S, env=cli_env(), cwd=ROOT)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing typel and setting up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    return statistics.median(_wall(cmd) for _ in range(SETUP_REPEATS))


def floor_probes() -> dict[str, float]:
    """Costs every call pays before any saturation work."""
    from typel.datalog import DatalogProgram, evaluate
    from typel.materialize import BASE_RULES, subsumption_rules
    from typel.rc import H_RULES, RC_BASE_RULES, RC_RULES

    out: dict[str, float] = {}
    rule_sets = {
        "base": BASE_RULES,
        "subsumption": subsumption_rules(True),
        "rc": RC_BASE_RULES + H_RULES + RC_RULES,
    }
    for name, rules in rule_sets.items():
        program = DatalogProgram(facts=(), rules=rules)
        times = []
        for _ in range(FLOOR_REPEATS):
            t0 = time.perf_counter()
            evaluate(program)
            times.append((time.perf_counter() - t0) * 1000.0)
        out[f"datalog.fixed_ms.{name}"] = statistics.median(times)
    # process start-up is noisy on a shared machine; the fastest of several
    # starts is the floor, and the differences of floors stay positive
    py = sys.executable
    interpreter = min(_wall([py, "-c", "pass"]) for _ in range(FLOOR_REPEATS))
    imported = min(_wall([py, "-c", "import typel.cli"]) for _ in range(FLOOR_REPEATS))
    check = [py, "-m", "typel.cli", "check", str(FIXTURES / "example1.kbt"), "MathHater(paul)"]
    whole = min(_wall(check) for _ in range(FLOOR_REPEATS))
    out["cli.interpreter_ms"] = interpreter * 1000.0
    out["cli.import_ms"] = (imported - interpreter) * 1000.0
    out["cli.work_ms"] = (whole - imported) * 1000.0
    return out


# --- reporting ---


def op_stats(samples: list[tuple[str, float]]) -> dict[str, dict]:
    per: dict[str, list[float]] = {}
    for op, ms in samples:
        per.setdefault(op, []).append(ms)
    out = {}
    for op, values in sorted(per.items()):
        entry = {"n": len(values), "p50_ms": round(statistics.median(values), 4)}
        if len(values) >= 100:
            entry["p90_ms"] = round(statistics.quantiles(values, n=10)[8], 4)
        out[op] = entry
    return out


def peak_rss_mb(workload: str) -> float:
    # the cli workload's work happens in child processes; ru_maxrss is in KiB
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def spec_metrics(group: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[group]


def run_untraced(workload: str, seed: int, seconds: float, state):
    setup_s = setup_seconds(workload, seed)
    outcome = run_rounds(live_rounds(workload, state, seed), executor(workload), seconds)
    latencies = [ms for _, ms in outcome.samples]
    # each request against the reference times around it, which follows
    # the machine's drift within the run too
    refs = outcome.refs
    local = [statistics.median(refs[max(0, i - 2):i + 3]) for i in range(len(refs))]
    ratios = [ms / ref for ms, ref in zip(latencies, local)]
    values = {
        "setup_s": setup_s,
        "p50_ref": statistics.median(ratios),
        "mean_ref": statistics.fmean(ratios),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    raw = {
        "ref_ms": statistics.median(refs),
        "p50_ms": statistics.median(latencies),
        "mean_ms": statistics.fmean(latencies),
        "queries_per_s": len(latencies) / outcome.elapsed,
    }
    return values, outcome, {"wall": raw}


def run_traced(workload: str, seed: int, seconds: float, state):
    import tracing

    values = floor_probes()
    plain = run_rounds(live_rounds(workload, state, seed), executor(workload), seconds / 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_rounds(plain.rounds, executor(workload, tracer), tracer=tracer)
    values.update(tracing.layer_metrics(tracer))
    n = len(traced.samples)
    values["trace.overhead_ms"] = (traced.elapsed - plain.elapsed) * 1000.0 / n
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    extra = {
        "untraced_ops": op_stats(plain.samples),
        "readback_ms_by_op": {
            op: round(statistics.fmean(v), 4) for op, v in sorted(tracing.readbacks(tracer).items())
        },
        "stage_share_by_family": tracing.stage_share_by_family(tracer),
    }
    outcome = Outcome(plain.samples + traced.samples, plain.failures + traced.failures,
                      plain.elapsed + traced.elapsed, plain.rounds + traced.rounds,
                      plain.refs + traced.refs)
    return values, outcome, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="typel benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "typel" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no typel sources and fixtures under {ROOT}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    # one core for the loop, its reference task and its CLI children, so
    # the reference times the core the work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    state = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    OUT.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_untraced
    values, outcome, extra = run(args.workload, args.seed, args.seconds, state)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_metrics("per_layer" if args.trace else "end_to_end")
    }
    ops = op_stats(outcome.samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "rounds": len(outcome.rounds),
        "elapsed_s": round(outcome.elapsed, 4),
        "samples": {op: s["n"] for op, s in ops.items()},
        "ops": ops,
        **extra,
        "failures": outcome.failures[:10],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for op, s in record["ops"].items():
        print(f"{op:14s} n={s['n']:4d} p50={s['p50_ms']:10.3f} ms")
    for key, m in metrics.items():
        print(f"{key:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    result = {
        "correct": not outcome.failures,
        "attempted": len(outcome.samples),
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
