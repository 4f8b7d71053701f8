"""Spans around the calls into each typel layer, recorded from outside.

Tracing rebinds the module-level names that each calling module looks up
(typel.materialize.evaluate, typel.rc.check_consistency, ...) to wrappers
that record a span, and counts FactStore.match probes by wrapping the
method on the class.  Nothing in typel is edited; uninstalling restores
every original binding, and untraced runs never install anything.

A span is (id, name, start, end, parent, request, attrs).  Spans stay in
memory and are written out when the run ends.  Attributes that cost time
to compute (fact counts, strata) are computed after the span has closed,
inside a "trace.cost" span that readback subtraction leaves out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import typel.cli
import typel.datalog
import typel.materialize
import typel.model
import typel.parser
import typel.rc

# the package re-exports the normalize function under the module's name
NORMALIZE_MODULE = importlib.import_module("typel.normalize")

# library entry point per benchmark op, as typel.cli binds them
ENTRY_FUNCTIONS = {
    "check": "check_instance",
    "consistent": "check_consistency",
    "subsumes": "check_subsumption",
    "refute": "refute",
    "rc_ranks": "compute_ranks",
    "rc_check": "rc_entails",
    "rc_consistent": "rc_consistent",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self.probes = 0
        self.rows = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            # a top-level span is a request; everything under it shares its id
            self.request = sid
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.request, {}])
        self._stack.append(sid)
        return sid

    def current(self) -> list:
        """The innermost open span."""
        return self.spans[self._stack[-1]]

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield self.spans[sid][6]
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, attrs=None):
        """fn inside a span; attrs(args, result) runs after the span closed."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if attrs is not None:
                with self.span("trace.cost"):
                    self.spans[sid][6].update(attrs(args, result))
            return result

        return traced

    def records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "request", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]

    def adopt(self, records: list[dict], parent: int, request: int) -> None:
        """Append spans recorded by a child process under span parent."""
        base = len(self.spans)
        for r in records:
            p = parent if r["parent"] is None else r["parent"] + base
            self.spans.append([r["id"] + base, r["name"], r["start"], r["end"], p, request, r["attrs"]])

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.records()))


def _evaluate_attrs(args, store) -> dict:
    program = args[0]
    strata, _ = typel.datalog.stratify(program.rules)
    return {
        "facts_in": len(program.facts),
        "facts_out": len(store),
        "rules": len(program.rules),
        "strata": len(strata),
    }


def _rc_evaluate_attrs(args, store) -> dict:
    out = _evaluate_attrs(args, store)
    stages = store.facts("possrank")
    if stages:
        fixp = [a[0] for a in store.facts("fixp")]
        out["stages"] = len(stages)
        out["fixpoint_stage"] = min(fixp) if fixp else len(stages) - 1
    return out


def _parse_attrs(args, kb) -> dict:
    return {"axioms": len(kb.tbox) + len(kb.rbox) + len(kb.abox)}


def _bindings(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, name, replacement) for every traced call site."""
    w = tracer.wrap
    m, rc, cli, p = typel.materialize, typel.rc, typel.cli, typel.parser
    out = []
    for mod in (m, rc):
        out.append((mod, "normalize", w("normalize", mod.normalize, lambda a, r: {"axioms_out": len(r[0].axioms)})))
        out.append((mod, "translate", w("materialize.translate", mod.translate, lambda a, r: {"facts": len(r.facts)})))
    out.append((m, "evaluate", w("datalog.evaluate", m.evaluate, _evaluate_attrs)))
    out.append((rc, "evaluate", w("datalog.evaluate", rc.evaluate, _rc_evaluate_attrs)))
    out.append((rc, "check_consistency", w("rc.gate", rc.check_consistency)))
    out.append((rc, "build_rc_program", w("rc.build", rc.build_rc_program)))
    out.append((NORMALIZE_MODULE, "validate", w("kb.validate", NORMALIZE_MODULE.validate)))
    model_refute = w("model.refute", typel.model.refute, lambda a, r: {"found": r is not None})
    out.append((typel.model, "refute", model_refute))
    for mod in (p, cli):
        out.append((mod, "parse_kb", w("parser.parse_kb", mod.parse_kb, _parse_attrs)))
        out.append((mod, "parse_query", w("parser.parse_query", mod.parse_query)))
        out.append((mod, "parse_concept", w("parser.parse_concept", mod.parse_concept)))
    # the CLI calls the entry points through its own bindings
    for op, fn_name in ENTRY_FUNCTIONS.items():
        fn = model_refute if op == "refute" else getattr(cli, fn_name)
        out.append((cli, fn_name, w(f"entry.{op}", fn)))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Trace every layer boundary and count match probes while active."""
    bindings = _bindings(tracer)
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in bindings]
    store_cls = typel.datalog.FactStore
    match = store_cls.match

    def counted_match(self, pred, positions, key):
        rows = match(self, pred, positions, key)
        tracer.probes += 1
        tracer.rows += len(rows)
        return rows

    for mod, name, fn in bindings:
        setattr(mod, name, fn)
    store_cls.match = counted_match
    try:
        yield tracer
    finally:
        store_cls.match = match
        for mod, name, fn in saved:
            setattr(mod, name, fn)


# --- per-layer metrics ---


def _dur(s) -> float:
    return (s[3] - s[2]) * 1000.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-request layer numbers from the spans of one traced phase.

    Times and counts are summed per request and averaged over the requests
    that reach the layer; the shares are ratios of totals.
    """
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def per_request(name: str, value) -> float:
        group = by_name.get(name, [])
        if not group:
            return 0.0
        return sum(value(s) for s in group) / len({s[5] for s in group})

    def attr(key: str):
        return lambda s: s[6].get(key, 0)

    out: dict[str, float] = {}
    ev = "datalog.evaluate"
    out["datalog.evaluate_ms"] = per_request(ev, _dur)
    out["datalog.evaluate_calls"] = per_request(ev, lambda s: 1)
    out["datalog.facts_out"] = per_request(ev, attr("facts_out"))
    out["datalog.strata"] = per_request(ev, attr("strata"))
    requests = by_name.get("request", [])
    probes = sum(s[6].get("probes", 0) for s in requests)
    out["datalog.match_probes"] = probes / max(len(requests), 1)
    out["datalog.match_rows"] = sum(s[6].get("rows", 0) for s in requests) / max(len(requests), 1)
    new_facts = sum(s[6]["facts_out"] - s[6]["facts_in"] for s in by_name.get(ev, []))
    out["datalog.new_facts_per_probe"] = new_facts / probes if probes else 0.0
    out["materialize.translate_ms"] = per_request("materialize.translate", _dur)
    out["materialize.facts_in"] = per_request("materialize.translate", attr("facts"))
    out["materialize.program_rules"] = per_request(ev, attr("rules"))
    out["normalize.ms"] = per_request("normalize", _dur)
    out["normalize.axioms_out"] = per_request("normalize", attr("axioms_out"))
    out["kb.validate_ms"] = per_request("kb.validate", _dur)
    parse_spans = [s for name in ("parser.parse_kb", "parser.parse_query", "parser.parse_concept")
                   for s in by_name.get(name, [])]
    parse_requests = max(len({s[5] for s in parse_spans}), 1)
    out["parser.parse_ms"] = sum(_dur(s) for s in parse_spans) / parse_requests
    out["parser.axioms"] = sum(s[6].get("axioms", 0) for s in parse_spans) / parse_requests
    out["rc.gate_ms"] = per_request("rc.gate", _dur)
    out["rc.build_ms"] = per_request("rc.build", _dur)
    staged = [s for s in by_name.get(ev, []) if "stages" in s[6]]
    out["rc.stages"] = statistics.fmean(s[6]["stages"] for s in staged) if staged else 0.0
    out["rc.fixpoint_stage"] = statistics.fmean(s[6]["fixpoint_stage"] for s in staged) if staged else 0.0
    out["rc.stage_share"] = (
        sum(s[6]["fixpoint_stage"] + 1 for s in staged) / sum(s[6]["stages"] for s in staged)
        if staged else 0.0
    )
    refutes = by_name.get("model.refute", [])
    out["model.refute_ms"] = statistics.fmean(_dur(s) for s in refutes) if refutes else 0.0
    out["model.counter_model_share"] = (
        sum(1 for s in refutes if s[6].get("found")) / len(refutes) if refutes else 0.0
    )
    readback = [ms for per_op in readbacks(tracer).values() for ms in per_op]
    out["entry.readback_ms"] = statistics.fmean(readback) if readback else 0.0
    return out


def readbacks(tracer: Tracer) -> dict[str, list[float]]:
    """Per entry point, each entry span's time minus its children's."""
    children: dict[int, float] = {}
    for s in tracer.spans:
        if s[4] is not None:
            children[s[4]] = children.get(s[4], 0.0) + _dur(s)
    per: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s[1].startswith("entry."):
            per.setdefault(s[1][len("entry."):], []).append(_dur(s) - children.get(s[0], 0.0))
    return per


def stage_share_by_family(tracer: Tracer) -> dict[str, float]:
    fam = {s[5]: s[6].get("family") for s in tracer.spans if s[1] == "request"}
    num: dict[str, int] = {}
    den: dict[str, int] = {}
    for s in tracer.spans:
        if s[1] == "datalog.evaluate" and "stages" in s[6]:
            f = fam.get(s[5]) or "?"
            num[f] = num.get(f, 0) + s[6]["fixpoint_stage"] + 1
            den[f] = den.get(f, 0) + s[6]["stages"]
    return {f: round(num[f] / den[f], 4) for f in sorted(num)}
