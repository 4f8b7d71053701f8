"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single "criterion N (...): PASS|FAIL" line so that
`pytest -s tests/test_acceptance.py` reads as a checklist.  The bodies
reuse the sharper helpers from the per-module suites: the shape
comparator from test_normalize, the rule-audit tables from
test_materialize, and the random program generator from test_datalog.
"""

from __future__ import annotations

import functools
import random
import re
import time

from conftest import load_fixture
from test_datalog import random_stratified_program, store_dict
from test_materialize import REFERENCE_IR, REFERENCE_RT, audit
from test_normalize import normalized_texts, original_names, shapes_match
from test_rc import _ladder_text, ranks_by_display

from typel._families import chain_kb, fit_loglog_slope
from typel.datalog import evaluate, naive_evaluate
from typel.kb import InstanceOf, Name, RoleHolds, TypicalInstanceOf
from typel.materialize import (
    BASE_RULES,
    IR_LABELED,
    RT_LABELED,
    aux_for,
    build_program,
    check_instance,
    check_subsumption,
    translate,
)
from typel.model import refute
from typel.normalize import normalize
from typel.parser import parse_concept, parse_kb, parse_query
from typel.rc import compute_ranks, rc_consistent, rc_entails

FIXTURE_NAMES = (
    "empty.kbt",
    "example1.kbt",
    "example1-af.kbt",
    "example4.kbt",
    "rc_inconsistent.kbt",
    "rc_still_consistent.kbt",
)


def criterion(number: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return run

    return wrap


def saturated_store(kb):
    nkb, _ = normalize(kb, ())
    return nkb, evaluate(build_program(translate(nkb)))


@criterion(1, "rational entailment on the running example")
def test_criterion_01_entailment_suite(example1):
    t0 = time.perf_counter()
    for text in (
        "Young(mario)",
        "T(Student)(mario)",
        "MathHater(luigi)",
        "MathHater(paul)",
        "MathLover(tom)",
    ):
        assert check_instance(example1, parse_query(text, example1)).entailed, text
    q = parse_query("(some hasHair.{Black})(luigi)", example1)
    assert not check_instance(example1, q).entailed
    q = parse_query("T(Young and Italian) <= some hasHair.{Black}", example1)
    assert not check_subsumption(example1, q).entailed
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "normalization output shapes up to fresh-name renaming")
def test_criterion_02_normalization_shapes():
    kb = parse_kb(
        "class Italian. role hasHair. individual Black.\n"
        "T(Italian) <= some hasHair.{Black}.\n"
    )
    nkb, _ = normalize(kb, ())
    assert shapes_match(
        normalized_texts(nkb),
        [
            "X <= some hasHair.F",
            "F <= {Black}",
            "X <= T(Italian)",
            "T(Italian) <= X",
        ],
        original_names(kb),
    )
    kb = parse_kb(
        "class Student. class Nerd. class MathLover.\n"
        "T(Student and Nerd) <= MathLover.\n"
    )
    nkb, _ = normalize(kb, ())
    assert shapes_match(
        normalized_texts(nkb),
        [
            "X <= MathLover",
            "X <= T(Y)",
            "T(Y) <= X",
            "Student and Nerd <= Y",
            "Y <= Student",
            "Y <= Nerd",
        ],
        original_names(kb),
    )


@criterion(3, "rule tables match the reference transcription token for token")
def test_criterion_03_rule_audit():
    assert len(REFERENCE_IR) == 29
    assert len(REFERENCE_RT) == 13
    assert len(BASE_RULES) == 42
    assert audit(IR_LABELED, REFERENCE_IR) == []
    assert audit(RT_LABELED, REFERENCE_RT) == []


@criterion(4, "rational-closure ranks and closure membership")
def test_criterion_04_rational_closure(example1_af):
    queries = tuple(
        parse_concept(text, example1_af)
        for text in ("Student and Italian", "Student and Young")
    )
    ranks = ranks_by_display(compute_ranks(example1_af, queries))
    assert ranks["Student"] == 0
    assert ranks["Student and Italian"] == 0
    assert ranks["Student and Young"] == 0
    assert ranks["Student and Nerd"] == 1
    q = parse_query("T(Young and Italian) <= some hasHair.{Black}", example1_af)
    assert rc_entails(example1_af, q).in_closure
    assert rc_consistent(example1_af)


@criterion(5, "typicality over nominals can break closure consistency")
def test_criterion_05_nominal_typicality(example1_af):
    assert not rc_consistent(load_fixture("rc_inconsistent.kbt"))
    widened = load_fixture("rc_still_consistent.kbt")
    assert rc_consistent(widened)
    base = ranks_by_display(compute_ranks(example1_af))
    kept = ranks_by_display(compute_ranks(widened))
    for concept, rank in base.items():
        if concept != "top":
            assert kept[concept] == rank


@criterion(6, "conflicting defaults rank the combined concept higher")
def test_criterion_06_conflicting_defaults(example4):
    ranks = ranks_by_display(compute_ranks(example4, (parse_concept("D", example4),)))
    assert ranks["A"] == 0
    assert ranks["B"] == 0
    assert ranks["D"] == 1


@criterion(7, "semi-naive evaluation agrees with the naive oracle")
def test_criterion_07_engine_vs_oracle():
    agreed = 0
    for seed in range(60):
        program = random_stratified_program(random.Random(seed))
        assert store_dict(evaluate(program)) == store_dict(naive_evaluate(program))
        agreed += 1
    assert agreed >= 50


@criterion(8, "no derived fact admits a bounded counter-model")
def test_criterion_08_soundness_sweep():
    checked = 0
    for name in FIXTURE_NAMES:
        kb = load_fixture(name)
        sig = kb.signature
        _, store = saturated_store(kb)
        queries = []
        for x, c in store.facts("inst"):
            if x in sig.individual_names and c in sig.concept_names:
                queries.append(InstanceOf(Name(c), x))
        for x, c in store.facts("typ"):
            if x in sig.individual_names and c in sig.concept_names:
                queries.append(TypicalInstanceOf(Name(c), x))
        for x, r, y in store.facts("triple"):
            if x in sig.individual_names and r in sig.role_names and y in sig.individual_names:
                queries.append(RoleHolds(r, x, y))
        for q in queries:
            assert refute(kb, q, max_domain=3, max_rank=2) is None, (name, q)
            checked += 1
    assert checked >= 50


@criterion(9, "preference-order closure properties hold in the saturated store")
def test_criterion_09_preference_properties(example1):
    nkb, store = saturated_store(example1)
    for x, c in store.facts("typ"):
        assert store.contains("inst", (x, c))
    ranked = {args[1]: args[0] for args in store.facts("auxc")}
    for c in {c for _, c in store.facts("inst") if c in ranked}:
        assert store.contains("typ", (ranked[c], c))
    same = store.facts("sameRank")
    by_first: dict[str, set[str]] = {}
    for x, y in same:
        assert (y, x) in same
        by_first.setdefault(x, set()).add(y)
    for x, y in same:
        for z in by_first.get(y, ()):
            assert (x, z) in same
    leq = store.facts("leqRank")
    for x, y in leq:
        if (y, x) in leq:
            assert store.contains("sameRank", (x, y))
    # specificity: paul sits at the typical-Student rank and inherits its
    # default, tom is caught by the more specific default instead
    student = {e.display: e.ranked for e in nkb.aux_registry}["Student"]
    aux = aux_for(student)
    assert store.contains("leqRank", ("paul", aux))
    assert store.contains("leqRank", (aux, "paul"))
    assert store.contains("sameRank", ("paul", aux))
    assert store.contains("typ", ("paul", student))
    assert store.contains("inst", ("paul", "MathHater"))
    assert store.contains("inst", ("tom", "MathLover"))
    assert not store.contains("inst", ("tom", "MathHater"))


@criterion(10, "closure growth on chain families stays polynomial")
def test_criterion_10_growth():
    sizes = [10, 20, 40, 80]
    atoms = []
    times = []
    for n in sizes:
        program = build_program(translate(normalize(chain_kb(n), ())[0]))
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            store = evaluate(program)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        atoms.append(len(store))
        times.append(best)
    assert atoms == sorted(atoms) and atoms[0] < atoms[-1]
    assert fit_loglog_slope(sizes, atoms) <= 2.5
    assert fit_loglog_slope(sizes, times) <= 2.5


def ladder_copies(w: int) -> str:
    """w disjoint copies of test_rc's three-rung ladder, each name tagged
    with its copy: rung L{i}_{b} has rank i."""
    text = _ladder_text(3, None, False, None)
    return "".join(re.sub(r"\b(L\d+|P[01]|a)\b", rf"\1_{b}", text) for b in range(w))


@criterion(11, "rational-closure time grows at most quadratically in ladder width")
def test_criterion_11_closure_growth():
    # The copies share nothing, so the hypothesis copies grow linearly in w;
    # only the injected sameRank and leqRank pairs of equally ranked rungs
    # grow quadratically.  A slope of 2.0 allows that and catches an
    # exceptional copy that floods every element into every class, which
    # grew cubically: about 3 on the copies here, against about 1.0
    # once each copy stops at its first bottom fact.
    sizes = [1, 2, 4, 8]
    times = []
    for w in sizes:
        kb = parse_kb(ladder_copies(w))
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            ranks = compute_ranks(kb)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        expected = {f"L{i}_{b}": i for i in range(3) for b in range(w)}
        assert ranks_by_display(ranks) == {**expected, "top": 0}
        times.append(best)
    assert fit_loglog_slope(sizes, times) <= 2.0
