"""Engine behavior: stratification, evaluation, oracle agreement, round trips."""
from __future__ import annotations

import contextlib
import io
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path, load_fixture

import typel
from typel import datalog, materialize
from typel.cli import main
from typel._families import chain_kb
from typel.datalog import (
    Atom,
    Compare,
    DatalogError,
    DatalogProgram,
    Minus,
    Neg,
    Rule,
    Saturation,
    Var,
    atom_vars,
    dump_program,
    evaluate,
    grounding_bound,
    load_program,
    load_rules,
    naive_evaluate,
    stratify,
    transform_rules,
    validate_program,
)
from typel.materialize import BASE_RULES, IR_LABELED, check_instance, query_program, store_inconsistent
from typel.parser import parse_concept, parse_kb, parse_query
from typel.rc import CLOSURE_RULES, H_RULES, _H_SOURCE, closure_program, rc_entails

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def store_dict(store):
    return {p: frozenset(store.facts(p)) for p in store.preds() if store.facts(p)}


# --- random stratified programs, shared with the acceptance suite -----------


def random_stratified_program(rng: random.Random) -> DatalogProgram:
    """A safe stratified program over <=5 symbols, the integers 0..2 and <=8 rules.

    Each predicate gets a fixed stratum and a sort per column, symbol or
    integer; every term respects its column's sort, so a comparison, which
    reads only integer variables, never meets a symbol.  Rule bodies draw
    positive atoms from the head's stratum or below and negated atoms from
    strictly below, so no negative cycle can form.  Head and negated
    variables are re-bound to constants unless a positive atom binds them.
    A body position draws one of three shared variables or a constant of
    its sort, all equally likely; three in five constant draws instead
    give a variable of that atom only, once or repeated, or a decrement of
    an integer variable matched plainly before it.  Only a comparison may
    read an atom's own variable, so dead variables land in every join
    position.
    """
    consts = {"s": [f"c{i}" for i in range(rng.randint(2, 5))], "i": [0, 1, 2]}
    pool = {"s": [X, Y, Z], "i": [Var("I"), Var("J"), Var("K")]}
    preds = []
    for i in range(rng.randint(3, 6)):
        sorts = tuple(rng.choice("sssi") for _ in range(rng.choice((1, 2, 1, 2, 3))))
        preds.append((f"p{i}", sorts, rng.randint(0, 2)))

    facts = []
    for name, sorts, _ in preds:
        for _ in range(rng.randint(0, 4)):
            facts.append(Atom(name, tuple(rng.choice(consts[s]) for s in sorts)))

    rules = []
    for _ in range(rng.randint(1, 8)):
        head_name, head_sorts, stratum = rng.choice(preds)
        at_or_below = [p for p in preds if p[2] <= stratum]
        below = [p for p in preds if p[2] < stratum]
        fresh = itertools.count()
        # variables the body matches plainly, by sort, in body order
        bound: dict[str, list[Var]] = {"s": [], "i": []}

        def drawn(sort: str, local: list[Var]):
            term = rng.choice(pool[sort] + consts[sort])
            if not isinstance(term, Var) and rng.random() < 0.6:
                if sort == "i" and bound["i"] and rng.random() < 0.4:
                    return Minus(rng.choice(bound["i"]), rng.randint(1, 2))
                # a variable of this atom only: dead unless a comparison reads it
                if local and rng.random() < 0.5:
                    term = rng.choice(local)
                else:
                    term = Var(f"{sort.upper()}{next(fresh)}")
                    local.append(term)
            if isinstance(term, Var) and term not in bound[sort]:
                bound[sort].append(term)
            return term

        def grounded(sort: str):
            term = rng.choice(pool[sort] + consts[sort])
            return term if isinstance(term, Var) and term in bound[sort] else rng.choice(consts[sort])

        body: list = []
        for _ in range(rng.randint(1, 3)):
            name, sorts, _ = rng.choice(at_or_below)
            local: dict[str, list[Var]] = {"s": [], "i": []}
            body.append(Atom(name, tuple(drawn(s, local[s]) for s in sorts)))

        if below and rng.random() < 0.5:
            name, sorts, _ = rng.choice(below)
            body.append(Neg(Atom(name, tuple(grounded(s) for s in sorts))))
        if rng.random() < 0.4:

            def side():
                if bound["i"] and rng.random() < 0.7:
                    v = rng.choice(bound["i"])
                    return Minus(v, 1) if rng.random() < 0.2 else v
                return rng.choice(consts["i"])

            body.insert(rng.randint(0, len(body)), Compare(rng.choice("<>"), side(), side()))

        head_args = tuple(grounded(s) for s in head_sorts)
        rules.append(Rule(Atom(head_name, head_args), tuple(body)))

    return DatalogProgram(facts=tuple(facts), rules=tuple(rules))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_seminaive_agrees_with_naive_oracle(seed):
    program = random_stratified_program(random.Random(seed))
    assert store_dict(evaluate(program)) == store_dict(naive_evaluate(program))


def test_oracle_agreement_fixed_batch():
    # deterministic batch, independent of the property runner
    for seed in range(60):
        program = random_stratified_program(random.Random(seed))
        assert store_dict(evaluate(program)) == store_dict(naive_evaluate(program)), seed


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_warm_rule_cache_keeps_results(seed):
    # later programs reuse rules compiled for earlier ones, over other facts;
    # dropping every fact of some predicates leaves relations empty in
    # every stratum
    rng = random.Random(seed)
    pool = random_stratified_program(rng)
    preds = sorted({f.pred for f in pool.facts})
    for _ in range(5):
        empty = set(rng.sample(preds, rng.randint(0, len(preds))))
        facts = tuple(f for f in pool.facts if f.pred not in empty and rng.random() < 0.8)
        rules = tuple(rng.sample(pool.rules, rng.randint(1, len(pool.rules))))
        program = DatalogProgram(facts=facts, rules=rules)
        assert store_dict(evaluate(program)) == store_dict(naive_evaluate(program))


# --- extending a saturation ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_extension_is_the_least_model_of_program_plus_facts(seed):
    """Saturating the program's facts, then extending by the rest, gives
    the naive least model of all the facts, for each extension in turn,
    and leaves the saturated store as it was."""
    rng = random.Random(seed)
    pool = random_stratified_program(rng)
    rules = tuple(r for r in pool.rules if not any(isinstance(i, Neg) for i in r.body))
    assume(rules)
    base = DatalogProgram(tuple(f for f in pool.facts if rng.random() < 0.5), rules)
    sat = Saturation(base, evaluate(base))
    before = store_dict(sat.store)
    for _ in range(3):
        extra = tuple(rng.sample(pool.facts, rng.randint(0, len(pool.facts))))
        expected = naive_evaluate(DatalogProgram(base.facts + extra, rules))
        assert store_dict(sat.extend(extra)) == store_dict(expected)
        assert store_dict(sat.store) == before


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_step_functions_stay_with_their_table_past_the_cache(seed):
    """More distinct rule tables than _prepare keeps, each saturated, then
    extended and evaluated again in interleaved orders: a Saturation keeps
    the table its step functions came from after the cache has evicted it,
    and each extension opens its own set of gated rules."""
    rng = random.Random(seed)
    n = datalog._prepare.cache_info().maxsize + 4
    saturations = []
    while len(saturations) < n:
        pool = random_stratified_program(rng)
        rules = tuple(r for r in pool.rules if not any(isinstance(i, Neg) for i in r.body))
        if not rules or not pool.facts:
            continue
        # every fact of some predicates is held back, so rules joining them
        # are gated until an extension brings one
        preds = sorted({f.pred for f in pool.facts})
        held = set(rng.sample(preds, rng.randint(0, len(preds))))
        base = DatalogProgram(tuple(f for f in pool.facts if f.pred not in held), rules)
        store = evaluate(base)
        assert store_dict(store) == store_dict(naive_evaluate(base))
        saturations.append((Saturation(base, store), pool.facts))
    for _ in range(3):
        for i in rng.sample(range(n), n):
            sat, facts = saturations[i]
            extra = tuple(rng.sample(facts, rng.randint(0, len(facts))))
            program = DatalogProgram(sat.program.facts + extra, sat.program.rules)
            expected = store_dict(naive_evaluate(program))
            assert store_dict(sat.extend(extra)) == expected
            assert store_dict(evaluate(program)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_a_stopped_extension_is_a_part_of_the_least_model_that_passes_its_stop(seed):
    rng = random.Random(seed)
    pool = random_stratified_program(rng)
    rules = tuple(r for r in pool.rules if not any(isinstance(i, Neg) for i in r.body))
    assume(rules)
    base = DatalogProgram(tuple(f for f in pool.facts if rng.random() < 0.5), rules)
    sat = Saturation(base, evaluate(base))
    extra = tuple(rng.sample(pool.facts, rng.randint(0, len(pool.facts))))
    full = sat.extend(extra)
    derived = [(pred, args) for pred in full.preds() for args in full.facts(pred)]
    assume(derived)
    goal = rng.choice(derived)
    stopped = sat.extend(extra, lambda store: store.contains(*goal))
    assert stopped.contains(*goal)
    assert all(stopped.facts(pred) <= full.facts(pred) for pred in stopped.preds())


def test_an_extension_stops_at_the_end_of_the_round_its_stop_first_holds():
    edge, path = (lambda *a: Atom("edge", a)), (lambda *a: Atom("path", a))
    rules = load_program(
        "path(?x, ?y) :- edge(?x, ?y).\npath(?x, ?z) :- path(?x, ?y), edge(?y, ?z).\n"
    ).rules
    program = DatalogProgram((edge("b", "c"), edge("c", "d"), edge("d", "e")), rules)
    sat = Saturation(program, evaluate(program))
    calls = []

    def stop(store):
        calls.append(len(store))
        return store.contains("path", ("a", "c"))

    # stored: edge(a, b), then path(a, b) in round 1 and path(a, c) in round 2
    stopped = sat.extend((edge("a", "b"),), stop)
    assert len(calls) == 3
    assert stopped.contains("path", ("a", "c")) and not stopped.contains("path", ("a", "d"))
    assert sat.extend((edge("a", "b"),), lambda store: False).contains("path", ("a", "e"))


def test_extension_refuses_negation_and_checks_its_facts():
    p, q, r = (lambda *a: Atom("p", a)), (lambda *a: Atom("q", a)), (lambda *a: Atom("r", a))
    # negation of an input relation only: one stratum, but not monotone
    negated = DatalogProgram((q("a"),), (Rule(p(X), (q(X), Neg(r(X)))),))
    with pytest.raises(DatalogError, match="without negation"):
        Saturation(negated, evaluate(negated))
    program = DatalogProgram((q("a"),), (Rule(p(X), (q(X),)),))
    sat = Saturation(program, evaluate(program))
    with pytest.raises(DatalogError, match="two arities"):
        sat.extend((q("a", "b"),))
    with pytest.raises(DatalogError, match="not a constant"):
        sat.extend((q(1.5),))
    # the bound is the whole program's, the new facts' constants and
    # predicates included
    extra = (q("b"), r("c", "d"))
    bounds = []
    check_bound = datalog._check_bound
    with mock.patch.object(
        datalog, "_check_bound", lambda store, bound: bounds.append(bound) or check_bound(store, bound)
    ):
        sat.extend(extra)
    assert bounds == [grounding_bound(DatalogProgram(program.facts + extra, program.rules))]


def _loaded_outcome(sat, facts):
    """What extend raises or is bounded by when it collects the new facts
    and then checks every fact, and every constant of it, against copies
    of the saturation's symbols that take in each fact in turn: an error's
    type and message, the grounding bound, or None when the store holds
    every fact already."""
    try:
        new = set()
        for f in facts:
            if not sat.store.contains(f.pred, f.args):
                new.add(f.args)
        if not new:
            return None
        arity, constants = dict(sat._arity), set(sat._constants)
        for f in facts:
            if arity.setdefault(f.pred, len(f.args)) != len(f.args):
                raise DatalogError(f"fact {f.pred}: predicate {f.pred!r} used with two arities")
            for t in f.args:
                datalog._check_const(t, f"fact {f.pred}")
            constants.update(f.args)
    except Exception as e:  # noqa: BLE001  the type is part of the outcome
        return type(e), str(e)
    return datalog._bound(arity.values(), len(constants))


def _extended_outcome(sat, facts):
    bounds = []
    check_bound = datalog._check_bound
    try:
        with mock.patch.object(
            datalog, "_check_bound", lambda store, bound: bounds.append(bound) or check_bound(store, bound)
        ):
            sat.extend(facts)
    except Exception as e:  # noqa: BLE001
        return type(e), str(e)
    return bounds[0] if bounds else None


_I = Var("I")
# a decrement program whose table holds the literal 1 in a head and "1a",
# no constant, in a body; w is a predicate of the facts only
_PARITY = DatalogProgram(
    (Atom("n", (0,)), Atom("n", (1,)), Atom("q", ("a", "b")), Atom("w", ("c",))),
    (
        Rule(Atom("s", (_I,)), (Atom("n", (_I,)), Atom("n", (Minus(_I, 1),)))),
        Rule(Atom("p", (X,)), (Atom("q", (X, "1a")),)),
        Rule(Atom("t", (X, 1)), (Atom("p", (X,)),)),
    ),
)
_ARGS = st.sampled_from(
    [0, 1, 2, 7, "a", "b", "c", "d", "1a", "", "2", 1.0, 1.5, True, False, None, [1], ("t",)]
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("nqwstpz"), st.lists(_ARGS, max_size=3)), max_size=4))
@example([("n", [1, 2])])
@example([("q", ["a"])])
@example([("w", ["c", "d"])])
@example([("z", ["x"]), ("z", ["x", "y"])])
@example([("n", [True])])
@example([("n", [1.0])])
@example([("q", ["1a", "a"])])
@example([("n", [1.5]), ("q", ["a"])])
@example([("n", [7]), ("n", [8]), ("z", ["a", 9])])
@example([("z", [[1]])])
def test_extension_checks_its_facts_as_loading_them_would(drawn):
    """Whatever extend raises for a question's facts, an arity clash with
    the table, the program's facts or each other, or a non-constant, is
    what loading them against the saturation's symbols raised, and an
    extension it accepts is bounded by the same grounding bound."""
    sat = Saturation(_PARITY, evaluate(_PARITY))
    facts = tuple(Atom(pred, tuple(args)) for pred, args in drawn)
    assert _extended_outcome(sat, facts) == _loaded_outcome(sat, facts)


def test_an_extension_bound_counts_new_constants_once():
    sat = Saturation(_PARITY, evaluate(_PARITY))
    facts = (Atom("n", (2,)), Atom("n", (3,)), Atom("w", (3,)), Atom("z", ("c", 4)))
    bound = grounding_bound(DatalogProgram(_PARITY.facts + facts, _PARITY.rules))
    assert _extended_outcome(sat, facts) == _loaded_outcome(sat, facts) == bound
    assert sat.extend(facts).contains("s", (3,))


def _snapshot(store):
    """Every fact set, and every index's keys and buckets in order."""
    return (
        {p: frozenset(facts) for p, facts in store._sets.items()},
        {
            p: {pos: [(k, list(b)) for k, b in buckets.items()] for pos, (_, buckets) in per_pred.items()}
            for p, per_pred in store._indexes.items()
        },
    )


def _shared_store_questions():
    """(saturation, facts, stop) questions on saturations prepared afresh:
    instance and subsumption questions on example1's and example1-af's
    prepared saturations, with and without a fact that makes them raise,
    and rank tests on each stage saturation of example1-af's closure."""
    from typel import rc

    materialize._prepared.cache_clear()
    out = []
    for name, texts in (
        ("example1.kbt", ("MathHater(paul)", "Nerd(paul)", "self(friendOf) and Nerd <= some friendOf.Nerd",
                          "T(Student) <= MathHater", "self(friendOf) <= Young")),
        ("example1-af.kbt", ("Italian <= Italian", "self(hasHair) <= Italian", "T(Student) <= Young")),
    ):
        kb = load_fixture(name)
        for text in texts:
            sat, facts, _ = materialize._query(kb, parse_query(text, kb))
            out.append((sat, facts, None))
            out.append((sat, facts + (Atom("inst", ("x",)),), None))
            out.append((sat, (Atom("cls", (1.5,)),) + facts, None))
    kb = load_fixture("example1-af.kbt")
    closure, _, facts, _ = rc._ask(kb, (), (parse_concept("Young and Italian", kb),))
    for stage in closure._saturations.values():
        for concept, extra in (("Student", ()), ("Italian", ()), ("Young and Italian", facts)):
            question = extra + rc._hypothesis(concept)
            out += [(stage, question, None), (stage, question, store_inconsistent)]
    return out


_LEAST_MODELS = {}


def _least_model(i, sat, facts):
    """The least model of question i's program plus its facts."""
    if i not in _LEAST_MODELS:
        _LEAST_MODELS[i] = store_dict(evaluate(DatalogProgram(sat.program.facts + facts, sat.program.rules)))
    return _LEAST_MODELS[i]


def test_the_shared_store_questions_open_gates_build_shared_indexes_and_raise():
    """The questions the next test interleaves cover each case it guards."""
    opened = shared_index = raised = 0
    for sat, facts, stop in _shared_store_questions():
        preds = {f.pred for f in facts}
        opened += any(empty <= preds for _, empty in sat._gated)
        try:
            ext = sat.extend(facts, stop)
        except DatalogError:
            raised += 1
            continue
        # a relation the saturation indexes already, and the copy anew
        shared_index += any(
            pos not in sat.store._indexes[p]
            for p, per_pred in ext._indexes.items()
            if sat.store._indexes.get(p) and ext._sets.get(p) is sat.store._sets.get(p)
            for pos in per_pred
        )
    assert opened and shared_index and raised


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_questions_on_shared_stores_leave_the_saturations_as_they_were(data):
    """Any interleaving of questions on prepared and stage saturations: each
    leaves the saturation's fact sets and indexes, bucket order included,
    as they were, and each extension it completes is the least model of
    the program plus the question's facts, or a part of it when stopped."""
    questions = _shared_store_questions()
    order = data.draw(st.lists(st.integers(0, len(questions) - 1), min_size=1, max_size=10))
    for i in order:
        sat, facts, stop = questions[i]
        before = _snapshot(sat.store)
        try:
            ext = sat.extend(facts, stop)
        except DatalogError:
            ext = None
        assert _snapshot(sat.store) == before
        if ext is None:
            continue
        # an index the copy builds goes into a map of its own
        assert ext is sat.store or all(ext._indexes.get(p) is not m for p, m in sat.store._indexes.items())
        expected = _least_model(i, sat, facts)
        if stop is None:
            assert store_dict(ext) == expected
        else:
            assert all(ext.facts(p) <= expected.get(p, frozenset()) for p in ext.preds())


# --- stratification -----------------------------------------------------------


def test_positive_program_single_stratum():
    rules = (Rule(Atom("q", (X,)), (Atom("p", (X,)),)),)
    strata, level = stratify(rules)
    assert len(strata) == 1
    assert level["q"] == level["p"] == 0


def test_negation_pushes_head_above():
    rules = (
        Rule(Atom("q", (X,)), (Atom("p", (X,)), Neg(Atom("r", (X,))))),
        Rule(Atom("r", (X,)), (Atom("s", (X,)),)),
    )
    _, level = stratify(rules)
    assert level["q"] > level["r"]


def test_negative_self_loop_rejected():
    rules = (Rule(Atom("p", (X,)), (Atom("q", (X,)), Neg(Atom("p", (X,))))),)
    with pytest.raises(DatalogError, match="strat"):
        stratify(rules)


def test_negative_two_cycle_rejected():
    rules = (
        Rule(Atom("p", (X,)), (Atom("e", (X,)), Neg(Atom("q", (X,))))),
        Rule(Atom("q", (X,)), (Atom("e", (X,)), Neg(Atom("p", (X,))))),
    )
    with pytest.raises(DatalogError):
        stratify(rules)


def dependency_edges(rules):
    """(head, body predicate, negated) for every positive and negated body atom."""
    return {
        (r.head.pred, item.atom.pred if isinstance(item, Neg) else item.pred, isinstance(item, Neg))
        for r in rules
        for item in r.body
        if isinstance(item, (Atom, Neg))
    }


def reachable(edges):
    """Predicate -> predicates reachable over one or more edges, by brute force."""
    reach = {}
    for h, b, _ in edges:
        reach.setdefault(h, set()).add(b)
        reach.setdefault(b, set())
    changed = True
    while changed:
        changed = False
        for p, out in reach.items():
            more = set().union(*(reach[q] for q in out)) - out
            if more:
                out |= more
                changed = True
    return reach


def component(reach, p):
    return {q for q in reach if q == p or (q in reach[p] and p in reach[q])}


def assert_least_stratification(rules):
    strata, level = stratify(rules)
    edges = dependency_edges(rules)
    for h, b, neg in edges:
        assert level[b] < level[h] if neg else level[b] <= level[h], (h, b, neg)
    reach = reachable(edges)
    for p, n in level.items():
        # no predicate sits higher than an edge leaving its component forces it
        comp = component(reach, p)
        assert n == 0 or any(
            h in comp and b not in comp and level[b] + neg == n for h, b, neg in edges
        ), p
    assert all(len({level[r.head.pred] for r in s}) == 1 for s in strata)
    assert [r for s in strata for r in s] == sorted(rules, key=lambda r: level[r.head.pred])


def random_dependency_rules(rng: random.Random) -> tuple[Rule, ...]:
    """Rules over <=6 unary predicates whose negated atoms may close a cycle."""
    preds = [f"p{i}" for i in range(rng.randint(1, 6))]

    def item():
        a = Atom(rng.choice(preds), (X,))
        return Neg(a) if rng.random() < 0.3 else a

    return tuple(
        Rule(Atom(rng.choice(preds), (X,)), tuple(item() for _ in range(rng.randint(1, 3))))
        for _ in range(rng.randint(1, 8))
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_stratify_is_least_on_random_stratified_programs(seed):
    assert_least_stratification(random_stratified_program(random.Random(seed)).rules)


@pytest.mark.parametrize("rules", [BASE_RULES, CLOSURE_RULES])
def test_stratify_is_least_on_builtin_rules(rules):
    assert_least_stratification(rules)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_stratify_rejects_exactly_the_negation_cycles(seed):
    rules = random_dependency_rules(random.Random(seed))
    edges = dependency_edges(rules)
    reach = reachable(edges)
    if not any(neg and h in reach[b] | {b} for h, b, neg in edges):
        assert_least_stratification(rules)
        return
    with pytest.raises(DatalogError) as err:
        stratify(rules)
    prefix = "program is not stratifiable: negation inside a recursive component: {"
    message = str(err.value)
    assert message.startswith(prefix) and message.endswith("}")
    named = set(message[len(prefix) : -1].split(", "))
    # the named set is a whole strongly connected component with a negated edge inside
    assert named == component(reach, min(named))
    assert any(neg and h in named and b in named for h, b, neg in edges)


# --- evaluation ----------------------------------------------------------------


def test_basic_propagation():
    program = DatalogProgram(
        facts=(Atom("p", ("a",)),),
        rules=(Rule(Atom("q", (X,)), (Atom("p", (X,)),)),),
    )
    store = evaluate(program)
    assert store.contains("q", ("a",))


def test_stratified_negation():
    program = DatalogProgram(
        facts=(Atom("p", ("a",)), Atom("p", ("b",)), Atom("s", ("b",))),
        rules=(Rule(Atom("r", (X,)), (Atom("p", (X,)), Neg(Atom("s", (X,))))),),
    )
    store = evaluate(program)
    assert store.facts("r") == {("a",)}


def test_transitive_closure_recursion():
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    program = DatalogProgram(
        facts=tuple(Atom("e", pair) for pair in edges),
        rules=(
            Rule(Atom("t", (X, Y)), (Atom("e", (X, Y)),)),
            Rule(Atom("t", (X, Z)), (Atom("t", (X, Y)), Atom("e", (Y, Z)))),
        ),
    )
    assert len(evaluate(program).facts("t")) == 6


def test_integer_guards_and_predecessor():
    # staged counting: stage(I) climbs while allowed(I) holds
    program = DatalogProgram(
        facts=(
            Atom("stage", (0,)),
            Atom("allowed", (1,)),
            Atom("allowed", (2,)),
            Atom("possible", (0,)),
            Atom("possible", (1,)),
            Atom("possible", (2,)),
            Atom("possible", (3,)),
        ),
        rules=(
            Rule(
                Atom("stage", (Var("I"),)),
                (
                    Atom("possible", (Var("I"),)),
                    Compare(">", Var("I"), 0),
                    Atom("stage", (Minus(Var("I"), 1),)),
                    Atom("allowed", (Var("I"),)),
                ),
            ),
        ),
    )
    store = evaluate(program)
    assert store.facts("stage") == {(0,), (1,), (2,)}


def test_comparison_between_variables():
    program = DatalogProgram(
        facts=(Atom("n", (1,)), Atom("n", (2,)), Atom("n", (3,))),
        rules=(
            Rule(
                Atom("lt", (Var("I"), Var("J"))),
                (Atom("n", (Var("I"),)), Atom("n", (Var("J"),)), Compare("<", Var("I"), Var("J"))),
            ),
        ),
    )
    assert len(evaluate(program).facts("lt")) == 3


def test_every_constraint_kind_filters_like_the_oracle():
    # each constraint needs a variable only the last positive atom binds, so
    # the compiled code places it at that atom; "2 < 1" and "1 < 2" have no
    # variables and run before any join
    program = load_program(
        """
        item(a). item(b). item(c). blocked(b, c0).
        step(a, 1). step(b, 2). step(c, 3). done(a, 0).
        val(x, 2). val(y, 3). val(z, s). q(1).
        n(1). n(2). n(3). up(1). skip(2).
        neg_const(?x) :- item(?x), not blocked(?x, c0).
        neg_int(?x, ?I) :- item(?x), step(?x, ?I), not done(?x, ?I - 1).
        neg_sym(?k) :- val(?k, ?V), not q(?V - 1).
        cmp_sym(?k) :- val(?k, ?V), ?V - 1 > 0.
        lt(?I, ?J) :- n(?I), n(?J), ?I < ?J.
        gt(?I) :- n(?I), ?I > 1.
        pre_false(?I) :- n(?I), 2 < 1.
        pre_true(?I) :- n(?I), 1 < 2.
        up(?I) :- up(?J), n(?I), ?J < ?I, not skip(?I).
        """
    )
    store = naive_evaluate(program)
    expected = {
        "neg_const": {("a",), ("c",)},
        "neg_int": {("b", 2), ("c", 3)},
        # a decrement of the symbol s makes q(s - 1) absent and s - 1 > 0 false
        "neg_sym": {("y",), ("z",)},
        "cmp_sym": {("x",), ("y",)},
        "lt": {(1, 2), (1, 3), (2, 3)},
        "gt": {(2,), (3,)},
        "pre_false": set(),
        "pre_true": {(1,), (2,), (3,)},
        "up": {(1,), (3,)},
    }
    assert {p: store.facts(p) for p in expected} == expected
    assert store_dict(evaluate(program)) == store_dict(store)


def test_comparison_between_symbols_raises():
    program = load_program("v(a). w(?x) :- v(?x), ?x < 1.")
    for run in (evaluate, naive_evaluate):
        with pytest.raises(DatalogError, match="non-integers"):
            run(program)


def test_determinism():
    program = random_stratified_program(random.Random(7))
    assert store_dict(evaluate(program)) == store_dict(evaluate(program))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_positive_programs_monotone_in_facts(seed):
    rng = random.Random(seed)
    base = random_stratified_program(rng)
    positive = DatalogProgram(
        facts=base.facts,
        rules=tuple(
            Rule(r.head, tuple(b for b in r.body if isinstance(b, Atom))) for r in base.rules
        ),
    )
    if not positive.facts:
        return
    first = positive.facts[0]
    extra = Atom(first.pred, ("c9",) * len(first.args))
    bigger = DatalogProgram(facts=positive.facts + (extra,), rules=positive.rules)
    small = store_dict(evaluate(positive))
    large = store_dict(evaluate(bigger))
    for pred, facts in small.items():
        assert facts <= large.get(pred, frozenset())


# --- compile once, skip rules over empty finished relations -------------------


@pytest.fixture
def fired(monkeypatch):
    """(rule, delta) of each join the semi-naive evaluator runs, in order.

    A prepared rule table keeps the step functions generated from it, so
    the cache is cleared on both sides: the test's tables generate their
    steps through the recording wrapper, and no recording table outlives
    the test.
    """
    calls: list[tuple[Rule, frozenset | None]] = []
    gen_step = datalog._gen_step

    def recording(group):
        bind = gen_step(group)

        def recording_bind(store, out):
            step = bind(store, out)

            def recording_step(delta):
                seen = None if delta is None else frozenset(delta)
                calls.extend((v.rule, seen) for v, _ in group)
                step(delta)

            return recording_step

        return recording_bind

    monkeypatch.setattr(datalog, "_gen_step", recording)
    datalog._prepare.cache_clear()
    yield calls
    datalog._prepare.cache_clear()


def heads(fired):
    return {rule.head.pred for rule, _ in fired}


def evaluate_like_oracle(program):
    store = evaluate(program)
    assert store_dict(store) == store_dict(naive_evaluate(program))
    return store


def test_relation_derived_in_the_stratum_fires_though_empty_at_its_start(fired):
    program = DatalogProgram(
        facts=(Atom("e", ("a", "b")), Atom("e", ("b", "c"))),
        rules=(
            Rule(Atom("s", (X, Z)), (Atom("t", (X, Y)), Atom("e", (Y, Z)))),
            Rule(Atom("t", (X, Y)), (Atom("e", (X, Y)),)),
        ),
    )
    assert evaluate_like_oracle(program).facts("s") == {("a", "c")}
    # every join reads a delta: the first round joins e whole into t, and s
    # waits for t's first facts
    assert all(delta is not None for _, delta in fired)
    s_deltas = [delta for rule, delta in fired if rule.head.pred == "s"]
    assert s_deltas[0] == {("a", "b"), ("b", "c")}


def test_empty_relation_from_a_lower_stratum_disables_the_rule(fired):
    program = DatalogProgram(
        facts=(Atom("p", ("a",)),),
        rules=(
            Rule(Atom("low", (X,)), (Atom("p", (X,)), Neg(Atom("p", (X,))))),
            Rule(Atom("q", (X,)), (Atom("p", (X,)), Neg(Atom("low", (X,))))),
            Rule(Atom("high", (X,)), (Atom("q", (X,)), Atom("low", (X,)))),
        ),
    )
    _, level = stratify(program.rules)
    assert level["low"] < level["high"]
    store = evaluate_like_oracle(program)
    assert store.facts("q") == {("a",)} and not store.facts("high")
    assert "q" in heads(fired) and "high" not in heads(fired)


def test_rules_without_a_positive_atom_fire_once(fired):
    # v's negated p is derived a stratum below, and holds p(a)
    program = load_program(
        "q(b). p(a) :- not q(a). r(a) :- 1 < 2. t(c) :- not r(c), 2 > 1. v(d) :- not p(a)."
    )
    store = evaluate_like_oracle(program)
    assert store_dict(store) == {
        "q": {("b",)},
        "p": {("a",)},
        "r": {("a",)},
        "t": {("c",)},
    }
    assert sorted(rule.head.pred for rule, _ in fired) == ["p", "r", "t", "v"]


def test_negated_empty_relation_never_disables_the_rule(fired):
    program = DatalogProgram(
        facts=(Atom("p", ("a",)), Atom("n", (1,))),
        rules=(
            Rule(Atom("q", (X,)), (Atom("p", (X,)), Neg(Atom("r", (X,))))),
            Rule(Atom("pos", (Var("I"),)), (Atom("n", (Var("I"),)), Compare(">", Var("I"), 0))),
        ),
    )
    store = evaluate_like_oracle(program)
    assert store.facts("q") == {("a",)} and store.facts("pos") == {(1,)}
    assert {"q", "pos"} <= heads(fired)


def test_recursive_variant_is_fed_each_fact_once(fired):
    # nodes 0..n joined by the n edges i -> i + 1 reach every later node:
    # n(n + 1)/2 path facts, each new once, so fed once as delta
    n = 8
    edges = [(i, i + 1) for i in range(n)]
    step = Rule(Atom("path", (X, Z)), (Atom("path", (X, Y)), Atom("edge", (Y, Z))))
    program = DatalogProgram(
        facts=tuple(Atom("edge", e) for e in edges),
        rules=(Rule(Atom("path", (X, Y)), (Atom("edge", (X, Y)),)), step),
    )
    assert len(evaluate_like_oracle(program).facts("path")) == n * (n + 1) // 2
    deltas = [delta for rule, delta in fired if rule == step]
    assert sum(map(len, deltas)) == n * (n + 1) // 2


BUILTIN_RULE_SETS = (BASE_RULES, CLOSURE_RULES)


def builtin_table_programs():
    """Programs with facts over each of BUILTIN_RULE_SETS, in its order; an
    instance query and both kinds of inclusion all evaluate the base rules."""
    return (
        _query("example1.kbt", "MathHater(paul)"),
        _query("example1.kbt", "T(Student) <= MathHater"),
        _query("example4.kbt", "A and B <= D"),
        closure_program(load_fixture("example4.kbt"))[0],
    )


def test_second_evaluate_of_builtin_rules_generates_no_code(generated):
    programs = builtin_table_programs()
    assert tuple(dict.fromkeys(p.rules for p in programs)) == BUILTIN_RULE_SETS
    steps, compiles = generated
    for program in programs:
        evaluate(program)
    assert steps and len(compiles) == len(steps)
    steps.clear()
    compiles.clear()
    # an equal table of distinct Rule objects finds the prepared table
    base = programs[1]
    equal = load_program(dump_program(base)).rules
    assert equal == base.rules and equal[0] is not base.rules[0]
    evaluate(DatalogProgram(base.facts, equal))
    for program in programs:
        evaluate(program)
    assert steps == [] and compiles == []


def derived_in_stratum(rules):
    """(rule, body predicates its stratum derives) for every rule."""
    out = []
    for stratum in stratify(rules)[0]:
        heads = {r.head.pred for r in stratum}
        for rule in stratum:
            body = {a.pred for a in rule.body if isinstance(a, Atom)}
            out.append((rule, frozenset(body & heads)))
    return out


def test_second_evaluate_of_a_rule_table_skips_its_analysis(monkeypatch):
    programs = builtin_table_programs()
    assert datalog._prepare.cache_info().maxsize >= len(programs)
    datalog._prepare.cache_clear()
    for program in programs:
        evaluate(program)
    calls = []
    for name in ("validate_program", "stratify"):
        real = getattr(datalog, name)
        monkeypatch.setattr(
            datalog, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    for program in programs:
        # the same rule table over other facts: every table stays prepared
        evaluate(DatalogProgram(program.facts[: len(program.facts) // 2], program.rules))
    assert calls == []


# unpickles a rule in a process with another hash seed and compares it with
# an equal rule built there
UNPICKLE_RULE = """
import pickle
import sys
from typel.datalog import Atom, Rule, Var

rule = pickle.loads(sys.stdin.buffer.read())
fresh = Rule(Atom("p", (Var("X"), "a")), (Atom("q", (Var("X"),)),))
print(hash("a"), rule == fresh, hash(rule) == hash(fresh), {rule: 1}.get(fresh))
"""


def test_unpickled_rule_hashes_like_an_equal_rule_built_in_its_process():
    rule = Rule(Atom("p", (X, "a")), (Atom("q", (X,)),))
    assert hash(rule) == hash(Rule(rule.head, rule.body))
    src = str(Path(typel.__file__).resolve().parent.parent)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, "-c", UNPICKLE_RULE],
        input=pickle.dumps(rule),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    str_hash, equal, same_hash, found = proc.stdout.decode().split()
    # the child hashes strings differently, so a hash carried over would be stale
    assert int(str_hash) != hash("a")
    assert (equal, same_hash, found) == ("True", "True", "1")


# counts the step functions generated and called, and the compile calls
# made, by one check in a fresh process, where no rule has been compiled yet
COLD_CHECK = """
import builtins
import sys
from typel import datalog
from typel.cli import main

generated, called, compiles = [], set(), []
gen_step = datalog._gen_step


def counting(group):
    bind = gen_step(group)
    n = len(generated)
    generated.append(group)

    def counting_bind(store, out):
        step = bind(store, out)

        def call(delta):
            called.add(n)
            step(delta)

        return call

    return counting_bind


datalog._gen_step = counting
datalog.compile = lambda *args: compiles.append(args) or builtins.compile(*args)
code = main(["check", sys.argv[1], "MathHater(paul)"])
print(code, len(generated), len(called), len(compiles))
"""


def test_cold_check_generates_only_the_joins_it_calls():
    src = str(Path(typel.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", COLD_CHECK, str(fixture_path("example1.kbt"))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, generated, called, compiles = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    # one compile per step function: 39 per-join functions before steps
    assert 0 < generated == called == compiles <= 6


@pytest.mark.parametrize(
    "fixture, ask, at_most",
    [
        ("example1.kbt", lambda kb: check_instance(kb, parse_query("Young(mario)", kb)), 6),
        # the prepared closure runs only the base table: the KB's
        # saturation, the strict one, and each stage's extensions
        (
            "example1-af.kbt",
            lambda kb: rc_entails(kb, parse_query("T(Student and Italian) <= Young", kb)),
            12,
        ),
    ],
    ids=["check_instance", "rc_entails"],
)
def test_cold_query_generates_each_rule_only_the_joins_its_rounds_run(
    generated, fixture, ask, at_most
):
    """Every join reads a delta, a rule over a relation its stratum derives
    starts only once that relation holds facts, and the joins of one delta
    run as one step function.  A written-order join per rule beside its
    delta joins, a rule started on a relation that is still empty, or a
    function per join would show here as more compiles than these (39
    and 44 functions when each join had its own)."""
    kb = load_fixture(fixture)
    steps, compiles = generated
    materialize._prepared.cache_clear()
    ask(kb)
    assert 0 < len(steps) == len(compiles) <= at_most


# --- join order from the stratum ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_join_order_never_changes_results(seed):
    # compile every rule as if its stratum derived what it really derives,
    # every body predicate, or none: each order must reach the oracle's store
    program = random_stratified_program(random.Random(seed))
    expected = store_dict(naive_evaluate(program))
    compile_rule = datalog._compile_rule
    markings = (
        lambda rule, derived: derived,
        lambda rule, derived: frozenset(a.pred for a in rule.body if isinstance(a, Atom)),
        lambda rule, derived: frozenset(),
    )
    for mark in markings:
        # else the first marking's prepared table answers for all three
        datalog._prepare.cache_clear()
        with mock.patch.object(
            datalog, "_compile_rule", lambda rule, derived: compile_rule(rule, mark(rule, derived))
        ):
            assert store_dict(evaluate(program)) == expected
    datalog._prepare.cache_clear()


# each hypothesis copy under the label of the rule it was built from
HYP_COPY = dict(zip((label for label, _ in _H_SOURCE), H_RULES))


def delta_variants(rules, rule):
    """The compiled delta variants semi-naive evaluation runs for rule."""
    derived = dict(derived_in_stratum(rules))[rule]
    c = datalog._compile_rule(rule, derived)
    return derived, [v for v, p in zip(c.variants, c.positive_preds) if p in derived]


def bound_before(v, i):
    """The variables the join of variant v has bound when it reaches atom i."""
    return set().union(*map(atom_vars, v.atoms[:i]))


def test_rule_21_hypothesis_copy_probes_subprod_before_the_second_inst_h():
    derived, variants = delta_variants(CLOSURE_RULES, HYP_COPY["21"])
    assert {"stage", "inst_h"} <= derived and "subProd" not in derived
    assert len(variants) == 3
    for v in variants:
        preds = [a.pred for a in v.atoms]
        second_inst_h = max(i for i, p in enumerate(preds) if p == "inst_h")
        assert preds.index("subProd") < second_inst_h, preds


@pytest.mark.parametrize("label", ["4", "27", "29"])
def test_no_zero_bound_scan_ahead_of_a_bound_derived_atom(label):
    # pinned on the rules as written, which check and consistent evaluate;
    # in a hypothesis copy every atom is bound on the stage (?D, ?I) once
    # any atom is joined, so there a scan of the few nominals may rightly
    # come first
    derived, variants = delta_variants(BASE_RULES, dict(IR_LABELED)[label])
    assert variants
    for v in variants:
        preds = [a.pred for a in v.atoms]
        for i in range(1, len(preds)):
            bound = bound_before(v, i)
            if preds[i] not in ("cls", "nom") or datalog._key_positions(v.atoms[i], bound):
                continue
            for j in range(i + 1, len(preds)):
                assert not (
                    preds[j] in derived and datalog._key_positions(v.atoms[j], bound)
                ), preds


# --- dead variables: existence checks and distinct projection ----------------


def with_derived_inputs(program: DatalogProgram) -> DatalogProgram:
    """The program with each fact p(...) stored as p0(...) and copied by a
    rule, so every relation is derived and delta variants do the joins."""
    arity = {f.pred: len(f.args) for f in program.facts}
    copies = []
    for p, n in arity.items():
        args = tuple(Var(f"a{j}") for j in range(n))
        copies.append(Rule(Atom(p, args), (Atom(f"{p}0", args),)))
    facts = tuple(Atom(f"{f.pred}0", f.args) for f in program.facts)
    return DatalogProgram(facts=facts, rules=tuple(copies) + program.rules)


DEAD_VARIABLE_CASES = {
    # ?y is dead and repeated: only b(2, c, c) matches it
    "repeated": ("a(1). a(2). b(1, c, d). b(2, c, c). q(?x) :- a(?x), b(?x, ?y, ?y).", {(2,)}),
    # ?y is dead; a decrement of the symbol s denotes no value
    "decrement": (
        "a(p). a(r). a(t). b(p, s, s). b(r, 3, 2). b(t, 3, 3). q(?x) :- a(?x), b(?x, ?y, ?y - 1).",
        {("r",)},
    ),
    # a variable that only a negated atom or a comparison reads is live
    "negated": (
        "a(1). a(2). b(1, u). b(1, v). b(2, u). c(u). q(?x) :- a(?x), b(?x, ?y), not c(?y).",
        {(1,)},
    ),
    "compared": (
        "a(1). a(2). n(1, 0). n(1, 2). n(2, 1). q(?x) :- a(?x), n(?x, ?i), ?i > 1.",
        {(1,)},
    ),
    # a variable that only the head reads is live
    "head": (
        "a(1). a(2). b(1, u). b(1, v). b(2, w). q(?x, ?y) :- a(?x), b(?x, ?y).",
        {(1, "u"), (1, "v"), (2, "w")},
    ),
    # joined first from the delta, b binds the live ?x next to the dead ?y and ?z
    "delta first": (
        "b(1, u, v). b(1, v, u). b(2, u, u). b(3, w, w). a(1). a(2). "
        "q(?x) :- b(?x, ?y, ?z), a(?x).",
        {(1,), (2,)},
    ),
    # b binds the live ?w next to the dead ?y, afresh for each ?x
    "projection per probe": (
        "a(1). a(2). b(1, u, c). b(1, u, d). b(2, u, c). q(?x, ?w) :- a(?x), b(?x, ?w, ?y).",
        {(1, "u"), (2, "u")},
    ),
    # the last atom binds only the dead ?y
    "last": (
        "a(1). a(2). a(3). b(1, u). b(1, v). b(3, u). q(?x) :- a(?x), b(?x, ?y).",
        {(1,), (3,)},
    ),
}


@pytest.mark.parametrize("derived", [False, True], ids=["input", "derived"])
@pytest.mark.parametrize(
    "text, expected", DEAD_VARIABLE_CASES.values(), ids=DEAD_VARIABLE_CASES.keys()
)
def test_dead_variable_joins_agree_with_the_oracle(text, expected, derived):
    program = load_program(text)
    if derived:
        program = with_derived_inputs(program)
    assert evaluate_like_oracle(program).facts("q") == expected


class CountingOut:
    """An out set that keeps every add call."""

    def __init__(self):
        self.calls = []

    def add(self, args):
        self.calls.append(args)


def test_rule_4_emits_each_fact_once_per_probe():
    # one flooded store: k members of bot, and n elements each in m
    # classes; enumerating the dead ?u and ?z' would emit each (x, y) about
    # k * m times
    k, n, m = 3, 4, 5
    classes = [f"c{j}" for j in range(m)]
    store = datalog.FactStore()
    store.add("bot", ("bot",))
    for y in classes + ["bot"]:
        store.add("cls", (y,))
    for u in range(k):
        store.add("inst", (f"u{u}", "bot"))
    for x in range(n):
        for y in classes:
            store.add("inst", (f"x{x}", y))
    members = [f"u{u}" for u in range(k)] + [f"x{x}" for x in range(n)]
    expected = sorted((x, y) for x in members for y in classes + ["bot"])
    rule = dict(IR_LABELED)["4"]
    c = datalog._compile_rule(rule, dict(derived_in_stratum(BASE_RULES))[rule])
    for v, p in zip(c.variants, c.positive_preds):
        out = CountingOut()
        datalog._gen_step(((v, "inst"),))(store, {"inst": out})(store.facts(p))
        assert sorted(out.calls) == expected, v.atoms


# --- fact store: scalar keys, hoisted buckets, bulk insert ----------------------


# ints and symbols share every column; facts of one predicate have 1 to 3
# arguments, so some are too short for an index on position 1 or 2
STORE_VALUES = st.sampled_from([0, 1, 2, "a", "b"])
STORE_FACTS = st.lists(STORE_VALUES, min_size=1, max_size=3).map(tuple)
STORE_PREDS = st.sampled_from(["p", "q"])
STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), STORE_PREDS, STORE_FACTS),
        st.tuples(st.just("add_all"), STORE_PREDS, st.sets(STORE_FACTS, max_size=6)),
        st.tuples(
            st.just("index"),
            STORE_PREDS,
            st.sets(st.integers(0, 2), min_size=1).map(lambda s: tuple(sorted(s))),
        ),
        st.tuples(
            st.just("match"),
            STORE_PREDS,
            st.sets(st.integers(0, 2), min_size=1).map(lambda s: tuple(sorted(s))),
            st.tuples(STORE_VALUES, STORE_VALUES, STORE_VALUES),
        ),
    ),
    max_size=25,
)


def brute_buckets(facts, positions):
    """facts grouped by their values at positions: the bare value for one
    position, else the tuple; facts too short for the positions left out."""
    out = {}
    for f in facts:
        if len(f) > positions[-1]:
            key = tuple(f[p] for p in positions)
            out.setdefault(key[0] if len(key) == 1 else key, set()).add(f)
    return out


@settings(max_examples=200, deadline=None)
@given(STORE_OPS)
@example(
    [
        # an index before its facts, a short fact, ints and symbols in one
        # column, a bulk insert that is partly stored, an index after its facts
        ("index", "p", (1,)),
        ("add", "p", (0, "a")),
        ("add", "p", ("b",)),
        ("add_all", "p", {(0, "a"), ("a", 0), (1, 0, 2), (2,)}),
        ("index", "p", (0, 2)),
        ("match", "p", (1,), ("a", 0, 0)),
        ("match", "p", (0, 2), (1, 1, 2)),
        ("add_all", "p", {(1, 0, 2), ("b", 2, "a")}),
    ]
)
def test_fact_store_indexes_equal_a_filter_of_the_facts(ops):
    store = datalog.FactStore()
    # the dict each index call first returned: it must stay the live index
    live: dict[tuple[str, tuple[int, ...]], dict] = {}
    for op, pred, *rest in ops:
        before = set(store.facts(pred))
        if op == "add":
            (fact,) = rest
            assert store.add(pred, fact) == (fact not in before)
        elif op == "add_all":
            (facts,) = rest
            assert store.add_all(pred, set(facts)) == facts - before
        elif op == "index":
            (positions,) = rest
            live.setdefault((pred, positions), store.index(pred, positions))
        else:
            positions, values = rest
            key = values[: len(positions)]
            bucket = store.match(pred, positions, key)
            live.setdefault((pred, positions), store.index(pred, positions))
            long_enough = [f for f in store.facts(pred) if len(f) > positions[-1]]
            assert set(bucket) == {f for f in long_enough if tuple(f[p] for p in positions) == key}
        for (p, positions), buckets in live.items():
            assert store.index(p, positions) is buckets
            assert all(len(b) == len(set(b)) for b in buckets.values())
            assert {k: set(b) for k, b in buckets.items()} == brute_buckets(
                store.facts(p), positions
            )


class CountingStore(datalog.FactStore):
    """A store that counts relation, index, match and add_all calls, and
    keeps the predicate of each add_all in stored."""

    def __init__(self):
        super().__init__()
        self.calls = {"relation": 0, "index": 0, "match": 0, "add_all": 0}
        self.stored = []

    def relation(self, pred):
        self.calls["relation"] += 1
        return super().relation(pred)

    def add_all(self, pred, facts):
        self.calls["add_all"] += 1
        self.stored.append(pred)
        return super().add_all(pred, facts)

    def index(self, pred, positions):
        self.calls["index"] += 1
        return super().index(pred, positions)

    def match(self, pred, positions, key):
        self.calls["match"] += 1
        return super().match(pred, positions, key)


def walk_program(n: int) -> DatalogProgram:
    """Odd and even walks over a chain of n edges, and their transitive
    closure: three heads, two rules for odd, a rule joining its head
    twice.  Each round walks one edge further, so it runs n + 1 rounds."""
    return load_program(
        " ".join(f"edge({i}, {i + 1})." for i in range(n))
        + " odd(?x, ?y) :- edge(?x, ?y)."
        + " even(?x, ?z) :- odd(?x, ?y), edge(?y, ?z)."
        + " odd(?x, ?z) :- even(?x, ?y), edge(?y, ?z)."
        + " walk(?x, ?y) :- odd(?x, ?y). walk(?x, ?y) :- even(?x, ?y)."
        + " walk(?x, ?z) :- walk(?x, ?y), walk(?y, ?z)."
    )


def test_steps_look_up_each_relation_and_index_once_per_evaluation(monkeypatch):
    # every probe of the walks is keyed, and a longer chain runs more
    # rounds over more facts: each step binds its relations and indexes on
    # its predicate's first delta and keeps them for every later round
    monkeypatch.setattr(datalog, "FactStore", CountingStore)
    counts = []
    for n in (3, 12):
        store = evaluate(walk_program(n))
        assert store_dict(store) == store_dict(naive_evaluate(walk_program(n)))
        assert store.calls["match"] == 0
        counts.append((store.calls["relation"], store.calls["index"]))
    assert counts[0] == counts[1] and counts[0][1] > 0, counts


def test_a_bound_step_reads_the_relations_as_later_rounds_leave_them():
    # rule 21's hypothesis copy, joined from its first inst_h atom: every
    # delta fact probes subProd and the second inst_h through an index.  The
    # step is bound once, and the facts stored after that are joined too.
    rule = HYP_COPY["21"]
    c = datalog._compile_rule(rule, dict(derived_in_stratum(CLOSURE_RULES))[rule])
    v = c.variants[c.positive_preds.index("inst_h")]
    keyed = sum(
        1 for i in range(1, len(v.atoms)) if datalog._key_positions(v.atoms[i], bound_before(v, i))
    )
    store = CountingStore()
    out = {}
    step = datalog._gen_step(((v, "inst_h"),))(store, out)
    assert 2 <= store.calls["index"] <= keyed
    bound = dict(store.calls)
    store.add("stage", ("D", 0))
    store.add("subProd", ("c0", "c1", "w"))
    ys = []
    for n in (1, 50):
        ys += [f"y{n}_{j}" for j in range(3)]
        store.add_all("inst_h", {(y, "c1", "D", 0) for y in ys})
        xs = [f"x{n}_{j}" for j in range(n)]
        out["inst_h"].clear()
        step({(x, "c0", "D", 0) for x in xs})
        # the ys of every round so far, through the index bound before them
        assert out["inst_h"] == {(x, "w", y, "D", 0) for x in xs for y in ys}
    assert (store.calls["index"], store.calls["relation"]) == (bound["index"], bound["relation"])


SCALAR_KEY_CASES = {
    # b is probed on its first column alone, by ?I - 1; n and b hold symbols
    # there too, and the decrement of s denotes no value
    "decrement": (
        "n(0). n(1). n(2). n(s). b(0, x). b(1, y). b(s, z). b(t, w). "
        "q(?I, ?y) :- n(?I), b(?I - 1, ?y).",
        {(1, "x"), (2, "y")},
    ),
    # one-position probes on a symbol and on an int constant
    "constant": (
        "a(1). a(u). b(c, u). b(0, v). b(d, w). b(1, t). "
        "q(?x, ?y, c) :- a(?x), b(c, ?y). q(?x, ?y, 0) :- a(?x), b(0, ?y).",
        {(1, "u", "c"), ("u", "u", "c"), (1, "v", 0), ("u", "v", 0)},
    ),
    # a one-position probe on a column where 0 and symbols mix
    "mixed column": (
        "a(0). a(1). a(a). a(b). b(0, u). b(a, v). b(1, w). b(c, x). b(0, a). "
        "q(?x, ?y) :- a(?x), b(?x, ?y).",
        {(0, "u"), ("a", "v"), (1, "w"), (0, "a")},
    ),
}


@pytest.mark.parametrize("derived", [False, True], ids=["input", "derived"])
@pytest.mark.parametrize(
    "text, expected", SCALAR_KEY_CASES.values(), ids=SCALAR_KEY_CASES.keys()
)
def test_scalar_key_probes_agree_with_the_oracle(text, expected, derived):
    program = load_program(text)
    if derived:
        program = with_derived_inputs(program)
    assert evaluate_like_oracle(program).facts("q") == expected


def test_recursive_program_stores_each_head_once_per_round(monkeypatch):
    n = 9
    program = walk_program(n)
    expected = store_dict(naive_evaluate(program))
    rounds = []
    store_round = datalog._store_round

    def recording(store, out):
        start = len(store.stored)
        delta = store_round(store, out)
        rounds.append(store.stored[start:])
        return delta

    monkeypatch.setattr(datalog, "FactStore", CountingStore)
    monkeypatch.setattr(datalog, "_store_round", recording)
    store = evaluate(program)
    assert store_dict(store) == expected
    # every add_all ends a round, and no round stores a head twice
    assert sum(map(len, rounds)) == store.calls["add_all"]
    assert all(len(preds) == len(set(preds)) for preds in rounds), rounds
    # a round derives walks one edge longer than the last: the first round
    # walks one edge, and the last finds nothing new
    assert len(rounds) == n + 1, rounds


def full_key_indexes(program, store):
    """The indexes of store that cover every position of their predicate."""
    arity = datalog._symbols(program)[0]
    return [
        (pred, positions)
        for pred, per_pred in store._indexes.items()
        for positions in per_pred
        if len(positions) == arity[pred]
    ]


FULL_KEY_CASES = {
    # b is ground at both positions once a binds ?x and ?y
    "variables": (
        "a(1, 2). a(2, 1). a(3, 3). a(4, 5). b(2, 1). b(3, 3). b(4, 5). "
        "q(?x, ?y) :- a(?x, ?y), b(?y, ?x).",
        {(1, 2), (3, 3)},
    ),
    # a constant and a repeated variable complete the key
    "constant": ("a(1). a(2). a(3). b(1, c). b(2, d). b(3, 3). q(?x) :- a(?x), b(?x, c).", {(1,)}),
    "repeated": ("a(1). a(2). a(u). b(1, 1). b(2, 1). b(u, u). q(?x) :- a(?x), b(?x, ?x).", {(1,), ("u",)}),
    # the key holds a decrement; of the symbol s it denotes no value
    "decrement": (
        "n(1). n(2). n(4). n(s). m(0). m(3). m(s). q(?I) :- n(?I), m(?I - 1).",
        {(1,), (4,)},
    ),
    # the negated atom is checked on the fact set as before
    "negated": (
        "a(1, 2). a(2, 3). b(2, 1). b(3, 2). c(3). q(?x) :- a(?x, ?y), b(?y, ?x), not c(?y).",
        {(1,)},
    ),
}


@pytest.mark.parametrize("derived", [False, True], ids=["input", "derived"])
@pytest.mark.parametrize("text, expected", FULL_KEY_CASES.values(), ids=FULL_KEY_CASES.keys())
def test_full_key_probes_build_no_index_and_agree_with_the_oracle(text, expected, derived):
    program = load_program(text)
    if derived:
        program = with_derived_inputs(program)
    store = evaluate_like_oracle(program)
    assert store.facts("q") == expected
    assert full_key_indexes(program, store) == []


# perfbench's ladder_text(2, 1, Random(1)): two rungs with conflicting
# defaults, a role chain, a nominal and a concept product
LADDER_2X1 = """
class H. class L0_0. class L0_1. class P0_0. class P0_1.
role r. role s. role u.
individual a. individual o0.
L0_1 <= L0_0.
T(L0_0) <= P0_0.
T(L0_1) <= P0_1.
P0_0 and P0_1 <= bot.
L0_0 <= some r.{o0}.
L0_0 <= some r.L0_0.
r o r <= s.
L0_0 x H <= u.
T(H) <= some u.{a}.
"""


# perfbench's ladder_text(3, 1, Random(1)): three rungs, so three stages
# where the two-rung ladder has two
LADDER_3X1 = """
class H. class L0_0. class L0_1. class L0_2. class P0_0. class P0_1.
role r. role s. role u.
individual a. individual o0.
L0_1 <= L0_0.
L0_2 <= L0_1.
T(L0_0) <= P0_0.
T(L0_1) <= P0_1.
T(L0_2) <= P0_0.
P0_0 and P0_1 <= bot.
L0_0 <= some r.{o0}.
L0_2 <= some r.L0_1.
r o r <= s.
L0_0 x H <= u.
T(H) <= some u.{a}.
"""


# perfbench's ladder_text(2, 2, Random(1)): two branches joined by a
# cross-edge between rungs
LADDER_2X2 = """
class H. class L0_0. class L0_1. class P0_0. class P0_1.
class L1_0. class L1_1. class P1_0. class P1_1.
role r. role s. role u.
individual a. individual o0. individual o1.
L0_1 <= L0_0.
T(L0_0) <= P0_0.
T(L0_1) <= P0_1.
P0_0 and P0_1 <= bot.
L0_0 <= some r.{o0}.
L1_1 <= L1_0.
T(L1_0) <= P1_0.
T(L1_1) <= P1_1.
P1_0 and P1_1 <= bot.
L1_0 <= some r.{o1}.
L0_0 <= some r.L1_0.
L1_1 <= some r.L1_1.
r o r <= s.
L0_0 x H <= u.
T(H) <= some u.{a}.
"""


def _query(fixture: str, text: str) -> DatalogProgram:
    kb = load_fixture(fixture)
    return query_program(kb, parse_query(text, kb))[0]


# the fixed rule tables are where dead variables are; example4 declares no
# individual, so the instance query asks example1.  The chain and the
# ladders are closure benchmark KBs; the naive oracle takes about 3 s on
# ladder 3x1 and 2 s on ladder 2x2.  The closure program of rc_inconsistent
# is left out: the naive oracle needs about 20 s on it.
BUILTIN_PROGRAMS = {
    "closure example4": lambda: closure_program(load_fixture("example4.kbt"))[0],
    "closure ladder 2x1": lambda: closure_program(parse_kb(LADDER_2X1))[0],
    "closure chain 20": lambda: closure_program(chain_kb(20))[0],
    "closure ladder 3x1": lambda: closure_program(parse_kb(LADDER_3X1))[0],
    "closure ladder 2x2": lambda: closure_program(parse_kb(LADDER_2X2))[0],
    "subsumption example4": lambda: _query("example4.kbt", "A and B <= D"),
    "instance example1": lambda: _query("example1.kbt", "MathHater(mario)"),
}


@pytest.mark.parametrize("build", BUILTIN_PROGRAMS.values(), ids=BUILTIN_PROGRAMS.keys())
def test_builtin_programs_agree_with_the_oracle(build):
    program = build()
    store = evaluate(program)
    assert store_dict(store) == store_dict(naive_evaluate(program))
    # a probe on every position of its atom reads the fact set
    assert full_key_indexes(program, store) == []


def store_text(store) -> str:
    """The facts of store's visible relations, dumped in a fixed order."""
    facts = [Atom(p, args) for p in store.preds() for args in sorted(store.facts(p), key=repr)]
    return dump_program(DatalogProgram(tuple(facts)))


def dumped_fixture_programs(tmp_path):
    """The programs the CLI's --dump-program writes for a few fixture
    questions: an instance, a subsumption and a closure question."""
    for i, argv in enumerate(
        (
            ("translate", "example1.kbt"),
            ("check", "example1.kbt", "MathHater(paul)"),
            ("subsumes", "example4.kbt", "A <= B"),
            ("rc-check", "example1-af.kbt", "T(Student and Nerd) <= MathHater"),
        )
    ):
        path = tmp_path / f"{i}.dl"
        command, fixture, *rest = argv
        argv = [command, str(fixture_path(fixture)), *rest, "--dump-program", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 1)
        yield load_program(path.read_text())


def test_relations_bound_empty_stay_invisible(tmp_path):
    # a step binds the fact set of every relation it reads, so evaluation
    # leaves empty sets in the store; a store holding only the visible
    # facts must read the same
    programs = [build() for build in BUILTIN_PROGRAMS.values()]
    programs += dumped_fixture_programs(tmp_path)
    bound_empty = 0
    for program in programs:
        store = evaluate(program)
        plain = datalog.FactStore()
        for pred, facts in store_dict(store).items():
            plain.add_all(pred, set(facts))
        bound_empty += sum(not store.facts(p) for p in store._sets)
        for seen in (store, store.copy(store.preds())):
            assert seen.preds() == plain.preds()
            assert len(seen) == len(plain)
            assert store_text(seen) == store_text(plain)
    assert bound_empty


# --- safety -----------------------------------------------------------------


def test_unbound_head_variable_rejected():
    program = DatalogProgram(facts=(), rules=(Rule(Atom("p", (X, Y)), (Atom("q", (X,)),)),))
    with pytest.raises(DatalogError, match="safe|bound"):
        validate_program(program)


def test_unbound_negated_variable_rejected():
    program = DatalogProgram(
        facts=(),
        rules=(Rule(Atom("p", (X,)), (Atom("q", (X,)), Neg(Atom("r", (Y,))))),),
    )
    with pytest.raises(DatalogError, match="safe|bound"):
        validate_program(program)


def test_unbound_comparison_variable_rejected():
    program = DatalogProgram(
        facts=(),
        rules=(Rule(Atom("p", (X,)), (Atom("q", (X,)), Compare("<", Var("J"), 2))),),
    )
    with pytest.raises(DatalogError, match="safe|bound"):
        validate_program(program)


def test_arity_mismatch_rejected():
    program = DatalogProgram(
        facts=(Atom("p", ("a",)),),
        rules=(Rule(Atom("q", (X,)), (Atom("p", (X, Y)),)),),
    )
    with pytest.raises(DatalogError):
        evaluate(program)


# --- error parity: the prepared table checks what validate_program checks -----


def _rule_atoms(rules):
    for rule in rules:
        yield rule.head
        for item in rule.body:
            if isinstance(item, Atom):
                yield item
            elif isinstance(item, Neg):
                yield item.atom


def _fact_clashes_with_rule(rng, facts, rules):
    a = rng.choice(list(_rule_atoms(rules)))
    facts.insert(rng.randint(0, len(facts)), Atom(a.pred, ("c0",) * (len(a.args) + 1)))


def _rule_clashes_with_fact(rng, facts, rules):
    if not facts:
        facts.append(Atom("e", ("c0",)))
    f = rng.choice(facts)
    n = len(f.args) + rng.choice((-1, 1)) if f.args else 1
    body = (Atom(f.pred, (X,) * n),) if n else (Atom(f.pred, ()), Atom("e0", (X,)))
    rules.insert(rng.randint(0, len(rules)), Rule(Atom("clash", (X,)), body))


def _bad_fact_constant(rng, facts, rules):
    bad = rng.choice((True, "", "7up", 2.5, None, ("a",)))
    pred = rng.choice([f.pred for f in facts if f.args] or ["e"])
    n = next((len(f.args) for f in facts if f.pred == pred), 1)
    args = ["c0"] * n
    args[rng.randrange(n)] = bad
    facts.insert(rng.randint(0, len(facts)), Atom(pred, tuple(args)))


def _new_rule(rng, rules, make):
    base = rng.choice(rules)
    rules.insert(rng.randint(0, len(rules)), make(base))


def _decrement_in_head(rng, facts, rules):
    _new_rule(rng, rules, lambda r: Rule(Atom("dec", (Minus(Var("V"), 1),)), r.body))


def _unsafe_head(rng, facts, rules):
    _new_rule(rng, rules, lambda r: Rule(Atom("unsafe", (Var("U"),)), r.body))


def _unsafe_negation(rng, facts, rules):
    a = rng.choice(list(_rule_atoms(rules)))
    neg = Neg(Atom(a.pred, (Var("U"),) * len(a.args) or ()))
    _new_rule(rng, rules, lambda r: Rule(r.head, r.body + (neg,)))


def _unsafe_comparison(rng, facts, rules):
    _new_rule(rng, rules, lambda r: Rule(r.head, (Compare("<", Var("U"), 1),) + r.body))


def _loose_decrement(rng, facts, rules):
    a = rng.choice([a for a in _rule_atoms(rules) if a.args] or [Atom("e", ("c0",))])
    loose = Atom(a.pred, (Minus(Var("L"), 1),) + a.args[1:])
    _new_rule(rng, rules, lambda r: Rule(r.head, r.body + (loose,)))


def _empty_body(rng, facts, rules):
    _new_rule(rng, rules, lambda r: Rule(r.head, ()))


def _unknown_comparison(rng, facts, rules):
    _new_rule(rng, rules, lambda r: Rule(r.head, r.body + (Compare("=", 0, 1),)))


FAULTS = {
    f.__name__.lstrip("_"): f
    for f in (
        _fact_clashes_with_rule,
        _rule_clashes_with_fact,
        _bad_fact_constant,
        _decrement_in_head,
        _unsafe_head,
        _unsafe_negation,
        _unsafe_comparison,
        _loose_decrement,
        _empty_body,
        _unknown_comparison,
    )
}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.lists(st.sampled_from(sorted(FAULTS)), max_size=3),
)
@example(1, ["fact_clashes_with_rule"])
@example(2, ["rule_clashes_with_fact"])
@example(3, ["bad_fact_constant", "empty_body"])
@example(4, ["unsafe_negation", "bad_fact_constant"])
def test_evaluate_raises_exactly_what_validate_program_raises(seed, faults):
    # a random stratified program with the drawn faults put in at random
    # places; evaluate, on a cold and then a warm prepared table, must fail
    # with validate_program's message or, when that passes, use the
    # grounding bound of the whole program
    rng = random.Random(seed)
    program = random_stratified_program(rng)
    facts, rules = list(program.facts), list(program.rules)
    for name in faults:
        FAULTS[name](rng, facts, rules)
    program = DatalogProgram(tuple(facts), tuple(rules))
    try:
        validate_program(program)
        expected = None
    except DatalogError as e:
        expected = str(e)
    assert (expected is None) == (not faults)
    bounds = []
    check_bound = datalog._check_bound
    datalog._prepare.cache_clear()
    with mock.patch.object(
        datalog, "_check_bound", lambda store, bound: bounds.append(bound) or check_bound(store, bound)
    ):
        for _ in ("cold", "warm"):
            if expected is None:
                evaluate(program)
            else:
                with pytest.raises(DatalogError) as raised:
                    evaluate(program)
                assert str(raised.value) == expected
    if expected is None:
        assert bounds and set(bounds) == {grounding_bound(program)}


# --- grounding bound -----------------------------------------------------------


def test_grounding_bound_is_respected():
    program = random_stratified_program(random.Random(3))
    assert len(evaluate(program)) <= grounding_bound(program)


def test_grounding_bound_formula():
    program = DatalogProgram(
        facts=(Atom("p", ("a",)), Atom("q", ("a", "b"))),
        rules=(),
    )
    # two constants: |p| <= 2, |q| <= 4
    assert grounding_bound(program) == 2 + 4


# --- dump / load -------------------------------------------------------------


def test_dump_load_round_trip_bit_exact():
    program = DatalogProgram(
        facts=(Atom("p", ("a",)), Atom("n", (0,)), Atom("n", (1,))),
        rules=(
            Rule(Atom("q", (X,)), (Atom("p", (X,)), Neg(Atom("r", (X,))))),
            Rule(Atom("r", (X,)), (Atom("p", (X,)),)),
            Rule(
                Atom("s", (Var("I"),)),
                (
                    Atom("n", (Var("I"),)),
                    Compare(">", Var("I"), 0),
                    Atom("n", (Minus(Var("I"), 1),)),
                ),
            ),
        ),
    )
    text = dump_program(program)
    reloaded = load_program(text)
    assert reloaded == program
    assert dump_program(reloaded) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_dump_load_round_trip_random(seed):
    program = random_stratified_program(random.Random(seed))
    assert load_program(dump_program(program)) == program


@pytest.mark.parametrize(
    "text, message",
    [
        # "²" is a digit to str.isdigit but no decimal digit, so no integer
        ("p(²).", "line 1:3: unexpected character '²'"),
        ("p(1²).", "line 1:4: unexpected character '²'"),
        ("p(a).\n\tp(@).", "line 2:4: unexpected character '@'"),
        ("p(a).\r\n@", "line 2:1: unexpected character '@'"),
        ("p(½).", "line 1:3: unexpected character '½'"),
        # the end of the input after a trailing comment is at the comment
        ("p(a) %c", "line 1:6: expected '.', found 'end of input'"),
        ("p(a).\np(b) %c", "line 2:6: expected '.', found 'end of input'"),
    ],
)
def test_program_errors_name_line_and_column(text, message):
    with pytest.raises(DatalogError) as raised:
        load_program(text)
    assert str(raised.value) == message


def test_load_rules_pairs_each_label_with_its_own_rule():
    table = (("R1", "p(?X) :- q(?X)."), ("R2", "q(?X) :- r(?X)."))
    assert load_rules(table) == (
        ("R1", Rule(Atom("p", (X,)), (Atom("q", (X,)),))),
        ("R2", Rule(Atom("q", (X,)), (Atom("r", (X,)),))),
    )
    for text in ("", "p(?x) :- q(?x). q(?x) :- r(?x).", "p(a).", "p(a). q(?x) :- p(?x)."):
        with pytest.raises(DatalogError, match="rule R2: its text must hold one rule and no fact"):
            load_rules((table[0], ("R2", text)))


# --- rule transformation --------------------------------------------------------


def test_transform_rules_appends_parameter_and_guards():
    rules = (Rule(Atom("inst", (X, Y)), (Atom("sub", (Y, Z)), Atom("inst", (X, Z)))),)
    out = transform_rules(
        rules,
        targets=frozenset({"inst"}),
        extra=(Var("Q"),),
        guards=(Atom("cls", (Var("Q"),)),),
        guard_mode="always",
    )
    (rule,) = out
    assert rule.head == Atom("inst", (X, Y, Var("Q")))
    assert Atom("inst", (X, Z, Var("Q"))) in rule.body
    assert Atom("sub", (Y, Z)) in rule.body  # non-target args untouched
    assert Atom("cls", (Var("Q"),)) in rule.body


def test_transform_rules_rename():
    rules = (Rule(Atom("inst", (X,)), (Atom("inst", (X,)),)),)
    out = transform_rules(
        rules,
        targets=frozenset({"inst"}),
        extra=(Var("Q"),),
        rename={"inst": "inst_h"},
        guard_mode="always",
    )
    assert out[0].head.pred == "inst_h"
    assert out[0].body[0].pred == "inst_h"
