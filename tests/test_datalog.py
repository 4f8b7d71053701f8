"""Engine behavior: stratification, evaluation, oracle agreement, round trips."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typel.datalog import (
    Atom,
    Compare,
    DatalogError,
    DatalogProgram,
    Minus,
    Neg,
    Rule,
    Var,
    dump_program,
    evaluate,
    grounding_bound,
    load_program,
    naive_evaluate,
    query,
    stratify,
    transform_rules,
    validate_program,
)

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def store_dict(store):
    return {p: frozenset(store.facts(p)) for p in store.preds() if store.facts(p)}


# --- random stratified programs, shared with the acceptance suite -----------


def random_stratified_program(rng: random.Random) -> DatalogProgram:
    """A safe stratified program over <=5 constants and <=8 rules.

    Each predicate gets a fixed stratum; rule bodies draw positive atoms
    from its stratum or below and negated atoms from strictly below, so no
    negative cycle can form.  Head and negated variables are re-bound to
    constants unless a positive atom binds them.
    """
    consts = [f"c{i}" for i in range(rng.randint(2, 5))]
    preds = []
    for i in range(rng.randint(3, 6)):
        preds.append((f"p{i}", rng.randint(1, 2), rng.randint(0, 2)))

    facts = []
    for name, arity, _ in preds:
        for _ in range(rng.randint(0, 3)):
            args = tuple(rng.choice(consts) for _ in range(arity))
            facts.append(Atom(name, args))

    pool = [X, Y, Z]
    rules = []
    for _ in range(rng.randint(1, 8)):
        head_name, head_arity, stratum = rng.choice(preds)
        at_or_below = [p for p in preds if p[2] <= stratum]
        below = [p for p in preds if p[2] < stratum]

        body: list = []
        bound: set[Var] = set()
        for _ in range(rng.randint(1, 3)):
            name, arity, _ = rng.choice(at_or_below)
            args = tuple(rng.choice(pool + consts) for _ in range(arity))
            body.append(Atom(name, args))
            bound.update(a for a in args if isinstance(a, Var))

        def grounded(term):
            return term if isinstance(term, Var) and term in bound else rng.choice(consts)

        if below and rng.random() < 0.5:
            name, arity, _ = rng.choice(below)
            args = tuple(grounded(rng.choice(pool + consts)) for _ in range(arity))
            body.append(Neg(Atom(name, args)))

        head_args = tuple(grounded(rng.choice(pool + consts)) for _ in range(head_arity))
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


# --- query ----------------------------------------------------------------------


def test_query_substitutions():
    store = evaluate(
        DatalogProgram(
            facts=(Atom("p", ("a", "b")), Atom("p", ("a", "c")), Atom("p", ("b", "c"))),
            rules=(),
        )
    )
    subs = query(store, Atom("p", ("a", Y)))
    assert [s[Y] for s in subs] == ["b", "c"]
    assert query(store, Atom("missing", (X,))) == []
    assert query(store, Atom("p", ("a", "b"))) == [{}]
    store = evaluate(DatalogProgram(facts=(Atom("p", ("a", "a")), Atom("p", ("a", "b")))))
    assert query(store, Atom("p", (X, X))) == [{X: "a"}]


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
