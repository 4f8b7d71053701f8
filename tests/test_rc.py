"""Rank computation and closure membership for simple KBs."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from typel import datalog
from typel._families import chain_kb
from typel.datalog import Atom, DatalogProgram, Neg, Rule, evaluate, load_program, stratify
from typel.kb import Conj, Name, TypSubsumes, first_non_simple_axiom, is_simple
from typel.materialize import (
    BASE_RULES,
    BOT_CONST,
    IR_LABELED,
    RT_LABELED,
    check_consistency,
    store_inconsistent,
    translate,
)
from typel.parser import axiom_text, parse_concept, parse_kb, parse_query
from typel.rc import (
    CLOSURE_RULES,
    H_RULES,
    RC_LABELED,
    RC_RULES,
    InconsistentKBError,
    NotSimpleError,
    RankAssignment,
    RcVerdict,
    _read_assignment,
    closure_program,
    compute_ranks,
    hypothesis_copy,
    rc_consistent,
    rc_entails,
    t_occurrence_count,
)
import test_parser
from conftest import load_fixture

SIMPLE_FIXTURES = (
    "example1-af.kbt",
    "example4.kbt",
    "rc_still_consistent.kbt",
    "rc_inconsistent.kbt",
)

# the two rules that feed computed ranks back into the base calculus
INJECTION = {rule for label, rule in RC_LABELED if label in ("SameRank_rc1", "LeqRank_rc2")}


def ranks_by_display(assignment):
    out = {}
    for name, rank in assignment.ranks.items():
        out[assignment.display[name]] = rank
    for name in assignment.infinite:
        out[assignment.display[name]] = "inf"
    return out


# --- rank values ----------------------------------------------------------------


def test_fixture_ranks(example1_af):
    queries = tuple(
        parse_concept(text, example1_af)
        for text in (
            "Student and Italian",
            "Student and Young",
            "Young and Italian",
            "Student and (Nerd and MathHater)",
        )
    )
    ranks = ranks_by_display(compute_ranks(example1_af, queries))
    assert ranks["Student"] == 0
    assert ranks["Italian"] == 0
    assert ranks["Student and Italian"] == 0
    assert ranks["Student and Young"] == 0
    assert ranks["Young and Italian"] == 0
    assert ranks["Student and Nerd"] == 1
    assert ranks["Student and (Nerd and MathHater)"] == 2


def test_conflicting_defaults_ranks(example4):
    ranks = ranks_by_display(compute_ranks(example4, (Name("D"),)))
    assert ranks["A"] == 0
    assert ranks["B"] == 0
    assert ranks["D"] == 1


def test_zero_typicality_tbox_ranks():
    kb = parse_kb("class A. class B.\nA <= B.\n")
    assignment = compute_ranks(kb)
    assert assignment.infinite == frozenset()
    assert set(ranks_by_display(assignment)) == {"top"}
    assert ranks_by_display(assignment)["top"] == 0


def test_single_default_rank():
    kb = parse_kb("class A. class B.\nT(A) <= B.\n")
    ranks = ranks_by_display(compute_ranks(kb))
    assert ranks["A"] == 0


def test_unsatisfiable_default_gets_infinite_rank():
    kb = parse_kb("class A. class B.\nA <= bot.\nT(A) <= B.\n")
    ranks = ranks_by_display(compute_ranks(kb))
    assert ranks["A"] == "inf"


def test_rows_ordering(example1_af):
    assignment = compute_ranks(example1_af)
    rows = assignment.rows()
    values = [r for _, r in rows]
    finite = [int(v) for v in values if v != "inf"]
    assert finite == sorted(finite)
    assert all(v == "inf" for v in values[len(finite) :])


def test_rows_merge_equal_rows_and_keep_disagreeing_ones():
    same = RankAssignment({"top": 0, "Y": 0}, frozenset(), 0, {"Y": "top"})
    assert same.rows() == [("top", "0")]
    apart = RankAssignment({"top": 0, "Y": 1}, frozenset(), 0, {"Y": "top"})
    assert apart.rows() == [("top", "0"), ("top", "1")]


# --- closure membership -----------------------------------------------------------


def test_closure_membership(example1_af):
    positive = (
        "T(Young and Italian) <= some hasHair.{Black}",
        "T(Student) <= Young",
        "T(Student) <= MathHater",
        "T(Student and Nerd) <= MathLover",
        "T(Student and Italian) <= some hasHair.{Black}",
    )
    for text in positive:
        q = parse_query(text, example1_af)
        assert rc_entails(example1_af, q).in_closure, text


def test_closure_blocks_overridden_default(example1_af):
    q = parse_query("T(Student and Nerd) <= MathHater", example1_af)
    assert not rc_entails(example1_af, q).in_closure


def test_closure_rejects_unrelated_inclusion(example1_af):
    q = parse_query("T(Italian) <= Young", example1_af)
    assert not rc_entails(example1_af, q).in_closure


def test_rc_entails_takes_only_typ_subsumption(example1_af):
    with pytest.raises(TypeError):
        rc_entails(example1_af, parse_query("Student <= Young", example1_af))


# --- gates ---------------------------------------------------------------------------


def test_non_simple_kb_rejected(example1):
    # the fixture has an inclusion with T on the right-hand side
    with pytest.raises(NotSimpleError):
        compute_ranks(example1)
    with pytest.raises(NotSimpleError):
        rc_consistent(example1)


def test_closure_program_rejects_a_kb_that_is_not_simple():
    kb = parse_kb("class A. class B.\nA <= T(B).\n")
    with pytest.raises(NotSimpleError, match=r"^not a simple KB: A <= T\(B\)$"):
        closure_program(kb)


def test_a_wrong_query_is_reported_before_the_kb_is_not_simple(example1):
    with pytest.raises(ValueError, match="^cannot rank T\\(Student\\)") as info:
        compute_ranks(example1, (parse_concept("T(Student)", example1),))
    assert not isinstance(info.value, NotSimpleError)
    with pytest.raises(TypeError):
        rc_entails(example1, parse_query("Student <= Young", example1))


@pytest.mark.parametrize(
    "entry",
    [
        compute_ranks,
        lambda kb: rc_entails(kb, parse_query("T(A) <= A", kb)),
        rc_consistent,
    ],
    ids=["compute_ranks", "rc_entails", "rc_consistent"],
)
def test_classically_inconsistent_kb_rejected(entry):
    kb = parse_kb("class A. individual a.\nA <= bot.\nA(a).\n")
    with pytest.raises(InconsistentKBError, match="^classically inconsistent KB"):
        entry(kb)


# --- rank-aware consistency ------------------------------------------------------------


def test_rc_consistent_on_fixture(example1_af):
    assert rc_consistent(example1_af)


def test_nominal_typicality_conflict_is_rank_inconsistent():
    kb = load_fixture("rc_inconsistent.kbt")
    assert not rc_consistent(kb)


def test_consistency_restored_without_nominal_typicality(example1_af):
    kb = load_fixture("rc_still_consistent.kbt")
    assert rc_consistent(kb)
    base = {
        k: v for k, v in ranks_by_display(compute_ranks(example1_af)).items() if k != "top"
    }
    widened = ranks_by_display(compute_ranks(kb))
    for concept, rank in base.items():
        assert widened[concept] == rank


# --- construction internals --------------------------------------------------------------


def test_t_occurrence_count(example1_af, example1):
    assert t_occurrence_count(example1_af) == 4
    assert t_occurrence_count(example1) == 5


def test_possrank_range_is_occurrences_plus_one(example1_af):
    program, _, _ = closure_program(example1_af)
    stages = sorted(f.args[0] for f in program.facts if f.pred == "possrank")
    assert stages == [0, 1, 2, 3, 4, 5]


def test_fixpoint_stage_within_bound(example1_af):
    assignment = compute_ranks(example1_af)
    assert 0 < assignment.fixpoint_stage <= 5


def test_stage_restriction_is_monotone(example1_af):
    program, _, _ = closure_program(example1_af)
    store = evaluate(program)
    by_stage: dict[int, set] = {}
    for c, d, i in store.facts("subTypAt"):
        by_stage.setdefault(i, set()).add((c, d))
    stages = sorted(by_stage)
    for lo, hi in zip(stages, stages[1:]):
        assert by_stage[hi] <= by_stage[lo]


def test_fixpoint_persists(example1_af):
    program, _, _ = closure_program(example1_af)
    store = evaluate(program)
    stages = sorted(args[0] for args in store.facts("fixp"))
    assert stages == list(range(stages[0], 6))


def test_ranked_rule_partition_is_a_valid_stratification(example1_af):
    # the declared three-layer reading: base calculus and staging below,
    # rank and newNonEx in the middle, fixpoint and closure on top.
    # the two rank-injection rules are the deliberate exception: they feed
    # computed ranks back into the base calculus and rely on the engine's
    # own finer stratification.
    program, _, _ = closure_program(example1_af)
    group = {"rank": 1, "newNonEx": 1, "fixp": 2, "inf_rank": 2, "inrc": 2}

    def g(pred):
        return group.get(pred, 0)

    for rule in [rule for rule in program.rules if rule not in INJECTION]:
        for item in rule.body:
            if isinstance(item, Atom):
                assert g(rule.head.pred) >= g(item.pred), rule
            elif isinstance(item, Neg):
                assert g(rule.head.pred) > g(item.atom.pred), rule


def test_full_rc_program_still_machine_stratifiable(example1_af):
    program, _, _ = closure_program(example1_af)
    strata, level = stratify(program.rules)
    assert level["fixp"] > level["newNonEx"]
    assert level["rank"] > level["exceptional"]


# --- independent reconstruction of the exceptionality iteration ----------------------


@pytest.mark.parametrize("fixture", SIMPLE_FIXTURES)
def test_exceptionality_matches_plain_reconstruction(fixture):
    """Stagewise cross-check of the staged construction.

    A concept is exceptional at stage i when assuming a typical-top
    element inside it contradicts the stage-i defeasible axioms.  That is
    re-derived here with the plain calculus, one evaluation per concept
    and stage, and compared against the staged program's verdicts.
    """
    program, nkb, _ = closure_program(load_fixture(fixture))
    store = evaluate(program)

    t_cls = sorted(args[0] for args in store.facts("t_cls"))
    stages = sorted(args[0] for args in store.facts("possrank"))
    base_facts = [f for f in translate(nkb).facts if f.pred != "subTyp"]

    for stage in stages:
        staged_subtyp = [
            Atom("subTyp", (c, d)) for c, d, i in store.facts("subTypAt") if i == stage
        ]
        for concept in t_cls:
            hypothesis = [
                Atom("typ", (concept, "top")),
                Atom("inst", (concept, concept)),
            ]
            plain = DatalogProgram(
                facts=tuple(base_facts + staged_subtyp + hypothesis),
                rules=BASE_RULES,
            )
            derived_bot = evaluate(plain).contains("inst", (concept, BOT_CONST))
            assert derived_bot == store.contains("exceptional", (concept, stage)), (
                concept,
                stage,
            )


def test_rank_is_first_non_exceptional_stage(example1_af):
    program, _, _ = closure_program(example1_af)
    store = evaluate(program)
    for concept, rank in ((args[0], args[1]) for args in store.facts("rank")):
        assert not store.contains("exceptional", (concept, rank))
        for earlier in range(rank):
            assert store.contains("exceptional", (concept, earlier))


def test_closure_query_concepts_do_not_change_kb_ranks(example1_af):
    plain = ranks_by_display(compute_ranks(example1_af))
    extra = (parse_concept("Young and Italian", example1_af),)
    widened = ranks_by_display(compute_ranks(example1_af, extra))
    for concept, rank in plain.items():
        assert widened[concept] == rank


# --- stages exist only while a concept stays exceptional -------------------------------


STAGE_KBS = [pytest.param(load_fixture(name), id=name) for name in SIMPLE_FIXTURES] + [
    pytest.param(chain_kb(10), id="chain_kb(10)"),
    pytest.param(parse_kb("class A. class B.\nA <= bot.\nT(A) <= B.\n"), id="unsatisfiable-default"),
]


@pytest.mark.parametrize("kb", STAGE_KBS)
def test_stage_holds_exactly_up_to_the_rank(kb):
    program, _, _ = closure_program(kb)
    store = evaluate(program)
    stages = sorted(args[0] for args in store.facts("possrank"))
    ranks = dict(store.facts("rank"))
    infinite = {args[0] for args in store.facts("inf_rank")}
    expected = set()
    for (concept,) in store.facts("t_cls"):
        top = stages[-1] if concept in infinite else ranks[concept]
        expected |= {(concept, i) for i in stages if i <= top}
    assert set(store.facts("stage")) == expected
    # the hypothesis copy lives only on those stages
    assert {(d, i) for _, _, d, i in store.facts("inst_h")} <= expected


# --- staged against one-shot -------------------------------------------------------------


def _one_shot(rule: Rule) -> Rule:
    """The rule as it read before stages were gated on exceptionality:
    every stage(D, I) guard becomes t_cls(D), possrank(I)."""
    body = []
    for item in rule.body:
        if isinstance(item, Atom) and item.pred == "stage":
            body += [Atom("t_cls", item.args[:1]), Atom("possrank", item.args[1:])]
        else:
            body.append(item)
    return Rule(rule.head, tuple(body))


ONE_SHOT_RULES = BASE_RULES + tuple(
    _one_shot(rule) for rule in H_RULES + RC_RULES if rule.head.pred != "stage"
)


def _ladder_text(n: int, repeat: int | None, bottom: bool, member: int | None) -> str:
    """Rungs L0 ⊒ L1 ⊒ … ⊒ L{n-1}, each defaulting to P0 or P1, which are
    disjoint.  Parities alternate, so rung i is exceptional below stage i,
    except that rung repeat takes the parity of the rung above it and
    breaks the climb.  bottom makes the last rung unsatisfiable (infinite
    rank); member asserts an individual into rung member."""
    parities = [(i + (repeat is not None and i >= repeat)) % 2 for i in range(n)]
    lines = [f"class L{i}." for i in range(n)] + ["class P0. class P1. individual a."]
    lines += [f"L{i} <= L{i - 1}." for i in range(1, n)]
    lines += [f"T(L{i}) <= P{p}." for i, p in enumerate(parities)]
    lines.append("P0 and P1 <= bot.")
    if bottom:
        lines.append(f"L{n - 1} <= bot.")
    if member is not None:
        lines.append(f"L{member}(a).")
    return "\n".join(lines) + "\n"


ladder_args = st.tuples(
    st.integers(3, 5),
    st.one_of(st.none(), st.integers(1, 4)),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 2)),
)
ladders = ladder_args.map(lambda args: parse_kb(_ladder_text(*args)))
consistent_simple_kbs = st.one_of(test_parser.kbs.filter(is_simple), ladders).filter(check_consistency)


@settings(max_examples=40, deadline=None)
@given(ladder_args)
@example((4, None, False, None))
@example((5, 2, False, None))
@example((4, None, True, None))
@example((5, 3, True, 1))
@example((3, 1, False, 0))
def test_ladder_ranks_follow_the_construction(args):
    """Rung i has rank i, one less from rung repeat on; an unsatisfiable
    last rung has rank inf, and top has rank 0."""
    n, repeat, bottom, member = args
    kb = parse_kb(_ladder_text(*args))
    if bottom and member == n - 1:
        with pytest.raises(InconsistentKBError):
            compute_ranks(kb)
        return
    expected = {f"L{i}": i - (repeat is not None and i >= repeat) for i in range(n)}
    if bottom:
        expected[f"L{n - 1}"] = "inf"
    expected["top"] = 0
    assert ranks_by_display(compute_ranks(kb)) == expected


def _every_pair_facts(program: DatalogProgram) -> tuple[Atom, ...]:
    """The program's facts, with every (t_cls, cls) pair asked about."""
    t_cls = {f.args[1] for f in program.facts if f.pred == "auxc"}
    cls = {f.args[0] for f in program.facts if f.pred == "cls"}
    return program.facts + tuple(Atom("def_subs", (c, d)) for c in t_cls for d in cls)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(consistent_simple_kbs)
def test_staged_closure_agrees_with_one_shot(kb):
    """The stage guard only drops hypothesis copies no reader needs: the
    ungated program derives the same ranks, exceptionality, closure
    membership over every (t_cls, cls) pair, and closure consistency."""
    program, _, _ = closure_program(kb)
    facts = _every_pair_facts(program)
    staged = evaluate(DatalogProgram(facts=facts, rules=program.rules))
    one_shot = evaluate(DatalogProgram(facts=facts, rules=ONE_SHOT_RULES))
    for pred in ("rank", "inf_rank", "fixp", "exceptional", "inrc"):
        assert set(staged.facts(pred)) == set(one_shot.facts(pred)), pred
    assert store_inconsistent(staged) == store_inconsistent(one_shot)


# --- one evaluation per request against the gate-first composition -----------------------


def _outcome(call):
    """The verdict, or the class and message of the exception raised."""
    try:
        return call()
    except Exception as e:  # any outcome counts, the comparison decides
        return type(e), str(e)


def _gated(kb):
    """The reference gate: simplicity, then a separate classical
    consistency check of the base program, before any closure program."""
    bad = first_non_simple_axiom(kb)
    if bad is not None:
        raise NotSimpleError(f"not a simple KB: {axiom_text(bad)}")
    if not check_consistency(kb):
        raise InconsistentKBError("classically inconsistent KB: ranks are undefined")


def _gated_ranks(kb, concepts):
    _gated(kb)
    program, nkb, _ = closure_program(kb, concepts=concepts)
    return _read_assignment(evaluate(program), nkb)


def _gated_entails(kb, q):
    _gated(kb)
    program, _, goal = closure_program(kb, q)
    return RcVerdict(in_closure=evaluate(program).contains(goal.pred, goal.args))


def _gated_consistent(kb):
    _gated(kb)
    return not store_inconsistent(evaluate(closure_program(kb)[0]))


def _name_queries(kb):
    names = st.builds(Name, st.sampled_from(sorted(kb.signature.concept_names)))
    return st.tuples(st.just(kb), st.builds(TypSubsumes, names, names))


def _nominal_conflict_text(k: int, conflicts: frozenset[tuple[int, int]]) -> str:
    """k nominals {a_i}, each with its own default T({a_i}) <= C_i, a
    universal role U, and for each conflict (i, j) an axiom that no typical
    element may sit in {a_i} and another in {a_j}.  Each default makes its
    nominal a typical element, so the closure is inconsistent exactly when
    there is a conflict; classically the KB is always consistent."""
    lines = [f"class C{i}. individual a{i}." for i in range(k)] + ["role U."]
    lines += [f"T({{a{i}}}) <= C{i}." for i in range(k)]
    lines.append("top x top <= U.")
    lines += [
        f"some U.({{a{i}}} and T(top)) and some U.({{a{j}}} and T(top)) <= bot."
        for i, j in sorted(conflicts)
    ]
    return "\n".join(lines) + "\n"


nominal_conflicts = st.integers(2, 4).flatmap(
    lambda k: st.tuples(
        st.just(k), st.frozensets(st.sampled_from(list(itertools.combinations(range(k), 2))))
    )
)


@settings(max_examples=30, deadline=None)
@given(nominal_conflicts)
def test_nominal_conflicts_make_the_closure_inconsistent(k_and_conflicts):
    kb = parse_kb(_nominal_conflict_text(*k_and_conflicts))
    assert check_consistency(kb)
    assert rc_consistent(kb) == (not k_and_conflicts[1])


# no simplicity or consistency filter: every outcome must come out as before
kbs_with_queries = st.one_of(
    st.tuples(
        test_parser.kbs,
        st.builds(TypSubsumes, test_parser.tfree_concepts, test_parser.tfree_concepts),
    ),
    ladders.flatmap(_name_queries),
    nominal_conflicts.map(lambda args: parse_kb(_nominal_conflict_text(*args))).flatmap(
        _name_queries
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kbs_with_queries)
@example((load_fixture("rc_inconsistent.kbt"), TypSubsumes(Name("Student"), Name("Young"))))
@example((load_fixture("example1.kbt"), TypSubsumes(Name("Student"), Name("Young"))))
def test_entry_points_agree_with_the_gate_first_composition(kb_and_query):
    """Reading classical consistency off the closure store keeps the three
    outcomes apart: NotSimpleError, InconsistentKBError and the verdict
    each come out exactly as from the gate followed by the full closure
    program, for ranks, membership and closure consistency."""
    kb, q = kb_and_query
    concepts = (q.lhs,)
    assert _outcome(lambda: compute_ranks(kb, concepts)) == _outcome(
        lambda: _gated_ranks(kb, concepts)
    )
    assert _outcome(lambda: rc_entails(kb, q)) == _outcome(lambda: _gated_entails(kb, q))
    assert _outcome(lambda: rc_consistent(kb)) == _outcome(lambda: _gated_consistent(kb))


# --- each hypothesis copy stops at its bottom fact --------------------------------------


# the closure table as it read while every copy ran the calculus to its end:
# rule 4's and SupTyp's copies included, and a C2 that asks for the copy's
# own concept in a bottom class, where rule 4's flood puts it
_REFERENCE_C2 = load_program(
    "exceptional(?C, ?I) :- stage(?C, ?I), cls(?Z), inst_h(?C, ?Z, ?C, ?I), bot(?Z).\n"
).rules[0]
REFERENCE_CLOSURE_RULES = (
    BASE_RULES
    + hypothesis_copy(tuple(rule for label, rule in IR_LABELED + RT_LABELED if label != "SubTyp"))
    + tuple(_REFERENCE_C2 if label == "C2" else rule for label, rule in RC_LABELED)
)

CLOSURE_PREDS = ("rank", "inf_rank", "fixp", "exceptional", "stage", "inrc")


def _no_query(kbs):
    return kbs.map(lambda kb: (kb, None))


# n is a member of C, and a typical A has an r-successor in {n} and in B,
# which C excludes: the successor and n reach bottom, A itself never does
NOMINAL_SUCCESSOR_CONFLICT = (
    "class A. class B. class C. individual n. role r.\n"
    "T(A) <= some r.({n} and B).\nC(n).\nB and C <= bot.\n"
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(
    st.one_of(
        kbs_with_queries,
        _no_query(consistent_simple_kbs),
        _no_query(nominal_conflicts.map(lambda args: parse_kb(_nominal_conflict_text(*args)))),
    )
)
@example((parse_kb(_ladder_text(4, None, True, None)), None))
@example((parse_kb(NOMINAL_SUCCESSOR_CONFLICT), TypSubsumes(Name("A"), Name("B"))))
def test_copies_stopped_at_their_bottom_fact_agree_with_the_reference_table(kb_and_query):
    """Without rule 4's and SupTyp's copies, and with C2 reading any bottom
    fact of a copy, the closure table derives the same ranks, stages,
    exceptionality, closure membership over every (t_cls, cls) pair, and
    closure consistency as the reference table."""
    kb, q = kb_and_query
    if first_non_simple_axiom(kb) is not None:
        return
    facts = _every_pair_facts(closure_program(kb, q)[0])
    stopped = evaluate(DatalogProgram(facts=facts, rules=CLOSURE_RULES))
    reference = evaluate(DatalogProgram(facts=facts, rules=REFERENCE_CLOSURE_RULES))
    for pred in CLOSURE_PREDS:
        assert set(stopped.facts(pred)) == set(reference.facts(pred)), pred
    assert store_inconsistent(stopped) == store_inconsistent(reference)


def _reads_suptyp(rule: Rule) -> bool:
    return any(isinstance(atom, Atom) and atom.pred == "supTyp" for atom in rule.body)


# the SupTyp rule and its hypothesis copy: the only rules of the reference
# table that read supTyp
SUPTYP = {rule for rule in REFERENCE_CLOSURE_RULES if _reads_suptyp(rule)}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(consistent_simple_kbs)
def test_typicality_on_the_right_of_a_bridge_derives_nothing_for_the_closure(kb):
    """In a simple KB every T occurs on a left side, so an occurrence name
    X_C gets members only through T(R) <= X_C: without the supTyp facts of
    the other bridge, X_C <= T(R), the reference table derives the same
    ranks, stages, exceptionality, closure membership over every
    (t_cls, cls) pair, and closure consistency.  The closure table keeps
    the base SupTyp rule and drops its copy."""
    assert len(SUPTYP) == 2
    assert [rule for rule in CLOSURE_RULES if _reads_suptyp(rule)] == [dict(RT_LABELED)["SupTyp"]]
    facts = _every_pair_facts(closure_program(kb)[0])
    full = evaluate(DatalogProgram(facts=facts, rules=REFERENCE_CLOSURE_RULES))
    rules = tuple(rule for rule in REFERENCE_CLOSURE_RULES if rule not in SUPTYP)
    without = evaluate(DatalogProgram(facts=facts, rules=rules))
    for pred in CLOSURE_PREDS:
        assert set(full.facts(pred)) == set(without.facts(pred)), pred
    assert store_inconsistent(full) == store_inconsistent(without)


# --- one closure table for every entry point ---------------------------------------------


# the reference for ranks and membership: the closure table without the two
# rules that inject computed ranks into the base calculus
RANK_REFERENCE_RULES = tuple(rule for rule in CLOSURE_RULES if rule not in INJECTION)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kbs_with_queries)
@example((load_fixture("rc_inconsistent.kbt"), TypSubsumes(Name("Student"), Name("Young"))))
@example((load_fixture("example1-af.kbt"), TypSubsumes(Name("Student"), Name("Young"))))
@example((parse_kb(_nominal_conflict_text(2, frozenset({(0, 1)}))), TypSubsumes(Name("C0"), Name("C1"))))
def test_closure_table_ranks_and_membership_match_the_rank_table(kb_and_query):
    """No rank, stage or hypothesis-copy rule reads a base-calculus
    predicate, so on a classically consistent simple KB the injection rules
    change neither the ranks nor the inrc verdict, even where they make the
    closure inconsistent."""
    kb, q = kb_and_query
    if first_non_simple_axiom(kb) is not None or not check_consistency(kb):
        return
    program, nkb, goal = closure_program(kb, q)
    reference = evaluate(DatalogProgram(facts=program.facts, rules=RANK_REFERENCE_RULES))
    assert not store_inconsistent(reference)
    assert compute_ranks(kb, (q.lhs,)) == _read_assignment(reference, nkb)
    assert rc_entails(kb, q) == RcVerdict(in_closure=reference.contains(goal.pred, goal.args))


def test_rc_entry_points_prepare_one_table(example1_af, monkeypatch):
    """compute_ranks, rc_entails and rc_consistent evaluate the same table,
    so a process generates each of its joins once."""
    generated = []
    gen_fn = datalog._gen_fn
    monkeypatch.setattr(datalog, "_gen_fn", lambda cv: generated.append(cv) or gen_fn(cv))
    datalog._prepare.cache_clear()
    compute_ranks(example1_af)
    assert generated
    generated.clear()
    assert rc_consistent(example1_af)
    assert generated == []
    rc_entails(example1_af, parse_query("T(Student and Italian) <= Young", example1_af))
    info = datalog._prepare.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
