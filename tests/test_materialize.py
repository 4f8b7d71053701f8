"""Materialization calculus: translation facts, rule table, entailment checks."""
from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import test_parser
from typel.datalog import (
    Atom,
    DatalogProgram,
    Rule,
    Var,
    dump_program,
    evaluate,
    load_program,
    naive_evaluate,
    rule_text,
    transform_rules,
)
from typel.kb import (
    BOT,
    GCI,
    TOP,
    ConceptAssertion,
    Conj,
    Exists,
    InstanceOf,
    KnowledgeBase,
    Name,
    Nominal,
    RoleHolds,
    Subsumes,
    TypSubsumes,
    TypicalInstanceOf,
    conj_of,
    is_simple,
    validate,
    validate_query,
)
from typel.materialize import (
    BASE_RULES,
    BOT_CONST,
    DERIVED_PREDS,
    IR_LABELED,
    RT_LABELED,
    TOP_CONST,
    _goal,
    _prepared,
    _prepared_kb,
    _query,
    aux_for,
    build_program,
    check_consistency,
    check_instance,
    check_subsumption,
    query_program,
    store_inconsistent,
    subsumption_rules,
    translate,
)
from typel.model import refute
from typel.rc import InconsistentKBError, rc_entails
from typel.normalize import NormalizedKB, normalize
from typel.parser import parse_kb, parse_query
from typel.record import Record

# --- reference rule table ----------------------------------------------------
#
# Independent transcription of the calculus rule listing, in its source
# notation (bare variables, <- arrow).  The audit maps the built rules
# into this notation token by token; any drift in materialize.py fails.

REFERENCE_IR = {
    "1": "inst(x, x) <- nom(x)",
    "2": "self(x, v) <- nom(x), triple(x, v, x)",
    "3": "inst(x, z) <- top(z), inst(x, z')",
    "4": "inst(x, y) <- bot(z), inst(u, z), inst(x, z'), cls(y)",
    "5": "inst(x, z) <- subClass(y, z), inst(x, y)",
    "6": "inst(x, z) <- subConj(y1, y2, z), inst(x, y1), inst(x, y2)",
    "7": "inst(x, z) <- subEx(v, y, z), triple(x, v, x'), inst(x', y)",
    "8": "inst(x, z) <- subEx(v, y, z), self(x, v), inst(x, y)",
    "9": "triple(x, v, x') <- supEx(y, v, z, x'), inst(x, y)",
    "10": "inst(x', z) <- supEx(y, v, z, x'), inst(x, y)",
    "11": "inst(x, z) <- subSelf(v, z), self(x, v)",
    "12": "self(x, v) <- supSelf(y, v), inst(x, y)",
    "13": "triple(x, w, x') <- subRole(v, w), triple(x, v, x')",
    "14": "self(x, w) <- subRole(v, w), self(x, v)",
    "15": "triple(x, w, x'') <- subRChain(u, v, w), triple(x, u, x'), triple(x', v, x'')",
    "16": "triple(x, w, x') <- subRChain(u, v, w), self(x, u), triple(x, v, x')",
    "17": "triple(x, w, x') <- subRChain(u, v, w), triple(x, u, x'), self(x', v)",
    "18": "triple(x, w, x) <- subRChain(u, v, w), self(x, u), self(x, v)",
    "19": "triple(x, w, x') <- subRConj(v1, v2, w), triple(x, v1, x'), triple(x, v2, x')",
    "20": "self(x, w) <- subRConj(v1, v2, w), self(x, v1), self(x, v2)",
    "21": "triple(x, w, x') <- subProd(y1, y2, w), inst(x, y1), inst(x', y2)",
    "22": "self(x, w) <- subProd(y1, y2, w), inst(x, y1), inst(x, y2)",
    "23": "inst(x, z1) <- supProd(v, z1, z2), triple(x, v, x')",
    "24": "inst(x, z1) <- supProd(v, z1, z2), self(x, v)",
    "25": "inst(x', z2) <- supProd(v, z1, z2), triple(x, v, x')",
    "26": "inst(x, z2) <- supProd(v, z1, z2), self(x, v)",
    "27": "inst(y, z) <- inst(x, y), nom(y), inst(x, z)",
    "28": "inst(x, z) <- inst(x, y), nom(y), inst(y, z)",
    "29": "triple(z, u, y) <- inst(x, y), nom(y), triple(z, u, x)",
}

# one predicate name, auxc, covers both spellings in the source table
REFERENCE_RT = {
    "SupTyp": "typ(x, z) <- supTyp(y, z), inst(x, y)",
    "SubTyp": "inst(x, z) <- subTyp(y, z), typ(x, y)",
    "Refl": "inst(x, y) <- typ(x, y)",
    "A0": "typ(Aux, C) <- inst(x, C), auxc(Aux, C)",
    "A1": "leqRank(x, y) <- typ(x, B), inst(y, B)",
    "A2": "sameRank(x, y) <- typ(x, A), typ(y, A)",
    "A3": "typ(x, B) <- sameRank(x, y), inst(x, B), typ(y, B)",
    "B1": "sameRank(x, z) <- sameRank(x, y), sameRank(y, z)",
    "B2": "sameRank(x, y) <- sameRank(y, x)",
    "B3": "leqRank(x, y) <- sameRank(y, x)",
    "B4": "leqRank(x, z) <- leqRank(x, y), leqRank(y, z)",
    "B5": "sameRank(x, y) <- leqRank(x, y), leqRank(y, x)",
    "B6": "sameRank(x, y) <- nom(y), inst(x, y)",
}

_TOK = re.compile(r"\?[A-Za-z_][A-Za-z0-9_']*|[A-Za-z_][A-Za-z0-9_']*|<-|:-|[(),.]")


def reference_tokens(text: str) -> list[str]:
    return _TOK.findall(text)


def built_rule_tokens(rule) -> list[str]:
    toks = []
    for t in _TOK.findall(rule_text(rule)):
        if t.startswith("?"):
            toks.append(t[1:])
        elif t == ":-":
            toks.append("<-")
        elif t == ".":
            continue
        else:
            toks.append(t)
    return toks


def audit(labeled, reference) -> list[str]:
    """Labels whose built rule does not match the reference, plus set diffs."""
    bad = [label for label, rule in labeled
           if label not in reference
           or built_rule_tokens(rule) != reference_tokens(reference[label])]
    missing = set(reference) - {label for label, _ in labeled}
    return bad + sorted(missing)


def test_rule_table_counts():
    assert len(IR_LABELED) == 29
    assert len(RT_LABELED) == 13
    assert len(BASE_RULES) == 42


def test_structural_rules_match_reference():
    assert audit(IR_LABELED, REFERENCE_IR) == []


def test_typicality_rules_match_reference():
    assert audit(RT_LABELED, REFERENCE_RT) == []


def test_audit_catches_drift():
    tampered = dict(REFERENCE_IR)
    tampered["5"] = "inst(x, z) <- subClass(z, y), inst(x, y)"
    assert audit(IR_LABELED, tampered) == ["5"]


# --- input translation ---------------------------------------------------------


def facts_by_pred(it):
    out = {}
    for f in it.facts:
        out.setdefault(f.pred, set()).add(f.args)
    return out


def test_empty_kb_translation_has_only_the_top_scaffold():
    nkb, _ = normalize(parse_kb(""), ())
    it = translate(nkb)
    assert facts_by_pred(it) == {
        "top": {(TOP_CONST,)},
        "cls": {(TOP_CONST,)},
        "auxc": {(aux_for(TOP_CONST), TOP_CONST)},
    }


def test_defeasible_axiom_becomes_subtyp_fact():
    kb = parse_kb("class A. class B.\nT(A) <= B.\n")
    nkb, _ = normalize(kb, ())
    it = translate(nkb)
    by = facts_by_pred(it)
    (entry,) = nkb.aux_registry
    assert entry.ranked == "A"
    x = entry.x_name
    assert ("A", x) in by["subTyp"]
    assert (x, "B") in by["subClass"]
    assert (aux_for("A"), "A") in by["auxc"]


def test_role_assertion_doubles_target_as_witness():
    kb = parse_kb("role r. individual a. individual b.\nr(a, b).\n")
    nkb, _ = normalize(kb, ())
    by = facts_by_pred(translate(nkb))
    assert ("a", "r", "b", "b") in by["supEx"]


def test_individuals_also_declared_as_classes():
    kb = parse_kb("individual a.")
    nkb, _ = normalize(kb, ())
    by = facts_by_pred(translate(nkb))
    assert ("a",) in by["nom"]
    assert ("a",) in by["cls"]


def test_existential_rhs_axioms_get_distinct_witnesses():
    kb = parse_kb("class A. class B. role r.\nA <= some r.B.\nB <= some r.A.\n")
    nkb, _ = normalize(kb, ())
    by = facts_by_pred(translate(nkb))
    witnesses = {args[3] for args in by["supEx"]}
    assert len(witnesses) == 2


def test_bot_axiom_translation():
    kb = parse_kb("class A.\nA <= bot.\n")
    nkb, _ = normalize(kb, ())
    by = facts_by_pred(translate(nkb))
    assert ("A", BOT_CONST) in by["subClass"]
    assert (BOT_CONST,) in by["bot"]


@pytest.mark.parametrize(
    "axiom",
    [
        "A <= B and C",
        "some r.(A and B) <= C",
        "(A and B) and C <= D",
        "(A and B)(a)",
        "r <= (A and B) x C",
    ],
)
def test_translate_rejects_axioms_outside_the_normal_shapes(axiom):
    kb = parse_kb(f"class A. class B. class C. class D. role r. individual a.\n{axiom}.\n")
    (ax,) = (*kb.tbox, *kb.rbox, *kb.abox)
    nkb = NormalizedKB(kb.signature, (ax,), (), ())
    with pytest.raises(ValueError, match="not a normal axiom"):
        translate(nkb)


@pytest.mark.parametrize(
    "query",
    [
        "(A and B)(a)",
        "T(A and B)(a)",
        "A and B <= C",
        "A <= some r.B",
        "T(A and B) <= C",
    ],
)
def test_goal_atom_rejects_queries_over_complex_concepts(query):
    kb = parse_kb("class A. class B. class C. role r. individual a.")
    with pytest.raises(TypeError, match="not a goal"):
        _goal(parse_query(query, kb), "w$")


# --- instance checking -----------------------------------------------------------


def test_entailed_instances(example1):
    for text in (
        "Young(mario)",
        "T(Student)(mario)",
        "MathHater(luigi)",
        "MathHater(paul)",
        "MathLover(tom)",
    ):
        verdict = check_instance(example1, parse_query(text, example1))
        assert verdict.entailed, text


def test_non_entailed_instance(example1):
    q = parse_query("(some hasHair.{Black})(luigi)", example1)
    assert not check_instance(example1, q).entailed


def test_role_query(example1):
    assert check_instance(example1, parse_query("friendOf(mario, mary)", example1)).entailed
    assert not check_instance(example1, parse_query("friendOf(mary, mario)", example1)).entailed


# --- consistency --------------------------------------------------------------------


def test_consistency_checks(example1):
    assert check_consistency(example1)
    assert check_consistency(parse_kb(""))
    assert not check_consistency(parse_kb("class A. individual a.\nA <= bot.\nA(a).\n"))


def test_defeasible_conflict_alone_is_consistent(example4):
    # conflicting typicality defaults do not make the KB classically inconsistent
    assert check_consistency(example4)


# --- subsumption ----------------------------------------------------------------------


def test_subsumption_through_defeasible_link(example1):
    q = parse_query("some friendOf.{mary} <= Young", example1)
    assert check_subsumption(example1, q).entailed


def test_trivial_subsumption(example1):
    assert check_subsumption(example1, Subsumes(Name("Student"), Name("Student"))).entailed


def test_defeasible_subsumption_not_strengthened(example1):
    q = parse_query("T(Young and Italian) <= some hasHair.{Black}", example1)
    assert not check_subsumption(example1, q).entailed


def test_typ_subsumption_positive(example1):
    q = parse_query("T(Student) <= Young", example1)
    assert check_subsumption(example1, q).entailed


def test_entry_points_reject_the_other_query_kind(example1):
    with pytest.raises(TypeError):
        check_instance(example1, parse_query("Student <= Young", example1))
    with pytest.raises(TypeError):
        check_subsumption(example1, parse_query("Young(mario)", example1))


MAX_ORACLE_CLASSES = 24


def all_pairs_program(facts, typ_seed):
    """The subsumption program without demand: cls(?q) guards the unwidened
    rules and the seed places a hypothetical witness in every class."""
    widened = transform_rules(
        BASE_RULES, targets=DERIVED_PREDS, extra=(Var("q"),), guards=(Atom("cls", (Var("q"),)),)
    )
    b = Var("B")
    seed = Rule(Atom("typ" if typ_seed else "inst", (b, b, b)), (Atom("cls", (b,)),))
    return DatalogProgram(facts=facts, rules=widened + (seed,))


@settings(max_examples=40, deadline=None)
@given(
    test_parser.kbs,
    st.sampled_from((Subsumes, TypSubsumes)),
    test_parser.tfree_concepts,
    test_parser.tfree_concepts,
)
def test_demand_subsumption_agrees_with_all_pairs(kb, kind, lhs, rhs):
    """The fresh individual in the query's left side falls into exactly the
    classes that the all-pairs program places the hypothetical witness of
    that left side in, typically or not, so the two give the same verdict."""
    program, goal = query_program(kb, kind(lhs, rhs))
    # the oracle saturates one hypothesis per class; bound its cost
    assume(sum(f.pred == "cls" for f in program.facts) <= MAX_ORACLE_CLASSES)
    w, _ = goal.args
    (seed,) = (f for f in program.facts if f.args[0] == w and f.pred in ("subClass", "supTyp"))
    hyp = seed.args[1]
    store = evaluate(program)
    input_facts = tuple(f for f in program.facts if w not in f.args)
    oracle = evaluate(all_pairs_program(input_facts, kind is TypSubsumes))
    classes = {c for (c,) in oracle.facts("cls")}
    for pred in ("inst", "typ"):
        expected = {c for x, c, q in oracle.facts(pred) if x == q == hyp}
        assert {c for x, c in store.facts(pred) if x == w and c in classes} == expected, pred
    assert store.contains(goal.pred, goal.args) == oracle.contains("inst", (hyp, goal.args[1], hyp))


# --- store-level closure properties ---------------------------------------------------


@pytest.fixture(scope="module")
def example1_store():
    import conftest

    kb = conftest.load_fixture("example1.kbt")
    nkb, _ = normalize(kb, ())
    return kb, nkb, evaluate(build_program(translate(nkb)))


def test_refl_typ_implies_inst(example1_store):
    _, _, store = example1_store
    for x, c in store.facts("typ"):
        assert store.contains("inst", (x, c))


def test_a0_every_inhabited_ranked_concept_has_a_typical_witness(example1_store):
    _, _, store = example1_store
    ranked = {args[1]: args[0] for args in store.facts("auxc")}
    inhabited = {c for _, c in store.facts("inst") if c in ranked}
    for c in inhabited:
        assert store.contains("typ", (ranked[c], c))


def test_samerank_symmetric_and_transitive(example1_store):
    _, _, store = example1_store
    same = store.facts("sameRank")
    for x, y in same:
        assert (y, x) in same
    by_first = {}
    for x, y in same:
        by_first.setdefault(x, set()).add(y)
    for x, y in same:
        for z in by_first.get(y, ()):
            assert (x, z) in same


def test_leqrank_antisymmetry_feeds_samerank(example1_store):
    _, _, store = example1_store
    leq = store.facts("leqRank")
    for x, y in leq:
        if (y, x) in leq:
            assert store.contains("sameRank", (x, y))


def test_specificity_walkthrough(example1_store):
    # a typical Student-and-Young individual inherits the less specific
    # typical-Student properties because both sit at the same rank
    _, nkb, store = example1_store
    ranked = {e.display: e.ranked for e in nkb.aux_registry}
    student = ranked["Student"]
    aux = aux_for(student)
    assert store.contains("leqRank", ("paul", aux))
    assert store.contains("leqRank", (aux, "paul"))
    assert store.contains("sameRank", ("paul", aux))
    assert store.contains("typ", ("paul", student))
    assert store.contains("inst", ("paul", "MathHater"))


def test_inheritance_blocks_on_more_specific_default(example1_store):
    # tom is a typical Student-and-Nerd; the math-lover default wins and
    # the store must not also make him a math hater
    _, _, store = example1_store
    assert store.contains("inst", ("tom", "MathLover"))
    assert not store.contains("inst", ("tom", "MathHater"))


# --- soundness against the bounded model search ------------------------------------


def test_derived_facts_hold_in_bounded_models():
    kb = parse_kb("class A. class B. individual a.\nT(A) <= B.\nA(a).\n")
    nkb, _ = normalize(kb, ())
    store = evaluate(build_program(translate(nkb)))
    inds = kb.signature.individual_names
    cls = kb.signature.concept_names
    checked = 0
    for x, c in store.facts("inst"):
        if x in inds and c in cls:
            assert refute(kb, parse_query(f"{c}({x})", kb)) is None
            checked += 1
    assert checked >= 1


SWEEP_FIXTURES = (
    "example1.kbt",
    "example1-af.kbt",
    "example4.kbt",
    "rc_inconsistent.kbt",
    "rc_still_consistent.kbt",
)


def test_entailed_subsumptions_hold_in_bounded_models():
    import conftest

    checked = 0
    for name in SWEEP_FIXTURES:
        kb = conftest.load_fixture(name)
        names = [Name(c) for c in sorted(kb.signature.concept_names)] + [TOP]
        for kind in (Subsumes, TypSubsumes):
            for c in names:
                for d in names:
                    q = kind(c, d)
                    if check_subsumption(kb, q).entailed:
                        assert refute(kb, q, max_domain=3, max_rank=2) is None, (name, q)
                        checked += 1
    assert checked >= 138


# --- subsumption as an instance check on a fresh individual ------------------------


def reference_subsumes(kb, q):
    """The verdict of the hypothesis-widened table: the KB's facts plus
    hyp(lhs), evaluated from scratch."""
    nkb, (rewritten,) = normalize(kb, (q,))
    lhs, rhs = rewritten.lhs.name, rewritten.rhs.name
    facts = translate(nkb).facts + (Atom("hyp", (lhs,)),)
    store = evaluate(DatalogProgram(facts, subsumption_rules(isinstance(q, TypSubsumes))))
    return store.contains("inst", (lhs, rhs, lhs))


def fixture_pairs(name):
    import conftest

    kb = conftest.load_fixture(name)
    names = [Name(c) for c in sorted(kb.signature.concept_names)] + [TOP]
    return kb, [kind(c, d) for kind in (Subsumes, TypSubsumes) for c in names for d in names]


@pytest.mark.parametrize("name", SWEEP_FIXTURES)
def test_fixture_pair_verdicts_equal_the_reference_table(name):
    kb, pairs = fixture_pairs(name)
    for q in pairs:
        assert check_subsumption(kb, q).entailed == reference_subsumes(kb, q), q


@pytest.mark.parametrize("name", SWEEP_FIXTURES)
def test_an_inclusion_extends_the_store_as_an_assertion_on_a_new_individual(name):
    """C <= C adds exactly what declaring the fresh individual w and
    asserting C(w) adds to the KB: the same least model, fact for fact."""
    kb, _ = fixture_pairs(name)
    w = _prepared_kb(kb).witness
    sig = kb.signature
    with_w = sig._replace(individual_names=sig.individual_names | {w})
    for c in sorted(sig.concept_names):
        sat, facts, goal = _query(kb, Subsumes(Name(c), Name(c)))
        abox = kb.abox + (ConceptAssertion(Name(c), w),)
        asserted = evaluate(query_program(KnowledgeBase(with_w, kb.tbox, kb.rbox, abox))[0])
        assert store_facts(sat.extend(facts)) == store_facts(asserted), c
        assert goal == Atom("inst", (w, c))


# left sides that are unsatisfiable outright or may be, over a KB that may
# be classically inconsistent
witness_lhs = st.one_of(
    test_parser.tfree_concepts,
    st.builds(Conj, test_parser.tfree_concepts, st.just(BOT)),
    st.builds(Conj, test_parser.tfree_concepts, test_parser.tfree_concepts),
)


@settings(max_examples=100, deadline=None)
@given(
    test_parser.kbs,
    st.sampled_from((Subsumes, TypSubsumes)),
    witness_lhs,
    test_parser.tfree_concepts,
)
def test_witness_verdict_equals_the_reference_table(kb, kind, lhs, rhs):
    q = kind(lhs, rhs)
    assert check_subsumption(kb, q).entailed == reference_subsumes(kb, q)


def test_subsumption_queries_evaluate_the_base_rules_only(generated, example1):
    """No hyp fact is emitted, and every join of each step function
    generated while answering inclusions from a fresh process state is one
    of the base rules."""
    steps, compiles = generated
    _prepared.cache_clear()
    for text in (
        "T(Student and Nerd) <= MathLover",
        "Student <= Young",
        "MathLover and MathHater <= Young",
    ):
        q = parse_query(text, example1)
        check_subsumption(example1, q)
        program, _ = query_program(example1, q)
        assert program.rules == BASE_RULES
        assert not any(f.pred == "hyp" for f in program.facts)
    assert steps and len(compiles) == len(steps)
    assert {v.rule for group in steps for v, _ in group} <= set(BASE_RULES)


def renamed(x, names):
    """x with every name in it replaced as names says."""
    if isinstance(x, str):
        return names.get(x, x)
    if isinstance(x, (tuple, frozenset)):
        return type(x)(renamed(y, names) for y in x)
    if isinstance(x, Record):
        return x._replace(**{f: renamed(getattr(x, f), names) for f in x.__match_args__})
    return x


def test_names_shaped_like_the_witness_keep_every_verdict():
    # a library KB may declare any name, the ones the witness is drawn from too
    kb, pairs = fixture_pairs("example1.kbt")
    names = {"Student": "w$", "friendOf": "w$$", "mario": "w$$$", "Young": "w$$$$"}
    clashing = renamed(kb, names)
    assert validate(clashing) == []
    assert _prepared_kb(clashing).witness == "w$$$$$"
    for q in pairs:
        assert answer(clashing, renamed(q, names)) == answer(kb, q), q
    for text in ("T(Student)(mario)", "MathHater(paul)", "friendOf(mario, mary)"):
        q = parse_query(text, kb)
        assert answer(clashing, renamed(q, names)) == answer(kb, q), text


# --- prepared KBs: one saturation, one extension per query ------------------------


def store_facts(store):
    return {pred: set(store.facts(pred)) for pred in store.preds() if store.facts(pred)}


def answer(kb, q):
    """The entry point's verdict: from the prepared KB's extension."""
    if isinstance(q, (Subsumes, TypSubsumes)):
        return check_subsumption(kb, q).entailed
    return check_instance(kb, q).entailed


def scratch_answer(kb, q):
    """The verdict from the whole program, evaluated from no store, which
    holds the facts of a one-shot normalization and translation."""
    program, goal = query_program(kb, q)
    nkb, (rewritten,) = normalize(kb, (q,))
    seed, scratch_goal = _goal(rewritten, _prepared_kb(kb).witness)
    whole = build_program(translate(nkb))
    assert (Counter(program.facts), program.rules) == (Counter(whole.facts + seed), whole.rules)
    assert goal == scratch_goal
    store = evaluate(program)
    # a bottom fact floods every inst and typ goal by rule 4, but no triple
    return store.contains(goal.pred, goal.args) or (
        goal.pred == "triple" and store_inconsistent(store)
    )


# T(C) over a concept the KB never ranks, and inclusions whose hypothetical
# witness is unsatisfiable, so rule 4 floods the hypothesis
unsatisfiable = st.builds(Conj, test_parser.tfree_concepts, st.just(BOT))
prepared_queries = st.one_of(
    test_parser.queries,
    st.builds(TypicalInstanceOf, test_parser.tfree_concepts, test_parser.individual_names),
    st.builds(Subsumes, unsatisfiable, test_parser.tfree_concepts),
    st.builds(TypSubsumes, unsatisfiable, test_parser.tfree_concepts),
)


@settings(max_examples=60, deadline=None)
@given(test_parser.kbs, st.lists(prepared_queries, min_size=1, max_size=4), st.randoms())
def test_prepared_answers_equal_scratch_answers_in_any_order(kb, queries, rng):
    """Each answer from the prepared KB equals the answer of its whole
    program evaluated from scratch, whatever was asked before it."""
    expected = {q: scratch_answer(kb, q) for q in queries}
    asked = queries + rng.sample(queries, len(queries)) + queries[:1]
    _prepared.cache_clear()
    for q in asked:
        assert answer(kb, q) == expected[q], q
    assert check_consistency(kb) == (not store_inconsistent(evaluate(query_program(kb)[0])))


def test_queries_leave_the_prepared_stores_unchanged(example1):
    def snapshot(store):
        indexes = {
            pred: {positions: {k: list(b) for k, b in buckets.items()}
                   for positions, (_, buckets) in per_pred.items()}
            for pred, per_pred in store._indexes.items()
        }
        return store_facts(store), indexes

    prep = _prepared_kb(example1)
    texts = (
        "MathHater(paul)",
        "T(Student and Italian)(mario)",
        "(some hasHair.{Black})(luigi)",
        "friendOf(mario, mary)",
        "T(Student and Nerd) <= MathLover",
        "Student and bot <= Young",
        "T(Young and Italian) <= some hasHair.{Black}",
    )
    queries = [parse_query(text, example1) for text in texts]
    before = snapshot(prep.saturation.store)
    for q in queries + queries[::-1]:
        answer(example1, q)
    assert check_consistency(example1)
    assert snapshot(prep.saturation.store) == before
    assert _prepared_kb(example1) is prep
    # a query whose facts the store holds already is read off the store
    sat, facts, _ = _query(example1, queries[0])
    assert sat.extend(facts) is sat.store
    sat, facts, _ = _query(example1, queries[4])
    assert sat.extend(facts) is not sat.store


def test_invalid_kb_raises_on_every_call():
    kb = parse_kb("class A. individual a.\nA(a).\n")
    bad = KnowledgeBase(kb.signature, tbox=(GCI(Name("Missing"), Name("A")),), abox=kb.abox)
    for _ in range(3):
        for call in (
            lambda: check_instance(bad, InstanceOf(Name("A"), "a")),
            lambda: check_subsumption(bad, Subsumes(Name("A"), Name("A"))),
            lambda: check_consistency(bad),
            lambda: query_program(bad),
        ):
            with pytest.raises(ValueError, match="invalid knowledge base: .*'Missing'"):
                call()


@pytest.mark.parametrize(
    "query",
    [
        InstanceOf(Name("Young"), "nobody"),
        InstanceOf(Name("Nobody"), "mario"),
        Subsumes(Name("Nobody"), Name("Young")),
        TypSubsumes(Name("Young"), Name("Nobody")),
    ],
)
def test_undeclared_query_names_are_value_errors(example1, query):
    with pytest.raises(ValueError, match="invalid query: undeclared .*'[Nn]obody'"):
        answer(example1, query)
    with pytest.raises(ValueError, match="invalid query: undeclared"):
        query_program(example1, query)


def test_a_query_too_tall_is_a_value_error_not_a_recursion_error(example1):
    tall = conj_of([Name("Young")] * 1000)
    for query in (InstanceOf(tall, "mario"), Subsumes(tall, Name("Young"))):
        with pytest.raises(ValueError, match="invalid query: concept nested deeper"):
            answer(example1, query)


# queries that may name what test_parser.kbs never declares, or be too tall
loose_concepts = st.one_of(
    test_parser.tfree_concepts,
    st.builds(Name, st.just("Z")),
    st.builds(Nominal, st.just("z")),
    st.builds(Exists, st.just("u"), test_parser.tfree_concepts),
    st.builds(lambda: conj_of([Name("A")] * 1000)),
)
loose_individuals = st.sampled_from(["a", "b", "z"])
loose_queries = st.one_of(
    st.builds(InstanceOf, loose_concepts, loose_individuals),
    st.builds(TypicalInstanceOf, loose_concepts, loose_individuals),
    st.builds(RoleHolds, st.sampled_from(["r", "u"]), loose_individuals, loose_individuals),
    st.builds(Subsumes, loose_concepts, loose_concepts),
    st.builds(TypSubsumes, loose_concepts, loose_concepts),
)


def outcome(call):
    try:
        call()
    except (ValueError, TypeError) as e:
        return type(e)
    return None


@settings(max_examples=80, deadline=None)
@given(test_parser.kbs, loose_queries)
@example(
    kb=parse_kb("class A. class B. individual a.\nA <= bot.\nA(a).\n"),
    q=TypSubsumes(Name("A"), Name("B")),
)
def test_every_entry_point_rejects_the_same_queries(kb, q):
    """A query is a ValueError on the Datalog path, the closure and the
    model search alike, or a verdict on each; nothing else escapes."""
    rejected = bool(validate_query(kb, q))
    assert outcome(lambda: answer(kb, q)) is (ValueError if rejected else None)
    assert outcome(lambda: query_program(kb, q)) is (ValueError if rejected else None)
    assert outcome(lambda: refute(kb, q, max_domain=1, max_rank=0)) is (ValueError if rejected else None)
    if isinstance(q, TypSubsumes) and is_simple(kb):
        # a classically inconsistent KB has no closure: a valid query on it
        # is an InconsistentKBError
        if rejected:
            expected = ValueError
        else:
            expected = None if check_consistency(kb) else InconsistentKBError
        assert outcome(lambda: rc_entails(kb, q)) is expected


FIXTURE_QUERIES = {
    "example1.kbt": (
        "MathHater(paul)",
        "T(Student)(mario)",
        "T(Student and Nerd) <= MathLover",
        "some friendOf.{mary} <= Young",
    ),
    "example4.kbt": ("D <= A", "T(D) <= B"),
    "rc_inconsistent.kbt": ("T(Student) <= MathHater",),
    "rc_still_consistent.kbt": ("T(Student) <= Young",),
}


@pytest.mark.parametrize(
    "name, text", [(name, text) for name, texts in FIXTURE_QUERIES.items() for text in texts]
)
def test_extension_is_the_naive_least_model_of_the_dumped_program(name, text):
    import conftest

    kb = conftest.load_fixture(name)
    q = parse_query(text, kb)
    table, facts, _ = _query(kb, q)
    dumped = load_program(dump_program(query_program(kb, q)[0]))
    assert store_facts(table.extend(facts)) == store_facts(naive_evaluate(dumped))
