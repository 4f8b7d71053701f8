"""Materialization calculus: translation facts, rule table, entailment checks."""
from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import test_parser
from typel.datalog import Atom, DatalogProgram, Rule, Var, evaluate, rule_text, transform_rules
from typel.kb import TOP, Name, Subsumes, TypSubsumes
from typel.materialize import (
    BASE_RULES,
    BOT_CONST,
    DERIVED_PREDS,
    IR_LABELED,
    RT_LABELED,
    TOP_CONST,
    _goal_atom,
    aux_for,
    build_program,
    check_consistency,
    check_instance,
    check_subsumption,
    query_program,
    translate,
)
from typel.model import refute
from typel.normalize import NormalizedKB, normalize
from typel.parser import parse_kb, parse_query

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
    nkb, _ = normalize(parse_kb(""), (), mode="general")
    it = translate(nkb)
    assert facts_by_pred(it) == {
        "top": {(TOP_CONST,)},
        "cls": {(TOP_CONST,)},
        "auxc": {(aux_for(TOP_CONST), TOP_CONST)},
    }


def test_defeasible_axiom_becomes_subtyp_fact():
    kb = parse_kb("class A. class B.\nT(A) <= B.\n")
    nkb, _ = normalize(kb, (), mode="simple")
    it = translate(nkb)
    by = facts_by_pred(it)
    (entry,) = nkb.aux_registry
    assert (entry.ranked, "B") in by["subTyp"]
    assert (aux_for(entry.ranked), entry.ranked) in by["auxc"]


def test_role_assertion_doubles_target_as_witness():
    kb = parse_kb("role r. individual a. individual b.\nr(a, b).\n")
    nkb, _ = normalize(kb, (), mode="general")
    by = facts_by_pred(translate(nkb))
    assert ("a", "r", "b", "b") in by["supEx"]


def test_individuals_also_declared_as_classes():
    kb = parse_kb("individual a.")
    nkb, _ = normalize(kb, (), mode="general")
    by = facts_by_pred(translate(nkb))
    assert ("a",) in by["nom"]
    assert ("a",) in by["cls"]


def test_existential_rhs_axioms_get_distinct_witnesses():
    kb = parse_kb("class A. class B. role r.\nA <= some r.B.\nB <= some r.A.\n")
    nkb, _ = normalize(kb, (), mode="general")
    by = facts_by_pred(translate(nkb))
    witnesses = {args[3] for args in by["supEx"]}
    assert len(witnesses) == 2


def test_bot_axiom_translation():
    kb = parse_kb("class A.\nA <= bot.\n")
    nkb, _ = normalize(kb, (), mode="general")
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
        _goal_atom(parse_query(query, kb))


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
    """The hyp(lhs) seed derives exactly the all-pairs facts under the
    query's hypothesis, so the two programs give the same verdict."""
    program, goal = query_program(kb, kind(lhs, rhs))
    # the oracle saturates one hypothesis per class; bound its cost
    assume(sum(f.pred == "cls" for f in program.facts) <= MAX_ORACLE_CLASSES)
    hyp = goal.args[0]
    demand = evaluate(program)
    input_facts = tuple(f for f in program.facts if f.pred != "hyp")
    oracle = evaluate(all_pairs_program(input_facts, kind is TypSubsumes))
    for pred in sorted(DERIVED_PREDS):
        expected = {args for args in oracle.facts(pred) if args[-1] == hyp}
        assert set(demand.facts(pred)) == expected, pred
    assert demand.contains(goal.pred, goal.args) == oracle.contains(goal.pred, goal.args)


# --- store-level closure properties ---------------------------------------------------


@pytest.fixture(scope="module")
def example1_store():
    import conftest

    kb = conftest.load_fixture("example1.kbt")
    nkb, _ = normalize(kb, (), mode="general")
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
    nkb, _ = normalize(kb, (), mode="general")
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
