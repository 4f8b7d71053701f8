"""Normal-form transformation: shape checks up to fresh-name renaming."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings

import test_parser
from typel.datalog import Atom
from typel.kb import (
    GCI,
    ConceptAssertion,
    Conj,
    InstanceOf,
    Name,
    Nominal,
    Subsumes,
    TypSubsumes,
    TypicalInstanceOf,
)
from typel.materialize import check_instance, translate
from typel.normalize import normalize
from typel.parser import axiom_text, parse_kb, parse_query

# --- signature-erasing comparator -----------------------------------------
#
# Two axiom lists match when some bijection between their non-original
# names makes them equal as multisets of token sequences.  Everything
# hinges on original names staying fixed while fresh names may vary.

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_$']*|<=|\{|\}|\(|\)|\.|,|&")
_STRUCT = frozenset({"and", "some", "self", "top", "bot", "T", "x", "o"})


def _tokens(text: str) -> tuple[str, ...]:
    return tuple(_TOKEN.findall(text))


def _is_name(tok: str) -> bool:
    return (tok[0].isalpha() or tok[0] == "_") and tok not in _STRUCT


def _bind(actual: tuple[str, ...], expected: tuple[str, ...], original: frozenset[str], bind: dict):
    """Extend bind (expected fresh -> actual fresh) over one axiom, or None."""
    if len(actual) != len(expected):
        return None
    out = dict(bind)
    taken = set(out.values())
    for ta, te in zip(actual, expected):
        if _is_name(ta) != _is_name(te):
            return None
        if not _is_name(ta):
            if ta != te:
                return None
            continue
        if (ta in original) != (te in original):
            return None
        if ta in original:
            if ta != te:
                return None
            continue
        if te in out:
            if out[te] != ta:
                return None
        elif ta in taken:
            return None
        else:
            out[te] = ta
            taken.add(ta)
    return out


def _search(expected, actual, original, bind, exact):
    if not expected:
        return not actual if exact else True
    first, rest = expected[0], expected[1:]
    for i, a in enumerate(actual):
        nb = _bind(a, first, original, bind)
        if nb is None:
            continue
        if _search(rest, actual[:i] + actual[i + 1 :], original, nb, exact):
            return True
    return False


def shapes_match(actual_texts, expected_texts, original_names, exact=True) -> bool:
    original = frozenset(original_names)
    actual = [_tokens(t) for t in actual_texts]
    expected = [_tokens(t) for t in expected_texts]
    if exact and len(actual) != len(expected):
        return False
    return _search(expected, actual, original, {}, exact)


def normalized_texts(nkb) -> list[str]:
    kb = nkb.to_kb()
    return [axiom_text(ax) for ax in (*kb.tbox, *kb.rbox, *kb.abox)]


def original_names(kb) -> frozenset[str]:
    sig = kb.signature
    return sig.concept_names | sig.role_names | sig.individual_names


# --- comparator self-tests --------------------------------------------------


def test_comparator_accepts_renaming():
    assert shapes_match(
        ["P1 <= T(Q2)", "T(Q2) <= P1"],
        ["X <= T(Y)", "T(Y) <= X"],
        original_names=frozenset(),
    )


def test_comparator_keeps_fresh_names_apart():
    # the binding is a bijection: one fresh name per placeholder and back
    original = frozenset({"A", "B"})
    assert shapes_match(["F <= A", "G <= B"], ["X <= A", "Y <= B"], original)
    assert not shapes_match(["F <= A", "F <= B"], ["X <= A", "Y <= B"], original)
    assert not shapes_match(["F <= A", "G <= B"], ["X <= A", "X <= B"], original)


def test_comparator_pins_original_names():
    assert not shapes_match(["A <= B"], ["A <= C"], original_names=frozenset({"A", "B", "C"}))


# --- the published expansion of the two showcase axioms ---------------------


def test_defeasible_inclusion_with_existential_rhs_expands_to_four():
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


def test_defeasible_inclusion_with_conjunctive_lhs_expands_to_six():
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


def test_typicality_assertion_becomes_fresh_name_assertion():
    kb = parse_kb(
        "class Student. class Nerd. class MathLover. individual tom.\n"
        "T(Student and Nerd) <= MathLover.\n"
        "T(Student and Nerd)(tom).\n"
    )
    nkb, _ = normalize(kb, ())
    assertions = [ax for ax in nkb.axioms if isinstance(ax, ConceptAssertion)]
    assert len(assertions) == 1
    (tom_ax,) = assertions
    assert tom_ax.individual == "tom"
    # the asserted name is the occurrence name of the registered T-concept
    (entry,) = nkb.aux_registry
    assert tom_ax.concept == Name(entry.x_name)


def test_full_fixture_contains_both_expansions(example1):
    nkb, _ = normalize(example1, ())
    texts = normalized_texts(nkb)
    names = original_names(example1)
    assert shapes_match(
        texts,
        ["X <= some hasHair.F", "F <= {Black}", "X <= T(Italian)", "T(Italian) <= X"],
        names,
        exact=False,
    )
    assert shapes_match(
        texts,
        [
            "X <= MathLover",
            "X <= T(Y)",
            "T(Y) <= X",
            "Student and Nerd <= Y",
            "Y <= Student",
            "Y <= Nerd",
        ],
        names,
        exact=False,
    )


# --- structural rules --------------------------------------------------------


def test_nested_existential_chain():
    kb = parse_kb("class A. class B. role r. role s.\nA <= some r.(some s.B).\n")
    nkb, _ = normalize(kb, ())
    assert shapes_match(
        normalized_texts(nkb),
        ["A <= some r.F", "F <= some s.B"],
        original_names(kb),
    )


def test_triple_conjunction_lhs():
    kb = parse_kb("class A. class B. class C. class D.\nA and B and C <= D.\n")
    nkb, _ = normalize(kb, ())
    assert shapes_match(
        normalized_texts(nkb),
        ["A and B <= F", "F and C <= D"],
        original_names(kb),
    )


def test_complex_existential_filler_on_lhs():
    kb = parse_kb("class A. class B. class C. role r.\nsome r.(A and B) <= C.\n")
    nkb, _ = normalize(kb, ())
    assert shapes_match(
        normalized_texts(nkb),
        ["A and B <= F", "some r.F <= C"],
        original_names(kb),
    )


def test_nominal_lhs_is_normal():
    kb = parse_kb("class C. individual a.\n{a} <= C.\n")
    nkb, _ = normalize(kb, ())
    assert any(isinstance(ax, GCI) and isinstance(ax.lhs, Nominal) for ax in nkb.axioms)
    assert len(nkb.axioms) == 1


def test_top_assertion_is_dropped_and_stays_entailed():
    # every individual is in top by rule 3, so top(a) needs no fresh class
    kb = parse_kb("class A. individual a.\ntop(a).\nA(a).\n")
    nkb, _ = normalize(kb, ())
    assert normalized_texts(nkb) == ["A(a)"]
    assert nkb.signature.concept_names == kb.signature.concept_names
    facts = translate(nkb).facts
    assert [f for f in facts if f.pred == "subClass"] == [Atom("subClass", ("a", "A"))]
    assert check_instance(kb, parse_query("top(a)", kb)).entailed


def test_conjunctive_rhs_splits():
    kb = parse_kb("class A. class B. class C.\nA <= B and C.\n")
    nkb, _ = normalize(kb, ())
    assert shapes_match(normalized_texts(nkb), ["A <= B", "A <= C"], original_names(kb))


# --- ranked names ------------------------------------------------------------


def test_general_mode_reuses_atomic_ranked_names():
    kb = parse_kb("class A. class B.\nT(A) <= B.\n")
    nkb, _ = normalize(kb, ())
    (entry,) = nkb.aux_registry
    assert entry.ranked == "A"


def test_shared_typicality_occurrence_registered_once(example1):
    nkb, _ = normalize(example1, ())
    displays = [e.display for e in nkb.aux_registry]
    assert displays.count("Student") == 1
    assert len(displays) == len(set(displays))


def test_extra_ranked_registers_query_concepts():
    kb = parse_kb("class A. class B.\nT(A) <= B.\n")
    nkb, _ = normalize(kb, (), extra_ranked=(Conj(Name("A"), Name("B")),))
    assert "A and B" in [e.display for e in nkb.aux_registry]
    # no T(A and B) occurs in an axiom, so it gets no occurrence name
    (entry,) = [e for e in nkb.aux_registry if e.display == "A and B"]
    assert entry.x_name is None
    assert not any(entry.ranked in axiom_text(ax) and "T(" in axiom_text(ax) for ax in nkb.axioms)


# --- query rewriting ----------------------------------------------------------


def test_instance_query_over_complex_concept_gets_a_name(example1):
    q = parse_query("(some hasHair.{Black})(luigi)", example1)
    nkb, goals = normalize(example1, (q,))
    (goal,) = goals
    assert isinstance(goal, InstanceOf)
    assert goal.individual == "luigi"
    assert isinstance(goal.concept, Name)
    assert goal.concept.name not in original_names(example1)


def test_typical_instance_query_goal(example1):
    q = parse_query("T(Student)(mario)", example1)
    _, goals = normalize(example1, (q,))
    (goal,) = goals
    assert isinstance(goal, TypicalInstanceOf)
    assert isinstance(goal.concept, Name)


def test_subsumption_query_names_both_sides(example1):
    q = parse_query("some friendOf.{mary} <= Young", example1)
    _, goals = normalize(example1, (q,))
    (goal,) = goals
    assert isinstance(goal, Subsumes)
    assert isinstance(goal.lhs, Name) and isinstance(goal.rhs, Name)


def test_typ_subsumption_goal_uses_registered_ranked_name(example1):
    q = parse_query("T(Young and Italian) <= some hasHair.{Black}", example1)
    nkb, goals = normalize(example1, (q,))
    (goal,) = goals
    assert isinstance(goal, TypSubsumes)
    assert goal.lhs.name in nkb.ranked_names()
    assert nkb.display_of(goal.lhs.name) in ("Young and Italian", "Italian and Young")


def test_normalization_is_deterministic(example1):
    a, _ = normalize(example1, ())
    b, _ = normalize(example1, ())
    assert a == b


@settings(max_examples=60, deadline=None)
@given(test_parser.kbs)
def test_normalized_form_reparses(kb):
    nkb, _ = normalize(kb, ())
    rendered = nkb.to_kb()
    from typel.parser import parse_kb as reparse, print_kb

    assert reparse(print_kb(rendered)) == rendered


def test_fresh_names_are_logged():
    kb = parse_kb("class A. class B. role r.\nA <= some r.(A and B).\n")
    nkb, _ = normalize(kb, ())
    logged = {f.name for f in nkb.fresh_name_log}
    fresh_in_axioms = {
        tok
        for t in normalized_texts(nkb)
        for tok in _tokens(t)
        if _is_name(tok) and tok not in original_names(kb)
    }
    assert fresh_in_axioms <= logged
