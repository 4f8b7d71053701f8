"""Concept AST, signature validation, and the simple-KB predicate."""
from __future__ import annotations

import pytest

from typel.kb import (
    BOT,
    MAX_NESTING,
    TOP,
    ConceptAssertion,
    Conj,
    Exists,
    GCI,
    InstanceOf,
    KnowledgeBase,
    Name,
    Nominal,
    ProductToRole,
    RoleAssertion,
    RoleChain,
    RoleConj,
    RoleIncl,
    SelfRestriction,
    Signature,
    TypSubsumes,
    TypicalInstanceOf,
    Typicality,
    compute_simple_roles,
    concept_height,
    concept_text,
    conj_of,
    conjuncts,
    contains_typicality,
    first_non_simple_axiom,
    is_simple,
    validate,
)
from typel.materialize import check_instance


def sig(concepts=(), roles=(), individuals=(), simple=None):
    roles = frozenset(roles)
    return Signature(
        concept_names=frozenset(concepts),
        role_names=roles,
        individual_names=frozenset(individuals),
        simple_roles=roles if simple is None else frozenset(simple),
    )


def test_nested_typicality_rejected():
    with pytest.raises(ValueError):
        Typicality(Typicality(Name("A")))
    with pytest.raises(ValueError):
        Typicality(Conj(Name("A"), Typicality(Name("B"))))
    with pytest.raises(ValueError):
        Typicality(Exists("r", Typicality(Name("A"))))
    with pytest.raises(ValueError):
        TypicalInstanceOf(Typicality(Name("A")), "a")
    with pytest.raises(ValueError):
        TypSubsumes(Typicality(Name("A")), Name("B"))


def test_contains_typicality_walks_conj_and_exists():
    assert contains_typicality(Typicality(Name("A")))
    assert contains_typicality(Conj(Name("B"), Typicality(Name("A"))))
    assert contains_typicality(Exists("r", Typicality(Name("A"))))
    assert not contains_typicality(Conj(Name("A"), Exists("r", Name("B"))))


def test_conjuncts_flatten_left_to_right():
    c = Conj(Conj(Name("A"), Name("B")), Name("C"))
    assert conjuncts(c) == [Name("A"), Name("B"), Name("C")]
    assert conjuncts(Name("A")) == [Name("A")]


def test_conj_of_empty_is_top():
    assert conj_of([]) == TOP
    assert conj_of([Name("A")]) == Name("A")
    rebuilt = conj_of([Name("A"), Name("B"), Name("C")])
    assert conjuncts(rebuilt) == [Name("A"), Name("B"), Name("C")]


def test_concept_text_shapes():
    assert concept_text(TOP) == "top"
    assert concept_text(BOT) == "bot"
    assert concept_text(Nominal("a")) == "{a}"
    assert concept_text(Conj(Name("A"), Name("B"))) == "A and B"
    # right-nested conjunction keeps its tree shape through parens
    assert concept_text(Conj(Name("A"), Conj(Name("B"), Name("C")))) == "A and (B and C)"
    assert concept_text(Exists("r", Conj(Name("A"), Name("B")))) == "some r.(A and B)"
    assert concept_text(SelfRestriction("r")) == "self(r)"
    assert concept_text(Typicality(Conj(Name("A"), Name("B")))) == "T(A and B)"


def test_compute_simple_roles_chain_and_inclusion():
    roles = frozenset({"r", "s", "t", "u"})
    rbox = (RoleChain("r", "r", "s"), RoleIncl("s", "t"))
    simple = compute_simple_roles(roles, rbox)
    # s receives a chain, t receives s, so only r and u stay simple
    assert simple == frozenset({"r", "u"})


def test_validate_clean_kb():
    kb = KnowledgeBase(
        signature=sig({"A", "B"}, {"r"}, {"a"}),
        tbox=(GCI(Name("A"), Exists("r", Name("B"))),),
        abox=(ConceptAssertion(Name("A"), "a"),),
    )
    assert validate(kb) == []


def test_validate_reports_undeclared_names():
    kb = KnowledgeBase(
        signature=sig({"A"}, {"r"}, {"a"}),
        tbox=(GCI(Name("A"), Name("B")),),
        abox=(RoleAssertion("s", "a", "b"),),
    )
    messages = [str(v) for v in validate(kb)]
    assert any("'B'" in m and "concept" in m for m in messages)
    assert any("'s'" in m and "role" in m for m in messages)
    assert any("'b'" in m and "individual" in m for m in messages)


def test_concept_height_counts_and_some_and_t():
    assert concept_height(Name("A")) == 0
    assert concept_height(Conj(Name("A"), Exists("r", Name("B")))) == 2
    assert concept_height(Typicality(Conj(Name("A"), Name("B")))) == 2
    # a left-deep chain of k conjunctions is k levels, as the parser counts
    # "A and ... and A"
    assert concept_height(conj_of([Name("A")] * 1000)) == 999


def test_validate_bounds_concept_height():
    def kb_with(lhs):
        return KnowledgeBase(signature=sig({"A", "B"}, {"r"}), tbox=(GCI(lhs, Name("B")),))

    assert validate(kb_with(conj_of([Name("A")] * (MAX_NESTING + 1)))) == []
    deep = Name("A")
    for _ in range(MAX_NESTING):
        deep = Exists("r", deep)
    assert validate(kb_with(deep)) == []
    for too_tall in (conj_of([Name("A")] * 1000), Exists("r", deep)):
        messages = [str(v) for v in validate(kb_with(too_tall))]
        assert messages == [f"tbox[0]: concept nested deeper than {MAX_NESTING} levels"]


def test_too_tall_library_kb_is_a_value_error_not_a_recursion_error():
    kb = KnowledgeBase(
        signature=sig({"A", "B"}, (), {"a"}),
        tbox=(GCI(conj_of([Name("A")] * 1000), Name("B")),),
        abox=(ConceptAssertion(Name("A"), "a"),),
    )
    with pytest.raises(ValueError, match="nested deeper"):
        check_instance(kb, InstanceOf(Name("B"), "a"))


def test_validate_rejects_sort_clash():
    bad = Signature(
        concept_names=frozenset({"X"}),
        role_names=frozenset({"X"}),
        individual_names=frozenset(),
    )
    kb = KnowledgeBase(signature=bad)
    assert any("both" in str(v) for v in validate(kb))


def test_validate_self_needs_simple_role():
    roles = frozenset({"r", "s"})
    kb = KnowledgeBase(
        signature=Signature(
            concept_names=frozenset({"A"}),
            role_names=roles,
            individual_names=frozenset(),
            simple_roles=compute_simple_roles(roles, (RoleChain("r", "r", "s"),)),
        ),
        tbox=(GCI(SelfRestriction("s"), Name("A")),),
        rbox=(RoleChain("r", "r", "s"),),
    )
    assert any("simple" in str(v) for v in validate(kb))


def test_validate_role_conjunction_needs_simple_roles():
    roles = frozenset({"r", "s", "t"})
    rbox = (RoleChain("r", "r", "s"), RoleConj("s", "r", "t"))
    kb = KnowledgeBase(
        signature=Signature(
            concept_names=frozenset(),
            role_names=roles,
            individual_names=frozenset(),
            simple_roles=compute_simple_roles(roles, rbox),
        ),
        rbox=rbox,
    )
    assert any("conjunction" in str(v) for v in validate(kb))


def test_is_simple_accepts_lhs_only_typicality():
    kb = KnowledgeBase(
        signature=sig({"A", "B"}),
        tbox=(GCI(Typicality(Name("A")), Name("B")),),
    )
    assert is_simple(kb)
    assert first_non_simple_axiom(kb) is None


def test_is_simple_rejects_rhs_typicality():
    ax = GCI(Name("A"), Typicality(Name("B")))
    kb = KnowledgeBase(signature=sig({"A", "B"}), tbox=(ax,))
    assert not is_simple(kb)
    assert first_non_simple_axiom(kb) == ax


def test_is_simple_rejects_typicality_assertions_and_products():
    kb1 = KnowledgeBase(
        signature=sig({"A"}, (), {"a"}),
        abox=(ConceptAssertion(Typicality(Name("A")), "a"),),
    )
    assert not is_simple(kb1)
    kb2 = KnowledgeBase(
        signature=sig({"A", "B"}, {"r"}),
        rbox=(ProductToRole(Typicality(Name("A")), Name("B"), "r"),),
    )
    assert not is_simple(kb2)
