"""Ranked interpretations: direct evaluation and bounded refutation search."""
from __future__ import annotations

import pytest

from typel.kb import (
    ConceptAssertion,
    Conj,
    Exists,
    GCI,
    InstanceOf,
    KnowledgeBase,
    Name,
    Nominal,
    RoleAssertion,
    RoleHolds,
    SelfRestriction,
    Signature,
    Subsumes,
    TypSubsumes,
    TypicalInstanceOf,
    Typicality,
)
from typel.model import (
    BoundOverflow,
    RankedInterpretation,
    extension,
    is_model,
    refute,
    render_model,
    satisfies,
    satisfies_query,
)
from typel.parser import parse_query


def sig(concepts=(), roles=(), individuals=()):
    roles = frozenset(roles)
    return Signature(
        concept_names=frozenset(concepts),
        role_names=roles,
        individual_names=frozenset(individuals),
        simple_roles=roles,
    )


def small_model() -> RankedInterpretation:
    return RankedInterpretation(
        domain=(0, 1, 2),
        rank={0: 0, 1: 0, 2: 1},
        concept_ext={"A": frozenset({0, 2}), "B": frozenset({1, 2})},
        role_ext={"r": frozenset({(0, 1), (2, 2)})},
        individual_map={"a": 0, "b": 2},
    )


# --- direct evaluation -------------------------------------------------------


def test_extension_basic_shapes():
    m = small_model()
    assert extension(m, Name("A")) == {0, 2}
    assert extension(m, Conj(Name("A"), Name("B"))) == {2}
    assert extension(m, Exists("r", Name("B"))) == {0, 2}
    assert extension(m, Nominal("a")) == {0}
    assert extension(m, SelfRestriction("r")) == {2}


def test_typicality_extension_is_min_rank():
    m = small_model()
    # A has members at ranks 0 and 1, so only the rank-0 member is typical
    assert extension(m, Typicality(Name("A"))) == {0}
    assert extension(m, Typicality(Name("B"))) == {1}
    assert extension(m, Typicality(Conj(Name("A"), Name("B")))) == {2}


def test_unknown_name_raises():
    with pytest.raises(ValueError):
        extension(small_model(), Name("Missing"))


def test_satisfies_each_axiom_kind():
    m = small_model()
    assert satisfies(m, GCI(Conj(Name("A"), Name("B")), Name("A")))
    assert not satisfies(m, GCI(Name("A"), Name("B")))
    assert satisfies(m, ConceptAssertion(Name("A"), "a"))
    assert not satisfies(m, ConceptAssertion(Name("B"), "a"))
    assert satisfies(m, RoleAssertion("r", "a", "a") if (0, 0) in m.role_ext["r"] else RoleAssertion("r", "b", "b"))


def test_satisfies_query_kinds():
    m = small_model()
    assert satisfies_query(m, InstanceOf(Name("A"), "a"))
    assert satisfies_query(m, TypicalInstanceOf(Name("A"), "a"))
    assert not satisfies_query(m, TypicalInstanceOf(Name("A"), "b"))
    assert satisfies_query(m, RoleHolds("r", "b", "b"))
    assert satisfies_query(m, Subsumes(Conj(Name("A"), Name("B")), Name("B")))
    assert satisfies_query(m, TypSubsumes(Name("B"), Name("B")))
    # typical B is element 1 which is not in A
    assert not satisfies_query(m, TypSubsumes(Name("B"), Name("A")))


def test_interpretation_validation():
    with pytest.raises(ValueError):
        RankedInterpretation(
            domain=(), rank={}, concept_ext={}, role_ext={}, individual_map={}
        )
    with pytest.raises(ValueError):
        RankedInterpretation(
            domain=(0, 1),
            rank={0: 0},
            concept_ext={},
            role_ext={},
            individual_map={},
        )


def test_render_model_lists_every_element():
    text = render_model(small_model())
    for token in ("0", "1", "2", "a", "b"):
        assert token in text


# --- bounded refutation -------------------------------------------------------


def test_axiom_itself_cannot_be_refuted():
    kb = KnowledgeBase(signature=sig({"A", "B"}), tbox=(GCI(Name("A"), Name("B")),))
    assert refute(kb, Subsumes(Name("A"), Name("B"))) is None


def test_defeasible_subsumption_not_strengthened(example1):
    q = parse_query("T(Young and Italian) <= some hasHair.{Black}", example1)
    m = refute(example1, q)
    assert m is not None
    assert is_model(m, example1)
    assert not satisfies_query(m, q)


def test_nonmonotonic_instance_refuted(example1):
    q = parse_query("(some hasHair.{Black})(luigi)", example1)
    m = refute(example1, q)
    assert m is not None
    assert is_model(m, example1)
    assert not satisfies_query(m, q)


def test_entailed_instances_cannot_be_refuted(example1):
    for text in ("Young(mario)", "T(Student)(mario)", "MathHater(luigi)", "MathLover(tom)"):
        assert refute(example1, parse_query(text, example1)) is None, text


def test_refuted_model_respects_abox(example1):
    q = parse_query("(some hasHair.{Black})(luigi)", example1)
    m = refute(example1, q)
    luigi = m.individual_map["luigi"]
    # luigi stays a typical Student-and-Italian even in the counter-model
    assert luigi in extension(m, Typicality(Conj(Name("Student"), Name("Italian"))))


def test_budget_overflow_raises():
    kb = KnowledgeBase(signature=sig({"A", "B"}), tbox=(GCI(Name("A"), Name("B")),))
    with pytest.raises(BoundOverflow):
        refute(kb, Subsumes(Name("A"), Name("B")), max_domain=4, max_rank=3, budget=3)
