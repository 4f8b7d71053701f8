"""Immutable records: value equality within a class, hashing, printing,
construction, pattern matching, pickling and immutability."""
from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

import test_parser
from typel.datalog import Atom, Compare, DatalogProgram, Minus, Neg, Rule, Var
from typel.kb import (
    BOT,
    TOP,
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
    Violation,
    subconcepts,
)
from typel.materialize import EntailmentVerdict
from typel.record import Record

# reprs in the dataclass format, pinned as they were printed before records
# replaced dataclasses: Violation and TypeError messages show them
PINNED_REPRS = [
    (
        Conj(Name("A"), Exists("r", Nominal("a"))),
        "Conj(left=Name(name='A'), right=Exists(role='r', filler=Nominal(individual='a')))",
    ),
    (TOP, "Top()"),
    (BOT, "Bot()"),
    (
        Rule(
            Atom("p", (Var("x"),)),
            (Neg(Atom("q", (Minus(Var("x"), 1),))), Compare("<", Var("x"), 3)),
        ),
        "Rule(head=Atom(pred='p', args=(Var(name='x'),)), body=(Neg(atom=Atom(pred='q', "
        "args=(Minus(var=Var(name='x'), amount=1),))), Compare(op='<', left=Var(name='x'), "
        "right=3)))",
    ),
    (
        KnowledgeBase(
            Signature(frozenset({"A"}), frozenset(), frozenset({"a"})),
            (GCI(Typicality(Name("A")), BOT),),
            (),
            (ConceptAssertion(Name("A"), "a"),),
        ),
        "KnowledgeBase(signature=Signature(concept_names=frozenset({'A'}), "
        "role_names=frozenset(), individual_names=frozenset({'a'}), "
        "simple_roles=frozenset()), tbox=(GCI(lhs=Typicality(arg=Name(name='A')), "
        "rhs=Bot()),), rbox=(), abox=(ConceptAssertion(concept=Name(name='A'), "
        "individual='a'),))",
    ),
    (
        Violation("tbox[0]", "undeclared concept name B"),
        "Violation(where='tbox[0]', message='undeclared concept name B')",
    ),
    (
        TypSubsumes(Name("A"), SelfRestriction("r")),
        "TypSubsumes(lhs=Name(name='A'), rhs=SelfRestriction(role='r'))",
    ),
    (EntailmentVerdict(True), "EntailmentVerdict(entailed=True, witness=None)"),
    (DatalogProgram(), "DatalogProgram(facts=(), rules=())"),
]


@pytest.mark.parametrize("value, text", PINNED_REPRS)
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


def test_violation_keeps_its_own_str():
    assert str(Violation("tbox[0]", "bad")) == "tbox[0]: bad"


def records_of(kb: KnowledgeBase) -> list[Record]:
    """kb, its signature, its axioms and every concept inside them."""
    out: list[Record] = [kb, kb.signature]
    for ax in kb.tbox + kb.rbox + kb.abox:
        out.append(ax)
        for value in ax._values:
            if isinstance(value, Record):
                out.extend(subconcepts(value))
    return out


# another record class with the same number and kinds of fields
TWINS = {
    Name: Nominal,
    Nominal: Name,
    SelfRestriction: Name,
    Conj: GCI,
    GCI: Subsumes,
    ConceptAssertion: InstanceOf,
    RoleAssertion: RoleHolds,
}


@settings(max_examples=150, deadline=None)
@given(test_parser.kbs)
def test_equal_values_hash_equally(kb):
    for r in records_of(kb):
        copy = type(r)(*r._values)
        assert copy == r and hash(copy) == hash(r)
        assert not copy != r


@settings(max_examples=150, deadline=None)
@given(test_parser.kbs)
def test_records_of_different_classes_are_unequal(kb):
    assert Name("a") != Nominal("a") and TOP != BOT
    for r in records_of(kb):
        twin = TWINS.get(type(r))
        if twin is not None:
            other = twin(*r._values)
            assert other != r and r != other
            assert other._values == r._values


@settings(max_examples=100, deadline=None)
@given(test_parser.kbs)
def test_assignment_and_deletion_raise(kb):
    for r in records_of(kb):
        for f in r.__match_args__:
            with pytest.raises(AttributeError):
                setattr(r, f, None)
            with pytest.raises(AttributeError):
                delattr(r, f)
        with pytest.raises(AttributeError):
            r.extra = 1


def _matched(r: Record) -> tuple:
    """r's fields as a class pattern with positional sub-patterns binds them."""
    cls, n = type(r), len(r.__match_args__)
    match r:
        case cls() if n == 0:
            return ()
        case cls(a) if n == 1:
            return (a,)
        case cls(a, b) if n == 2:
            return (a, b)
        case cls(a, b, c) if n == 3:
            return (a, b, c)
        case cls(a, b, c, d):
            return (a, b, c, d)


@settings(max_examples=150, deadline=None)
@given(test_parser.kbs)
def test_positional_keyword_and_pattern_construction(kb):
    for r in records_of(kb):
        fields = dict(zip(r.__match_args__, r._values))
        assert type(r)(*fields.values()) == r
        assert type(r)(**fields) == r
        assert _matched(r) == tuple(fields.values())
        assert tuple(getattr(r, f) for f in r.__match_args__) == r._values
        assert r._replace() == r


@settings(max_examples=100, deadline=None)
@given(test_parser.kbs)
def test_pickling_round_trips(kb):
    for r in records_of(kb):
        again = pickle.loads(pickle.dumps(r))
        assert type(again) is type(r) and again == r and hash(again) == hash(r)


@settings(max_examples=100, deadline=None)
@given(test_parser.top_level_concepts)
def test_typicality_inside_typicality_still_raises(c):
    if any(isinstance(part, Typicality) for part in subconcepts(c)):
        builds = (Typicality, lambda c: TypicalInstanceOf(c, "a"), lambda c: TypSubsumes(c, TOP))
        for build in builds:
            with pytest.raises(ValueError, match="nested typicality"):
                build(c)
    else:
        assert Typicality(c).arg == c


def test_defaults_and_replace():
    sig = Signature(frozenset({"A"}), frozenset({"r"}), frozenset())
    assert sig.simple_roles == frozenset()
    assert KnowledgeBase(sig).tbox == ()
    changed = sig._replace(simple_roles=frozenset({"r"}))
    assert changed.simple_roles == {"r"} and changed.concept_names == sig.concept_names
    assert sig.simple_roles == frozenset()
    with pytest.raises(TypeError):
        sig._replace(nonsense=1)
    with pytest.raises(TypeError):
        Name()
    with pytest.raises(TypeError):
        Name("a", "b")


def test_rule_and_kb_keep_a_cached_hash_out_of_equality_and_repr():
    rule = Rule(Atom("p", (Var("x"),)), (Atom("q", (Var("x"),)),))
    assert hash(rule) == hash((rule.head, rule.body))
    assert rule.__match_args__ == ("head", "body")
    kb = KnowledgeBase(Signature(frozenset(), frozenset(), frozenset()))
    assert hash(kb) == hash(KnowledgeBase(kb.signature))
    assert "_hash" not in repr(kb) and kb == pickle.loads(pickle.dumps(kb))
