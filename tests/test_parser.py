"""Surface-syntax round trips and parse diagnostics."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ProductToRole,
    RoleAssertion,
    RoleChain,
    RoleConj,
    RoleHolds,
    RoleIncl,
    RoleToProduct,
    SelfRestriction,
    Signature,
    Subsumes,
    TypSubsumes,
    TypicalInstanceOf,
    Typicality,
    query_axiom,
    subconcepts,
)
from typel.parser import (
    ParseError,
    axiom_text,
    parse_concept,
    parse_kb,
    parse_query,
    print_kb,
    query_text,
    tokenize,
)

SIG = Signature(
    concept_names=frozenset({"A", "B", "C"}),
    role_names=frozenset({"r", "s"}),
    individual_names=frozenset({"a", "b"}),
    simple_roles=frozenset({"r", "s"}),
)
EMPTY_SIG_KB = KnowledgeBase(signature=SIG)

concept_names = st.sampled_from(["A", "B", "C"])
role_names = st.sampled_from(["r", "s"])
individual_names = st.sampled_from(["a", "b"])

tfree_concepts = st.recursive(
    st.one_of(
        st.builds(Name, concept_names),
        st.builds(Nominal, individual_names),
        st.just(TOP),
        st.just(BOT),
        st.builds(SelfRestriction, role_names),
    ),
    lambda kids: st.one_of(
        st.builds(Conj, kids, kids),
        st.builds(Exists, role_names, kids),
    ),
    max_leaves=6,
)

# T at statement level only, mirroring where the language allows it
top_level_concepts = st.one_of(tfree_concepts, st.builds(Typicality, tfree_concepts))

kbs = st.builds(
    lambda tbox, abox: KnowledgeBase(signature=SIG, tbox=tuple(tbox), abox=tuple(abox)),
    st.lists(st.builds(GCI, top_level_concepts, top_level_concepts), max_size=4),
    st.lists(
        st.one_of(
            st.builds(ConceptAssertion, top_level_concepts, individual_names),
            st.builds(RoleAssertion, role_names, individual_names, individual_names),
        ),
        max_size=3,
    ),
)

queries = st.one_of(
    st.builds(InstanceOf, tfree_concepts, individual_names),
    st.builds(TypicalInstanceOf, tfree_concepts, individual_names),
    st.builds(RoleHolds, role_names, individual_names, individual_names),
    st.builds(Subsumes, tfree_concepts, tfree_concepts),
    st.builds(TypSubsumes, tfree_concepts, tfree_concepts),
)


@settings(max_examples=200, deadline=None)
@given(kbs)
def test_print_parse_round_trip(kb):
    assert parse_kb(print_kb(kb)) == kb


@settings(max_examples=200, deadline=None)
@given(queries)
def test_query_text_round_trip(q):
    assert parse_query(query_text(q), EMPTY_SIG_KB) == q


rbox_axioms = st.one_of(
    st.builds(RoleIncl, role_names, role_names),
    st.builds(RoleChain, role_names, role_names, role_names),
    st.builds(RoleConj, role_names, role_names, role_names),
    st.builds(ProductToRole, tfree_concepts, tfree_concepts, role_names),
    st.builds(RoleToProduct, role_names, tfree_concepts, tfree_concepts),
)


@settings(max_examples=200, deadline=None)
@given(kbs, st.lists(rbox_axioms, max_size=3))
def test_a_query_is_the_axiom_it_asks_about(kb, rbox):
    for ax in (*kb.tbox, *kb.abox):
        assert query_axiom(parse_query(axiom_text(ax), kb)) == ax
    for ax in rbox:
        with pytest.raises(ParseError, match=r"^<query>:1:1: a role axiom is not a query"):
            parse_query(axiom_text(ax), kb)


def _preorder(c):
    match c:
        case Conj(left, right):
            return [c, *_preorder(left), *_preorder(right)]
        case Exists(_, part) | Typicality(part):
            return [c, *_preorder(part)]
    return [c]


# T anywhere outside another T
concepts = st.recursive(
    top_level_concepts,
    lambda kids: st.one_of(st.builds(Conj, kids, kids), st.builds(Exists, role_names, kids)),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(concepts)
def test_subconcepts_is_the_preorder_walk(c):
    assert list(subconcepts(c)) == _preorder(c)


@settings(max_examples=150, deadline=None)
@given(tfree_concepts)
def test_parse_concept_round_trip(c):
    from typel.kb import concept_text

    assert parse_concept(concept_text(c), EMPTY_SIG_KB) == c


def test_rbox_round_trip():
    roles = frozenset({"r", "s", "t", "u"})
    rbox = (
        RoleIncl("r", "s"),
        RoleChain("r", "s", "t"),
        RoleConj("r", "s", "u"),
        ProductToRole(Name("A"), Conj(Name("B"), Name("C")), "r"),
        RoleToProduct("s", Name("A"), Name("B")),
    )
    kb = KnowledgeBase(
        signature=Signature(
            concept_names=frozenset({"A", "B", "C"}),
            role_names=roles,
            individual_names=frozenset(),
            simple_roles=frozenset({"r", "s", "u"}),
        ),
        rbox=rbox,
    )
    assert parse_kb(print_kb(kb)) == kb


def test_axiom_text_each_kind():
    cases = {
        GCI(Typicality(Conj(Name("A"), Name("B"))), Name("C")): "T(A and B) <= C",
        RoleIncl("r", "s"): "r <= s",
        RoleChain("r", "s", "t"): "r o s <= t",
        RoleConj("r", "s", "t"): "r & s <= t",
        ProductToRole(Name("A"), Name("B"), "r"): "A x B <= r",
        RoleToProduct("r", Name("A"), Name("B")): "r <= A x B",
        ConceptAssertion(Name("A"), "a"): "A(a)",
        ConceptAssertion(Conj(Name("A"), Name("B")), "a"): "(A and B)(a)",
        ConceptAssertion(Typicality(Name("A")), "a"): "T(A)(a)",
        RoleAssertion("r", "a", "b"): "r(a, b)",
    }
    for ax, expected in cases.items():
        assert axiom_text(ax) == expected


def test_existential_filler_binds_tight():
    c = parse_concept("some r.A and B", EMPTY_SIG_KB)
    assert c == Conj(Exists("r", Name("A")), Name("B"))
    d = parse_concept("some r.(A and B)", EMPTY_SIG_KB)
    assert d == Exists("r", Conj(Name("A"), Name("B")))


def test_conjunction_left_associative():
    c = parse_concept("A and B and C", EMPTY_SIG_KB)
    assert c == Conj(Conj(Name("A"), Name("B")), Name("C"))


def test_comments_and_blank_lines_ignored():
    text = "% heading\nclass A.\nindividual a.\n\n% tail comment\nA(a) . % inline\n"
    kb = parse_kb(text)
    assert kb.abox == (ConceptAssertion(Name("A"), "a"),)


@pytest.mark.parametrize(
    "text, message",
    [
        ("class A.\n\tA @ B.", "kb.kbt:2:4: unexpected character '@'"),
        ("class A.\r\nA @ B.", "kb.kbt:2:3: unexpected character '@'"),
        # the end of the input after a trailing comment is at the comment
        ("class A.\nA <= A %c", "kb.kbt:2:8: expected '.', found 'end of input'"),
        # a keyword expected at the end names it as every other expectation does
        ("class A.\nrole r.\nr <= A", "kb.kbt:3:7: expected 'x', found 'end of input'"),
        # a numeral may go on a name but not start it
        ("class ²A.", "kb.kbt:1:7: unexpected character '²'"),
        ("class ½A.", "kb.kbt:1:7: unexpected character '½'"),
        ("class 1A.", "kb.kbt:1:7: unexpected character '1'"),
        ("class A$.", "kb.kbt:1:8: unexpected character '$'"),
    ],
)
def test_scan_errors_name_line_and_column(text, message):
    with pytest.raises(ParseError) as raised:
        parse_kb(text, filename="kb.kbt")
    assert str(raised.value) == message


def test_names_hold_letters_and_digits_beyond_ascii():
    kb = parse_kb("class é.\nclass 五.\nclass A²_1.\né <= 五.\n五 <= A²_1.\n")
    assert kb.signature.concept_names == {"é", "五", "A²_1"}
    assert kb.tbox == (GCI(Name("é"), Name("五")), GCI(Name("五"), Name("A²_1")))


def test_tokens_carry_kind_text_line_and_column():
    assert tokenize("class A. % c\r\nA <= top\t%end") == [
        ("keyword", "class", 1, 1),
        ("ident", "A", 1, 7),
        (".", ".", 1, 8),
        ("ident", "A", 2, 1),
        ("<=", "<=", 2, 3),
        ("keyword", "top", 2, 6),
        ("eof", "", 2, 10),
    ]


def test_names_must_be_declared_before_use():
    with pytest.raises(ParseError, match="undeclared individual 'a'"):
        parse_kb("class A.\nA(a).\nindividual a.\n")


def test_undeclared_names_are_located_errors():
    with pytest.raises(ParseError, match=r"kb\.kbt:1:1.*'B'"):
        parse_kb("B <= B.\n", filename="kb.kbt")
    with pytest.raises(ParseError, match="undeclared"):
        parse_kb("class A.\nA(missing).\n")


def test_missing_period_is_an_error():
    with pytest.raises(ParseError, match=r"1:"):
        parse_kb("class A")


def test_keyword_cannot_be_declared():
    with pytest.raises(ParseError):
        parse_kb("class T.")
    with pytest.raises(ParseError):
        parse_kb("role and.")


def test_parse_query_rejects_inclusion_keyword_mix():
    with pytest.raises(ParseError):
        parse_query("T(T(A)) <= B", EMPTY_SIG_KB)


def test_parse_concept_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_concept("A and B extra", EMPTY_SIG_KB)


def test_parse_query_forms():
    assert parse_query("A(a)", EMPTY_SIG_KB) == InstanceOf(Name("A"), "a")
    assert parse_query("T(A)(a)", EMPTY_SIG_KB) == TypicalInstanceOf(Name("A"), "a")
    assert parse_query("r(a, b)", EMPTY_SIG_KB) == RoleHolds("r", "a", "b")
    assert parse_query("A <= B", EMPTY_SIG_KB) == Subsumes(Name("A"), Name("B"))
    assert parse_query("T(A and B) <= C", EMPTY_SIG_KB) == TypSubsumes(
        Conj(Name("A"), Name("B")), Name("C")
    )
