"""Ranked interpretations: direct evaluation and bounded refutation search."""
from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_search
import typel.model
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
    conj_of,
    validate,
    validate_query,
)
from typel.model import (
    BoundOverflow,
    RankedInterpretation,
    _Encoder,
    _load,
    _solve,
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


def test_trivially_true_queries_are_none_found_quickly():
    import conftest

    for name, text in (
        ("example1-af.kbt", "MathHater <= MathHater"),
        ("rc_inconsistent.kbt", "T(Student) <= MathHater"),
        ("rc_still_consistent.kbt", "T(Student) <= Young"),
    ):
        kb = conftest.load_fixture(name)
        # a budget far below the default: these need only a few decisions
        assert refute(kb, parse_query(text, kb), budget=5_000) is None, name


@pytest.mark.parametrize(
    "query, undeclared",
    [
        (InstanceOf(Name("Young"), "nobody"), "'nobody'"),
        (InstanceOf(Name("Nobody"), "mario"), "'Nobody'"),
        (RoleHolds("likes", "mario", "luigi"), "'likes'"),
        (Subsumes(Name("Young"), Exists("hasHair", Nominal("Green"))), "'Green'"),
    ],
)
def test_refute_rejects_undeclared_query_names(example1, query, undeclared):
    with pytest.raises(ValueError, match=f"invalid query: undeclared .*{undeclared}"):
        refute(example1, query)


def test_refute_rejects_a_too_tall_kb():
    kb = KnowledgeBase(
        signature=sig({"A", "B"}, (), {"a"}),
        tbox=(GCI(conj_of([Name("A")] * 1000), Name("B")),),
    )
    with pytest.raises(ValueError, match="nested deeper"):
        refute(kb, InstanceOf(Name("B"), "a"))


@pytest.mark.parametrize(
    "bounds", [{"max_domain": 0}, {"max_domain": -3}, {"max_rank": -1}]
)
def test_refute_rejects_bounds_that_admit_no_model(example1, bounds):
    # a counter-model exists at the default bounds; None here would claim
    # a search that never ran
    q = parse_query("(some hasHair.{Black})(luigi)", example1)
    with pytest.raises(ValueError, match="no model within max_domain"):
        refute(example1, q, **bounds)


@pytest.mark.parametrize("text", ["Young(mario)", "(some hasHair.{Black})(luigi)"])
def test_refute_solves_once_per_domain_size(example1, monkeypatch, text):
    # the ranks are solver variables: one call covers every rank assignment
    calls = []
    real = typel.model._solve

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(typel.model, "_solve", counting)
    refute(example1, parse_query(text, example1), max_domain=3, max_rank=2)
    assert 1 <= len(calls) <= 3


def test_budget_overflow_raises():
    kb = KnowledgeBase(signature=sig({"A", "B"}), tbox=(GCI(Name("A"), Name("B")),))
    with pytest.raises(BoundOverflow):
        refute(kb, Subsumes(Name("A"), Name("B")), max_domain=4, max_rank=3, budget=3)


# --- refute against every small ranked interpretation -------------------------

# two concept names, one role and one individual: every interpretation of
# up to two elements with ranks in {0, 1} can be listed
TINY = sig({"A", "B"}, {"r"}, {"a"})

tiny_concepts = st.recursive(
    st.sampled_from([Name("A"), Name("B"), Nominal("a"), TOP, BOT, SelfRestriction("r")]),
    lambda kids: st.one_of(st.builds(Conj, kids, kids), st.builds(Exists, st.just("r"), kids)),
    max_leaves=4,
)
tiny_top_level = st.one_of(tiny_concepts, st.builds(Typicality, tiny_concepts))
tiny_kbs = st.builds(
    lambda tbox, abox: KnowledgeBase(signature=TINY, tbox=tuple(tbox), abox=tuple(abox)),
    st.lists(st.builds(GCI, tiny_top_level, tiny_top_level), max_size=3),
    st.lists(
        st.one_of(
            st.builds(ConceptAssertion, tiny_top_level, st.just("a")),
            st.just(RoleAssertion("r", "a", "a")),
        ),
        max_size=2,
    ),
)
tiny_queries = st.one_of(
    st.builds(InstanceOf, tiny_concepts, st.just("a")),
    st.builds(TypicalInstanceOf, tiny_concepts, st.just("a")),
    st.just(RoleHolds("r", "a", "a")),
    st.builds(Subsumes, tiny_concepts, tiny_concepts),
    st.builds(TypSubsumes, tiny_concepts, tiny_concepts),
)


def _subsets(items):
    return [frozenset(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


@functools.cache
def tiny_interpretations() -> tuple[RankedInterpretation, ...]:
    """Every ranked interpretation of TINY on one or two elements, ranks
    in {0, 1}: no symmetry breaking and no clauses, so nothing is shared
    with the encoder that refute searches with."""
    out = []
    for n in (1, 2):
        domain = tuple(range(n))
        concepts = _subsets(domain)
        relations = _subsets(list(itertools.product(domain, repeat=2)))
        for ranks, a_ext, b_ext, r_ext, a in itertools.product(
            itertools.product((0, 1), repeat=n), concepts, concepts, relations, domain
        ):
            out.append(
                RankedInterpretation(
                    domain=domain,
                    rank=dict(enumerate(ranks)),
                    concept_ext={"A": a_ext, "B": b_ext},
                    role_ext={"r": r_ext},
                    individual_map={"a": a},
                )
            )
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(tiny_kbs, tiny_queries)
def test_refute_finds_a_counter_model_iff_one_is_listed(kb, q):
    assume(not validate(kb) and not validate_query(kb, q))
    listed = any(
        not satisfies_query(m, q) and is_model(m, kb) for m in tiny_interpretations()
    )
    assert (refute(kb, q, max_domain=2, max_rank=1) is not None) == listed


# --- the prepared search against a fresh grounding ----------------------------


def fresh_refute(kb, q, max_domain, max_rank, budget):
    """refute as it would run with nothing kept: per domain size, a new
    encoder and one solver call over the whole clause list."""
    cell = [budget]
    for n in range(1, max_domain + 1):
        enc = _Encoder(kb, n, max_rank)
        enc.encode_kb()
        enc.encode_query_negation(q)
        sol = _solve(enc.nvars, enc.clauses, cell)
        if sol is not None:
            return enc.decode(sol)
    return None


def _search_outcome(search):
    try:
        m = search()
    except BoundOverflow:
        return "overflow"
    return None if m is None else render_model(m)


@settings(max_examples=80, deadline=None)
@given(
    tiny_kbs,
    st.lists(tiny_queries, min_size=1, max_size=4),
    st.sampled_from([(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]),
    st.sampled_from([2, 20, 2_000_000]),
    st.randoms(use_true_random=False),
)
def test_prepared_search_finds_the_fresh_groundings_model(kb, queries, bounds, budget, rng):
    # each query is asked twice, in order and then shuffled, so a grounding
    # answers its first question and later ones from its loaded state
    assume(not validate(kb))
    queries = [q for q in queries if not validate_query(kb, q)]
    assume(queries)
    typel.model._grounded.cache_clear()
    expected = [_search_outcome(lambda: fresh_refute(kb, q, *bounds, budget)) for q in queries]
    order = list(range(len(queries)))
    for i in order + rng.sample(order, len(order)):
        got = _search_outcome(lambda: refute(kb, queries[i], *bounds, budget))
        assert got == expected[i], queries[i]


def test_refute_grounds_a_value_equal_kb_once(monkeypatch):
    import conftest

    encoded = []
    real = _Encoder.encode_kb
    monkeypatch.setattr(_Encoder, "encode_kb", lambda self: encoded.append(self.n) or real(self))
    typel.model._grounded.cache_clear()
    kb = conftest.load_fixture("example1.kbt")
    texts = ("Young(mario)", "(some hasHair.{Black})(luigi)", "T(Young and Italian) <= some hasHair.{Black}")
    for text in texts:
        refute(kb, parse_query(text, kb))
    assert sorted(set(encoded)) == [1, 2, 3] and len(encoded) == 3
    encoded.clear()
    again = conftest.load_fixture("example1.kbt")
    assert again is not kb and again == kb
    for text in texts:
        refute(again, parse_query(text, again))
    assert encoded == []


# --- the solver against brute force ------------------------------------------


def _brute_force_sat(nvars: int, clauses) -> bool:
    masks = []
    for cl in clauses:
        pos = sum(1 << lit for lit in set(cl) if lit > 0)
        neg = sum(1 << -lit for lit in set(cl) if lit < 0)
        masks.append((pos, neg))
    # bit v of bits is the value of var v; bit 0 stays clear
    return any(
        all(bits & pos or ~bits & neg for pos, neg in masks)
        for bits in range(0, 1 << (nvars + 1), 2)
    )


@st.composite
def cnfs(draw):
    nvars = draw(st.integers(1, 12))
    lit = st.integers(1, nvars).flatmap(lambda v: st.sampled_from((v, -v)))
    # short clauses make unsatisfiable draws common; drawing literals with
    # replacement gives duplicate literals and tautologies, as the encoder's
    # r o r <= s does
    clause = st.lists(lit, min_size=1, max_size=4).map(tuple)
    return nvars, draw(st.lists(clause, max_size=6 * nvars))


@settings(max_examples=300, deadline=None)
@given(cnfs())
def test_solve_agrees_with_brute_force(cnf):
    nvars, clauses = cnf
    sol = _solve(nvars, clauses, [10_000])
    assert (sol is not None) == _brute_force_sat(nvars, clauses)
    if sol is not None:
        assert len(sol) == nvars + 1
        assert all(sol[v] in (1, -1) for v in range(1, nvars + 1))
        for cl in clauses:
            assert any(sol[abs(lit)] == (1 if lit > 0 else -1) for lit in cl), cl
    # no randomness: the same clauses give the same answer
    assert _solve(nvars, clauses, [10_000]) == sol


def planted_3cnf(plant: list[bool], rnd: random.Random) -> list[tuple[int, ...]]:
    """A 3-CNF near the satisfiability threshold, drawn from rnd, that
    plant (the value of each variable from 1 on) satisfies: larger than
    brute force allows, and satisfiable by construction."""
    nvars = len(plant)
    clauses = []
    for _ in range(int(4.2 * nvars)):
        cl = [rnd.choice((1, -1)) * rnd.randint(1, nvars) for _ in range(3)]
        if not any((lit > 0) == plant[abs(lit) - 1] for lit in cl):
            cl[0] = -cl[0]
        clauses.append(tuple(cl))
    return clauses


@st.composite
def planted_3cnfs(draw):
    nvars = draw(st.integers(10, 40))
    plant = draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
    return nvars, planted_3cnf(plant, draw(st.randoms(use_true_random=False)))


@settings(max_examples=60, deadline=None)
@given(planted_3cnfs())
def test_solve_finds_planted_models(cnf):
    # long learned clauses and deep backjumps happen here, rarely below
    # 12 variables
    nvars, clauses = cnf
    sol = _solve(nvars, clauses, [100_000])
    assert sol is not None
    for cl in clauses:
        assert any(sol[abs(lit)] == (1 if lit > 0 else -1) for lit in cl), cl


def test_solve_counts_decisions_in_the_shared_cell():
    # x1 or x2, with nothing forced: at least one decision
    cell = [5]
    assert _solve(2, [(1, 2)], cell) is not None
    assert cell[0] < 5
    with pytest.raises(BoundOverflow):
        _solve(2, [(1, 2)], [0])


# --- the search against its reference -----------------------------------------


def _searched(search, nvars, state, budget):
    """What search leaves: its answer, the budget cell and the whole state,
    learnt clauses, watch lists and literal order included."""
    cell = [budget]
    try:
        out = search(nvars, state, cell)
    except BoundOverflow:
        out = "overflow"
    return out, cell, state


def assert_searches_agree(nvars, load, budget):
    """load() gives a new loaded state on each call, or None."""
    expected = load()
    if expected is None:
        return
    expected = _searched(reference_search._search, nvars, expected, budget)
    assert _searched(typel.model._search, nvars, load(), budget) == expected


def _loads(nvars, clauses, split):
    """The state of clauses loaded at once, and the one of clauses[split:]
    loaded on a base state of clauses[:split] over only the variables
    these name, so the rest are added in between."""
    yield functools.partial(_load, nvars, clauses)
    head = clauses[:split]
    base = _load(max((abs(lit) for cl in head for lit in cl), default=0), head)
    if base is not None:
        yield functools.partial(_load, nvars, clauses[split:], base)


@settings(max_examples=300, deadline=None)
@given(cnfs(), st.data(), st.sampled_from([3, 10_000]))
def test_search_matches_the_reference_on_small_cnfs(cnf, data, budget):
    nvars, clauses = cnf
    split = data.draw(st.integers(0, len(clauses)))
    for load in _loads(nvars, clauses, split):
        assert_searches_agree(nvars, load, budget)


@settings(max_examples=60, deadline=None)
@given(planted_3cnfs(), st.data())
def test_search_matches_the_reference_on_planted_cnfs(cnf, data):
    nvars, clauses = cnf
    split = data.draw(st.integers(0, len(clauses)))
    for load in _loads(nvars, clauses, split):
        assert_searches_agree(nvars, load, 100_000)


@settings(max_examples=80, deadline=None)
@given(tiny_kbs, tiny_queries, st.sampled_from([(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]))
def test_search_matches_the_reference_on_groundings(kb, q, bounds):
    # a KB's clauses then its question's, loaded at once as a fresh
    # grounding does, and on the KB's loaded state as refute does
    assume(not validate(kb) and not validate_query(kb, q))
    enc = _Encoder(kb, *bounds)
    enc.encode_kb()
    question = enc.fork()
    question.encode_query_negation(q)
    nvars, clauses = question.nvars, enc.clauses + question.clauses
    assert_searches_agree(nvars, functools.partial(_load, nvars, clauses), 2_000_000)
    base = _load(enc.nvars, enc.clauses)
    if base is not None:
        load = functools.partial(_load, nvars, question.clauses, base)
        assert_searches_agree(nvars, load, 2_000_000)


class _Tracked(float):
    """A float whose products and sums are _Tracked too.  As the activity
    factor it makes the increment one, and so every activity bumped, and
    it records in FIRED when the rescale's factor 1e-100 multiplies one,
    and when that rounds a bumped activity down to 0."""

    FIRED: set[str] = set()

    def __mul__(self, other):
        out = float(self) * other
        if other == 1e-100:
            _Tracked.FIRED.add("rescale")
            if self and not out:
                _Tracked.FIRED.add("underflow")
        return _Tracked(out)

    def __rmul__(self, other):
        return _Tracked(other * float(self))

    def __add__(self, other):
        return _Tracked(float(self) + other)

    def __radd__(self, other):
        return _Tracked(other + float(self))


@pytest.mark.parametrize("factor", [1e30, 1e60])
def test_search_matches_the_reference_through_rescales_and_underflow(monkeypatch, factor):
    # at the factor 1/0.95 the rescale needs about 4,490 conflicts, which
    # no planted CNF above learns.  At 1e30 it fires every fourth conflict
    # and an activity left unbumped underflows to 0 after four rescales; at
    # 1e60 both come twice as fast.  At either factor these CNFs hold a
    # variable unassigned while its activity underflows, which only the
    # decision pointer's reset after a rescale finds again
    decay = _Tracked(factor)
    monkeypatch.setattr(typel.model, "_DECAY", decay)
    monkeypatch.setattr(reference_search, "_DECAY", decay)
    monkeypatch.setattr(_Tracked, "FIRED", set())
    rnd = random.Random(7)
    for _ in range(150):
        nvars = rnd.randint(30, 40)
        clauses = planted_3cnf([rnd.random() < 0.5 for _ in range(nvars)], rnd)
        for load in _loads(nvars, clauses, rnd.randint(0, len(clauses))):
            assert_searches_agree(nvars, load, 100_000)
    assert _Tracked.FIRED == {"rescale", "underflow"}


# --- the catalog's searches, pinned -------------------------------------------

# the perfbench catalog's refute queries: decisions per domain size and
# the counter-model, as the search gave them when every variable sat in
# its decision heap; an equal search gives them exactly again
PINNED_SEARCHES = {
    ("example1.kbt", "(some hasHair.{Black})(luigi)"): ([0, 4, 44], """\
elem  rank  individuals        concepts / roles
e0    0     Black              Italian MathHater Nerd Young friendOf->e0 hasHair->e0 hasHair->e1
e1    1     luigi,mario,mary,paul Italian MathHater Student Young friendOf->e0 friendOf->e1 friendOf->e2 hasHair->e1 hasHair->e2
e2    2     Blond,tom          Italian MathLover Nerd Student Young friendOf->e0 friendOf->e2 hasHair->e1 hasHair->e2"""),
    ("example1.kbt", "T(Young and Italian) <= some hasHair.{Black}"): ([0, 8, 39], """\
elem  rank  individuals        concepts / roles
e0    0     Black              Italian MathHater Nerd friendOf->e0 hasHair->e0 hasHair->e1
e1    1     luigi,mario,mary,paul Italian MathHater Student Young friendOf->e0 friendOf->e1 friendOf->e2 hasHair->e1 hasHair->e2
e2    2     Blond,tom          Italian MathLover Nerd Student Young friendOf->e0 friendOf->e2 hasHair->e0 hasHair->e1"""),
    ("example1.kbt", "MathHater(paul)"): ([0, 4, 26], None),
    ("example1.kbt", "Young(mario)"): ([0, 6, 13], None),
    ("example4.kbt", "A <= B"): ([0], """\
elem  rank  individuals        concepts / roles
e0    0     -                  A"""),
}


@pytest.mark.parametrize("fixture, text", list(PINNED_SEARCHES))
def test_catalog_searches_are_pinned(monkeypatch, fixture, text):
    import conftest

    decisions = []
    real = typel.model._solve

    def counting(nvars, clauses, budget, base=None):
        before = budget[0]
        out = real(nvars, clauses, budget, base)
        decisions.append(before - budget[0])
        return out

    monkeypatch.setattr(typel.model, "_solve", counting)
    typel.model._grounded.cache_clear()
    kb = conftest.load_fixture(fixture)
    q = parse_query(text, kb)
    for _ in range(2):
        # the KB's first question and a later one, on its loaded state
        decisions.clear()
        m = refute(kb, q)
        assert (decisions, m and render_model(m)) == PINNED_SEARCHES[fixture, text]
