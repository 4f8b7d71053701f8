"""Rational closure over the defeasible part of a simple knowledge base.

The construction iterates exceptionality: stage 0 holds every defeasible
inclusion, and a stage keeps exactly the inclusions whose left concept was
exceptional (subsumed by nothing, together with a typical-top hypothesis)
at the previous stage.  A concept's rank is the first stage where it stops
being exceptional; concepts exceptional at the fixpoint get rank infinity.
Everything runs inside one stratified Datalog program: staged hypothesis
copies of the calculus answer the per-stage exceptionality checks, negation
reads off ranks, and two injection rules feed the computed ranks back into
the base calculus for the closure-consistency test.  Exceptionality only
shrinks from stage to stage, so a concept gets its stage-i copy only while
it stays exceptional: stage(C, i) holds for i = 0 and when C was
exceptional at i - 1, and guards every staged rule.  A copy is the
calculus less three rules no stage question needs (see _H_SOURCE): one
bottom fact makes a copy's concept exceptional, and nothing floods the
copy past it.

Only simple KBs qualify: typicality may appear in inclusion left sides
only, so the defeasible part is a set of T(C) <= D axioms.  compute_ranks,
rc_entails and rc_consistent all evaluate CLOSURE_RULES, once per request,
and read their answer off the one store.  No rank, stage or hypothesis-copy
rule reads a base-calculus predicate, so the rank and inrc facts are the
same with or without the injection rules.  Those only add facts, so a
consistent store is also classically consistent; only an inconsistent one
needs check_consistency to tell a classically inconsistent KB, on which
ranks mean nothing, from an inconsistent closure.

closure_program builds the program each entry point evaluates and reads
back; the CLI dumps the same program.
"""

from __future__ import annotations

from .datalog import (
    Atom,
    DatalogProgram,
    FactStore,
    Rule,
    Var,
    evaluate,
    load_program,
    transform_rules,
)
from .kb import (
    ConceptExpr,
    KnowledgeBase,
    TypSubsumes,
    Typicality,
    concept_text,
    contains_typicality,
    first_non_simple_axiom,
    subconcepts,
)
from .materialize import (
    BASE_RULES,
    DERIVED_PREDS,
    IR_LABELED,
    RT_LABELED,
    check_consistency,
    store_inconsistent,
    translate,
)
from .normalize import NormalizedKB, normalize
from .parser import axiom_text
from .record import Record, record


class NotSimpleError(ValueError):
    """The KB has a typicality occurrence outside inclusion left sides."""


class InconsistentKBError(ValueError):
    """Classically inconsistent input: every concept floods, ranks mean
    nothing."""


_INCONSISTENT = "classically inconsistent KB: ranks are undefined"


# hypothesis copies: the positive calculus re-derived under the assumption
# that constant D is a typical-top instance of itself, at each stage I of D.
# A copy (D, I) asks one question, whether D is exceptional at I, and C2
# answers yes on any bottom fact in it.  Facts of a copy with a bottom fact
# leave it only through C2: inrc1 reads copy (C, I) only where C has rank
# I, so where it holds no bottom fact.  Three rules are left out:
# - SubTyp: the staged subTypRC below replaces it.
# - Rule 4, the bottom flood: it fires only in a copy that already holds a
#   bottom fact, so every other copy and the answer of this one stay the
#   same, and the copy is not flooded past its first bottom fact.
# - SupTyp: in a simple KB an occurrence name X_C gets members only through
#   T(R) <= X_C, or by a nominal from one that did, and B6 and A3 carry
#   typicality across that equality, so typ_h(x, R) already holds for every
#   member x that X_C <= T(R) would make typical.
_H_SOURCE: tuple[tuple[str, Rule], ...] = tuple(
    (label, rule)
    for label, rule in IR_LABELED + RT_LABELED
    if label not in ("4", "SubTyp", "SupTyp")
)
_H_RENAME = {p: f"{p}_h" for p in DERIVED_PREDS}


def hypothesis_copy(rules: tuple[Rule, ...]) -> tuple[Rule, ...]:
    """The rules re-derived per hypothesis (D, I): each derived predicate p
    becomes p_h, carries D and I, and is guarded by stage(D, I)."""
    return transform_rules(
        rules,
        targets=DERIVED_PREDS,
        extra=(Var("D"), Var("I")),
        rename=_H_RENAME,
        guards=(Atom("stage", (Var("D"), Var("I"))),),
        guard_mode="always",
    )


H_RULES: tuple[Rule, ...] = hypothesis_copy(tuple(rule for _, rule in _H_SOURCE))

# staging, exceptionality, ranks, fixpoint, closure membership, and the two
# rules injecting computed ranks into the base calculus; the stage range
# possrank(0..N) comes as facts, N one past the T occurrence count
_RC_TEXT: tuple[tuple[str, str], ...] = (
    ("C0", "t_cls(?C) :- auxc(?Aux, ?C)."),
    ("stage0", "stage(?C, 0) :- t_cls(?C)."),
    ("stageI", "stage(?C, ?I) :- possrank(?I), exceptional(?C, ?I - 1)."),
    ("C2", "exceptional(?C, ?I) :- stage(?C, ?I), bot(?Z), inst_h(?U, ?Z, ?C, ?I)."),
    ("C3", "subTypAt(?C, ?D, 0) :- subTyp(?C, ?D)."),
    (
        "C4",
        "subTypAt(?C, ?D, ?I) :- possrank(?I), subTypAt(?C, ?D, ?I - 1), exceptional(?C, ?I - 1).",
    ),
    ("C5", "typ_h(?C, top, ?C, ?I) :- stage(?C, ?I)."),
    ("C6", "inst_h(?C, ?C, ?C, ?I) :- stage(?C, ?I)."),
    ("C7", "rank(?C, 0) :- t_cls(?C), not exceptional(?C, 0)."),
    (
        "C8",
        "rank(?C, ?I) :- t_cls(?C), possrank(?I), exceptional(?C, ?I - 1), not exceptional(?C, ?I).",
    ),
    ("C9", "newNonEx(?I) :- t_cls(?C), rank(?C, ?I)."),
    ("C10", "fixp(?I) :- possrank(?I), ?I > 0, not newNonEx(?I)."),
    ("C11", "fixp(?I) :- possrank(?I), fixp(?I - 1)."),
    ("C12", "inf_rank(?C) :- fixp(?I), exceptional(?C, ?I)."),
    (
        "subTypRC",
        "inst_h(?X, ?C, ?D, ?I) :- stage(?D, ?I), subTypAt(?A, ?C, ?I), typ_h(?X, ?A, ?D, ?I).",
    ),
    (
        "inrc1",
        "inrc(?C, ?D) :- def_subs(?C, ?D), t_cls(?C), cls(?D), rank(?C, ?I), inst_h(?C, ?D, ?C, ?I).",
    ),
    ("inrc2", "inrc(?C, ?D) :- def_subs(?C, ?D), t_cls(?C), cls(?D), inf_rank(?C)."),
    (
        "SameRank_rc1",
        "sameRank(?AC, ?AD) :- auxc(?AC, ?C), auxc(?AD, ?D), rank(?C, ?I), rank(?D, ?I).",
    ),
    (
        "LeqRank_rc2",
        "leqRank(?AC, ?AD) :- auxc(?AC, ?C), auxc(?AD, ?D), rank(?C, ?I), rank(?D, ?J), ?I < ?J.",
    ),
)


def _parse_rc_rules() -> tuple[tuple[str, Rule], ...]:
    program = load_program("\n".join(text for _, text in _RC_TEXT) + "\n")
    assert not program.facts
    return tuple((label, rule) for (label, _), rule in zip(_RC_TEXT, program.rules))


RC_LABELED: tuple[tuple[str, Rule], ...] = _parse_rc_rules()
RC_RULES: tuple[Rule, ...] = tuple(rule for _, rule in RC_LABELED)

# the closure program's one rule table: the audited base calculus, whole,
# then the hypothesis copies and the closure rules
CLOSURE_RULES: tuple[Rule, ...] = BASE_RULES + H_RULES + RC_RULES

# the base part of CLOSURE_RULES, under the name the benchmark's floor probe
# (perfbench/run.py) imports
RC_BASE_RULES = BASE_RULES


@record
class RankAssignment(Record):
    """Rank per tracked concept name; names missing from ranks are in
    infinite.  display maps tracked names back to user-facing concepts."""

    ranks: dict[str, int]
    infinite: frozenset[str]
    fixpoint_stage: int
    display: dict[str, str]

    def rows(self) -> list[tuple[str, str]]:
        """Distinct (concept, rank) rows, finite ranks first, then inf; each
        block sorted by rank then display name."""
        finite = sorted(
            self.ranks.items(), key=lambda cv: (cv[1], self.display.get(cv[0], cv[0]))
        )
        out = [(self.display.get(c, c), str(i)) for c, i in finite]
        out += [
            (self.display.get(c, c), "inf")
            for c in sorted(self.infinite, key=lambda c: self.display.get(c, c))
        ]
        # equivalent names sharing a display, such as the top constant and
        # the alias a T(top) ranks top under, give one row; a disagreement
        # gives two
        return list(dict.fromkeys(out))


@record
class RcVerdict(Record):
    in_closure: bool


def t_occurrence_count(kb: KnowledgeBase) -> int:
    """Syntactic T occurrences in the TBox, the bound on rank stages."""
    return sum(
        isinstance(part, Typicality)
        for ax in kb.tbox
        for side in (ax.lhs, ax.rhs)
        for part in subconcepts(side)
    )


def build_rc_program(
    nkb: NormalizedKB,
    def_subs_pairs: tuple[tuple[str, str], ...],
    t_occurrences: int,
) -> DatalogProgram:
    """Assemble a closure program over the normalization of a simple KB.

    def_subs_pairs gate which inrc pairs the program may derive; each pair's
    left-hand side has its auxc fact already, as normalization ranks every
    query's left-hand side.  t_occurrences, the T occurrence count of the
    original TBox, bounds the stages.
    """
    it = translate(nkb)
    facts = list(it.facts)
    facts += [Atom("possrank", (i,)) for i in range(t_occurrences + 2)]
    for c, d in def_subs_pairs:
        facts.append(Atom("def_subs", (c, d)))
    return DatalogProgram(facts=tuple(facts), rules=CLOSURE_RULES)


def closure_program(
    kb: KnowledgeBase,
    query: TypSubsumes | None = None,
    concepts: tuple[ConceptExpr, ...] = (),
) -> tuple[DatalogProgram, NormalizedKB, Atom | None]:
    """The closure program an entry point evaluates, the normalization its
    ranks are read against, and the inrc goal of a T(C) <= D query.

    concepts are extra concepts to rank.  A query's C gets a rank too, and
    its pair is the only one the program may put in the closure.  Raises
    NotSimpleError unless kb is simple.
    """
    bad = first_non_simple_axiom(kb)
    if bad is not None:
        raise NotSimpleError(f"not a simple KB: {axiom_text(bad)}")
    queries = () if query is None else (query,)
    nkb, goals = normalize(kb, queries, extra_ranked=concepts)
    pairs = tuple((goal.lhs.name, goal.rhs.name) for goal in goals)
    program = build_rc_program(nkb, pairs, t_occurrence_count(kb))
    return program, nkb, Atom("inrc", pairs[0]) if pairs else None


def _closure_store(kb: KnowledgeBase, program: DatalogProgram) -> FactStore:
    """Evaluate a closure program.  The injection rules only add facts, so
    only an inconsistent store can mean an inconsistent KB."""
    store = evaluate(program)
    if store_inconsistent(store) and not check_consistency(kb):
        raise InconsistentKBError(_INCONSISTENT)
    return store


def _read_assignment(store: FactStore, nkb: NormalizedKB) -> RankAssignment:
    t_cls = {args[0] for args in store.facts("t_cls")}
    ranks: dict[str, int] = {}
    for c, i in store.facts("rank"):
        if c in ranks:
            raise AssertionError(f"two ranks derived for {c}: {ranks[c]} and {i}")
        ranks[c] = i
    infinite = frozenset(args[0] for args in store.facts("inf_rank"))
    both = set(ranks) & infinite
    if both:
        raise AssertionError(f"rank and inf_rank both derived for {sorted(both)}")
    neither = t_cls - set(ranks) - infinite
    if neither:
        raise AssertionError(f"no rank derived for {sorted(neither)}")
    stages = [args[0] for args in store.facts("fixp")]
    if not stages:
        raise AssertionError("exceptionality iteration found no fixpoint stage")
    display = {c: nkb.display_of(c) for c in t_cls}
    return RankAssignment(
        ranks=ranks,
        infinite=infinite,
        fixpoint_stage=min(stages),
        display=display,
    )


def compute_ranks(
    kb: KnowledgeBase, query_concepts: tuple[ConceptExpr, ...] = ()
) -> RankAssignment:
    """Rank every T-argument of the KB plus the given query concepts."""
    for c in query_concepts:
        if contains_typicality(c):
            raise ValueError(f"cannot rank {concept_text(c)}: a ranked concept may not contain T")
    program, nkb, _ = closure_program(kb, concepts=query_concepts)
    return _read_assignment(_closure_store(kb, program), nkb)


def rc_entails(kb: KnowledgeBase, q: TypSubsumes) -> RcVerdict:
    """Is T(C) <= D in the rational closure of the TBox?"""
    if not isinstance(q, TypSubsumes):
        raise TypeError(f"rational closure membership needs a T(C) <= D query, got {q!r}")
    program, _, goal = closure_program(kb, q)
    return RcVerdict(in_closure=_closure_store(kb, program).contains(goal.pred, goal.args))


def rc_consistent(kb: KnowledgeBase) -> bool:
    """Does some ranked model realize the computed rank assignment?

    The injection rules force the base calculus to treat equally ranked
    concepts' representatives as equally ranked elements; if that floods a
    bottom class, no model matches the assignment.
    """
    program, _, _ = closure_program(kb)
    return not store_inconsistent(_closure_store(kb, program))
