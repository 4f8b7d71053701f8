"""Rational closure over the defeasible part of a simple knowledge base.

The construction iterates exceptionality (Lehmann and Magidor, AIJ 1992):
E_0 holds every defeasible inclusion, and E_(i+1) keeps exactly the
inclusions of E_i whose left concept is exceptional at stage i, that is,
subsumed by nothing given a typical-top hypothesis, the strict part and
E_i.  A concept's rank is the first stage where it stops being
exceptional; concepts exceptional at the fixpoint get rank infinity.

Only simple KBs qualify: typicality may appear in inclusion left sides
only, so the defeasible part is the KB's subTyp facts, one T(R) <= X_C per
T-argument R.  Each KB's closure is prepared once, on the prepared KB
check keeps (materialize._PreparedKB), and answers any number of
questions.  Stage i's saturation is the base table over the KB's facts
with E_i's subTyp facts only: stage 0 is the saturation check keeps, and
a later one extends the strict saturation, which has no subTyp fact, by
E_i's.  The base table has no negation, so each question is an extension
of one stage's saturation (datalog.Saturation), stopped at the end of the
round that stores what the question asks for:
- C is exceptional at stage i when stage i extended by typ(C, top) and
  inst(C, C), and by the question's own facts when C is its concept,
  stores a bottom fact.  The KB's ranked concepts are tested once, stage
  by stage, up to the fixpoint; only those saturations are kept.  A
  question's concept is tested the same way, and its rank and the classes
  its hypothesis reached are kept too, under the concept and the
  question's facts: a rank belongs to the KB and the concept alone, so a
  repeat, or another right side on the same left side, needs no test.
- T(C) <= D is in the closure when C's rank is infinite, or when C's
  hypothesis at C's rank stage derives inst(C, D).  The classes kept from
  a question concept's rank test answer that, as do those kept from the
  KB's test for a concept the KB ranks and a question adding no facts.
  A T in D gives the question subTyp facts of its own, in E up to their
  concept's rank stage, and then an extension of its own; they conclude
  only the question's fresh names, so they rank no concept.
- The closure is consistent when stage 0 extended by the sameRank and
  leqRank facts the computed ranks give the KB's aux constants stores no
  bottom fact.  The verdict is kept with the closure.
Ranks, inf and the fixpoint stage follow the closure table's rules C4 and
C7-C12, and the error raised for a question does not depend on what was
asked before it.

CLOSURE_RULES is the same construction as one stratified Datalog program,
the paper's table: staged hypothesis copies of the calculus answer the
per-stage exceptionality checks, negation reads off ranks, and two
injection rules feed the computed ranks back into the base calculus for
the closure-consistency test.  A concept gets its stage-i copy only while
it stays exceptional, and a copy is the calculus less three rules no stage
question needs (see _H_SOURCE).  closure_program builds it for a question;
the CLI dumps it, and the tests evaluate it as the reference the prepared
closure answers like.
"""

from __future__ import annotations

import functools
import itertools

from .datalog import (
    Atom,
    DatalogProgram,
    FactStore,
    Rule,
    Saturation,
    Var,
    evaluate,
    load_rules,
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
    TOP_CONST,
    _answered,
    _extension_facts,
    _prepared_kb,
    check_consistency,
    store_inconsistent,
    translate,
)
from .normalize import NormalizedKB, normalize, normalize_queries
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


RC_LABELED: tuple[tuple[str, Rule], ...] = load_rules(_RC_TEXT)
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


def _require_simple(kb: KnowledgeBase) -> None:
    bad = first_non_simple_axiom(kb)
    if bad is not None:
        raise NotSimpleError(f"not a simple KB: {axiom_text(bad)}")


def closure_program(
    kb: KnowledgeBase,
    query: TypSubsumes | None = None,
    concepts: tuple[ConceptExpr, ...] = (),
) -> tuple[DatalogProgram, NormalizedKB, Atom | None]:
    """The closure table over a question, the normalization its ranks are
    read against, and the inrc goal of a T(C) <= D query.

    concepts are extra concepts to rank.  A query's C gets a rank too, and
    its pair is the only one the program may put in the closure.  Raises
    NotSimpleError unless kb is simple.
    """
    _require_simple(kb)
    queries = () if query is None else (query,)
    nkb, goals = normalize(kb, queries, extra_ranked=concepts)
    pairs = tuple((goal.lhs.name, goal.rhs.name) for goal in goals)
    program = build_rc_program(nkb, pairs, t_occurrence_count(kb))
    return program, nkb, Atom("inrc", pairs[0]) if pairs else None


def _hypothesis(concept: str) -> tuple[Atom, ...]:
    """concept as a constant that is a typical-top instance of itself."""
    return Atom("typ", (concept, TOP_CONST)), Atom("inst", (concept, concept))


def _hypothesis_extension(stage: Saturation, concept: str, facts: tuple[Atom, ...]) -> FactStore:
    """stage extended by facts and the hypothesis on concept, stopped at the
    first bottom fact: concept is exceptional at stage when it stores one."""
    return stage.extend(facts + _hypothesis(concept), store_inconsistent)


def _reached(extension: FactStore, concept: str) -> frozenset[str]:
    """The classes the extension puts concept in."""
    return frozenset(d for _, d in extension.index("inst", (0,)).get(concept, ()))


# the question concepts whose rank a closure keeps, the oldest dropped first
QUESTION_RANKS = 64


class _Closure:
    """The rational closure of a simple, classically consistent KB.

    stages[i] is E_i, the subTyp facts of stage i, for every stage up to
    the fixpoint; the stage after the fixpoint has the same E.  ranks and
    infinite hold the KB's ranked concepts, and fixpoint is the first stage
    past 0 where none of them gets its rank.  A concept gets its rank past
    0 only at a stage where E shrinks, so with n defaults of the KB the
    fixpoint comes by stage n + 1.  reached holds, per concept of ranks,
    the classes its hypothesis puts it in at its rank stage.  asked holds
    the same for the question concepts asked so far, under the concept and
    the question's facts: its rank, or None for infinity, and the classes
    reached at a finite rank.  It keeps the QUESTION_RANKS latest.
    """

    def __init__(self, facts: tuple[Atom, ...], saturation: Saturation):
        """facts are the KB's and saturation their saturation."""
        self._facts = facts
        self._defaults = tuple(f for f in facts if f.pred == "subTyp")
        self._saturations = {frozenset(self._defaults): saturation}
        self.stages: list[frozenset[Atom]] = []
        self.ranks: dict[str, int] = {}
        self.reached: dict[str, frozenset[str]] = {}
        self.asked: dict[tuple[str, tuple[Atom, ...]], tuple[int | None, frozenset[str] | None]] = {}
        self._consistent: bool | None = None
        # C4: stage i keeps the defaults of E_(i-1) whose left concept was
        # exceptional at i - 1; C7, C8: a concept's rank is the first stage
        # it is not exceptional at; C9-C12: the fixpoint is the first stage
        # past 0 where no concept gets its rank, and the concepts still
        # exceptional there are infinite
        active = list(dict.fromkeys(f.args[1] for f in facts if f.pred == "auxc"))
        for i in itertools.count():
            if i > len(self._defaults) + 1:
                raise AssertionError("exceptionality iteration found no fixpoint stage")
            left = set(active)
            e_i = frozenset(d for d in self._defaults if i == 0 or d.args[0] in left)
            self.stages.append(e_i)
            if i > 0 and (not active or e_i == self.stages[i - 1]):
                break
            stage = self._saturation(e_i)
            still = []
            for c in active:
                extension = _hypothesis_extension(stage, c, ())
                if store_inconsistent(extension):
                    still.append(c)
                else:
                    self.ranks[c] = i
                    self.reached[c] = _reached(extension, c)
            if i > 0 and len(still) == len(active):
                break
            active = still
        self.infinite = frozenset(active)
        self.fixpoint = i
        kept = set(self.stages)
        self._saturations = {e: sat for e, sat in self._saturations.items() if e in kept}

    def _saturation(self, defaults: frozenset[Atom]) -> Saturation:
        """The base table's saturation over the KB's facts with the given
        subTyp facts only, built by extending the strict one."""
        sat = self._saturations.get(defaults)
        if sat is None:
            strict = self._saturations.get(frozenset())
            if strict is None:
                facts = tuple(f for f in self._facts if f.pred != "subTyp")
                program = DatalogProgram(facts, BASE_RULES)
                strict = self._saturations[frozenset()] = Saturation(program, evaluate(program))
            facts = tuple(d for d in self._defaults if d in defaults)
            program = DatalogProgram(strict.program.facts + facts, BASE_RULES)
            sat = self._saturations[defaults] = Saturation(program, strict.extend(facts))
        return sat

    def rank(self, concept: str, facts: tuple[Atom, ...]) -> int | None:
        """concept's rank, None for infinity; a concept the KB does not
        rank is tested on the question's facts, stage by stage, once."""
        return self._ranked(concept, facts)[0]

    def _ranked(
        self, concept: str, facts: tuple[Atom, ...]
    ) -> tuple[int | None, frozenset[str] | None]:
        """concept's rank and, where they answer the question, the classes
        its hypothesis reaches at its rank stage: for a concept the KB ranks
        and a question adding no facts, or a question concept of finite
        rank.  A question concept's are kept under it and the facts."""
        if concept in self.ranks:
            return self.ranks[concept], None if facts else self.reached[concept]
        if concept in self.infinite:
            return None, None
        key = (concept, facts)
        kept = self.asked.get(key)
        if kept is None:
            kept = self._rank_test(concept, facts)
            if len(self.asked) >= QUESTION_RANKS:
                del self.asked[next(iter(self.asked))]
            self.asked[key] = kept
        return kept

    def _rank_test(
        self, concept: str, facts: tuple[Atom, ...]
    ) -> tuple[int | None, frozenset[str] | None]:
        """A question concept's rank and the classes reached, tested stage
        by stage: at its rank stage the hypothesis stores no bottom fact."""
        for i, e_i in enumerate(self.stages):
            # a stage with the same E as the one before answers the same
            if i == 0 or e_i != self.stages[i - 1]:
                extension = _hypothesis_extension(self._saturation(e_i), concept, facts)
                if not store_inconsistent(extension):
                    return i, _reached(extension, concept)
        return None, None

    def entails(self, concept: str, cls: str, facts: tuple[Atom, ...]) -> bool:
        """Whether T(concept) <= cls is in the closure: concept's rank is
        infinite, or its hypothesis at its rank stage derives
        inst(concept, cls).  facts are the question's; a T on its right
        side gives it subTyp facts of its own, which rank nothing, and C4
        puts each in E at the stages its left concept reaches.  Without
        those, the classes _ranked gives, if any, hold the answer."""
        defaults = tuple(f for f in facts if f.pred == "subTyp")
        facts = tuple(f for f in facts if f.pred != "subTyp")
        rank, reached = self._ranked(concept, facts)
        if rank is None:
            return True
        own = ()
        for d in defaults:
            if rank > 0:
                its_rank = self.rank(d.args[0], facts)
                if its_rank is not None and its_rank < rank:
                    continue
            own += (d,)
        if not own and reached is not None:
            return cls in reached
        goal = Atom("inst", (concept, cls))
        stage = self._saturation(self.stages[rank])
        stop = functools.partial(_answered, goal)
        extension = stage.extend(facts + own + _hypothesis(concept), stop)
        return extension.contains(goal.pred, goal.args)

    def consistent(self) -> bool:
        """SameRank_rc1 and LeqRank_rc2: stage 0 with equally ranked aux
        constants of the same rank and lower ranked ones at most as high
        stores no bottom fact."""
        if self._consistent is None:
            aux = [
                (f.args[0], self.ranks[f.args[1]])
                for f in self._facts
                if f.pred == "auxc" and f.args[1] in self.ranks
            ]
            facts = tuple(
                Atom("sameRank" if i == j else "leqRank", (a, b))
                for a, i in aux
                for b, j in aux
                if i <= j
            )
            extension = self._saturation(self.stages[0]).extend(facts, store_inconsistent)
            self._consistent = not store_inconsistent(extension)
        return self._consistent


def _ask(
    kb: KnowledgeBase, queries: tuple[TypSubsumes, ...], concepts: tuple[ConceptExpr, ...]
) -> tuple[_Closure, NormalizedKB, tuple[Atom, ...], tuple]:
    """kb's prepared closure, its normalization extended by the question,
    the facts the question adds to the KB's, and the rewritten queries.
    The KB is checked before the question, and classical consistency
    after both."""
    _require_simple(kb)
    prep = _prepared_kb(kb)
    ext, goals = normalize_queries(kb, prep.nkb, queries, concepts)
    if not check_consistency(kb):
        raise InconsistentKBError(_INCONSISTENT)
    if prep.closure is None:
        prep.closure = _Closure(prep.facts, prep.saturation)
    return prep.closure, ext, _extension_facts(prep, ext), goals


def compute_ranks(
    kb: KnowledgeBase, query_concepts: tuple[ConceptExpr, ...] = ()
) -> RankAssignment:
    """Rank every T-argument of the KB plus the given query concepts."""
    for c in query_concepts:
        if contains_typicality(c):
            raise ValueError(f"cannot rank {concept_text(c)}: a ranked concept may not contain T")
    closure, ext, facts, _ = _ask(kb, (), query_concepts)
    ranks = dict(closure.ranks)
    infinite = set(closure.infinite)
    for entry in ext.aux_registry:
        rank = closure.rank(entry.ranked, facts)
        if rank is None:
            infinite.add(entry.ranked)
        else:
            ranks[entry.ranked] = rank
    # C10, C11: a question's concepts may take the KB's fixpoint stage
    fixpoint = closure.fixpoint
    while fixpoint in ranks.values():
        fixpoint += 1
    return RankAssignment(
        ranks=ranks,
        infinite=frozenset(infinite),
        fixpoint_stage=fixpoint,
        display={c: ext.display_of(c) for c in (*ranks, *infinite)},
    )


def rc_entails(kb: KnowledgeBase, q: TypSubsumes) -> RcVerdict:
    """Is T(C) <= D in the rational closure of the TBox?"""
    if not isinstance(q, TypSubsumes):
        raise TypeError(f"rational closure membership needs a T(C) <= D query, got {q!r}")
    closure, _, facts, (goal,) = _ask(kb, (q,), ())
    return RcVerdict(in_closure=closure.entails(goal.lhs.name, goal.rhs.name, facts))


def rc_consistent(kb: KnowledgeBase) -> bool:
    """Does some ranked model realize the computed rank assignment?

    Equally ranked concepts' representatives are forced to be equally
    ranked elements, and lower ranked ones at most as high; if that puts
    something in a bottom class, no model matches the assignment.
    """
    return _ask(kb, (), ())[0].consistent()
