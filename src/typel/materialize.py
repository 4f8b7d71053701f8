"""Materialization calculus: translate normal axioms to facts, evaluate a
fixed rule set, read entailment off the least model.

One rule table, the base program, answers every query.  An assertion asks
for its goal fact: inst(a, C), typ(a, C) or triple(a, R, b).  An inclusion
is an instance check on a fresh individual w: a KB entails C <= D iff the
KB plus C(w) entails D(w), and T(C) <= D iff the KB plus T(C)(w) entails
D(w), since a ranked model may map a name the KB never uses to any of its
elements.  The query adds nom(w), cls(w) and subClass(w, C), or
supTyp(w, C) for T(C), and asks for inst(w, D).  Classical consistency is
read off the same store.

The base table has no negation, so it is one stratum and the least model
of KB plus query is the KB's least model extended by what the query's
facts alone derive.  Each KB is therefore prepared once per process and
kept in a bounded cache keyed on the value-equal KB: it is normalized,
translated and saturated once, with no query (datalog.Saturation).  A
query is normalized on its own against the KB's normalization
(normalize_queries), only its new axioms and names are translated, and
its facts extend the saturated store: a private copy of it, or the store
itself, read only, when the query adds no fact it lacks.  The extension
stops at the end of the round that stores the goal or a bottom fact; a
bottom fact entails every goal, as rule 4 then puts every element in
every class.

query_program builds the program each entry point evaluates, the prepared
facts followed by the query's, and names its goal atom; the CLI dumps the
same program.  subsumption_rules is the hypothesis-widened table that
answered inclusions before the witness did, kept only as a reference.
"""

from __future__ import annotations

import functools

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
    GCI,
    Bot,
    ConceptAssertion,
    Conj,
    Exists,
    InstanceOf,
    KnowledgeBase,
    Name,
    Nominal,
    ProductToRole,
    Query,
    RoleAssertion,
    RoleChain,
    RoleConj,
    RoleHolds,
    RoleIncl,
    RoleToProduct,
    SelfRestriction,
    Subsumes,
    Top,
    TypSubsumes,
    TypicalInstanceOf,
    Typicality,
)
from .normalize import NormalizedKB, RankedConcept, normalize, normalize_queries
from .record import Record, record

TOP_CONST = "top"
BOT_CONST = "bot"

# the structural rules, labels (1)-(29)
_IR_TEXT: tuple[tuple[str, str], ...] = (
    ("1", "inst(?x, ?x) :- nom(?x)."),
    ("2", "self(?x, ?v) :- nom(?x), triple(?x, ?v, ?x)."),
    ("3", "inst(?x, ?z) :- top(?z), inst(?x, ?z')."),
    ("4", "inst(?x, ?y) :- bot(?z), inst(?u, ?z), inst(?x, ?z'), cls(?y)."),
    ("5", "inst(?x, ?z) :- subClass(?y, ?z), inst(?x, ?y)."),
    ("6", "inst(?x, ?z) :- subConj(?y1, ?y2, ?z), inst(?x, ?y1), inst(?x, ?y2)."),
    ("7", "inst(?x, ?z) :- subEx(?v, ?y, ?z), triple(?x, ?v, ?x'), inst(?x', ?y)."),
    ("8", "inst(?x, ?z) :- subEx(?v, ?y, ?z), self(?x, ?v), inst(?x, ?y)."),
    ("9", "triple(?x, ?v, ?x') :- supEx(?y, ?v, ?z, ?x'), inst(?x, ?y)."),
    ("10", "inst(?x', ?z) :- supEx(?y, ?v, ?z, ?x'), inst(?x, ?y)."),
    ("11", "inst(?x, ?z) :- subSelf(?v, ?z), self(?x, ?v)."),
    ("12", "self(?x, ?v) :- supSelf(?y, ?v), inst(?x, ?y)."),
    ("13", "triple(?x, ?w, ?x') :- subRole(?v, ?w), triple(?x, ?v, ?x')."),
    ("14", "self(?x, ?w) :- subRole(?v, ?w), self(?x, ?v)."),
    (
        "15",
        "triple(?x, ?w, ?x'') :- subRChain(?u, ?v, ?w), triple(?x, ?u, ?x'), triple(?x', ?v, ?x'').",
    ),
    ("16", "triple(?x, ?w, ?x') :- subRChain(?u, ?v, ?w), self(?x, ?u), triple(?x, ?v, ?x')."),
    ("17", "triple(?x, ?w, ?x') :- subRChain(?u, ?v, ?w), triple(?x, ?u, ?x'), self(?x', ?v)."),
    ("18", "triple(?x, ?w, ?x) :- subRChain(?u, ?v, ?w), self(?x, ?u), self(?x, ?v)."),
    (
        "19",
        "triple(?x, ?w, ?x') :- subRConj(?v1, ?v2, ?w), triple(?x, ?v1, ?x'), triple(?x, ?v2, ?x').",
    ),
    ("20", "self(?x, ?w) :- subRConj(?v1, ?v2, ?w), self(?x, ?v1), self(?x, ?v2)."),
    ("21", "triple(?x, ?w, ?x') :- subProd(?y1, ?y2, ?w), inst(?x, ?y1), inst(?x', ?y2)."),
    ("22", "self(?x, ?w) :- subProd(?y1, ?y2, ?w), inst(?x, ?y1), inst(?x, ?y2)."),
    ("23", "inst(?x, ?z1) :- supProd(?v, ?z1, ?z2), triple(?x, ?v, ?x')."),
    ("24", "inst(?x, ?z1) :- supProd(?v, ?z1, ?z2), self(?x, ?v)."),
    ("25", "inst(?x', ?z2) :- supProd(?v, ?z1, ?z2), triple(?x, ?v, ?x')."),
    ("26", "inst(?x, ?z2) :- supProd(?v, ?z1, ?z2), self(?x, ?v)."),
    ("27", "inst(?y, ?z) :- inst(?x, ?y), nom(?y), inst(?x, ?z)."),
    ("28", "inst(?x, ?z) :- inst(?x, ?y), nom(?y), inst(?y, ?z)."),
    ("29", "triple(?z, ?u, ?y) :- inst(?x, ?y), nom(?y), triple(?z, ?u, ?x)."),
)

# the typicality rules; auxc is the single aux-constant predicate
_RT_TEXT: tuple[tuple[str, str], ...] = (
    ("SupTyp", "typ(?x, ?z) :- supTyp(?y, ?z), inst(?x, ?y)."),
    ("SubTyp", "inst(?x, ?z) :- subTyp(?y, ?z), typ(?x, ?y)."),
    ("Refl", "inst(?x, ?y) :- typ(?x, ?y)."),
    ("A0", "typ(?Aux, ?C) :- inst(?x, ?C), auxc(?Aux, ?C)."),
    ("A1", "leqRank(?x, ?y) :- typ(?x, ?B), inst(?y, ?B)."),
    ("A2", "sameRank(?x, ?y) :- typ(?x, ?A), typ(?y, ?A)."),
    ("A3", "typ(?x, ?B) :- sameRank(?x, ?y), inst(?x, ?B), typ(?y, ?B)."),
    ("B1", "sameRank(?x, ?z) :- sameRank(?x, ?y), sameRank(?y, ?z)."),
    ("B2", "sameRank(?x, ?y) :- sameRank(?y, ?x)."),
    ("B3", "leqRank(?x, ?y) :- sameRank(?y, ?x)."),
    ("B4", "leqRank(?x, ?z) :- leqRank(?x, ?y), leqRank(?y, ?z)."),
    ("B5", "sameRank(?x, ?y) :- leqRank(?x, ?y), leqRank(?y, ?x)."),
    ("B6", "sameRank(?x, ?y) :- nom(?y), inst(?x, ?y)."),
)


IR_LABELED: tuple[tuple[str, Rule], ...] = load_rules(_IR_TEXT)
RT_LABELED: tuple[tuple[str, Rule], ...] = load_rules(_RT_TEXT)
BASE_RULES: tuple[Rule, ...] = tuple(rule for _, rule in IR_LABELED + RT_LABELED)

# the predicates the rules derive, which a hypothesis-widened table widens
DERIVED_PREDS = frozenset({"inst", "typ", "triple", "self", "sameRank", "leqRank"})


@record
class InputTranslation(Record):
    facts: tuple[Atom, ...]


@record
class EntailmentVerdict(Record):
    entailed: bool
    witness: Atom | None = None


def aux_for(ranked: str) -> str:
    """Aux constant naming a representative typical instance of a class."""
    return f"aux${ranked}"


def translate(nkb: NormalizedKB) -> InputTranslation:
    """Ground facts for a normalized KB: declarations, aux constants, axioms."""
    body, has_bot = _axiom_facts(nkb.axioms, 0)
    sig = nkb.signature
    facts: list[Atom] = []
    for a in sorted(sig.individual_names):
        facts.append(Atom("nom", (a,)))
        facts.append(Atom("cls", (a,)))
    for c in sorted(sig.concept_names):
        facts.append(Atom("cls", (c,)))
    for r in sorted(sig.role_names):
        facts.append(Atom("rol", (r,)))
    facts.append(Atom("top", (TOP_CONST,)))
    facts.append(Atom("cls", (TOP_CONST,)))
    if has_bot:
        facts += _BOT_FACTS
    facts += _ranked_facts(nkb.aux_registry)
    facts.append(Atom("auxc", (aux_for(TOP_CONST), TOP_CONST)))
    return InputTranslation(tuple(facts + body))


_BOT_FACTS = (Atom("bot", (BOT_CONST,)), Atom("cls", (BOT_CONST,)))


def _ranked_facts(entries: tuple[RankedConcept, ...]) -> list[Atom]:
    return [Atom("auxc", (aux_for(e.ranked), e.ranked)) for e in entries]


def _axiom_facts(axioms, start: int) -> tuple[list[Atom], bool]:
    """One fact per normal axiom, numbering existential witnesses from
    start, and whether some axiom concludes bot."""
    body: list[Atom] = []
    has_bot = False
    # keyword patterns: positional ones look up __match_args__ on every test
    for i, ax in enumerate(axioms, start):
        fact = None
        match ax:
            case GCI(lhs=Name(name=a), rhs=rhs):
                match rhs:
                    case Name(name=c):
                        fact = Atom("subClass", (a, c))
                    case Exists(role=r, filler=Name(name=b)):
                        fact = Atom("supEx", (a, r, b, f"aux$ex{i}"))
                    case Bot():
                        has_bot = True
                        fact = Atom("subClass", (a, BOT_CONST))
                    case Nominal(individual=ind):
                        fact = Atom("subClass", (a, ind))
                    case SelfRestriction(role=r):
                        fact = Atom("supSelf", (a, r))
                    case Typicality(arg=Name(name=b)):
                        fact = Atom("supTyp", (a, b))
            case GCI(lhs=lhs, rhs=Name(name=c)):
                match lhs:
                    case Conj(left=Name(name=a), right=Name(name=b)):
                        fact = Atom("subConj", (a, b, c))
                    case Exists(role=r, filler=Name(name=a)):
                        fact = Atom("subEx", (r, a, c))
                    case Typicality(arg=Name(name=b)):
                        fact = Atom("subTyp", (b, c))
                    case Top():
                        fact = Atom("subClass", (TOP_CONST, c))
                    case Nominal(individual=ind):
                        fact = Atom("subClass", (ind, c))
                    case SelfRestriction(role=r):
                        fact = Atom("subSelf", (r, c))
            case ConceptAssertion(concept=Name(name=c), individual=a):
                fact = Atom("subClass", (a, c))
            case RoleAssertion(role=r, subject=a, target=b):
                fact = Atom("supEx", (a, r, b, b))
            case RoleIncl(sub=r, sup=s):
                fact = Atom("subRole", (r, s))
            case RoleChain(first=r, second=s, sup=t):
                fact = Atom("subRChain", (r, s, t))
            case RoleConj(first=r, second=s, sup=t):
                fact = Atom("subRConj", (r, s, t))
            case ProductToRole(left=Name(name=a), right=Name(name=b), sup=r):
                fact = Atom("subProd", (a, b, r))
            case RoleToProduct(sub=r, left=Name(name=c), right=Name(name=d)):
                fact = Atom("supProd", (r, c, d))
        if fact is None:
            raise ValueError(f"not a normal axiom: {ax!r}")
        body.append(fact)
    return body, has_bot


def build_program(it: InputTranslation) -> DatalogProgram:
    return DatalogProgram(facts=it.facts, rules=BASE_RULES)


@functools.lru_cache(maxsize=2)
def subsumption_rules(typ_seed: bool) -> tuple[Rule, ...]:
    """The hypothesis-widened table, a reference that no entry point
    evaluates: every derived predicate carries the hypothesis class, and for
    each hyp(?B) the seed places a witness of ?B in ?B itself (a typical one
    for typicality subsumption), so hyp(C) derives inst(C, D, C) exactly
    when C <= D is entailed."""
    widened = transform_rules(
        BASE_RULES,
        targets=DERIVED_PREDS,
        extra=(Var("q"),),
        guards=(Atom("hyp", (Var("q"),)),),
        guard_mode="auto",
    )
    b = Var("B")
    seed_pred = "typ" if typ_seed else "inst"
    seed = Rule(Atom(seed_pred, (b, b, b)), (Atom("hyp", (b,)),))
    return widened + (seed,)


def store_inconsistent(store: FactStore) -> bool:
    """Classical inconsistency: something fell into a bottom class.  One
    probe per bottom class of inst's index on its class position, which is
    built on first use and kept by later adds and copies."""
    bots = store.facts("bot")
    if not bots:
        return False
    classes = store.index("inst", (1,))
    return any(b in classes for (b,) in bots)


def _goal(goal: Query, w: str) -> tuple[tuple[Atom, ...], Atom]:
    """The facts a query rewritten over names adds and the fact it asks
    for; an inclusion places the fresh individual w in its left side."""
    match goal:
        case InstanceOf(concept=Name(name=c), individual=a):
            return (), Atom("inst", (a, c))
        case TypicalInstanceOf(concept=Name(name=c), individual=a):
            return (), Atom("typ", (a, c))
        case RoleHolds(role=r, subject=a, target=b):
            return (), Atom("triple", (a, r, b))
        case Subsumes(lhs=Name(name=c), rhs=Name(name=d)) | TypSubsumes(
            lhs=Name(name=c), rhs=Name(name=d)
        ):
            seed = Atom("supTyp" if isinstance(goal, TypSubsumes) else "subClass", (w, c))
            return (Atom("nom", (w,)), Atom("cls", (w,)), seed), Atom("inst", (w, d))
    raise TypeError(f"not a goal: {goal!r}")


# prepared KBs a process keeps; a KB not queried for a while is prepared
# again.  Each keeps its saturated store and, once asked a closure question,
# one store per closure stage up to the fixpoint, so the memory held grows
# with the number of stages of each KB kept.
_PREPARED_KBS = 8


class _PreparedKB:
    """A KB normalized and translated once, with no query, for any number
    of queries, and the individual each inclusion query places in its left
    side: named by no name of the KB, nor by the query's fresh names or the
    aux$ constants, which never start with w$.  The saturation of the base
    table over the KB is built on first use."""

    def __init__(self, kb: KnowledgeBase):
        self.nkb, _ = normalize(kb)
        self.facts = translate(self.nkb).facts
        sig = self.nkb.signature
        names = sig.concept_names | sig.role_names | sig.individual_names
        self.witness = "w$"
        while self.witness in names:
            self.witness += "$"
        # the rational closure typel.rc prepares on the first closure question
        self.closure = None

    @functools.cached_property
    def saturation(self) -> Saturation:
        program = build_program(InputTranslation(self.facts))
        return Saturation(program, evaluate(program))


@functools.lru_cache(maxsize=_PREPARED_KBS)
def _prepared(kb: KnowledgeBase) -> _PreparedKB:
    return _PreparedKB(kb)


def _prepared_kb(kb: KnowledgeBase) -> _PreparedKB:
    """kb prepared, from the cache when a value-equal KB was.  An invalid kb
    is not cached and raises on every call."""
    try:
        return _prepared(kb)
    except RecursionError:
        # hashing recurses through each concept, so only a concept far taller
        # than validate allows gets here; normalize reports it
        normalize(kb)
        raise


def _extension_facts(prep: _PreparedKB, ext: NormalizedKB) -> tuple[Atom, ...]:
    """The facts that ext, prep's normalization extended by queries
    (normalize_queries), adds to prep's: only the queries are translated,
    their names, ranked concepts and normal axioms, whose witnesses are
    numbered on from the KB's."""
    nkb = prep.nkb
    body, has_bot = _axiom_facts(ext.axioms[len(nkb.axioms) :], len(nkb.axioms))
    facts = [Atom("cls", (f.name,)) for f in ext.fresh_name_log[len(nkb.fresh_name_log) :]]
    if has_bot and not prep.saturation.store.contains("bot", (BOT_CONST,)):
        facts += _BOT_FACTS
    facts += _ranked_facts(ext.aux_registry[len(nkb.aux_registry) :])
    return tuple(facts + body)


def _query(kb: KnowledgeBase, query: Query) -> tuple[Saturation, tuple[Atom, ...], Atom]:
    """The prepared saturation a query extends, the facts it adds and the
    goal it reads: the query's own facts, and for an inclusion the fresh
    individual in its left side."""
    prep = _prepared_kb(kb)
    ext, (goal,) = normalize_queries(kb, prep.nkb, (query,))
    seed, goal_atom = _goal(goal, prep.witness)
    return prep.saturation, _extension_facts(prep, ext) + seed, goal_atom


def query_program(
    kb: KnowledgeBase, query: Query | None = None
) -> tuple[DatalogProgram, Atom | None]:
    """The program an entry point evaluates, and the goal atom it reads:
    the base rules over the prepared KB's facts, then the query's.  No
    query asks for consistency and has no goal."""
    if query is None:
        return build_program(InputTranslation(_prepared_kb(kb).facts)), None
    sat, facts, goal = _query(kb, query)
    return DatalogProgram(sat.program.facts + facts, sat.program.rules), goal


def _answered(goal: Atom, store: FactStore) -> bool:
    """Whether store entails goal: it holds the goal or a bottom fact.  An
    inconsistent least model holds every inst and typ goal, as rule 4
    floods every class, but not every triple."""
    return store.contains(goal.pred, goal.args) or store_inconsistent(store)  # type: ignore[arg-type]


def _check(kb: KnowledgeBase, query: Query) -> EntailmentVerdict:
    """The query's extension of the prepared saturation, stopped at the
    end of the round that stores its goal or a bottom fact."""
    sat, facts, goal = _query(kb, query)
    stop = functools.partial(_answered, goal)
    if stop(sat.extend(facts, stop)):
        return EntailmentVerdict(True, goal)
    return EntailmentVerdict(False, None)


def check_instance(kb: KnowledgeBase, query: Query) -> EntailmentVerdict:
    """Rational entailment of C(a), T(C)(a) or R(a,b)."""
    if isinstance(query, (Subsumes, TypSubsumes)):
        raise TypeError(f"not an assertion query: {query!r}")
    return _check(kb, query)


def check_consistency(kb: KnowledgeBase) -> bool:
    return not store_inconsistent(_prepared_kb(kb).saturation.store)


def check_subsumption(kb: KnowledgeBase, query: Query) -> EntailmentVerdict:
    """Rational entailment of C <= D or T(C) <= D: whether a fresh
    individual placed in C, or in T(C), is in D."""
    if not isinstance(query, (Subsumes, TypSubsumes)):
        raise TypeError(f"not a subsumption query: {query!r}")
    return _check(kb, query)
