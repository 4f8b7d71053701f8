"""Materialization calculus: translate normal axioms to facts, evaluate a
fixed rule set, read entailment off the least model.

The base program answers instance checks (goal inst(a, C), typ(a, C) or
triple(a, R, b)) and classical consistency.  Subsumption uses a variant
where the six derived predicates carry one extra trailing parameter (the
hypothesis class) plus a seed rule placing a hypothetical witness in each
class ?B with a hyp(?B) fact.  A query adds the single fact hyp(lhs), and
every derived fact stays under the hypothesis of its body's derived facts,
so the evaluation saturates only the query's own hypothesis.

query_program builds the program each entry point evaluates and names
its goal atom; the CLI dumps the same program.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .kb import KnowledgeBase, Query, Subsumes, TypSubsumes
from .normalize import (
    AssertConcept,
    AssertRole,
    ChainSub,
    ConjSub,
    ExistsSub,
    Goal,
    InclTypical,
    InstGoal,
    NominalSub,
    NormalizedKB,
    ProductSub,
    RoleConjSub,
    RoleSub,
    SelfSub,
    SubBot,
    SubExists,
    SubName,
    SubNominal,
    SubProduct,
    SubSelf,
    SubsGoal,
    TopSub,
    TripleGoal,
    TypGoal,
    TypSubsGoal,
    TypicalIncl,
    normalize,
)

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


def _parse_rules(labeled: tuple[tuple[str, str], ...]) -> tuple[Rule, ...]:
    program = load_program("\n".join(text for _, text in labeled) + "\n")
    assert not program.facts
    return program.rules


IR_RULES: tuple[Rule, ...] = _parse_rules(_IR_TEXT)
RT_RULES: tuple[Rule, ...] = _parse_rules(_RT_TEXT)
BASE_RULES: tuple[Rule, ...] = IR_RULES + RT_RULES

IR_LABELED: tuple[tuple[str, Rule], ...] = tuple(
    (label, rule) for (label, _), rule in zip(_IR_TEXT, IR_RULES)
)
RT_LABELED: tuple[tuple[str, Rule], ...] = tuple(
    (label, rule) for (label, _), rule in zip(_RT_TEXT, RT_RULES)
)

# predicates that carry the hypothesis parameter in the subsumption variant
DERIVED_PREDS = frozenset({"inst", "typ", "triple", "self", "sameRank", "leqRank"})


@dataclass(frozen=True, slots=True)
class InputTranslation:
    facts: tuple[Atom, ...]
    aux_constants: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class EntailmentVerdict:
    entailed: bool
    witness: Atom | None = None


def aux_for(ranked: str) -> str:
    """Aux constant naming a representative typical instance of a class."""
    return f"aux${ranked}"


def translate(nkb: NormalizedKB) -> InputTranslation:
    """Ground facts for a normalized KB: declarations, aux constants, axioms."""
    sig = nkb.signature
    facts: list[Atom] = []
    aux: list[str] = []
    for a in sorted(sig.individual_names):
        facts.append(Atom("nom", (a,)))
        facts.append(Atom("cls", (a,)))
    for c in sorted(sig.concept_names):
        facts.append(Atom("cls", (c,)))
    for r in sorted(sig.role_names):
        facts.append(Atom("rol", (r,)))
    facts.append(Atom("top", (TOP_CONST,)))
    facts.append(Atom("cls", (TOP_CONST,)))
    if any(isinstance(ax, SubBot) for ax in nkb.axioms):
        facts.append(Atom("bot", (BOT_CONST,)))
        facts.append(Atom("cls", (BOT_CONST,)))
    for entry in nkb.aux_registry:
        a = aux_for(entry.ranked)
        aux.append(a)
        facts.append(Atom("auxc", (a, entry.ranked)))
    aux.append(aux_for(TOP_CONST))
    facts.append(Atom("auxc", (aux_for(TOP_CONST), TOP_CONST)))
    for i, ax in enumerate(nkb.axioms):
        match ax:
            case AssertConcept(c, a):
                facts.append(Atom("subClass", (a, c)))
            case AssertRole(r, a, b):
                facts.append(Atom("supEx", (a, r, b, b)))
            case SubBot(a):
                facts.append(Atom("subClass", (a, BOT_CONST)))
            case TopSub(c):
                facts.append(Atom("subClass", (TOP_CONST, c)))
            case SubNominal(a, ind):
                facts.append(Atom("subClass", (a, ind)))
            case SubName(a, c):
                facts.append(Atom("subClass", (a, c)))
            case ConjSub(a, b, c):
                facts.append(Atom("subConj", (a, b, c)))
            case ExistsSub(r, a, c):
                facts.append(Atom("subEx", (r, a, c)))
            case SubExists(a, r, b):
                w = f"aux$ex{i}"
                aux.append(w)
                facts.append(Atom("supEx", (a, r, b, w)))
            case NominalSub(ind, c):
                facts.append(Atom("subClass", (ind, c)))
            case SelfSub(r, c):
                facts.append(Atom("subSelf", (r, c)))
            case SubSelf(a, r):
                facts.append(Atom("supSelf", (a, r)))
            case RoleSub(r, s):
                facts.append(Atom("subRole", (r, s)))
            case ChainSub(r, s, t):
                facts.append(Atom("subRChain", (r, s, t)))
            case RoleConjSub(r, s, t):
                facts.append(Atom("subRConj", (r, s, t)))
            case ProductSub(a, b, r):
                facts.append(Atom("subProd", (a, b, r)))
            case SubProduct(r, c, d):
                facts.append(Atom("supProd", (r, c, d)))
            case InclTypical(a, b):
                facts.append(Atom("supTyp", (a, b)))
            case TypicalIncl(b, c):
                facts.append(Atom("subTyp", (b, c)))
            case _:
                raise ValueError(f"not a normal axiom: {ax!r}")
    return InputTranslation(tuple(facts), tuple(aux))


def build_program(it: InputTranslation) -> DatalogProgram:
    return DatalogProgram(facts=it.facts, rules=BASE_RULES)


def subsumption_rules(typ_seed: bool) -> tuple[Rule, ...]:
    """The parameterized variant: every derived predicate carries the
    hypothesis class; for each hyp(?B) the seed places a witness of ?B in
    ?B itself (a typical one for typicality subsumption)."""
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


def subsumption_program(it: InputTranslation, typ_seed: bool, lhs: str) -> DatalogProgram:
    """The subsumption program saturating only the hypothesis of lhs."""
    return DatalogProgram(
        facts=it.facts + (Atom("hyp", (lhs,)),), rules=subsumption_rules(typ_seed)
    )


def store_inconsistent(store: FactStore) -> bool:
    """Classical inconsistency: something fell into a bottom class."""
    bots = {args[0] for args in store.facts("bot")}
    if not bots:
        return False
    return any(args[1] in bots for args in store.facts("inst"))


def _goal_atom(goal: Goal) -> Atom:
    match goal:
        case InstGoal(a, c):
            return Atom("inst", (a, c))
        case TypGoal(a, c):
            return Atom("typ", (a, c))
        case TripleGoal(a, r, b):
            return Atom("triple", (a, r, b))
        case SubsGoal(lhs, rhs) | TypSubsGoal(lhs, rhs):
            return Atom("inst", (lhs, rhs, lhs))
    raise TypeError(f"not a goal: {goal!r}")


def query_program(
    kb: KnowledgeBase, query: Query | None = None
) -> tuple[DatalogProgram, Atom | None]:
    """The program an entry point evaluates, and the goal atom it reads.

    No query asks for consistency: the base program and no goal.  An
    inclusion gets the subsumption program, any other query the base one.
    """
    nkb, goals = normalize(kb, () if query is None else (query,), mode="general")
    it = translate(nkb)
    goal = _goal_atom(goals[0]) if goals else None
    if isinstance(query, (Subsumes, TypSubsumes)):
        return subsumption_program(it, isinstance(query, TypSubsumes), goals[0].lhs), goal
    return build_program(it), goal


def _entailment(store: FactStore, goal: Atom) -> EntailmentVerdict:
    entailed = store.contains(goal.pred, goal.args)  # type: ignore[arg-type]
    # triple does not flood under inconsistency, the way inst and typ do
    if not entailed and goal.pred == "triple":
        entailed = store_inconsistent(store)
    return EntailmentVerdict(True, goal) if entailed else EntailmentVerdict(False, None)


def check_instance(kb: KnowledgeBase, query: Query) -> EntailmentVerdict:
    """Rational entailment of C(a), T(C)(a) or R(a,b)."""
    if isinstance(query, (Subsumes, TypSubsumes)):
        raise TypeError(f"not an assertion query: {query!r}")
    program, goal = query_program(kb, query)
    return _entailment(evaluate(program), goal)


def check_consistency(kb: KnowledgeBase) -> bool:
    program, _ = query_program(kb)
    return not store_inconsistent(evaluate(program))


def check_subsumption(kb: KnowledgeBase, query: Query) -> EntailmentVerdict:
    """Rational entailment of C <= D or T(C) <= D via the parameterized
    calculus: one hypothetical witness of C, a typical one for the
    typicality form, and only the facts that follow from it."""
    if not isinstance(query, (Subsumes, TypSubsumes)):
        raise TypeError(f"not a subsumption query: {query!r}")
    program, goal = query_program(kb, query)
    return _entailment(evaluate(program), goal)
