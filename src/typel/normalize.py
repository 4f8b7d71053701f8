"""Normalization into the reasoner's normal form.

Two passes.  The typicality pass names every T(C) occurrence: in general
mode T(C) becomes a fresh name X_C bridged by X_C <= T(R), T(R) <= X_C
where R is C itself when C is atomic and a two-way alias Y_C otherwise; in
simple mode (typicality confined to left-hand sides) each inclusion
T(C) <= D becomes T(Y_C) <= D' over an alias Y_C that is always fresh, so
no shape A <= T(B) is ever produced.  The structural pass then reduces all
remaining axioms to the fixed catalogue of normal shapes over names.

Queries are rewritten to goals over concept names before either pass, by
adding bridge inclusions for their complex concepts.

All transformations are conservative: entailment over the original
signature is unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .kb import (
    BOT,
    TOP,
    Bot,
    ConceptAssertion,
    ConceptExpr,
    Conj,
    Exists,
    GCI,
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
    Signature,
    Subsumes,
    Top,
    TypSubsumes,
    TypicalInstanceOf,
    Typicality,
    compute_simple_roles,
    concept_text,
    conj_of,
    conjuncts,
    is_simple,
    validate,
)


# --- normal axiom shapes ---


@dataclass(frozen=True, slots=True)
class AssertConcept:
    """C(a) with C a name."""

    concept: str
    individual: str


@dataclass(frozen=True, slots=True)
class AssertRole:
    """R(a,b)."""

    role: str
    subject: str
    target: str


@dataclass(frozen=True, slots=True)
class SubBot:
    """A <= bot."""

    sub: str


@dataclass(frozen=True, slots=True)
class TopSub:
    """top <= C."""

    sup: str


@dataclass(frozen=True, slots=True)
class SubNominal:
    """A <= {c}."""

    sub: str
    individual: str


@dataclass(frozen=True, slots=True)
class SubName:
    """A <= C."""

    sub: str
    sup: str


@dataclass(frozen=True, slots=True)
class ConjSub:
    """A and B <= C."""

    left: str
    right: str
    sup: str


@dataclass(frozen=True, slots=True)
class ExistsSub:
    """some R.A <= C."""

    role: str
    filler: str
    sup: str


@dataclass(frozen=True, slots=True)
class SubExists:
    """A <= some R.B."""

    sub: str
    role: str
    filler: str


@dataclass(frozen=True, slots=True)
class NominalSub:
    """{a} <= C."""

    individual: str
    sup: str


@dataclass(frozen=True, slots=True)
class SelfSub:
    """self(R) <= C."""

    role: str
    sup: str


@dataclass(frozen=True, slots=True)
class SubSelf:
    """A <= self(R)."""

    sub: str
    role: str


@dataclass(frozen=True, slots=True)
class RoleSub:
    """R <= T."""

    sub: str
    sup: str


@dataclass(frozen=True, slots=True)
class ChainSub:
    """R o S <= T."""

    first: str
    second: str
    sup: str


@dataclass(frozen=True, slots=True)
class RoleConjSub:
    """R & S <= T."""

    first: str
    second: str
    sup: str


@dataclass(frozen=True, slots=True)
class ProductSub:
    """A x B <= R."""

    left: str
    right: str
    sup: str


@dataclass(frozen=True, slots=True)
class SubProduct:
    """R <= C x D."""

    sub: str
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class InclTypical:
    """A <= T(B)."""

    sub: str
    arg: str


@dataclass(frozen=True, slots=True)
class TypicalIncl:
    """T(B) <= C."""

    arg: str
    sup: str


NormalAxiom = (
    AssertConcept
    | AssertRole
    | SubBot
    | TopSub
    | SubNominal
    | SubName
    | ConjSub
    | ExistsSub
    | SubExists
    | NominalSub
    | SelfSub
    | SubSelf
    | RoleSub
    | ChainSub
    | RoleConjSub
    | ProductSub
    | SubProduct
    | InclTypical
    | TypicalIncl
)


# --- rewritten-query goals ---


@dataclass(frozen=True, slots=True)
class InstGoal:
    individual: str
    concept: str


@dataclass(frozen=True, slots=True)
class TypGoal:
    individual: str
    concept: str


@dataclass(frozen=True, slots=True)
class TripleGoal:
    subject: str
    role: str
    target: str


@dataclass(frozen=True, slots=True)
class SubsGoal:
    lhs: str
    rhs: str


@dataclass(frozen=True, slots=True)
class TypSubsGoal:
    """lhs is the ranked name standing for the queried T-argument."""

    lhs: str
    rhs: str


Goal = InstGoal | TypGoal | TripleGoal | SubsGoal | TypSubsGoal


# --- results ---


@dataclass(frozen=True, slots=True)
class FreshName:
    name: str
    kind: str
    source: str


@dataclass(frozen=True, slots=True)
class RankedConcept:
    """One registered T-argument: its canonical key, display text, the name
    the rank machinery tracks (ranked), and the occurrence name if any."""

    key: str
    display: str
    ranked: str
    x_name: str | None


@dataclass(frozen=True, slots=True)
class NormalizedKB:
    signature: Signature
    axioms: tuple[NormalAxiom, ...]
    aux_registry: tuple[RankedConcept, ...]
    fresh_name_log: tuple[FreshName, ...]

    def ranked_names(self) -> tuple[str, ...]:
        return tuple(e.ranked for e in self.aux_registry)

    def display_of(self, ranked: str) -> str:
        for e in self.aux_registry:
            if e.ranked == ranked:
                return e.display
        return ranked

    def to_kb(self) -> KnowledgeBase:
        """Reconstruct a KnowledgeBase over atomic concepts (for printing)."""
        tbox: list[GCI] = []
        rbox: list = []
        abox: list = []
        for ax in self.axioms:
            match ax:
                case AssertConcept(c, a):
                    abox.append(ConceptAssertion(Name(c), a))
                case AssertRole(r, a, b):
                    abox.append(RoleAssertion(r, a, b))
                case SubBot(a):
                    tbox.append(GCI(Name(a), BOT))
                case TopSub(c):
                    tbox.append(GCI(TOP, Name(c)))
                case SubNominal(a, i):
                    tbox.append(GCI(Name(a), Nominal(i)))
                case SubName(a, c):
                    tbox.append(GCI(Name(a), Name(c)))
                case ConjSub(a, b, c):
                    tbox.append(GCI(Conj(Name(a), Name(b)), Name(c)))
                case ExistsSub(r, a, c):
                    tbox.append(GCI(Exists(r, Name(a)), Name(c)))
                case SubExists(a, r, b):
                    tbox.append(GCI(Name(a), Exists(r, Name(b))))
                case NominalSub(i, c):
                    tbox.append(GCI(Nominal(i), Name(c)))
                case SelfSub(r, c):
                    tbox.append(GCI(SelfRestriction(r), Name(c)))
                case SubSelf(a, r):
                    tbox.append(GCI(Name(a), SelfRestriction(r)))
                case RoleSub(r, s):
                    rbox.append(RoleIncl(r, s))
                case ChainSub(r, s, t):
                    rbox.append(RoleChain(r, s, t))
                case RoleConjSub(r, s, t):
                    rbox.append(RoleConj(r, s, t))
                case ProductSub(a, b, r):
                    rbox.append(ProductToRole(Name(a), Name(b), r))
                case SubProduct(r, a, b):
                    rbox.append(RoleToProduct(r, Name(a), Name(b)))
                case InclTypical(a, b):
                    tbox.append(GCI(Name(a), Typicality(Name(b))))
                case TypicalIncl(b, c):
                    tbox.append(GCI(Typicality(Name(b)), Name(c)))
        return KnowledgeBase(self.signature, tuple(tbox), tuple(rbox), tuple(abox))


def canonical_concept(c: ConceptExpr) -> ConceptExpr:
    """Sort conjuncts recursively so syntactic variants share one form."""
    match c:
        case Conj():
            parts = sorted(
                (canonical_concept(p) for p in conjuncts(c)),
                key=concept_text,
            )
            return conj_of(parts)
        case Exists(role, filler):
            return Exists(role, canonical_concept(filler))
        case Typicality(arg):
            return Typicality(canonical_concept(arg))
        case _:
            return c


def canonical_key(c: ConceptExpr) -> str:
    return concept_text(canonical_concept(c))


def _is_empty(c: ConceptExpr) -> bool:
    """Syntactically unsatisfiable concept (denotes the empty set everywhere)."""
    match c:
        case Bot():
            return True
        case Conj(left, right):
            return _is_empty(left) or _is_empty(right)
        case Exists(_, filler):
            return _is_empty(filler)
        case Typicality(arg):
            return _is_empty(arg)
        case _:
            return False


class _Entry:
    __slots__ = ("key", "display", "ranked", "x_name")

    def __init__(self, key: str, display: str, ranked: str, x_name: str | None):
        self.key = key
        self.display = display
        self.ranked = ranked
        self.x_name = x_name


class _Normalizer:
    def __init__(self, kb: KnowledgeBase, simple_mode: bool):
        self.kb = kb
        self.simple_mode = simple_mode
        sig = kb.signature
        self.used: set[str] = set(sig.concept_names | sig.role_names | sig.individual_names)
        self.new_concepts: set[str] = set()
        self.fresh_log: list[FreshName] = []
        self.registry: dict[str, _Entry] = {}
        self.registry_order: list[str] = []
        # phase-1 output boxes
        self.tbox: list[GCI] = []
        self.rbox: list = []
        self.abox: list = []
        # phase-2 output
        self.normal: list[NormalAxiom] = []
        self._top_alias: str | None = None

    # --- fresh names ---

    def fresh(self, prefix: str, kind: str, source: str) -> str:
        slug = "".join(ch for ch in source if ch.isalnum())[:10]
        digest = hashlib.sha1(f"{kind}|{source}".encode()).hexdigest()
        width = 6
        base = f"{prefix}_{slug}_" if slug else f"{prefix}_"
        name = base + digest[:width]
        while name in self.used:
            width += 2
            name = base + digest[:width] if width <= 40 else name + "x"
        self.used.add(name)
        self.new_concepts.add(name)
        self.fresh_log.append(FreshName(name, kind, source))
        return name

    # --- typicality pass ---

    def register(self, arg: ConceptExpr) -> _Entry:
        key = canonical_key(arg)
        got = self.registry.get(key)
        if got is not None:
            return got
        display = concept_text(arg)
        if not self.simple_mode and isinstance(arg, Name):
            ranked = arg.name
        else:
            ranked = self.fresh("Y", "typicality-alias", key)
            self.tbox.append(GCI(Name(ranked), arg))
            self.tbox.append(GCI(arg, Name(ranked)))
        x_name: str | None = None
        if not self.simple_mode:
            x_name = self.fresh("X", "typicality-occurrence", key)
            self.tbox.append(GCI(Name(x_name), Typicality(Name(ranked))))
            self.tbox.append(GCI(Typicality(Name(ranked)), Name(x_name)))
        entry = _Entry(key, display, ranked, x_name)
        self.registry[key] = entry
        self.registry_order.append(key)
        return entry

    def _embed_name(self, entry: _Entry) -> str:
        # simple mode: an embedded T(C) is consumed through a one-way bridge
        if entry.x_name is None:
            entry.x_name = self.fresh("X", "typicality-embedded", entry.key)
            self.tbox.append(GCI(Typicality(Name(entry.ranked)), Name(entry.x_name)))
        return entry.x_name

    def replace_t(self, c: ConceptExpr) -> ConceptExpr:
        match c:
            case Typicality(arg):
                entry = self.register(arg)
                if self.simple_mode:
                    return Name(self._embed_name(entry))
                assert entry.x_name is not None
                return Name(entry.x_name)
            case Conj(left, right):
                return Conj(self.replace_t(left), self.replace_t(right))
            case Exists(role, filler):
                return Exists(role, self.replace_t(filler))
            case _:
                return c

    def t_pass_gci(self, ax: GCI) -> None:
        if self.simple_mode and isinstance(ax.lhs, Typicality):
            entry = self.register(ax.lhs.arg)
            lhs = Typicality(Name(entry.ranked))
            rhs = ax.rhs
            if isinstance(rhs, Name) or isinstance(rhs, Top):
                self.tbox.append(GCI(lhs, rhs))
            else:
                xd = self.fresh("X", "typicality-rhs", concept_text(rhs))
                self.tbox.append(GCI(lhs, Name(xd)))
                self.tbox.append(GCI(Name(xd), rhs))
            return
        self.tbox.append(GCI(self.replace_t(ax.lhs), self.replace_t(ax.rhs)))

    def run_t_pass(self, extra_tbox: tuple[GCI, ...] = ()) -> None:
        for ax in self.kb.tbox:
            self.t_pass_gci(ax)
        for ax in self.kb.rbox:
            match ax:
                case ProductToRole(left, right, sup):
                    self.rbox.append(ProductToRole(self.replace_t(left), self.replace_t(right), sup))
                case RoleToProduct(sub, left, right):
                    self.rbox.append(RoleToProduct(sub, self.replace_t(left), self.replace_t(right)))
                case _:
                    self.rbox.append(ax)
        for ax in self.kb.abox:
            match ax:
                case ConceptAssertion(concept, individual):
                    self.abox.append(ConceptAssertion(self.replace_t(concept), individual))
                case _:
                    self.abox.append(ax)
        for ax in extra_tbox:
            self.t_pass_gci(ax)

    # --- structural pass ---

    def top_alias(self) -> str:
        if self._top_alias is None:
            self._top_alias = self.fresh("TC", "top-alias", "top")
            self.normal.append(TopSub(self._top_alias))
        return self._top_alias

    def name_of_lhs(self, c: ConceptExpr) -> str:
        """A name n with c <= n, introducing shape axioms as needed."""
        match c:
            case Name(name):
                return name
            case Top():
                return self.top_alias()
            case Nominal(individual):
                n = self.fresh("L", "lhs-nominal", concept_text(c))
                self.normal.append(NominalSub(individual, n))
                return n
            case SelfRestriction(role):
                n = self.fresh("L", "lhs-self", concept_text(c))
                self.normal.append(SelfSub(role, n))
                return n
            case Exists(role, filler):
                n = self.fresh("L", "lhs-exists", concept_text(c))
                self.normal.append(ExistsSub(role, self.name_of_lhs(filler), n))
                return n
            case Typicality(Name(b)):
                n = self.fresh("L", "lhs-typicality", concept_text(c))
                self.normal.append(TypicalIncl(b, n))
                return n
            case Conj():
                parts = conjuncts(c)
                acc = self.name_of_lhs(parts[0])
                for i, part in enumerate(parts[1:]):
                    pn = self.name_of_lhs(part)
                    if i == len(parts) - 2:
                        n = self.fresh("L", "lhs-conj", concept_text(c))
                    else:
                        n = self.fresh("L", "lhs-conj-step", concept_text(c))
                    self.normal.append(ConjSub(acc, pn, n))
                    acc = n
                return acc
        raise ValueError(f"cannot name left-hand concept: {concept_text(c)}")

    def norm_gci(self, lhs: ConceptExpr, rhs: ConceptExpr) -> None:
        if _is_empty(lhs) or isinstance(rhs, Top):
            return
        if isinstance(rhs, Conj):
            for part in conjuncts(rhs):
                self.norm_gci(lhs, part)
            return
        if isinstance(rhs, Name):
            sup = rhs.name
            match lhs:
                case Name(name):
                    self.normal.append(SubName(name, sup))
                case Top():
                    self.normal.append(TopSub(sup))
                case Typicality(Name(b)):
                    self.normal.append(TypicalIncl(b, sup))
                case Nominal(individual):
                    self.normal.append(NominalSub(individual, sup))
                case SelfRestriction(role):
                    self.normal.append(SelfSub(role, sup))
                case Exists(role, filler):
                    self.normal.append(ExistsSub(role, self.name_of_lhs(filler), sup))
                case Conj():
                    parts = conjuncts(lhs)
                    names = [self.name_of_lhs(p) for p in parts]
                    acc = names[0]
                    for i, pn in enumerate(names[1:]):
                        if i == len(names) - 2:
                            self.normal.append(ConjSub(acc, pn, sup))
                        else:
                            n = self.fresh("L", "lhs-conj-step", concept_text(lhs))
                            self.normal.append(ConjSub(acc, pn, n))
                            acc = n
                case _:
                    raise ValueError(f"cannot normalize inclusion lhs: {concept_text(lhs)}")
            return
        # rhs is complex (or bot/nominal/self/typicality/exists): reduce lhs to a name
        a = self.name_of_lhs(lhs)
        match rhs:
            case Bot():
                self.normal.append(SubBot(a))
            case Nominal(individual):
                self.normal.append(SubNominal(a, individual))
            case SelfRestriction(role):
                self.normal.append(SubSelf(a, role))
            case Typicality(Name(b)):
                self.normal.append(InclTypical(a, b))
            case Exists(role, filler):
                if isinstance(filler, Name):
                    self.normal.append(SubExists(a, role, filler.name))
                else:
                    b = self.fresh("B", "rhs-filler", concept_text(filler))
                    self.normal.append(SubExists(a, role, b))
                    self.norm_gci(Name(b), filler)
            case _:
                raise ValueError(f"cannot normalize inclusion rhs: {concept_text(rhs)}")

    def name_of_rhs(self, c: ConceptExpr) -> str:
        """A name n with n <= c (for concepts in value positions)."""
        if isinstance(c, Name):
            return c.name
        n = self.fresh("R", "rhs-name", concept_text(c))
        self.norm_gci(Name(n), c)
        return n

    def run_structural_pass(self) -> None:
        for ax in self.tbox:
            self.norm_gci(ax.lhs, ax.rhs)
        for ax in self.rbox:
            match ax:
                case RoleIncl(sub, sup):
                    self.normal.append(RoleSub(sub, sup))
                case RoleChain(first, second, sup):
                    self.normal.append(ChainSub(first, second, sup))
                case RoleConj(first, second, sup):
                    self.normal.append(RoleConjSub(first, second, sup))
                case ProductToRole(left, right, sup):
                    if _is_empty(left) or _is_empty(right):
                        continue
                    self.normal.append(ProductSub(self.name_of_lhs(left), self.name_of_lhs(right), sup))
                case RoleToProduct(sub, left, right):
                    self.normal.append(SubProduct(sub, self.name_of_rhs(left), self.name_of_rhs(right)))
        for ax in self.abox:
            match ax:
                case ConceptAssertion(concept, individual):
                    if isinstance(concept, Name):
                        self.normal.append(AssertConcept(concept.name, individual))
                    else:
                        f = self.fresh("F", "assertion-concept", concept_text(concept))
                        self.normal.append(AssertConcept(f, individual))
                        self.norm_gci(Name(f), concept)
                case RoleAssertion(role, subject, target):
                    self.normal.append(AssertRole(role, subject, target))

    # --- query rewriting ---

    def rewrite_query(self, q: Query, bridges: list[GCI]) -> Goal:
        match q:
            case InstanceOf(concept, individual):
                if isinstance(concept, Name):
                    return InstGoal(individual, concept.name)
                n = self.fresh("Q", "instance-query", concept_text(concept))
                bridges.append(GCI(concept, Name(n)))
                return InstGoal(individual, n)
            case TypicalInstanceOf(concept, individual):
                entry = self.register(concept)
                return TypGoal(individual, entry.ranked)
            case RoleHolds(role, subject, target):
                return TripleGoal(subject, role, target)
            case Subsumes(lhs, rhs):
                return SubsGoal(self._query_lhs(lhs, bridges), self._query_rhs(rhs, bridges))
            case TypSubsumes(lhs, rhs):
                entry = self.register(lhs)
                return TypSubsGoal(entry.ranked, self._query_rhs(rhs, bridges))
        raise TypeError(f"not a query: {q!r}")

    def _query_lhs(self, c: ConceptExpr, bridges: list[GCI]) -> str:
        if isinstance(c, Name):
            return c.name
        n = self.fresh("QL", "query-lhs", concept_text(c))
        bridges.append(GCI(Name(n), c))
        return n

    def _query_rhs(self, c: ConceptExpr, bridges: list[GCI]) -> str:
        if isinstance(c, Name):
            return c.name
        n = self.fresh("QR", "query-rhs", concept_text(c))
        bridges.append(GCI(c, Name(n)))
        return n

    # --- assembly ---

    def result(self) -> NormalizedKB:
        sig = self.kb.signature
        new_sig = Signature(
            concept_names=frozenset(sig.concept_names | self.new_concepts),
            role_names=sig.role_names,
            individual_names=sig.individual_names,
            simple_roles=compute_simple_roles(sig.role_names, tuple(self.rbox)),
        )
        registry = tuple(
            RankedConcept(e.key, e.display, e.ranked, e.x_name)
            for e in (self.registry[k] for k in self.registry_order)
        )
        return NormalizedKB(new_sig, tuple(self.normal), registry, tuple(self.fresh_log))


def _resolve_mode(kb: KnowledgeBase, mode: str) -> bool:
    if mode == "simple":
        return True
    if mode == "general":
        return False
    if mode == "auto":
        return is_simple(kb)
    raise ValueError(f"unknown normalization mode: {mode!r}")


def _check_valid(kb: KnowledgeBase) -> None:
    bad = validate(kb)
    if bad:
        raise ValueError("invalid knowledge base: " + "; ".join(str(v) for v in bad))


def normalize(
    kb: KnowledgeBase,
    queries: tuple[Query, ...] = (),
    mode: str = "auto",
    extra_ranked: tuple[ConceptExpr, ...] = (),
) -> tuple[NormalizedKB, tuple[Goal, ...]]:
    """Full pipeline: rewrite queries, name typicality, reduce to shapes.

    extra_ranked concepts are registered as if T(C) occurred in a query,
    which makes the rank machinery track them without adding axioms beyond
    the alias bridges.
    """
    _check_valid(kb)
    nz = _Normalizer(kb, _resolve_mode(kb, mode))
    bridges: list[GCI] = []
    goals = tuple(nz.rewrite_query(q, bridges) for q in queries)
    nz.run_t_pass(extra_tbox=tuple(bridges))
    for c in extra_ranked:
        nz.register(c)
    nz.run_structural_pass()
    return nz.result(), goals
