"""Normalization into the reasoner's normal form.

The normal form is a KnowledgeBase whose axioms have one of 19 shapes, in
.kbt syntax (A, B, C concept names, r, s, t roles, a, b, c individuals):

    A(a)            r(a, b)
    A <= bot        top <= A        A <= {c}        A <= B
    A and B <= C    some r.A <= C   A <= some r.B
    {a} <= C        self(r) <= C    A <= self(r)
    r <= s          r o s <= t      r & s <= t
    A x B <= r      r <= A x B
    A <= T(B)       T(B) <= C

Two passes.  The typicality pass ranks every T-argument C under a name R:
C itself when C is atomic, a fresh two-way alias Y_C otherwise.  Each
occurrence of T(C) in an axiom becomes a fresh name X_C, bridged by
X_C <= T(R) and T(R) <= X_C at the first one.  The structural pass then
reduces all remaining axioms to the normal shapes, passing through the ones
already in normal form.  Every entry point reads this one normal form, the
rational closure included.

Queries are rewritten to the same queries over concept names, by adding
bridge inclusions for their complex concepts.  They are normalized after
the KB, against its result: normalize_queries extends a normalized KB by
the names and normal axioms its queries add, which follow the KB's own, so
one normalization of a KB serves any number of queries.

All transformations are conservative: entailment over the original
signature is unchanged.
"""

from __future__ import annotations

import hashlib

from .kb import (
    TOP,
    ABoxAxiom,
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
    RBoxAxiom,
    RoleAssertion,
    RoleHolds,
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
    subconcepts,
    validate,
    validate_query,
)
from .record import Record, record


# --- results ---


@record
class FreshName(Record):
    name: str
    kind: str
    source: str


@record
class RankedConcept(Record):
    """One registered T-argument: its canonical key, display text, the name
    the rank machinery tracks (ranked), and the occurrence name if any."""

    key: str
    display: str
    ranked: str
    x_name: str | None


@record
class NormalizedKB(Record):
    """axioms keeps the normal axioms of all three boxes in one order, the
    order translate numbers existential witnesses by."""

    signature: Signature
    axioms: tuple[GCI | RBoxAxiom | ABoxAxiom, ...]
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
        """The normal axioms split into boxes (for printing)."""
        tbox = tuple(ax for ax in self.axioms if isinstance(ax, GCI))
        abox = tuple(ax for ax in self.axioms if isinstance(ax, (ConceptAssertion, RoleAssertion)))
        rbox = tuple(
            ax for ax in self.axioms if not isinstance(ax, (GCI, ConceptAssertion, RoleAssertion))
        )
        return KnowledgeBase(self.signature, tbox, rbox, abox)


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
    return any(isinstance(part, Bot) for part in subconcepts(c))


class _Normalizer:
    """Extends base, a normalized KB, by what it normalizes: fresh names
    avoid base's, ranked concepts and the top alias are shared with it."""

    def __init__(self, base: NormalizedKB):
        self.base = base
        sig = base.signature
        self.used: set[str] = set(sig.concept_names | sig.role_names | sig.individual_names)
        self.fresh_log: list[FreshName] = []
        self.registry: dict[str, RankedConcept] = {e.key: e for e in base.aux_registry}
        # phase-1 output boxes
        self.tbox: list[GCI] = []
        self.rbox: list = []
        self.abox: list = []
        # phase-2 output
        self.normal: list[GCI | RBoxAxiom | ABoxAxiom] = []
        self._top_alias: Name | None = next(
            (Name(f.name) for f in base.fresh_name_log if f.kind == "top-alias"), None
        )

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
        self.fresh_log.append(FreshName(name, kind, source))
        return name

    # --- typicality pass ---

    def register(self, arg: ConceptExpr) -> RankedConcept:
        key = canonical_key(arg)
        got = self.registry.get(key)
        if got is not None:
            return got
        if isinstance(arg, Name):
            ranked = arg.name
        else:
            ranked = self.fresh("Y", "typicality-alias", key)
            self.tbox.append(GCI(Name(ranked), arg))
            self.tbox.append(GCI(arg, Name(ranked)))
        self.registry[key] = RankedConcept(key, concept_text(arg), ranked, None)
        return self.registry[key]

    def occurrence(self, arg: ConceptExpr) -> str:
        """The name an occurrence of T(arg) in an axiom stands for."""
        entry = self.register(arg)
        if entry.x_name is None:
            x_name = self.fresh("X", "typicality-occurrence", entry.key)
            self.tbox.append(GCI(Name(x_name), Typicality(Name(entry.ranked))))
            self.tbox.append(GCI(Typicality(Name(entry.ranked)), Name(x_name)))
            entry = self.registry[entry.key] = entry._replace(x_name=x_name)
        return entry.x_name

    def replace_t(self, c: ConceptExpr) -> ConceptExpr:
        match c:
            case Typicality(arg):
                return Name(self.occurrence(arg))
            case Conj(left, right):
                return Conj(self.replace_t(left), self.replace_t(right))
            case Exists(role, filler):
                return Exists(role, self.replace_t(filler))
            case _:
                return c

    def t_pass_gci(self, ax: GCI) -> None:
        self.tbox.append(GCI(self.replace_t(ax.lhs), self.replace_t(ax.rhs)))

    def run_t_pass(self, kb: KnowledgeBase) -> None:
        for ax in kb.tbox:
            self.t_pass_gci(ax)
        for ax in kb.rbox:
            match ax:
                case ProductToRole(left, right, sup):
                    self.rbox.append(ProductToRole(self.replace_t(left), self.replace_t(right), sup))
                case RoleToProduct(sub, left, right):
                    self.rbox.append(RoleToProduct(sub, self.replace_t(left), self.replace_t(right)))
                case _:
                    self.rbox.append(ax)
        for ax in kb.abox:
            match ax:
                case ConceptAssertion(concept, individual):
                    self.abox.append(ConceptAssertion(self.replace_t(concept), individual))
                case _:
                    self.abox.append(ax)

    # --- structural pass ---

    def top_alias(self) -> Name:
        if self._top_alias is None:
            self._top_alias = Name(self.fresh("TC", "top-alias", "top"))
            self.normal.append(GCI(TOP, self._top_alias))
        return self._top_alias

    def name_of_lhs(self, c: ConceptExpr) -> Name:
        """A name n with c <= n, introducing normal axioms as needed."""
        match c:
            case Name():
                return c
            case Top():
                return self.top_alias()
            case Nominal() | SelfRestriction() | Typicality(arg=Name()):
                kind = {Nominal: "nominal", SelfRestriction: "self", Typicality: "typicality"}[type(c)]
                n = Name(self.fresh("L", f"lhs-{kind}", concept_text(c)))
                self.normal.append(GCI(c, n))
                return n
            case Exists(role=role, filler=filler):
                n = Name(self.fresh("L", "lhs-exists", concept_text(c)))
                self.normal.append(GCI(Exists(role, self.name_of_lhs(filler)), n))
                return n
            case Conj():
                parts = conjuncts(c)
                acc = self.name_of_lhs(parts[0])
                for i, part in enumerate(parts[1:]):
                    pn = self.name_of_lhs(part)
                    kind = "lhs-conj" if i == len(parts) - 2 else "lhs-conj-step"
                    n = Name(self.fresh("L", kind, concept_text(c)))
                    self.normal.append(GCI(Conj(acc, pn), n))
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
            match lhs:
                case Name() | Top() | Typicality(arg=Name()) | Nominal() | SelfRestriction():
                    self.normal.append(GCI(lhs, rhs))
                case Exists(role=role, filler=filler):
                    self.normal.append(GCI(Exists(role, self.name_of_lhs(filler)), rhs))
                case Conj():
                    names = [self.name_of_lhs(p) for p in conjuncts(lhs)]
                    acc = names[0]
                    for pn in names[1:-1]:
                        n = Name(self.fresh("L", "lhs-conj-step", concept_text(lhs)))
                        self.normal.append(GCI(Conj(acc, pn), n))
                        acc = n
                    self.normal.append(GCI(Conj(acc, names[-1]), rhs))
                case _:
                    raise ValueError(f"cannot normalize inclusion lhs: {concept_text(lhs)}")
            return
        # rhs is complex (or bot/nominal/self/typicality/exists): reduce lhs to a name
        a = self.name_of_lhs(lhs)
        match rhs:
            case Bot() | Nominal() | SelfRestriction() | Typicality(arg=Name()) | Exists(filler=Name()):
                self.normal.append(GCI(a, rhs))
            case Exists(role=role, filler=filler):
                b = Name(self.fresh("B", "rhs-filler", concept_text(filler)))
                self.normal.append(GCI(a, Exists(role, b)))
                self.norm_gci(b, filler)
            case _:
                raise ValueError(f"cannot normalize inclusion rhs: {concept_text(rhs)}")

    def name_of_rhs(self, c: ConceptExpr) -> Name:
        """A name n with n <= c (for concepts in value positions)."""
        if isinstance(c, Name):
            return c
        n = Name(self.fresh("R", "rhs-name", concept_text(c)))
        self.norm_gci(n, c)
        return n

    def run_structural_pass(self) -> None:
        for ax in self.tbox:
            self.norm_gci(ax.lhs, ax.rhs)
        for ax in self.rbox:
            match ax:
                case ProductToRole(left, right, sup):
                    if _is_empty(left) or _is_empty(right):
                        continue
                    self.normal.append(ProductToRole(self.name_of_lhs(left), self.name_of_lhs(right), sup))
                case RoleToProduct(sub, left, right):
                    self.normal.append(RoleToProduct(sub, self.name_of_rhs(left), self.name_of_rhs(right)))
                case _:
                    self.normal.append(ax)
        for ax in self.abox:
            if isinstance(ax, ConceptAssertion) and isinstance(ax.concept, Top):
                continue  # every individual is in top by rule 3
            if isinstance(ax, ConceptAssertion) and not isinstance(ax.concept, Name):
                f = Name(self.fresh("F", "assertion-concept", concept_text(ax.concept)))
                self.normal.append(ConceptAssertion(f, ax.individual))
                self.norm_gci(f, ax.concept)
            else:
                self.normal.append(ax)

    # --- queries ---

    def run_queries(
        self, queries: tuple[Query, ...], extra_ranked: tuple[ConceptExpr, ...]
    ) -> tuple[Query, ...]:
        """Both passes over what queries and extra_ranked add: bridges,
        aliases and typicality names."""
        bridges: list[GCI] = []
        rewritten = tuple(self.rewrite_query(q, bridges) for q in queries)
        for ax in bridges:
            self.t_pass_gci(ax)
        for c in extra_ranked:
            self.register(c)
        self.run_structural_pass()
        return rewritten

    def rewrite_query(self, q: Query, bridges: list[GCI]) -> Query:
        match q:
            case InstanceOf(concept, individual):
                if isinstance(concept, Name):
                    return q
                n = Name(self.fresh("Q", "instance-query", concept_text(concept)))
                bridges.append(GCI(concept, n))
                return InstanceOf(n, individual)
            case TypicalInstanceOf(concept, individual):
                entry = self.register(concept)
                return TypicalInstanceOf(Name(entry.ranked), individual)
            case RoleHolds():
                return q
            case Subsumes(lhs, rhs):
                return Subsumes(self._query_lhs(lhs, bridges), self._query_rhs(rhs, bridges))
            case TypSubsumes(lhs, rhs):
                entry = self.register(lhs)
                return TypSubsumes(Name(entry.ranked), self._query_rhs(rhs, bridges))
        raise TypeError(f"not a query: {q!r}")

    def _query_lhs(self, c: ConceptExpr, bridges: list[GCI]) -> Name:
        if isinstance(c, Name):
            return c
        n = Name(self.fresh("QL", "query-lhs", concept_text(c)))
        bridges.append(GCI(n, c))
        return n

    def _query_rhs(self, c: ConceptExpr, bridges: list[GCI]) -> Name:
        if isinstance(c, Name):
            return c
        n = Name(self.fresh("QR", "query-rhs", concept_text(c)))
        bridges.append(GCI(c, n))
        return n

    # --- assembly ---

    def result(self) -> NormalizedKB:
        """base extended: every fresh name is a concept name, and the new
        normal axioms follow base's, which numbers their witnesses on."""
        base, fresh = self.base, tuple(self.fresh_log)
        sig = base.signature
        return NormalizedKB(
            sig._replace(concept_names=sig.concept_names | {f.name for f in fresh}),
            base.axioms + tuple(self.normal),
            tuple(self.registry.values()),
            base.fresh_name_log + fresh,
        )


def _check_valid(kb: KnowledgeBase) -> None:
    bad = validate(kb)
    if bad:
        raise ValueError("invalid knowledge base: " + "; ".join(str(v) for v in bad))


def normalize(
    kb: KnowledgeBase,
    queries: tuple[Query, ...] = (),
    extra_ranked: tuple[ConceptExpr, ...] = (),
) -> tuple[NormalizedKB, tuple[Query, ...]]:
    """Full pipeline: name typicality, reduce to shapes, then the same for
    the queries (normalize_queries).

    extra_ranked concepts are registered as if T(C) occurred in a query,
    which makes the rank machinery track them without adding axioms beyond
    the alias bridges.
    """
    _check_valid(kb)
    sig = kb.signature
    simple_roles = compute_simple_roles(sig.role_names, kb.rbox)
    nz = _Normalizer(NormalizedKB(sig._replace(simple_roles=simple_roles), (), (), ()))
    nz.run_t_pass(kb)
    nz.run_structural_pass()
    return normalize_queries(kb, nz.result(), queries, extra_ranked)


def normalize_queries(
    kb: KnowledgeBase,
    nkb: NormalizedKB,
    queries: tuple[Query, ...],
    extra_ranked: tuple[ConceptExpr, ...] = (),
) -> tuple[NormalizedKB, tuple[Query, ...]]:
    """nkb, the normalization of kb, extended by the queries: each is
    checked against kb's signature (validate_query) and rewritten over
    names, and its bridges, aliases and typicality names become normal
    axioms after nkb's own.  nkb itself is not changed."""
    for q in queries:
        bad = validate_query(kb, q)
        if bad:
            raise ValueError("invalid query: " + "; ".join(v.message for v in bad))
    if not queries and not extra_ranked:
        return nkb, ()
    nz = _Normalizer(nkb)
    rewritten = nz.run_queries(queries, extra_ranked)
    return nz.result(), rewritten
