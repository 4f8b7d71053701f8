"""Ranked interpretations over finite domains, and a bounded refutation oracle.

A ranked interpretation is a classical interpretation plus an integer rank
per element; typicality denotes the minimal-rank members of a concept's
extension.  `extension` and `satisfies` evaluate concepts and axioms
directly.  `refute` searches for a model of a KB that falsifies a query,
grounding each (domain size, rank profile) candidate to propositional
clauses and running a small DPLL solver; a found counter-model proves
non-entailment, while "none found" proves nothing beyond the bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .kb import (
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
    Subsumes,
    Top,
    TypSubsumes,
    TypicalInstanceOf,
    Typicality,
    concept_text,
)


class BoundOverflow(RuntimeError):
    """The bounded model search exceeded its decision budget."""


@dataclass(frozen=True, slots=True)
class RankedInterpretation:
    domain: tuple[int, ...]
    rank: dict[int, int]
    concept_ext: dict[str, frozenset[int]]
    role_ext: dict[str, frozenset[tuple[int, int]]]
    individual_map: dict[str, int]

    def __post_init__(self):
        if not self.domain:
            raise ValueError("empty domain")
        missing = [e for e in self.domain if e not in self.rank]
        if missing:
            raise ValueError(f"rank not total on domain: {missing}")


def extension(m: RankedInterpretation, c: ConceptExpr) -> set[int]:
    """Elements of c under m, with typicality as the minimal-rank members."""
    match c:
        case Top():
            return set(m.domain)
        case Bot():
            return set()
        case Name(name):
            if name not in m.concept_ext:
                raise ValueError(f"unknown concept name: {name}")
            return set(m.concept_ext[name])
        case Nominal(individual):
            if individual not in m.individual_map:
                raise ValueError(f"unknown individual: {individual}")
            return {m.individual_map[individual]}
        case Conj(left, right):
            return extension(m, left) & extension(m, right)
        case Exists(role, filler):
            pairs = _role(m, role)
            targets = extension(m, filler)
            return {x for x, y in pairs if y in targets}
        case SelfRestriction(role):
            return {x for x, y in _role(m, role) if x == y}
        case Typicality(arg):
            members = extension(m, arg)
            if not members:
                return set()
            least = min(m.rank[e] for e in members)
            return {e for e in members if m.rank[e] == least}
    raise TypeError(f"not a concept: {c!r}")


def _role(m: RankedInterpretation, role: str) -> frozenset[tuple[int, int]]:
    if role not in m.role_ext:
        raise ValueError(f"unknown role name: {role}")
    return m.role_ext[role]


def satisfies(m: RankedInterpretation, axiom) -> bool:
    match axiom:
        case GCI(lhs, rhs):
            return extension(m, lhs) <= extension(m, rhs)
        case RoleIncl(sub, sup):
            return _role(m, sub) <= _role(m, sup)
        case RoleChain(first, second, sup):
            hops = {
                (x, z)
                for x, y in _role(m, first)
                for y2, z in _role(m, second)
                if y == y2
            }
            return hops <= _role(m, sup)
        case RoleConj(first, second, sup):
            return (_role(m, first) & _role(m, second)) <= _role(m, sup)
        case ProductToRole(left, right, sup):
            lext, rext = extension(m, left), extension(m, right)
            pairs = _role(m, sup)
            return all((x, y) in pairs for x in lext for y in rext)
        case RoleToProduct(sub, left, right):
            lext, rext = extension(m, left), extension(m, right)
            return all(x in lext and y in rext for x, y in _role(m, sub))
        case ConceptAssertion(concept, individual):
            return m.individual_map[individual] in extension(m, concept)
        case RoleAssertion(role, subject, target):
            return (m.individual_map[subject], m.individual_map[target]) in _role(m, role)
    raise TypeError(f"not an axiom: {axiom!r}")


def is_model(m: RankedInterpretation, kb: KnowledgeBase) -> bool:
    return all(
        satisfies(m, ax) for ax in itertools.chain(kb.tbox, kb.rbox, kb.abox)
    )


def satisfies_query(m: RankedInterpretation, q: Query) -> bool:
    match q:
        case InstanceOf(concept, individual):
            return m.individual_map[individual] in extension(m, concept)
        case TypicalInstanceOf(concept, individual):
            return m.individual_map[individual] in extension(m, Typicality(concept))
        case RoleHolds(role, subject, target):
            return (m.individual_map[subject], m.individual_map[target]) in _role(m, role)
        case Subsumes(lhs, rhs):
            return extension(m, lhs) <= extension(m, rhs)
        case TypSubsumes(lhs, rhs):
            return extension(m, Typicality(lhs)) <= extension(m, rhs)
    raise TypeError(f"not a query: {q!r}")


def render_model(m: RankedInterpretation) -> str:
    """Human-readable table: one line per element with rank, concepts, roles."""
    by_elem_concepts: dict[int, list[str]] = {e: [] for e in m.domain}
    for name in sorted(m.concept_ext):
        for e in m.concept_ext[name]:
            by_elem_concepts[e].append(name)
    by_elem_roles: dict[int, list[str]] = {e: [] for e in m.domain}
    for role in sorted(m.role_ext):
        for x, y in sorted(m.role_ext[role]):
            by_elem_roles[x].append(f"{role}->e{y}")
    names_of: dict[int, list[str]] = {e: [] for e in m.domain}
    for ind in sorted(m.individual_map):
        names_of[m.individual_map[ind]].append(ind)
    lines = ["elem  rank  individuals        concepts / roles"]
    for e in sorted(m.domain, key=lambda e: (m.rank[e], e)):
        inds = ",".join(names_of[e]) or "-"
        parts = by_elem_concepts[e] + by_elem_roles[e]
        lines.append(f"e{e:<4} {m.rank[e]:<5} {inds:<18} {' '.join(parts) or '-'}")
    return "\n".join(lines)


# --- propositional grounding ---


@dataclass
class _Encoder:
    """Grounds one (domain size, rank profile) candidate to clauses.

    Variables cover concept-name membership, role pairs, and individual
    placement; every composite concept gets a defined variable per element.
    """

    kb: KnowledgeBase
    n: int
    ranks: tuple[int, ...]
    nvars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)
    _base: dict[tuple, int] = field(default_factory=dict)
    _concept_vars: dict[tuple[str, int], int] = field(default_factory=dict)

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def base(self, key: tuple) -> int:
        v = self._base.get(key)
        if v is None:
            v = self.new_var()
            self._base[key] = v
        return v

    def cvar(self, name: str, e: int) -> int:
        return self.base(("c", name, e))

    def rvar(self, role: str, e: int, f: int) -> int:
        return self.base(("r", role, e, f))

    def ivar(self, ind: str, e: int) -> int:
        return self.base(("i", ind, e))

    def add(self, *lits: int) -> None:
        self.clauses.append(lits)

    def concept(self, c: ConceptExpr) -> list[int]:
        """Variable per element for c, with defining clauses added once."""
        if isinstance(c, Name):
            return [self.cvar(c.name, e) for e in range(self.n)]
        key = concept_text(c)
        cached = [self._concept_vars.get((key, e)) for e in range(self.n)]
        if all(v is not None for v in cached):
            return cached  # type: ignore[return-value]
        out = [self.new_var() for _ in range(self.n)]
        for e in range(self.n):
            self._concept_vars[(key, e)] = out[e]
        match c:
            case Top():
                for v in out:
                    self.add(v)
            case Bot():
                for v in out:
                    self.add(-v)
            case Nominal(individual):
                for e, v in enumerate(out):
                    i = self.ivar(individual, e)
                    self.add(-v, i)
                    self.add(-i, v)
            case Conj(left, right):
                lv, rv = self.concept(left), self.concept(right)
                for e, v in enumerate(out):
                    self.add(-v, lv[e])
                    self.add(-v, rv[e])
                    self.add(v, -lv[e], -rv[e])
            case Exists(role, filler):
                fv = self.concept(filler)
                for e, v in enumerate(out):
                    witnesses = []
                    for f in range(self.n):
                        p = self.new_var()
                        r = self.rvar(role, e, f)
                        self.add(-p, r)
                        self.add(-p, fv[f])
                        self.add(p, -r, -fv[f])
                        self.add(-p, v)
                        witnesses.append(p)
                    self.add(-v, *witnesses)
            case SelfRestriction(role):
                for e, v in enumerate(out):
                    r = self.rvar(role, e, e)
                    self.add(-v, r)
                    self.add(-r, v)
            case Typicality(arg):
                av = self.concept(arg)
                for e, v in enumerate(out):
                    lower = [f for f in range(self.n) if self.ranks[f] < self.ranks[e]]
                    self.add(-v, av[e])
                    for f in lower:
                        self.add(-v, -av[f])
                    self.add(v, -av[e], *[av[f] for f in lower])
            case _:
                raise TypeError(f"not a concept: {c!r}")
        return out

    def encode_kb(self) -> None:
        n = self.n
        sig = self.kb.signature
        for ind in sorted(sig.individual_names):
            options = [self.ivar(ind, e) for e in range(n)]
            self.add(*options)
            for a, b in itertools.combinations(options, 2):
                self.add(-a, -b)
        for ax in self.kb.tbox:
            lv, rv = self.concept(ax.lhs), self.concept(ax.rhs)
            for e in range(n):
                self.add(-lv[e], rv[e])
        for ax in self.kb.rbox:
            match ax:
                case RoleIncl(sub, sup):
                    for e in range(n):
                        for f in range(n):
                            self.add(-self.rvar(sub, e, f), self.rvar(sup, e, f))
                case RoleChain(first, second, sup):
                    for e in range(n):
                        for f in range(n):
                            for g in range(n):
                                self.add(
                                    -self.rvar(first, e, f),
                                    -self.rvar(second, f, g),
                                    self.rvar(sup, e, g),
                                )
                case RoleConj(first, second, sup):
                    for e in range(n):
                        for f in range(n):
                            self.add(
                                -self.rvar(first, e, f),
                                -self.rvar(second, e, f),
                                self.rvar(sup, e, f),
                            )
                case ProductToRole(left, right, sup):
                    lv, rv = self.concept(left), self.concept(right)
                    for e in range(n):
                        for f in range(n):
                            self.add(-lv[e], -rv[f], self.rvar(sup, e, f))
                case RoleToProduct(sub, left, right):
                    lv, rv = self.concept(left), self.concept(right)
                    for e in range(n):
                        for f in range(n):
                            r = self.rvar(sub, e, f)
                            self.add(-r, lv[e])
                            self.add(-r, rv[f])
        for ax in self.kb.abox:
            match ax:
                case ConceptAssertion(concept, individual):
                    cv = self.concept(concept)
                    for e in range(n):
                        self.add(-self.ivar(individual, e), cv[e])
                case RoleAssertion(role, subject, target):
                    for e in range(n):
                        for f in range(n):
                            self.add(
                                -self.ivar(subject, e),
                                -self.ivar(target, f),
                                self.rvar(role, e, f),
                            )

    def encode_query_negation(self, q: Query) -> None:
        """Require the model to falsify q."""
        n = self.n

        def violated_at(conds: list[list[int]]) -> None:
            picks = []
            for lits in conds:
                w = self.new_var()
                for lit in lits:
                    self.add(-w, lit)
                picks.append(w)
            self.add(*picks)

        match q:
            case InstanceOf(concept, individual):
                cv = self.concept(concept)
                violated_at(
                    [[self.ivar(individual, e), -cv[e]] for e in range(n)]
                )
            case TypicalInstanceOf(concept, individual):
                tv = self.concept(Typicality(concept))
                violated_at(
                    [[self.ivar(individual, e), -tv[e]] for e in range(n)]
                )
            case RoleHolds(role, subject, target):
                violated_at(
                    [
                        [
                            self.ivar(subject, e),
                            self.ivar(target, f),
                            -self.rvar(role, e, f),
                        ]
                        for e in range(n)
                        for f in range(n)
                    ]
                )
            case Subsumes(lhs, rhs):
                lv, rv = self.concept(lhs), self.concept(rhs)
                violated_at([[lv[e], -rv[e]] for e in range(n)])
            case TypSubsumes(lhs, rhs):
                tv = self.concept(Typicality(lhs))
                rv = self.concept(rhs)
                violated_at([[tv[e], -rv[e]] for e in range(n)])
            case _:
                raise TypeError(f"not a query: {q!r}")

    def decode(self, assign: list[int]) -> RankedInterpretation:
        sig = self.kb.signature
        n = self.n

        def truth(key: tuple) -> bool:
            # names never constrained by the KB or query have no variable;
            # they decode as empty, which cannot break or fake a counter-model
            v = self._base.get(key)
            return v is not None and assign[v] > 0

        concept_ext = {
            name: frozenset(e for e in range(n) if truth(("c", name, e)))
            for name in sig.concept_names
        }
        role_ext = {
            role: frozenset(
                (e, f) for e in range(n) for f in range(n) if truth(("r", role, e, f))
            )
            for role in sig.role_names
        }
        individual_map = {}
        for ind in sig.individual_names:
            for e in range(n):
                if truth(("i", ind, e)):
                    individual_map[ind] = e
                    break
        return RankedInterpretation(
            domain=tuple(range(n)),
            rank={e: self.ranks[e] for e in range(n)},
            concept_ext=concept_ext,
            role_ext=role_ext,
            individual_map=individual_map,
        )


# --- DPLL search ---


def _solve(
    nvars: int,
    clauses: list[tuple[int, ...]],
    budget: list[int],
) -> list[int] | None:
    """Satisfying assignment (index = var, value +1/-1) or None.

    budget is a single-cell decision counter shared across calls; exhausting
    it raises BoundOverflow.
    """
    occ_when_false: list[list[int]] = [[] for _ in range(2 * nvars + 1)]

    def slot(lit: int) -> int:
        # literal -> index of the list of clauses to revisit when it turns false
        return lit if lit > 0 else nvars - lit

    for ci, cl in enumerate(clauses):
        for lit in cl:
            occ_when_false[slot(lit)].append(ci)

    assign = [0] * (nvars + 1)
    trail: list[int] = []

    def push(lit: int) -> None:
        assign[abs(lit)] = 1 if lit > 0 else -1
        trail.append(abs(lit))

    def propagate(head: int) -> bool:
        while head < len(trail):
            v = trail[head]
            head += 1
            falsified = v if assign[v] < 0 else -v
            for ci in occ_when_false[slot(falsified)]:
                cl = clauses[ci]
                unit = 0
                unassigned = 0
                sat = False
                for lit in cl:
                    a = assign[abs(lit)]
                    if a == 0:
                        unassigned += 1
                        if unassigned > 1:
                            break
                        unit = lit
                    elif (a > 0) == (lit > 0):
                        sat = True
                        break
                if sat or unassigned > 1:
                    continue
                if unassigned == 0:
                    return False
                val = assign[abs(unit)]
                if val == 0:
                    push(unit)
                elif (val > 0) != (unit > 0):
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            assign[trail.pop()] = 0

    def dfs() -> bool:
        v = 0
        for i in range(1, nvars + 1):
            if assign[i] == 0:
                v = i
                break
        if v == 0:
            return True
        for sign in (1, -1):
            budget[0] -= 1
            if budget[0] < 0:
                raise BoundOverflow("model search decision budget exceeded")
            mark = len(trail)
            push(sign * v)
            if propagate(mark) and dfs():
                return True
            undo(mark)
        return False

    for cl in clauses:
        if len(cl) == 1:
            lit = cl[0]
            a = assign[abs(lit)]
            if a == 0:
                push(lit)
            elif (a > 0) != (lit > 0):
                return None
    if not propagate(0):
        return None
    if not dfs():
        return None
    return list(assign)


def _rank_profiles(n: int, max_rank: int):
    """Non-decreasing rank vectors using a contiguous prefix 0..k of ranks.

    Any ranked interpretation is order-isomorphic to one of this shape, and
    only the order of ranks matters to the semantics.
    """

    def rec(prefix: list[int]):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        last = prefix[-1]
        for v in (last, last + 1):
            if v <= max_rank:
                yield from rec(prefix + [v])

    yield from rec([0])


_DEFAULT_BUDGET = 2_000_000


def refute(
    kb: KnowledgeBase,
    q: Query,
    max_domain: int = 3,
    max_rank: int = 2,
    budget: int = _DEFAULT_BUDGET,
) -> RankedInterpretation | None:
    """Search for a model of kb falsifying q within the given bounds.

    A returned interpretation is a verified counter-model; None means no
    counter-model exists with at most max_domain elements and ranks bounded
    by max_rank, which proves nothing about larger models.
    """
    cell = [budget]
    for n in range(1, max_domain + 1):
        for ranks in _rank_profiles(n, max_rank):
            enc = _Encoder(kb, n, ranks)
            enc.encode_kb()
            enc.encode_query_negation(q)
            sol = _solve(enc.nvars, enc.clauses, cell)
            if sol is None:
                continue
            m = enc.decode(sol)
            if not is_model(m, kb) or satisfies_query(m, q):
                raise AssertionError(
                    "decoded counter-model failed direct evaluation; "
                    "grounding and evaluator disagree"
                )
            return m
    return None

