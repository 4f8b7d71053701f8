"""Ranked interpretations over finite domains, and a bounded refutation oracle.

A ranked interpretation is a classical interpretation plus an integer rank
per element; typicality denotes the minimal-rank members of a concept's
extension.  `extension` and `satisfies` evaluate concepts and axioms
directly.  `refute` searches for a model of a KB that falsifies a query:
it grounds the KB and the query's negation to propositional clauses once
per domain size, adds the typicality clauses of each rank profile, and runs
a conflict-driven clause-learning solver on every (domain size, rank
profile) candidate in turn.  A found counter-model proves non-entailment,
while "none found" proves nothing beyond the bounds.
"""

from __future__ import annotations

import heapq
import itertools

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
    query_axiom,
    validate,
    validate_query,
)
from .record import Record, record


class BoundOverflow(RuntimeError):
    """The bounded model search exceeded its decision budget."""


@record
class RankedInterpretation(Record):
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
    return satisfies(m, query_axiom(q))


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


class _Encoder:
    """Grounds every candidate of one domain size to clauses.

    Variables cover concept-name membership, role pairs, and individual
    placement; every composite concept, typicality included, gets a defined
    variable per element.  Only which lower-ranked elements a typical
    element must beat depends on the rank profile, so `clauses` holds all
    the rest and `typicality_clauses` adds those per profile.
    """

    def __init__(self, kb: KnowledgeBase, n: int) -> None:
        self.kb = kb
        self.n = n
        self.nvars = 0
        self.clauses: list[tuple[int, ...]] = []
        self._base: dict[tuple, int] = {}
        self._concept_vars: dict[ConceptExpr, list[int]] = {}
        # (T(C) variables, C variables) per element, for each T(C) grounded
        self._typical: list[tuple[list[int], list[int]]] = []

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
        out = self._concept_vars.get(c)
        if out is not None:
            return out
        out = self._concept_vars[c] = [self.new_var() for _ in range(self.n)]
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
                    self.add(-v, av[e])
                self._typical.append((out, av))
            case _:
                raise TypeError(f"not a concept: {c!r}")
        return out

    def typicality_clauses(self, ranks: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The rank-dependent half of each T(C): under ranks, a typical C
        has no C below it, and a C with no C below it is typical."""
        out = []
        for tv, av in self._typical:
            for e, v in enumerate(tv):
                lower = [av[f] for f in range(self.n) if ranks[f] < ranks[e]]
                out.extend((-v, -a) for a in lower)
                out.append((v, -av[e], *lower))
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

    def decode(self, assign: list[int], ranks: tuple[int, ...]) -> RankedInterpretation:
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
            rank={e: ranks[e] for e in range(n)},
            concept_ext=concept_ext,
            role_ext=role_ext,
            individual_map=individual_map,
        )


# --- conflict-driven search ---

# the activity increment grows by this factor per conflict, so recent
# conflicts outweigh old ones
_DECAY = 1 / 0.95


def _solve(
    nvars: int,
    clauses: list[tuple[int, ...]],
    budget: list[int],
) -> list[int] | None:
    """Satisfying assignment (index = var, value +1/-1) or None.

    Conflict-driven clause learning (GRASP, MiniSat): two watched literals
    per clause, a first-UIP clause learned from each conflict, a backjump
    to the second-highest decision level in it, and decisions on the most
    active unassigned variable, ties to the lowest index, in its saved
    phase.  There are no restarts, no clause deletion and no randomness, so
    equal input gives an equal assignment.

    budget is a single-cell decision counter shared across calls; exhausting
    it raises BoundOverflow.
    """
    # value and watches are indexed by literal: Python's negative indexes
    # put -v at the tail, so one list of 2 * nvars + 1 serves both signs
    value = [0] * (2 * nvars + 1)
    watches: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
    db: list[list[int]] = []  # clauses of two or more literals
    trail: list[int] = []
    for cl in clauses:
        if len(set(map(abs, cl))) == len(cl):
            lits = list(cl)
        else:
            # drop repeated literals, and the clause if it has x and -x
            lits = list(dict.fromkeys(cl))
            if len(set(map(abs, lits))) < len(lits):
                continue
        if len(lits) > 1:
            watches[lits[0]].append(len(db))
            watches[lits[1]].append(len(db))
            db.append(lits)
        elif not lits or value[lits[0]] < 0:
            return None
        elif value[lits[0]] == 0:
            value[lits[0]], value[-lits[0]] = 1, -1
            trail.append(lits[0])

    level = [0] * (nvars + 1)
    reason = [-1] * (nvars + 1)  # index in db of the clause that implied a var
    phase = [1] * (nvars + 1)  # a var's last literal; decisions start true
    activity = [0.0] * (nvars + 1)
    seen = [False] * (nvars + 1)
    heap = [(0.0, v) for v in range(1, nvars + 1)]  # (-activity, var), lazily
    limits: list[int] = []  # trail length at each decision
    inc = 1.0
    head = 0
    while True:
        conflict = -1
        while head < len(trail) and conflict < 0:
            false_lit = -trail[head]
            head += 1
            ws = watches[false_lit]
            kept: list[int] = []
            watches[false_lit] = kept
            for i, ci in enumerate(ws):
                c = db[ci]
                # keep the falsified watch second
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if value[first] > 0:
                    kept.append(ci)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit] >= 0:
                        c[1], c[k] = lit, false_lit
                        watches[lit].append(ci)
                        break
                else:
                    kept.append(ci)
                    if value[first] < 0:
                        kept.extend(ws[i + 1 :])
                        conflict = ci
                        break
                    value[first], value[-first] = 1, -1
                    v = abs(first)
                    level[v] = len(limits)
                    reason[v] = ci
                    trail.append(first)

        if conflict >= 0:
            if not limits:
                return None
            # resolve the conflict back to the first unique implication
            # point of the current level
            current = len(limits)
            learnt = [0]
            pending = 0
            index = len(trail)
            c = db[conflict]
            p = 0
            while True:
                for lit in c:
                    v = abs(lit)
                    if lit != p and not seen[v] and level[v] > 0:
                        seen[v] = True
                        if level[v] == current:
                            pending += 1
                        else:
                            learnt.append(lit)
                index -= 1
                while not seen[abs(trail[index])]:
                    index -= 1
                p = trail[index]
                seen[abs(p)] = False
                pending -= 1
                if pending == 0:
                    break
                c = db[reason[abs(p)]]
            learnt[0] = -p
            for lit in learnt:
                v = abs(lit)
                seen[v] = False
                activity[v] += inc
            inc *= _DECAY
            if inc > 1e100:
                activity = [a * 1e-100 for a in activity]
                inc *= 1e-100
                heap = [(-activity[v], v) for v in range(1, nvars + 1) if value[v] == 0]
                heapq.heapify(heap)
            back = 0
            if len(learnt) > 1:
                # the literal of the highest remaining level is the second watch
                j = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
                learnt[1], learnt[j] = learnt[j], learnt[1]
                back = level[abs(learnt[1])]
                watches[learnt[0]].append(len(db))
                watches[learnt[1]].append(len(db))
                db.append(learnt)
            mark = limits[back]
            for lit in trail[mark:]:
                v = abs(lit)
                phase[v] = lit
                value[lit] = value[-lit] = 0
                heapq.heappush(heap, (-activity[v], v))
            del trail[mark:], limits[back:]
            head = mark
            asserted = learnt[0]
            value[asserted], value[-asserted] = 1, -1
            level[abs(asserted)] = back
            reason[abs(asserted)] = len(db) - 1 if len(learnt) > 1 else -1
            trail.append(asserted)
            continue

        while heap and value[heap[0][1]] != 0:
            heapq.heappop(heap)
        if not heap:
            return value[: nvars + 1]
        budget[0] -= 1
        if budget[0] < 0:
            raise BoundOverflow("model search decision budget exceeded")
        v = heapq.heappop(heap)[1]
        lit = v if phase[v] > 0 else -v
        limits.append(len(trail))
        value[lit], value[-lit] = 1, -1
        level[v] = len(limits)
        reason[v] = -1
        trail.append(lit)


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
    by max_rank, which proves nothing about larger models.  Candidates are
    tried by domain size, then rank profile; each domain size is grounded
    once.  An invalid kb, or a query naming what kb does not declare, is a
    ValueError.
    """
    bad = validate(kb)
    if bad:
        raise ValueError("invalid knowledge base: " + "; ".join(str(v) for v in bad))
    bad = validate_query(kb, q)
    if bad:
        raise ValueError("invalid query: " + "; ".join(v.message for v in bad))
    cell = [budget]
    for n in range(1, max_domain + 1):
        enc = _Encoder(kb, n)
        enc.encode_kb()
        enc.encode_query_negation(q)
        for ranks in _rank_profiles(n, max_rank):
            sol = _solve(enc.nvars, enc.clauses + enc.typicality_clauses(ranks), cell)
            if sol is None:
                continue
            m = enc.decode(sol, ranks)
            if not is_model(m, kb) or satisfies_query(m, q):
                raise AssertionError(
                    "decoded counter-model failed direct evaluation; "
                    "grounding and evaluator disagree"
                )
            return m
    return None
