"""Ranked interpretations over finite domains, and a bounded refutation oracle.

A ranked interpretation is a classical interpretation plus an integer rank
per element; typicality denotes the minimal-rank members of a concept's
extension.  `extension` and `satisfies` evaluate concepts and axioms
directly.  `refute` searches for a model of a KB that falsifies a query:
it grounds the KB, the query's negation and every element's rank to
propositional clauses, and runs a conflict-driven clause-learning solver
once per domain size.  A found counter-model proves non-entailment, while
"none found" proves nothing beyond the bounds.

Each KB is validated and grounded once per domain size and rank bound,
for any number of queries; from its second query on, the solver state
with the KB's clauses loaded is kept too, and a query copies it and
loads only its negation's clauses, so its search is the one over the
whole clause list (_Grounding).
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
from collections.abc import Iterable

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
    """Grounds every ranked interpretation of one domain size to clauses.

    Variables cover concept-name membership, role pairs, and individual
    placement; every composite concept, typicality included, gets a defined
    variable per element.  Ranks are in the order encoding (Tamura, Taga,
    Kitagawa and Banbara, Constraints 2009), `geq[e][k - 1]` meaning
    rank(e) >= k.  Only the order of ranks matters, so element 0 has rank
    0, and ranks neither decrease along the elements nor skip a value;
    hence rank(e) <= min(e, max_rank).
    """

    def __init__(self, kb: KnowledgeBase, n: int, max_rank: int) -> None:
        self.kb = kb
        self.n = n
        self.nvars = 0
        self.clauses: list[tuple[int, ...]] = []
        self._base: dict[tuple, int] = {}
        self._concept_vars: dict[ConceptExpr, list[int]] = {}
        top = min(max_rank, n - 1)
        self.geq = [[self.new_var() for _ in range(top)] for _ in range(n)]
        if top:
            self.add(-self.geq[0][0])  # element 0 has rank 0
        for row in self.geq:
            for k in range(1, top):
                self.add(-row[k], row[k - 1])  # rank >= k + 1 implies rank >= k
        for prev, row in zip(self.geq, self.geq[1:]):
            for k in range(top):
                self.add(-prev[k], row[k])  # no decrease
            for k in range(1, top):
                self.add(-row[k], prev[k - 1])  # no skipped value

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

    def fork(self) -> _Encoder:
        """A copy to encode one question on: it names the same variables,
        adds its own, and holds only the clauses added to it."""
        out = copy.copy(self)
        out._base = dict(self._base)
        out._concept_vars = dict(self._concept_vars)
        out.clauses = []
        return out

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
                    # f is below e at level k when rank(f) < k <= rank(e);
                    # ranks do not decrease, so only f < e can be below e
                    below = []
                    for f in range(e):
                        for gf, ge in zip(self.geq[f], self.geq[e]):
                            # a typical C has no C below it
                            self.add(-v, -av[f], gf, -ge)
                            b = self.new_var()
                            self.add(-b, av[f])
                            self.add(-b, -gf)
                            self.add(-b, ge)
                            below.append(b)
                    # a C with no C below it is typical
                    self.add(v, -av[e], *below)
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
            rank={e: sum(assign[v] > 0 for v in self.geq[e]) for e in range(n)},
            concept_ext=concept_ext,
            role_ext=role_ext,
            individual_map=individual_map,
        )


# --- conflict-driven search ---

# the activity increment grows by this factor per conflict, so recent
# conflicts outweigh old ones
_DECAY = 1 / 0.95


# the solver's state at decision level 0: the value of every literal, the
# clauses watching each literal, the clauses of two or more literals, and
# the trail of unit clauses
_State = tuple[list[int], list[list[int]], list[list[int]], list[int]]


def _solve(
    nvars: int,
    clauses: Iterable[tuple[int, ...]],
    budget: list[int],
    base: _State | None = None,
) -> list[int] | None:
    """Satisfying assignment (index = var, value +1/-1) or None.

    Conflict-driven clause learning (GRASP, MiniSat): two watched literals
    per clause, a first-UIP clause learned from each conflict, a backjump
    to the second-highest decision level in it, and decisions on the most
    active unassigned variable, ties to the lowest index, in its saved
    phase.  There are no restarts, no clause deletion and no randomness, so
    equal input gives an equal assignment.

    base, the state _load left after some earlier clauses, is copied and
    clauses are loaded after its: the search is the one over its clauses
    followed by these.  budget is a single-cell decision counter shared
    across calls; exhausting it raises BoundOverflow.
    """
    state = _load(nvars, clauses, base)
    return None if state is None else _search(nvars, state, budget)


def _load(
    nvars: int, clauses: Iterable[tuple[int, ...]], base: _State | None = None
) -> _State | None:
    """The state after loading clauses over nvars variables on top of base,
    a state over at most nvars, which is copied and not changed; None when
    a unit clause contradicts an earlier one."""
    if base is None:
        # value and watches are indexed by literal: Python's negative
        # indexes put -v at the tail, so one list of 2 * nvars + 1 serves
        # both signs
        value = [0] * (2 * nvars + 1)
        watches: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
        db: list[list[int]] = []
        trail: list[int] = []
    else:
        value, watches, db, trail = base
        # the new variables' literals go in the middle, between the old
        # positive ones and the old negative ones at the tail
        old = len(value) // 2
        gap = 2 * (nvars - old)
        value = value.copy()
        value[old + 1 : old + 1] = [0] * gap
        watches = list(map(list.copy, watches))
        watches[old + 1 : old + 1] = [[] for _ in range(gap)]
        db = list(map(list.copy, db))
        trail = trail.copy()
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
    return value, watches, db, trail


def _search(nvars: int, state: _State, budget: list[int]) -> list[int] | None:
    """The search of _solve from a loaded state, which it changes."""
    value, watches, db, trail = state
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


_DEFAULT_BUDGET = 2_000_000


class _Grounding:
    """A KB grounded at one domain size and rank bound, for any number of
    questions: the encoder after encode_kb and, from the second question
    on, the solver state with the KB's clauses loaded, or False when they
    contradict each other already.  The first question loads the KB's
    clauses with its own, so a KB asked once pays no copy of the state."""

    def __init__(self, kb: KnowledgeBase, n: int, max_rank: int) -> None:
        self.encoder = _Encoder(kb, n, max_rank)
        self.encoder.encode_kb()
        self.asked = False
        self.loaded: _State | bool | None = None

    def refute(self, q: Query, budget: list[int]) -> RankedInterpretation | None:
        """A model of this size falsifying q, or None: the search over the
        KB's clauses and then the negation's, in the order encoded."""
        enc = self.encoder.fork()
        enc.encode_query_negation(q)
        if self.asked and self.loaded is None:
            self.loaded = _load(self.encoder.nvars, self.encoder.clauses) or False
            self.encoder.clauses = []
        self.asked = True
        if self.loaded is False:
            return None
        # the KB's clauses, until they are loaded, then the question's
        clauses = itertools.chain(self.encoder.clauses, enc.clauses)
        sol = _solve(enc.nvars, clauses, budget, self.loaded)
        return None if sol is None else enc.decode(sol)


# KBs whose groundings a process keeps, each with one per domain size
# searched; a KB not searched for a while is grounded again
_GROUNDED_KBS = 4


@functools.lru_cache(maxsize=_GROUNDED_KBS)
def _grounded(kb: KnowledgeBase) -> dict[tuple[int, int], _Grounding]:
    """kb's groundings by domain size and rank bound, kept for value-equal
    KBs; an invalid kb is not cached and raises on every call."""
    bad = validate(kb)
    if bad:
        raise ValueError("invalid knowledge base: " + "; ".join(str(v) for v in bad))
    return {}


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
    by max_rank, which proves nothing about larger models.  Domain sizes are
    tried in increasing order, one solver call each, so a counter-model is
    one of the smallest.  Bounds below one element or rank 0, an invalid
    kb, or a query naming what kb does not declare, are a ValueError.
    """
    if max_domain < 1 or max_rank < 0:
        raise ValueError(f"no model within max_domain {max_domain} and max_rank {max_rank}")
    try:
        groundings = _grounded(kb)
    except RecursionError:
        # hashing recurses through each concept, so only a concept far taller
        # than validate allows gets here; validate reports it
        _grounded.__wrapped__(kb)
        raise
    bad = validate_query(kb, q)
    if bad:
        raise ValueError("invalid query: " + "; ".join(v.message for v in bad))
    cell = [budget]
    for n in range(1, max_domain + 1):
        key = (n, min(max_rank, n - 1))
        if key not in groundings:
            groundings[key] = _Grounding(kb, n, max_rank)
        m = groundings[key].refute(q, cell)
        if m is None:
            continue
        if not is_model(m, kb) or satisfies_query(m, q):
            raise AssertionError(
                "decoded counter-model failed direct evaluation; "
                "grounding and evaluator disagree"
            )
        return m
    return None
