"""Stratified Datalog with negation, integer comparisons, and decrement terms.

The engine is deliberately small: programs are finite sets of ground facts
plus rules, predicates are stratified so every negated atom refers to a
fully computed lower stratum, and each stratum is saturated bottom-up with
semi-naive iteration.  A naive evaluator with the same semantics is kept as
a differential-testing oracle; it reads the Rule objects directly and
shares no generated code with the semi-naive path.

Only the facts change between calls on the fixed rule tables, so each
rule table is prepared once per process: _prepare validates it, stratifies
it and fixes the join orders of its rules, cached on the value-equal tuple
of rules, and evaluate checks only the facts against it.  The joins that
read one delta run as one step function, whose Python code is generated
from their rules the first time that group of joins runs and kept with
the prepared table, so a short command pays only for the steps it runs.

A delta variant joins its remaining atoms greedily by (all arguments
bound, some argument bound and the relation not derived, bound minus
arity, bound): a finished input relation is probed before a derived one
that grows with the fixpoint.  The key is fixed by the program's rules
and stratification, never by its facts, so one join order serves every
store.  A variable that one atom binds and nothing else reads is
dead: an atom binding only dead variables becomes a test that some fact
matches, and one binding dead next to live variables skips a fact whose
live values its probe has already joined.  At the start of each stratum
the semi-naive evaluator drops every rule with a positive body atom over
a relation that is empty and that no rule of the stratum derives; such a
relation stays empty, so the rule can never fire.

Facts live in a FactStore: one set per predicate plus hash indexes, each
on a sorted tuple of argument positions and keyed by the bare value for
one position, by the tuple of values for more.  A step function is bound
to a store once per evaluation: it looks up every fact set and index dict
its joins read, all live, and the add of each output set, and then probes
them with plain dict lookups in every round; a probe that binds every
position of its atom is a membership test on the fact set, with no index
built or kept for it.  A join writes only to its output set, never to
the store.

Semi-naive evaluation runs in batched rounds (Bancilhon & Ramakrishnan,
SIGMOD 1986): every join of a round reads the store as the last round
left it and writes into one output set per head predicate, and the round
ends with one add_all per head predicate, whose return value, the facts
not stored yet, is the next delta.  Every join reads its first atom from
the delta, and a round calls one step per predicate with new facts, which
runs every variant joining that predicate first.  The first round runs
each rule whose relations all hold facts, grouped into steps by its first
relation, whole as the delta; any other derivation has a newest fact, and
the next round's delta brings it to the variant joining its atom first.

A program without negation is one stratum and monotone, so Saturation
keeps its least model and extends it by more facts: the facts are the
first delta of the same semi-naive loop, run on a copy of the store that
owns only the relations the extension can write, its heads' and its
facts', and shares the rest with the store.  A caller that asks one
question of the extension passes a stop test, checked once per round,
and the loop ends with the round after which the test holds.

Terms are Python strings (symbolic constants), ints, variables, or ?v - k
decrements.  A decrement in a positive body atom unifies in both
directions: with v bound it denotes the value v - k, with v unbound it
binds v to the matched value plus k.

The textual program format, whose tokens are those of the Datalog grammar
in _scan, round-trips through dump_program/load_program:

    edge(a, b).
    path(?x, ?y) :- edge(?x, ?y).
    rank(?C, ?I) :- level(?I), ?I > 0, not bad(?C, ?I - 1).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable
from operator import itemgetter

from ._scan import Cursor, shown, token_pattern
from .record import Record, record


class DatalogError(ValueError):
    pass


@record
class Var(Record):
    name: str


@record
class Minus(Record):
    """The term ?var - amount; amount must be positive."""

    var: Var
    amount: int


Const = str | int
Term = Const | Var | Minus


@record
class Atom(Record):
    pred: str
    args: tuple[Term, ...]


@record
class Neg(Record):
    atom: Atom


@record
class Compare(Record):
    op: str  # "<" or ">"
    left: Term
    right: Term


BodyItem = Atom | Neg | Compare


@record
class Rule(Record):
    head: Atom
    body: tuple[BodyItem, ...]
    # a rule table keys the _prepare cache, and hashing the fields would
    # rehash every atom of every rule on each lookup.  String hashes differ
    # between processes, so a pickle carries only head and body and the
    # hash is computed again on load.
    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self._values))

    def __hash__(self) -> int:
        return self._hash


@record
class DatalogProgram(Record):
    facts: tuple[Atom, ...] = ()
    rules: tuple[Rule, ...] = ()


def _term_vars(t: Term) -> set[Var]:
    if isinstance(t, Var):
        return {t}
    if isinstance(t, Minus):
        return {t.var}
    return set()


def atom_vars(a: Atom) -> set[Var]:
    out: set[Var] = set()
    for t in a.args:
        out |= _term_vars(t)
    return out


def _constraint_vars(item: Neg | Compare) -> set[Var]:
    if isinstance(item, Neg):
        return atom_vars(item.atom)
    return _term_vars(item.left) | _term_vars(item.right)


def _const_fault(c) -> str | None:
    """Why c is not a constant, or None if it is one."""
    if isinstance(c, bool) or not isinstance(c, (str, int)):
        return f"not a constant: {c!r}"
    if isinstance(c, str) and (not c or c[0].isdigit()):
        return f"symbolic constant may not start with a digit: {c!r}"
    return None


def _check_const(c, where: str) -> None:
    fault = _const_fault(c)
    if fault is not None:
        raise DatalogError(f"{where}: {fault}")


def validate_program(program: DatalogProgram) -> None:
    """Reject arity clashes, unsafe rules, empty bodies, and malformed terms."""
    arity: dict[str, int] = {}

    def see(pred: str, n: int, where: str) -> None:
        if arity.setdefault(pred, n) != n:
            raise DatalogError(f"{where}: predicate {pred!r} used with arity {n} and {arity[pred]}")

    for f in program.facts:
        see(f.pred, len(f.args), f"fact {f.pred}")
        for t in f.args:
            _check_const(t, f"fact {f.pred}")
    for i, rule in enumerate(program.rules):
        where = f"rule {i} ({rule.head.pred})"
        if not rule.body:
            raise DatalogError(f"{where}: empty body; use a fact instead")
        see(rule.head.pred, len(rule.head.args), where)
        for t in rule.head.args:
            if isinstance(t, Minus):
                raise DatalogError(f"{where}: decrement term in rule head")
            if not isinstance(t, Var):
                _check_const(t, where)
        positive_vars: set[Var] = set()
        plain_vars: set[Var] = set()
        minus_vars: set[Var] = set()
        for item in rule.body:
            match item:
                case Atom(pred, args):
                    see(pred, len(args), where)
                    positive_vars |= atom_vars(item)
                    for t in args:
                        if isinstance(t, Var):
                            plain_vars.add(t)
                        elif isinstance(t, Minus):
                            minus_vars.add(t.var)
                case Neg(atom):
                    see(atom.pred, len(atom.args), where)
                    for t in atom.args:
                        if isinstance(t, Minus):
                            minus_vars.add(t.var)
                case Compare(op, left, right):
                    if op not in ("<", ">"):
                        raise DatalogError(f"{where}: unknown comparison {op!r}")
                    for t in (left, right):
                        if isinstance(t, Minus):
                            minus_vars.add(t.var)
        # termination guard: a decremented variable must also be matched
        # plainly, else ?I - 1 joins could mint fresh integers forever
        loose = minus_vars - plain_vars
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise DatalogError(f"{where}: decremented variable(s) {names} never matched plainly")
        for item in rule.body:
            if isinstance(item, Atom):
                continue
            loose = _constraint_vars(item) - positive_vars
            kind = "negated atom" if isinstance(item, Neg) else "comparison"
            if loose:
                names = ", ".join(sorted(v.name for v in loose))
                raise DatalogError(f"{where}: {kind} uses unbound variable(s) {names}")
        loose = atom_vars(rule.head) - positive_vars
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise DatalogError(f"{where}: head variable(s) {names} not bound by a positive body atom")


# --- stratification ---


def stratify(rules: tuple[Rule, ...]) -> tuple[list[list[Rule]], dict[str, int]]:
    """Assign strata so each negated predicate is complete before use.

    Returns (rules grouped per stratum in evaluation order, stratum of each
    predicate).  Raises DatalogError when negation occurs in a dependency
    cycle.

    One iterative Tarjan pass over the head -> body edges, each marked
    negated or not.  Tarjan finishes a strongly connected component only
    after every component it depends on, so its stratum is the maximum, over
    edges leaving it, of the target's stratum plus one for a negated edge:
    the least stratification (Apt, Blair & Walker 1988).
    """
    # head -> {body predicate: whether some edge between them is negated}
    edges: dict[str, dict[str, bool]] = {}
    for rule in rules:
        out = edges.setdefault(rule.head.pred, {})
        for item in rule.body:
            if isinstance(item, Neg):
                out[item.atom.pred] = True
                edges.setdefault(item.atom.pred, {})
            elif isinstance(item, Atom):
                out.setdefault(item.pred, False)
                edges.setdefault(item.pred, {})
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    # a visited predicate without a level is still on the Tarjan stack
    level: dict[str, int] = {}
    for root in sorted(edges):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(sorted(edges[root])))]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(sorted(edges[w]))))
                    break
                if w not in level:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] != index[node]:
                    continue
                comp = stack[stack.index(node) :]
                del stack[len(stack) - len(comp) :]
                members = set(comp)
                s = 0
                for v in comp:
                    for w, neg in edges[v].items():
                        if w not in members:
                            s = max(s, level[w] + neg)
                        elif neg:
                            raise DatalogError(
                                "program is not stratifiable: negation inside a recursive "
                                f"component: {{{', '.join(sorted(comp))}}}"
                            )
                for v in comp:
                    level[v] = s
    buckets: dict[int, list[Rule]] = {}
    for rule in rules:
        buckets.setdefault(level[rule.head.pred], []).append(rule)
    ordered = [buckets[s] for s in sorted(buckets)]
    return ordered, level


# --- fact storage ---


class FactStore:
    """Ground facts grouped by predicate, with hash indexes built on demand.

    An index covers a sorted tuple of argument positions and maps each key
    to the list of facts (its bucket) with those values there.  It keeps the
    operator.itemgetter of its positions, so a one-position index is keyed
    by the bare value and a wider one by the tuple of values.  Each distinct
    index a rule needs gets built once, then kept current by add() and
    add_all(), which share one maintenance loop.  A bucket is never empty.
    """

    __slots__ = ("_sets", "_indexes")

    def __init__(self):
        self._sets: dict[str, set[tuple[Const, ...]]] = {}
        # pred -> positions -> (key getter, buckets)
        self._indexes: dict[str, dict[tuple[int, ...], tuple]] = {}

    def add(self, pred: str, args: tuple[Const, ...]) -> bool:
        s = self._sets.setdefault(pred, set())
        if args in s:
            return False
        s.add(args)
        self._index_new(pred, (args,))
        return True

    def add_all(self, pred: str, facts: set[tuple[Const, ...]]) -> set[tuple[Const, ...]]:
        """Store facts; return the set of those that were not stored yet."""
        s = self._sets.setdefault(pred, set())
        fresh = facts - s
        if fresh:
            s |= fresh
            self._index_new(pred, fresh)
        return fresh

    def _index_new(self, pred: str, facts) -> None:
        for index in self._indexes.get(pred, {}).values():
            _fill(index, facts)

    def copy(self, writable: Iterable[str]) -> FactStore:
        """A store with the same facts and indexes.

        For each predicate in writable the copy shares no set, index or
        bucket with this store.  Every other relation's set and buckets are
        shared, so neither store may add to them; each predicate's map of
        indexes is the copy's own, so an index the copy builds on a shared
        relation stays with the copy.
        """
        out = FactStore()
        sets = out._sets = dict(self._sets)
        indexes = out._indexes = {pred: dict(per_pred) for pred, per_pred in self._indexes.items()}
        for pred in writable:
            s = sets.get(pred)
            if s is not None:
                sets[pred] = set(s)
            per_pred = indexes.get(pred)
            if per_pred:
                indexes[pred] = {
                    positions: (key, dict(zip(buckets, map(list.copy, buckets.values()))))
                    for positions, (key, buckets) in per_pred.items()
                }
        return out

    def contains(self, pred: str, args: tuple[Const, ...]) -> bool:
        return args in self._sets.get(pred, ())

    def facts(self, pred: str) -> set[tuple[Const, ...]]:
        return self._sets.get(pred, set())

    def relation(self, pred: str) -> set[tuple[Const, ...]]:
        """pred's own fact set, created empty when absent, which later adds
        update in place; an empty one is invisible to preds and len."""
        return self._sets.setdefault(pred, set())

    def index(self, pred: str, positions: tuple[int, ...]) -> dict:
        """The buckets of pred's index on the given sorted, non-empty positions.

        The dict is the live index: later adds update it in place.  Facts
        too short to have all the positions are in no bucket.
        """
        per_pred = self._indexes.setdefault(pred, {})
        index = per_pred.get(positions)
        if index is None:
            index = per_pred[positions] = (itemgetter(*positions), {})
            _fill(index, self._sets.get(pred, ()))
        return index[1]

    def match(
        self, pred: str, positions: tuple[int, ...], key: tuple[Const, ...]
    ) -> list[tuple[Const, ...]]:
        """Facts whose arguments at the given sorted positions equal key.

        Facts too short to have all the positions are excluded; arity
        mismatches beyond that are the caller's concern.
        """
        return self.index(pred, positions).get(key[0] if len(key) == 1 else key, [])

    def preds(self) -> list[str]:
        return sorted(pred for pred, s in self._sets.items() if s)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets.values())


def _fill(index: tuple, facts) -> None:
    """Put each fact long enough for the index into its bucket."""
    key, buckets = index
    for fact in facts:
        try:
            k = key(fact)
        except IndexError:
            continue
        bucket = buckets.get(k)
        if bucket is None:
            buckets[k] = [fact]
        else:
            bucket.append(fact)


# --- evaluation ---


@record
class _Variant(Record):
    """One rule body with its positive atoms joined in a fixed order, the first from the delta."""

    rule: Rule
    atoms: tuple[Atom, ...]


def _key_positions(atom: Atom, bound: set[Var]) -> tuple[int, ...]:
    """Argument positions of atom that are ground once bound is: constants,
    bound variables and decrements of them."""
    return tuple(j for j, t in enumerate(atom.args) if _term_vars(t) <= bound)


def _cmp_rt(left, op: str, right) -> bool:
    """Runtime comparison for generated code.

    The naive oracle states the same semantics on its own, over Rule terms.
    """
    if left is None or right is None:
        return False
    if not isinstance(left, int) or not isinstance(right, int):
        raise DatalogError(f"comparison between non-integers: {left!r} {op} {right!r}")
    return left < right if op == "<" else left > right


def _join_lines(cv: _Variant, rel: Callable[..., str], add: str) -> list[str]:
    """The Python lines of one join, read from its rule, for a step function.

    The join reads its first atom from delta and passes each head fact to
    the local add; rel(pred, positions) names the step's local for a
    relation's fact set, or for the buckets of its index on positions.
    Variables become locals v0, v1, ... in order of first occurrence in the
    join order.  A variable is dead when one positive atom binds it and
    nothing else reads it: no other atom, no negated atom, no comparison, no
    head argument.  An atom that binds no live variable becomes a test that
    some fact matches, and an atom that binds dead variables next to live
    ones skips a fact whose live values this probe has already joined.  A
    negated atom or comparison is checked after the first atom that binds
    all its variables, or once up front when it has none.  A probe is one
    dict lookup, and an atom ground at every position is probed on the fact
    set.  A test that fails outside every loop leaves the join, not the
    step: the lines then run in a loop of one pass, left by break.
    """
    rule, atoms = cv.rule, cv.atoms
    local: dict[Var, str] = {}
    # before[i]: the variables bound before atom i is joined
    before: list[set[Var]] = []
    bound: set[Var] = set()
    # variables something besides the atom binding them reads
    read = atom_vars(rule.head)
    for a in atoms:
        for t in a.args:
            for var in _term_vars(t):
                local.setdefault(var, f"v{len(local)}")
        vs = atom_vars(a)
        read |= vs & bound
        before.append(bound)
        bound = bound | vs
    # after[i]: the constraints whose variables atom i is the first to bind
    pre: list[Neg | Compare] = []
    after: list[list[Neg | Compare]] = [[] for _ in atoms]
    bound_after = before[1:] + [bound]
    for item in rule.body:
        if isinstance(item, Atom):
            continue
        need = _constraint_vars(item)
        read |= need
        if not need:
            pre.append(item)
        else:
            after[next(i for i, vs in enumerate(bound_after) if need <= vs)].append(item)
    dead = bound - read

    top = "    "
    lines: list[str] = []
    ind = top
    once = False
    fresh = itertools.count()

    def leave() -> str:
        # the statement that drops the current binding: the next fact of the
        # innermost loop, or outside every loop the whole join
        nonlocal once
        if ind != top:
            return "continue"
        once = True
        return "break"

    def value(t: Term, guards: list[str]) -> str:
        # a decrement denotes a value only when its variable holds an int
        if isinstance(t, Var):
            return local[t]
        if isinstance(t, Minus):
            v = local[t.var]
            guards.append(f"type({v}) is int")
            return f"({v} - {t.amount})"
        return repr(t)

    def side(t: Term) -> str:
        # expression for one comparison side; a failed decrement becomes None
        if isinstance(t, Minus):
            v = local[t.var]
            return f"(({v} - {t.amount}) if type({v}) is int else None)"
        return value(t, [])

    def emit_constraint(item: Neg | Compare, exit_stmt: str) -> None:
        if isinstance(item, Neg):
            # a failed decrement denotes no value, so the atom is absent
            guards: list[str] = []
            args = [value(t, guards) for t in item.atom.args]
            arg_tuple = f"({', '.join(args)},)" if args else "()"
            cond = f"{arg_tuple} in {rel(item.atom.pred)}"
            if guards:
                cond = " and ".join(guards + [cond])
            lines.append(f"{ind}if {cond}: {exit_stmt}")
        else:
            lines.append(
                f"{ind}if not _cmp({side(item.left)}, {item.op!r}, {side(item.right)}): "
                f"{exit_stmt}"
            )

    for item in pre:
        emit_constraint(item, leave())

    for i, a in enumerate(atoms):
        kp = () if i == 0 else _key_positions(a, before[i])
        guards: list[str] = []
        # cand: the facts to join; empty: true when there are none
        if i == 0:
            cand, empty = "delta", "not delta"
        elif kp and len(kp) == len(a.args):
            # every position is ground: a membership test on the fact set,
            # which needs no index.  It binds nothing and checks nothing.
            kexprs = [value(t, guards) for t in a.args]
            cand, empty = None, f"({', '.join(kexprs)},) not in {rel(a.pred)}"
        elif kp:
            kexprs = [value(a.args[j], guards) for j in kp]
            # keyed like FactStore.index: the bare value for one position
            key = kexprs[0] if len(kexprs) == 1 else f"({', '.join(kexprs)})"
            ix = rel(a.pred, kp)
            cand, empty = f"{ix}.get({key}, ())", f"{key} not in {ix}"
        else:
            cand = rel(a.pred)
            empty = f"not {cand}"
        if guards:
            lines.append(f"{ind}if not ({' and '.join(guards)}): {leave()}")
        f = f"f{i}"
        kpset = set(kp)
        # the lines run on each fact of cand, and the variables they bind
        checks: list[str] = []
        new: list[Var] = []
        here = [v for t in a.args for v in _term_vars(t)]
        for j, t in enumerate(a.args):
            if j in kpset:
                continue  # equality is guaranteed by the index key
            if not isinstance(t, (Var, Minus)):
                checks.append(f"if {f}[{j}] != {t!r}: continue")
                continue
            var = t.var if isinstance(t, Minus) else t
            v = local[var]
            if var in before[i] or var in new:
                if isinstance(t, Var):
                    checks.append(f"if {f}[{j}] != {v}: continue")
                else:
                    checks.append(
                        f"if type({v}) is not int or {v} - {t.amount} != {f}[{j}]: continue"
                    )
            elif isinstance(t, Var):
                # a dead variable needs no local unless this atom reads it again
                if var not in dead or here.count(var) > 1:
                    checks.append(f"{v} = {f}[{j}]")
                new.append(var)
            else:
                tmp = f"_t{next(fresh)}"
                checks.append(f"{tmp} = {f}[{j}]")
                checks.append(f"if type({tmp}) is not int: continue")
                checks.append(f"{v} = {tmp} + {t.amount}")
                new.append(var)
        live = [local[var] for var in new if var not in dead]
        if not live and not checks:
            # an existence check with nothing to check: any fact will do.  No
            # constraint waits here, as one would read a variable bound here.
            lines.append(f"{ind}if {empty}: {leave()}")
            continue
        project = 0 < len(live) < len(new)
        if project:
            lines.append(f"{ind}_s{i} = set()")
        lines.append(f"{ind}for {f} in {cand}:")
        ind += "    "
        lines.extend(ind + line for line in checks)
        if not live:
            # existence check: the first fact passing the checks is enough
            lines.append(f"{ind}break")
            ind = ind[:-4]
            lines.append(f"{ind}else: {leave()}")
        elif project:
            # distinct projection: the join below reads only the live values
            key = live[0]
            if len(live) > 1:
                key = f"_k{i}"
                lines.append(f"{ind}{key} = ({', '.join(live)},)")
            lines.append(f"{ind}if {key} in _s{i}: continue")
            lines.append(f"{ind}_s{i}.add({key})")
        for item in after[i]:
            emit_constraint(item, "continue" if live else leave())

    head = ", ".join(value(t, []) for t in rule.head.args)
    lines.append(f"{ind}{add}(({head},))" if head else f"{ind}{add}(())")
    if once:
        return ["for _ in (0,):"] + lines
    return [line[len(top) :] for line in lines]


def _gen_step(group: tuple[tuple[_Variant, str], ...]):
    """Generate the step function of a group of joins, each (variant, head).

    Every join of the group reads its first atom from the same delta.  The
    result is bind(store, out), which looks up every fact set and index any
    join of the group reads, once, as the store's live relations, and the
    add of each head's set in out, and returns step(delta), which runs the
    joins one after the other.  A join writes only to out, never to the
    store, so the bound relations are those the last round left.  The naive
    oracle reads the rules directly and shares no code with this one, so
    the two paths cross-check each other.
    """
    # (pred, index positions, or () for the fact set) -> its local
    rels: dict[tuple[str, tuple[int, ...]], str] = {}
    adds: dict[str, str] = {}

    def rel(pred: str, positions: tuple[int, ...] = ()) -> str:
        return rels.setdefault((pred, positions), f"_r{len(rels)}")

    body: list[str] = []
    for v, head in group:
        body += _join_lines(v, rel, adds.setdefault(head, f"_a{len(adds)}"))
    lines = ["def _bind(store, out):"]
    lines += [
        f"    {name} = store.index({pred!r}, {kp!r})"
        if kp
        else f"    {name} = store.relation({pred!r})"
        for (pred, kp), name in rels.items()
    ]
    lines += [f"    {name} = out.setdefault({head!r}, set()).add" for head, name in adds.items()]
    # the bound names are the step's defaults, so its body reads them as locals
    bound = ", ".join(f"{name}={name}" for name in [*rels.values(), *adds.values()])
    lines.append(f"    def _step(delta, {bound}):")
    lines += ["        " + line for line in body]
    lines.append("    return _step")
    ns: dict = {}
    exec(compile("\n".join(lines), "<datalog-step>", "exec"), {"_cmp": _cmp_rt}, ns)
    return ns["_bind"]


def _greedy_order(positives: list[Atom], first: int, derived: frozenset[str]) -> list[int]:
    """Join order starting at first, then the best-scored atom eagerly.

    derived names the body predicates the rule's stratum derives.  Each
    next atom maximizes (all arguments bound, some argument bound and the
    relation not derived, bound minus arity, bound, -position): a pure
    filter first, then a probe of a finished input relation, which stays
    small, before a partially bound derived relation, which grows with the
    fixpoint; otherwise the most-ground atom.  The score reads only the
    rule and its stratum, never the facts, so the join order is a property
    of the program and one prepared table serves every store.
    """
    order = [first]
    bound = set(atom_vars(positives[first]))
    remaining = [i for i in range(len(positives)) if i != first]
    while remaining:

        def score(i: int) -> tuple[bool, bool, int, int, int]:
            a = positives[i]
            nb = len(_key_positions(a, bound))
            n = len(a.args)
            return (nb == n, nb > 0 and a.pred not in derived, nb - n, nb, -i)

        best = max(remaining, key=score)
        remaining.remove(best)
        order.append(best)
        bound |= atom_vars(positives[best])
    return order


@record
class _CompiledRule(Record):
    head_pred: str
    positive_preds: tuple[str, ...]
    # variants[k] joins positive occurrence k first, fed by the delta set; a
    # rule without a positive atom has one variant, which joins nothing
    variants: tuple[_Variant, ...]


def _compile_rule(rule: Rule, derived: frozenset[str]) -> _CompiledRule:
    positives = [item for item in rule.body if isinstance(item, Atom)]
    variants = tuple(
        _Variant(rule, tuple(positives[i] for i in _greedy_order(positives, k, derived)))
        for k in range(len(positives))
    ) or (_Variant(rule, ()),)
    return _CompiledRule(rule.head.pred, tuple(a.pred for a in positives), variants)


# a group of joins that read one delta: (rule number, variant number) of each
_Key = tuple[tuple[int, int], ...]


class _Table:
    """A rule table prepared once per process (_prepare), and the step
    functions generated from it.

    arity and constants are the table's symbols, its half of the grounding
    bound, and unchecked the rule literals a fact could not hold (validation
    checks head literals only).  rules holds its compiled rules in
    evaluation order, and strata, per stratum, the predicates it derives
    and the numbers of its rules; heads are the predicates some rule
    derives, and inputs those some rule joins in a stratum that does not
    derive them.  A step function is generated on the first use of its
    group of joins and kept under the group's key, the map from delta
    predicate to key under the numbers of the rules that can fire, and the
    gates under the set of non-empty inputs, so all of them live exactly as
    long as the rules they were made from.
    """

    __slots__ = (
        "arity", "constants", "unchecked", "rules", "strata", "heads", "inputs",
        "_steps", "_joins", "_gates",
    )

    def __init__(self, arity, constants, rules, strata):
        self.arity: dict[str, int] = arity
        self.constants: frozenset[Const] = constants
        self.unchecked = frozenset(c for c in constants if _const_fault(c) is not None)
        self.rules: tuple[_CompiledRule, ...] = rules
        self.strata: tuple[tuple[frozenset[str], tuple[int, ...]], ...] = strata
        self.heads = frozenset(rule.head_pred for rule in rules)
        self.inputs = frozenset(
            p for idb, numbers in strata for n in numbers for p in rules[n].positive_preds if p not in idb
        )
        self._steps: dict[_Key, Callable] = {}
        self._joins: dict[tuple[int, ...], dict[str, _Key]] = {}
        self._gates: dict[frozenset[str], tuple] = {}

    def gates(self, nonempty: frozenset[str]) -> tuple:
        """Over a store whose non-empty inputs are nonempty: the numbers of
        the rules that can fire, their joins, and each other rule's number
        with the empty inputs it joins."""
        gates = self._gates.get(nonempty)
        if gates is None:
            rules: list[int] = []
            gated: list[tuple[int, frozenset[str]]] = []
            for idb, numbers in self.strata:
                for n in numbers:
                    preds = self.rules[n].positive_preds
                    empty = frozenset(p for p in preds if p not in idb and p not in nonempty)
                    if empty:
                        gated.append((n, empty))
                    else:
                        rules.append(n)
            gates = self._gates[nonempty] = (tuple(rules), self.joins(tuple(rules)), tuple(gated))
        return gates

    def joins(self, numbers: tuple[int, ...]) -> dict[str, _Key]:
        """The key of each body predicate's delta joins among the numbered rules."""
        joins = self._joins.get(numbers)
        if joins is None:
            groups: dict[str, list[tuple[int, int]]] = {}
            for n in numbers:
                for k, pred in enumerate(self.rules[n].positive_preds):
                    groups.setdefault(pred, []).append((n, k))
            joins = self._joins[numbers] = {pred: tuple(key) for pred, key in groups.items()}
        return joins

    def bind(self, key: _Key, store: FactStore, out: dict[str, set]) -> Callable:
        """The step function of the joins key names, bound to store and out."""
        gen = self._steps.get(key)
        if gen is None:
            group = tuple((self.rules[n].variants[k], self.rules[n].head_pred) for n, k in key)
            gen = self._steps[key] = _gen_step(group)
        return gen(store, out)


def _eval_stratum_seminaive(
    store: FactStore, table: _Table, numbers: tuple[int, ...], idb: frozenset[str]
) -> None:
    # a relation this stratum does not derive is final; if it is empty, no
    # rule joining it can fire
    rules = table.rules
    numbers = tuple(
        n for n in numbers if all(p in idb or store.facts(p) for p in rules[n].positive_preds)
    )
    # the first round: each rule whose relations all hold facts, its first
    # relation whole as the delta, grouped by that relation
    first: dict[str | None, list[tuple[int, int]]] = {}
    for n in numbers:
        preds = rules[n].positive_preds
        if all(map(store.facts, preds)):
            first.setdefault(preds[0] if preds else None, []).append((n, 0))
    out: dict[str, set[tuple[Const, ...]]] = {}
    for pred, key in first.items():
        table.bind(tuple(key), store, out)(None if pred is None else store.facts(pred))
    _seminaive(store, table, table.joins(numbers), _store_round(store, out))


def _store_round(
    store: FactStore, out: dict[str, set[tuple[Const, ...]]]
) -> dict[str, set[tuple[Const, ...]]]:
    """Store a round's output, one add_all per head, and empty out's sets
    for the next round; the facts that were new."""
    delta = {}
    for pred, facts in out.items():
        if facts:
            fresh = store.add_all(pred, facts)
            facts.clear()
            if fresh:
                delta[pred] = fresh
    return delta


def _seminaive(
    store: FactStore,
    table: _Table,
    joins: dict[str, _Key],
    delta: dict[str, set[tuple[Const, ...]]],
    stop: Callable[[FactStore], bool] | None = None,
) -> None:
    """Semi-naive rounds until no delta is left, or until stop(store) holds.

    delta holds facts already stored whose consequences may not be.  A
    round runs the step of each predicate with a delta, all against the
    store as the last round left it, and then stores their output.  A
    predicate's step is bound to the store and the output sets on its
    first delta and serves every later round.  stop is called once before
    the first round and once after each.
    """
    out: dict[str, set[tuple[Const, ...]]] = {}
    steps: dict[str, Callable] = {}
    while delta and not (stop is not None and stop(store)):
        for pred, d in delta.items():
            step = steps.get(pred)
            if step is None:
                key = joins.get(pred)
                if key is None:
                    continue
                step = steps[pred] = table.bind(key, store, out)
            step(d)
        delta = _store_round(store, out)


def _unify(args: tuple[Term, ...], fact: tuple[Const, ...], subst: dict) -> dict | None:
    """subst extended to match args against fact, or None on a clash."""
    s = dict(subst)
    for t, v in zip(args, fact):
        if isinstance(t, Var):
            if s.setdefault(t, v) != v:
                return None
        elif isinstance(t, Minus):
            if t.var not in s:
                if not isinstance(v, int):
                    return None
                s[t.var] = v + t.amount
            elif not isinstance(s[t.var], int) or s[t.var] - t.amount != v:
                return None
        elif t != v:
            return None
    return s


def _value(t: Term, subst: dict) -> Const | None:
    """The constant t denotes under subst; None for a decrement of a symbol."""
    if isinstance(t, Var):
        return subst[t]
    if isinstance(t, Minus):
        v = subst[t.var]
        return v - t.amount if isinstance(v, int) else None
    return t


def _holds(item: Neg | Compare, subst: dict, store: FactStore) -> bool:
    if isinstance(item, Neg):
        args = tuple(_value(t, subst) for t in item.atom.args)
        # a failed decrement denotes no value, so the atom is absent
        return None in args or not store.contains(item.atom.pred, args)
    left, right = _value(item.left, subst), _value(item.right, subst)
    if left is None or right is None:
        return False
    if not isinstance(left, int) or not isinstance(right, int):
        raise DatalogError(f"comparison between non-integers: {left!r} {item.op} {right!r}")
    return left < right if item.op == "<" else left > right


def _joins(atoms: list[Atom], store: FactStore, subst: dict):
    """Every extension of subst matching the atoms, joined in the given order."""
    if not atoms:
        yield subst
        return
    for fact in store.facts(atoms[0].pred):
        s = _unify(atoms[0].args, fact, subst)
        if s is not None:
            yield from _joins(atoms[1:], store, s)


def _eval_stratum_naive(store: FactStore, rules: list[Rule]) -> None:
    # full re-derivation straight from the Rule objects: positive atoms join
    # in the written order by scanning whole relations, then every negated
    # atom and comparison is checked on the complete substitution.  It shares
    # no generated code (locals, index keys, constraint placement) with the
    # semi-naive path, so it can catch a fault in any of them.
    changed = True
    while changed:
        changed = False
        for rule in rules:
            atoms = [item for item in rule.body if isinstance(item, Atom)]
            constraints = [item for item in rule.body if not isinstance(item, Atom)]
            produced = {
                tuple(_value(t, s) for t in rule.head.args)
                for s in _joins(atoms, store, {})
                if all(_holds(c, s, store) for c in constraints)
            }
            for args in produced:
                if store.add(rule.head.pred, args):
                    changed = True


def grounding_bound(program: DatalogProgram) -> int:
    """Upper bound on derivable ground atoms: sum over predicates of
    |constants|^arity.  Constants are those in facts plus rule literals."""
    arity, constants = _symbols(program)
    return _bound(arity.values(), len(constants))


def _bound(arities: Iterable[int], constants: int) -> int:
    """The grounding bound of predicates of these arities over this many constants."""
    n = max(constants, 1)
    return sum(n**k for k in arities)


def _symbols(program: DatalogProgram) -> tuple[dict[str, int], set[Const]]:
    """The arity of every predicate and every constant the program names."""
    constants: set[Const] = set()
    arity: dict[str, int] = {}
    for f in program.facts:
        arity[f.pred] = len(f.args)
        constants.update(f.args)  # type: ignore[arg-type]

    def scan(atom: Atom) -> None:
        arity[atom.pred] = len(atom.args)
        for t in atom.args:
            if not isinstance(t, (Var, Minus)):
                constants.add(t)

    for rule in program.rules:
        scan(rule.head)
        for item in rule.body:
            if isinstance(item, Atom):
                scan(item)
            elif isinstance(item, Neg):
                scan(item.atom)
    return arity, constants


def _check_bound(store: FactStore, bound: int) -> None:
    if len(store) > bound:
        raise DatalogError(
            f"grounding bound exceeded: {len(store)} facts, bound {bound}; "
            "a rule is deriving constants from outside the program"
        )


# large enough to keep the two built-in rule tables (base and closure)
# resident beside a caller's own; every entry point, the rational closure
# included, evaluates the base table, so a process generates each of its
# step functions at most once
@functools.lru_cache(maxsize=16)
def _prepare(rules: tuple[Rule, ...]) -> _Table:
    """Validate, stratify and compile a rule table once per process.

    Returns, as a _Table, what evaluate needs of the table whatever the
    facts: the arity of each predicate, the rule literals (the rules' half
    of the grounding bound's constants) and, per stratum in evaluation
    order, the predicates it derives and its compiled rules.
    """
    program = DatalogProgram(rules=rules)
    validate_program(program)
    arity, constants = _symbols(program)
    compiled: list[_CompiledRule] = []
    strata = []
    for stratum in stratify(rules)[0]:
        idb = frozenset(r.head.pred for r in stratum)
        start = len(compiled)
        compiled += [
            _compile_rule(r, frozenset(a.pred for a in r.body if isinstance(a, Atom)) & idb)
            for r in stratum
        ]
        strata.append((idb, tuple(range(start, len(compiled)))))
    return _Table(arity, frozenset(constants), tuple(compiled), tuple(strata))


def _check_facts(
    facts: tuple[Atom, ...], arity: dict[str, int], constants: set[Const], unchecked: frozenset[Const]
) -> int:
    """Check each fact's arity against arity and the facts before it, and
    each argument as a constant, except a plain str or int already checked:
    one in constants but not in unchecked, or one seen before.  Return the
    grounding bound of arity and constants together with the facts'."""
    own: dict[str, int] = {}
    new: set[Const] = set()
    for f in facts:
        n = len(f.args)
        k = arity.get(f.pred)
        if k is None:
            k = own.setdefault(f.pred, n)
        if k != n:
            raise DatalogError(f"fact {f.pred}: predicate {f.pred!r} used with two arities")
        for t in f.args:
            # a bool or float equal to a known int is no constant
            if (t.__class__ is str or t.__class__ is int) and (
                t in new or (t in constants and t not in unchecked)
            ):
                continue
            _check_const(t, f"fact {f.pred}")
            if t not in constants:
                new.add(t)
    return _bound(itertools.chain(arity.values(), own.values()), len(constants) + len(new))


def evaluate(program: DatalogProgram) -> FactStore:
    """Saturate the program, stratum by stratum, with semi-naive iteration.

    The rule table is prepared once per process (_prepare); each call checks
    only the facts against it.
    """
    store = FactStore()
    try:
        table = _prepare(program.rules)
        bound = _check_facts(program.facts, table.arity, table.constants, table.unchecked)
    except DatalogError:
        # validate_program reports the first fault in program order, facts
        # before rules, which neither check above alone can
        validate_program(program)
        raise
    for f in program.facts:
        store.add(f.pred, f.args)  # type: ignore[arg-type]
    for idb, numbers in table.strata:
        _eval_stratum_seminaive(store, table, numbers, idb)
        _check_bound(store, bound)
    return store


class Saturation:
    """A program without negation, saturated once and then extended by more
    facts any number of times.

    Such a program is one stratum and monotone, so the least model of the
    program plus some facts is its own least model plus what semi-naive
    evaluation derives from those facts alone (insertion-only maintenance,
    Gupta, Mumick & Subrahmanian, SIGMOD 1993).  extend runs evaluate's
    loop over the same compiled rules, with the new facts as the first
    delta, so a rule's variant joins the delta of an input relation too.
    It runs on a copy of the store that owns only the relations it can
    write, those of the table's heads and of the new facts, and shares
    every other relation's set and buckets with the store.  A rule joining
    an input relation that is empty is dropped, as at the start of a
    stratum, unless the new facts fill it; the table keeps these gates per
    set of non-empty inputs.  The new facts are checked as evaluate checks
    the program's, each constant the program lacks included, and the
    grounding bound counts the program's constants and theirs.  Facts the
    store holds already derive nothing new, so extend by them alone returns
    store, which is never written.
    """

    __slots__ = ("program", "store", "_table", "_arity", "_constants", "_rules", "_gated", "_joins")

    def __init__(self, program: DatalogProgram, store: FactStore):
        """store is evaluate(program), which has validated the program."""
        if any(isinstance(item, Neg) for rule in program.rules for item in rule.body):
            raise DatalogError("only a program without negation can be extended")
        # the table is held here, so its step functions outlive its place in
        # _prepare's cache
        table = self._table = _prepare(program.rules)
        self.program = program
        self.store = store
        # the table's symbols, and those of the facts
        self._arity, self._constants = dict(table.arity), set(table.constants)
        for f in program.facts:
            self._arity.setdefault(f.pred, len(f.args))
            self._constants.update(f.args)  # type: ignore[arg-type]
        # the numbers of the rules that can fire here, their joins, and each
        # rule joining input relations that are empty here, with those
        nonempty = frozenset(p for p in table.inputs if store.facts(p))
        self._rules, self._joins, self._gated = table.gates(nonempty)

    def extend(
        self, facts: tuple[Atom, ...], stop: Callable[[FactStore], bool] | None = None
    ) -> FactStore:
        """The least model of the program plus facts: a new store, or store
        itself when it holds every fact already.  The result is read only.

        stop, a test of the store such as the presence of a goal fact, ends
        the extension early: it is called once the facts are stored and
        after each round, and once it holds, the store is returned as that
        round left it, a part of the least model on which stop holds.
        """
        delta: dict[str, set[tuple[Const, ...]]] = {}
        for f in facts:
            if not self.store.contains(f.pred, f.args):  # type: ignore[arg-type]
                delta.setdefault(f.pred, set()).add(f.args)  # type: ignore[arg-type]
        if not delta:
            return self.store
        table = self._table
        bound = _check_facts(facts, self._arity, self._constants, table.unchecked)
        store = self.store.copy(table.heads | delta.keys())
        for f in facts:
            store.add(f.pred, f.args)  # type: ignore[arg-type]
        opened = tuple(n for n, empty in self._gated if empty <= delta.keys())
        joins = table.joins(self._rules + opened) if opened else self._joins
        _seminaive(store, table, joins, delta, stop)
        _check_bound(store, bound)
        return store


def naive_evaluate(program: DatalogProgram) -> FactStore:
    """Reference evaluator: full re-application to fixpoint per stratum.

    It reads the rules directly and never compiles them, so it is an
    independent oracle for evaluate.
    """
    validate_program(program)
    bound = grounding_bound(program)
    store = FactStore()
    for f in program.facts:
        store.add(f.pred, f.args)  # type: ignore[arg-type]
    for rules in stratify(program.rules)[0]:
        _eval_stratum_naive(store, rules)
        _check_bound(store, bound)
    return store


# --- rule transformation ---


def transform_rules(
    rules: tuple[Rule, ...],
    targets: frozenset[str],
    extra: tuple[Term, ...],
    rename: dict[str, str] | None = None,
    guards: tuple[Atom, ...] = (),
    guard_mode: str = "auto",
) -> tuple[Rule, ...]:
    """Widen a family of predicates by extra trailing arguments.

    Every atom whose predicate is in targets gets the extra terms appended
    (and is renamed when rename says so).  guards are prepended to keep the
    new variables bound: always, or under "auto" only when no positive body
    atom was widened.
    """
    rename = rename or {}

    def widen(a: Atom) -> Atom:
        if a.pred not in targets:
            return a
        return Atom(rename.get(a.pred, a.pred), a.args + extra)

    out: list[Rule] = []
    for rule in rules:
        body: list[BodyItem] = []
        touched = False
        for item in rule.body:
            match item:
                case Atom():
                    w = widen(item)
                    touched = touched or w is not item
                    body.append(w)
                case Neg(atom):
                    body.append(Neg(widen(atom)))
                case _:
                    body.append(item)
        need_guards = guard_mode == "always" or (guard_mode == "auto" and not touched)
        if need_guards:
            body = list(guards) + body
        out.append(Rule(widen(rule.head), tuple(body)))
    return tuple(out)


# --- textual format ---


def term_text(t: Term) -> str:
    if isinstance(t, Var):
        return f"?{t.name}"
    if isinstance(t, Minus):
        return f"?{t.var.name} - {t.amount}"
    return str(t)


def atom_text(a: Atom) -> str:
    return f"{a.pred}({', '.join(term_text(t) for t in a.args)})"


def _item_text(item: BodyItem) -> str:
    match item:
        case Atom():
            return atom_text(item)
        case Neg(atom):
            return f"not {atom_text(atom)}"
        case Compare(op, left, right):
            return f"{term_text(left)} {op} {term_text(right)}"
    raise TypeError(f"not a body item: {item!r}")


def rule_text(r: Rule) -> str:
    return f"{atom_text(r.head)} :- {', '.join(_item_text(i) for i in r.body)}."


def dump_program(program: DatalogProgram) -> str:
    """Serialize facts then rules, one per line; load_program inverts this."""
    lines = [atom_text(f) + "." for f in program.facts]
    lines += [rule_text(r) for r in program.rules]
    return "\n".join(lines) + "\n"


class _ProgramParser(Cursor):
    TOKENS = token_pattern(punct=r":-|[(),.<>?-]", name=r"[\w$']+", number=r"\d+")
    KEYWORDS = {"not": "not"}

    def fail(self, tok, msg: str):
        raise DatalogError(f"line {tok[2]}:{tok[3]}: {msg}")

    def term(self) -> Term:
        t = self.next()
        if t[0] == "?":
            name = self.expect("ident")[1]
            if self.peek()[0] == "-":
                self.next()
                amount = int(self.expect("int")[1])
                if amount <= 0:
                    self.fail(t, "decrement amount must be positive")
                return Minus(Var(name), amount)
            return Var(name)
        if t[0] == "int":
            return int(t[1])
        if t[0] == "ident":
            return t[1]
        self.fail(t, f"expected a term, found {shown(t)!r}")

    def atom(self) -> Atom:
        pred = self.expect("ident")[1]
        self.expect("(")
        args: list[Term] = []
        if self.peek()[0] != ")":
            args.append(self.term())
            while self.peek()[0] == ",":
                self.next()
                args.append(self.term())
        self.expect(")")
        return Atom(pred, tuple(args))

    def body_item(self) -> BodyItem:
        t = self.peek()
        if t[0] == "not":
            self.next()
            return Neg(self.atom())
        if t[0] == "ident" and self.peek(1)[0] == "(":
            return self.atom()
        left = self.term()
        op = self.next()
        if op[0] not in ("<", ">"):
            self.fail(op, f"expected '<' or '>', found {shown(op)!r}")
        right = self.term()
        return Compare(op[0], left, right)

    def parse(self) -> DatalogProgram:
        facts: list[Atom] = []
        rules: list[Rule] = []
        while self.peek()[0] != "eof":
            head = self.atom()
            if self.peek()[0] == ":-":
                self.next()
                body = [self.body_item()]
                while self.peek()[0] == ",":
                    self.next()
                    body.append(self.body_item())
                self.expect(".")
                rules.append(Rule(head, tuple(body)))
            else:
                self.expect(".")
                for a in head.args:
                    if isinstance(a, (Var, Minus)):
                        raise DatalogError(f"fact {head.pred} contains a variable")
                facts.append(head)
        return DatalogProgram(tuple(facts), tuple(rules))


def load_program(text: str) -> DatalogProgram:
    """Parse the textual program format produced by dump_program."""
    return _ProgramParser(text).parse()


def load_rules(table: tuple[tuple[str, str], ...]) -> tuple[tuple[str, Rule], ...]:
    """Pair each label of a (label, text) rule table with the one rule its
    text holds."""
    out = []
    for label, text in table:
        program = load_program(text)
        if program.facts or len(program.rules) != 1:
            raise DatalogError(f"rule {label}: its text must hold one rule and no fact")
        out.append((label, program.rules[0]))
    return tuple(out)
