"""The conflict-driven search as it stood before its decisions moved to a
heap of bumped variables and its watch lists were compacted in place:
the reference that tests/test_model.py holds typel.model._search to.
The body of _search is kept verbatim; only _DECAY, the one module
constant it reads, is copied with it."""

from __future__ import annotations

import heapq

from typel.model import BoundOverflow, _State

# the activity increment grows by this factor per conflict, so recent
# conflicts outweigh old ones
_DECAY = 1 / 0.95


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
