"""Generated knowledge bases with verdicts known by construction.

Two families feed the closure workload:

- chain: typel._families.chain_kb(n) rendered with print_kb.  It has no
  bottom class, so nothing is exceptional: every tracked concept has rank
  0 and the closure contains exactly what the strict spine implies.
- ladder(d, w): w branches of d nested rungs with alternating defaults.
  It adds what chain_kb lacks: several ranks, role chains, nominals and a
  concept product.

Every request renames all names with a request tag, so no two requests
share KB text and a cache keyed on the KB never hits.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from typel._families import chain_kb
from typel.parser import print_kb


class Generated(NamedTuple):
    family: str
    op: str
    text: str
    arg: object
    expected: object


def ladder_text(d: int, w: int, rng: random.Random) -> str:
    """A ladder KB of w branches with d rungs each.

    For branch b the rungs are L{b}_0 ⊒ … ⊒ L{b}_{d-1}.  Rung i carries the
    default T(L{b}_i) <= P{b}_{i mod 2}, and P{b}_0 and P{b}_1 conflict, so
    a typical L{b}_i would inherit both parities from the rung above it:
    rung i is exceptional at every stage below i, and rank(L{b}_i) = i.
    Seeded existential cross-edges between rungs, the chain r o r <= s,
    the product L0_0 x H <= u and T(H) <= some u.{a} add role chains,
    nominals and products without touching the ranks.
    """
    if d < 2 or w < 1:
        raise ValueError("a ladder needs at least two rungs and one branch")
    classes = ["H"]
    lines: list[str] = []
    for b in range(w):
        classes += [f"L{b}_{i}" for i in range(d)] + [f"P{b}_0", f"P{b}_1"]
        lines += [f"L{b}_{i} <= L{b}_{i - 1}." for i in range(1, d)]
        lines += [f"T(L{b}_{i}) <= P{b}_{i % 2}." for i in range(d)]
        lines.append(f"P{b}_0 and P{b}_1 <= bot.")
        lines.append(f"L{b}_0 <= some r.{{o{b}}}.")
    for _ in range(w):
        src = f"L{rng.randrange(w)}_{rng.randrange(d)}"
        dst = f"L{rng.randrange(w)}_{rng.randrange(d)}"
        lines.append(f"{src} <= some r.{dst}.")
    lines += ["r o r <= s.", "L0_0 x H <= u.", "T(H) <= some u.{a}."]
    decls = [f"class {c}." for c in classes] + ["role r.", "role s.", "role u."]
    decls += ["individual a."] + [f"individual o{b}." for b in range(w)]
    return "\n".join(decls + lines) + "\n"


def ladder_ranks(d: int, w: int) -> tuple[tuple[str, str], ...]:
    rows = [("H", "0"), ("top", "0")]
    rows += [(f"L{b}_{i}", str(i)) for b in range(w) for i in range(d)]
    return tuple(sorted(rows))


def chain_ranks(n: int) -> tuple[tuple[str, str], ...]:
    # chain_kb puts a default on every fifth W class
    rows = [(f"W{i}", "0") for i in range(0, n // 2, 5)] + [("top", "0")]
    return tuple(sorted(rows))


_NAME = re.compile(r"\b([A-Za-z][A-Za-z0-9_]*)\b")
_KEEP = frozenset({"class", "role", "individual", "top", "bot", "and", "some", "self", "T", "x", "o"})


def tagged(text: str, tag: str) -> str:
    """Append tag to every declared name in text; keywords stay."""
    return _NAME.sub(lambda m: m.group(1) if m.group(1) in _KEEP else m.group(1) + tag, text)


def closure_round(rng: random.Random, round_no: int) -> list[Generated]:
    """One round of closure requests, each on a freshly named KB.

    Each KB kind is asked for its ranks, one closure membership and the
    closure's consistency; two bounded model searches on a small ladder
    cover the model layer.  The seed picks the cross-edges, the rung and
    parity each membership query asks about, and the request order.
    """
    plan: list[tuple[str, str, str, object, object]] = []
    # chain_kb(20) sits in the middle of the cost order, and twice, so the
    # median request of a round falls inside one cluster of similar costs
    for n in (12, 20, 20):
        text = print_kb(chain_kb(n))
        # W0 <= S0 <= ... <= S_last strictly and T(W0) <= G by default; no
        # axiom makes typical S0 members G
        query, verdict = rng.choice(
            (("T(W0) <= G", "in-closure"), (f"T(W0) <= S{n // 2 - 1}", "in-closure"),
             ("T(S0) <= G", "not-in-closure"))
        )
        plan += [
            (f"chain{n}", "rc_ranks", text, (), chain_ranks(n)),
            (f"chain{n}", "rc_check", text, query, verdict),
            (f"chain{n}", "rc_consistent", text, None, "consistent"),
        ]
    for d, w in ((2, 1), (3, 1), (2, 2)):
        b, i, parity = rng.randrange(w), rng.randrange(d), rng.randrange(2)
        verdict = "in-closure" if parity == i % 2 else "not-in-closure"
        family = f"ladder{d}x{w}"
        plan += [
            (family, "rc_ranks", ladder_text(d, w, rng), (), ladder_ranks(d, w)),
            (family, "rc_check", ladder_text(d, w, rng), f"T(L{b}_{i}) <= P{b}_{parity}", verdict),
            # a model placing rung i of every branch at rank i realizes
            # the ranks
            (family, "rc_consistent", ladder_text(d, w, rng), None, "consistent"),
        ]
    # a typical L0_1 is P0_1, so T(L0_1) <= P0_1 has no counter-model, and
    # being P0_1 it cannot be P0_0
    for parity, verdict in ((0, "counter-model"), (1, "none-found")):
        plan.append(("ladder2x1", "refute", ladder_text(2, 1, rng), f"T(L0_1) <= P0_{parity}", verdict))
    out: list[Generated] = []
    for k, (family, op, text, arg, expected) in enumerate(plan):
        tag = f"_{round_no}x{k}"
        if isinstance(arg, str):
            arg = tagged(arg, tag)
        if op == "rc_ranks":
            expected = tuple(sorted((tagged(c, tag), r) for c, r in expected))
        out.append(Generated(family, op, tagged(text, tag), arg, expected))
    rng.shuffle(out)
    return out
