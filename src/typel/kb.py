"""Knowledge-base model: concepts, axioms, queries, validation.

The logic is a low-complexity description logic with conjunction, existential
restriction, nominals, local reflexivity (Self), role chains, role
conjunction, concept products, and a non-nestable typicality operator T.
T(C) denotes the most normal members of C under a ranked interpretation.

Concepts, axioms, queries, signatures and KBs are immutable records
(typel.record): equal when of one class with equal fields, hashable,
printable as Name(name='A') and usable in class patterns.  Sharing them
across threads is safe.
"""

from __future__ import annotations

from collections.abc import Iterator

from .record import Record, record


class ConceptExpr(Record):
    """Base class for concept expressions."""

    __slots__ = ()


@record
class Top(ConceptExpr):
    pass


@record
class Bot(ConceptExpr):
    pass


@record
class Name(ConceptExpr):
    name: str


@record
class Nominal(ConceptExpr):
    individual: str


@record
class Conj(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@record
class Exists(ConceptExpr):
    role: str
    filler: ConceptExpr


@record
class SelfRestriction(ConceptExpr):
    role: str


@record
class Typicality(ConceptExpr):
    """T(arg): the minimal-rank members of arg.  Nesting is rejected."""

    arg: ConceptExpr

    def __post_init__(self):
        if contains_typicality(self.arg):
            raise ValueError("nested typicality: T may not occur inside T(...)")


TOP = Top()
BOT = Bot()

# how many levels of some-fillers, parentheses, T(...) and conjunctions a
# concept may have: the parser bounds the text, and validate a KB built in
# code.  The parser recurses up to four frames per level and the passes
# after it about one, so a concept at the bound needs about 415 of
# Python's default 1,000 frames
MAX_NESTING = 100


def subconcepts(c: ConceptExpr) -> Iterator[ConceptExpr]:
    """c and every concept inside it, in pre-order: a concept before its
    parts, a conjunction's left part before its right."""
    stack = [c]
    while stack:
        c = stack.pop()
        yield c
        match c:
            case Conj(left, right):
                stack.append(right)
                stack.append(left)
            case Exists(_, part) | Typicality(part):
                stack.append(part)


def concept_height(c: ConceptExpr) -> int:
    """Levels of `and`, `some` and T(...) in c, counted as the parser counts
    them: each of these is one level above its tallest part."""
    height = 0
    stack = [(c, 0)]
    while stack:
        c, depth = stack.pop()
        match c:
            case Conj(left, right):
                stack.append((left, depth + 1))
                stack.append((right, depth + 1))
            case Exists(_, part) | Typicality(part):
                stack.append((part, depth + 1))
            case _:
                height = max(height, depth)
    return height


def contains_typicality(c: ConceptExpr) -> bool:
    return any(isinstance(part, Typicality) for part in subconcepts(c))


def conjuncts(c: ConceptExpr) -> list[ConceptExpr]:
    """Flatten a conjunction tree into its leaf conjuncts, left to right."""
    if isinstance(c, Conj):
        return conjuncts(c.left) + conjuncts(c.right)
    return [c]


def conj_of(parts: list[ConceptExpr]) -> ConceptExpr:
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = Conj(out, p)
    return out


def concept_text(c: ConceptExpr) -> str:
    """Render a concept in surface syntax (the parser reads this back)."""
    match c:
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Name(name):
            return name
        case Nominal(individual):
            return "{%s}" % individual
        case Conj(left, right):
            lt = concept_text(left)
            rt = concept_text(right)
            # right-nested conjunction needs parens to keep the tree shape
            if isinstance(right, Conj):
                rt = "(%s)" % rt
            return f"{lt} and {rt}"
        case Exists(role, filler):
            ft = concept_text(filler)
            if isinstance(filler, Conj):
                ft = "(%s)" % ft
            return f"some {role}.{ft}"
        case SelfRestriction(role):
            return f"self({role})"
        case Typicality(arg):
            return f"T({concept_text(arg)})"
    raise TypeError(f"not a concept: {c!r}")


# --- axioms ---


@record
class GCI(Record):
    lhs: ConceptExpr
    rhs: ConceptExpr


@record
class RoleIncl(Record):
    sub: str
    sup: str


@record
class RoleChain(Record):
    first: str
    second: str
    sup: str


@record
class RoleConj(Record):
    first: str
    second: str
    sup: str


@record
class ProductToRole(Record):
    """left x right <= sup: every left-instance is sup-related to every right-instance."""

    left: ConceptExpr
    right: ConceptExpr
    sup: str


@record
class RoleToProduct(Record):
    """sub <= left x right: sub only relates left-instances to right-instances."""

    sub: str
    left: ConceptExpr
    right: ConceptExpr


RBoxAxiom = RoleIncl | RoleChain | RoleConj | ProductToRole | RoleToProduct


@record
class ConceptAssertion(Record):
    concept: ConceptExpr
    individual: str


@record
class RoleAssertion(Record):
    role: str
    subject: str
    target: str


ABoxAxiom = ConceptAssertion | RoleAssertion


@record
class Signature(Record):
    concept_names: frozenset[str]
    role_names: frozenset[str]
    individual_names: frozenset[str]
    simple_roles: frozenset[str] = frozenset()


@record
class KnowledgeBase(Record):
    signature: Signature
    tbox: tuple[GCI, ...] = ()
    rbox: tuple[RBoxAxiom, ...] = ()
    abox: tuple[ABoxAxiom, ...] = ()
    # a KB keys the cache of prepared KBs, and hashing its fields would
    # rehash every axiom on each lookup.  The hash is taken on first use, not
    # on construction: hashing recurses through each concept, so a KB built
    # too tall for it must still reach validate.  String hashes differ
    # between processes, and a pickle carries only the four fields.
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash", hash(self._values))
        return self._hash


# --- queries ---


@record
class InstanceOf(Record):
    concept: ConceptExpr
    individual: str


@record
class TypicalInstanceOf(Record):
    """Is the individual a typical instance of the (T-free) concept?"""

    concept: ConceptExpr
    individual: str

    def __post_init__(self):
        if contains_typicality(self.concept):
            raise ValueError("nested typicality in typical-instance query")


@record
class RoleHolds(Record):
    role: str
    subject: str
    target: str


@record
class Subsumes(Record):
    lhs: ConceptExpr
    rhs: ConceptExpr


@record
class TypSubsumes(Record):
    """T(lhs) <= rhs with lhs T-free."""

    lhs: ConceptExpr
    rhs: ConceptExpr

    def __post_init__(self):
        if contains_typicality(self.lhs):
            raise ValueError("nested typicality in typicality subsumption")


Query = InstanceOf | TypicalInstanceOf | RoleHolds | Subsumes | TypSubsumes


def query_axiom(q: Query) -> GCI | ABoxAxiom:
    """The assertion or concept inclusion that q asks about."""
    match q:
        case InstanceOf(concept, individual):
            return ConceptAssertion(concept, individual)
        case TypicalInstanceOf(concept, individual):
            return ConceptAssertion(Typicality(concept), individual)
        case RoleHolds(role, subject, target):
            return RoleAssertion(role, subject, target)
        case Subsumes(lhs, rhs):
            return GCI(lhs, rhs)
        case TypSubsumes(lhs, rhs):
            return GCI(Typicality(lhs), rhs)
    raise TypeError(f"not a query: {q!r}")


# --- validation ---


@record
class Violation(Record):
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def compute_simple_roles(sig_roles: frozenset[str], rbox: tuple[RBoxAxiom, ...]) -> frozenset[str]:
    """Roles into which no role chain flows, directly or via role inclusions."""
    non_simple = {ax.sup for ax in rbox if isinstance(ax, RoleChain)}
    incl = [(ax.sub, ax.sup) for ax in rbox if isinstance(ax, RoleIncl)]
    changed = True
    while changed:
        changed = False
        for sub, sup in incl:
            if sub in non_simple and sup not in non_simple:
                non_simple.add(sup)
                changed = True
    return frozenset(sig_roles - non_simple)


def validate(kb: KnowledgeBase) -> list[Violation]:
    """Check declaredness, sort disjointness, box placement, simple-role
    usage and concept height (at most MAX_NESTING).

    Returns an empty list for a well-formed KB.
    """
    sig = kb.signature
    out: list[Violation] = []
    for a, b, what in (
        (sig.concept_names, sig.role_names, "concept/role"),
        (sig.concept_names, sig.individual_names, "concept/individual"),
        (sig.role_names, sig.individual_names, "role/individual"),
    ):
        for n in sorted(a & b):
            out.append(Violation("signature", f"name {n!r} declared as both {what}"))
    for n in sorted(sig.simple_roles - sig.role_names):
        out.append(Violation("signature", f"simple role {n!r} is not a declared role"))

    actual_simple = compute_simple_roles(sig.role_names, kb.rbox)
    for n in sorted(sig.simple_roles - actual_simple):
        out.append(Violation("signature", f"role {n!r} flagged simple but a role chain flows into it"))

    rbox_kinds = (RoleIncl, RoleChain, RoleConj, ProductToRole, RoleToProduct)
    for box, name, kinds, what in (
        (kb.tbox, "tbox", GCI, "not a concept inclusion"),
        (kb.rbox, "rbox", rbox_kinds, "not a role axiom"),
        (kb.abox, "abox", (ConceptAssertion, RoleAssertion), "not an assertion"),
    ):
        for i, ax in enumerate(box):
            where = f"{name}[{i}]"
            if isinstance(ax, kinds):
                out += _axiom_violations(ax, where, sig, actual_simple)
            else:
                out.append(Violation(where, f"{what}: {ax!r}"))
    return out


def validate_query(kb: KnowledgeBase, q: Query) -> list[Violation]:
    """Check the axiom q asks about as validate checks kb's axioms: every
    name declared in kb, self() over simple roles only and concept height.

    Returns an empty list for a query well-formed over kb.
    """
    sig = kb.signature
    simple = compute_simple_roles(sig.role_names, kb.rbox)
    return _axiom_violations(query_axiom(q), "query", sig, simple)


def _axiom_violations(ax, where: str, sig: Signature, simple: frozenset[str]) -> list[Violation]:
    """What is wrong with one axiom over sig, whose simple roles are simple."""
    out: list[Violation] = []

    def check_concept(c: ConceptExpr) -> None:
        parts = list(subconcepts(c))
        # a concept is shorter than its count of parts
        if len(parts) > MAX_NESTING and concept_height(c) > MAX_NESTING:
            out.append(Violation(where, f"concept nested deeper than {MAX_NESTING} levels"))
        concepts = {p.name for p in parts if isinstance(p, Name)}
        roles = {p.role for p in parts if isinstance(p, (Exists, SelfRestriction))}
        individuals = {p.individual for p in parts if isinstance(p, Nominal)}
        self_roles = {p.role for p in parts if isinstance(p, SelfRestriction)}
        for n in sorted(concepts - sig.concept_names):
            out.append(Violation(where, f"undeclared concept name {n!r}"))
        for n in sorted(roles - sig.role_names):
            out.append(Violation(where, f"undeclared role name {n!r}"))
        for n in sorted(individuals - sig.individual_names):
            out.append(Violation(where, f"undeclared individual {n!r}"))
        for n in sorted(self_roles - simple):
            out.append(Violation(where, f"self() requires a simple role, {n!r} is not"))

    def check_role(r: str) -> None:
        if r not in sig.role_names:
            out.append(Violation(where, f"undeclared role name {r!r}"))

    def check_ind(i: str) -> None:
        if i not in sig.individual_names:
            out.append(Violation(where, f"undeclared individual {i!r}"))

    match ax:
        case GCI(lhs, rhs):
            check_concept(lhs)
            check_concept(rhs)
        case RoleIncl(sub, sup):
            check_role(sub)
            check_role(sup)
        case RoleChain(first, second, sup):
            for r in (first, second, sup):
                check_role(r)
        case RoleConj(first, second, sup):
            for r in (first, second, sup):
                check_role(r)
            for r in (first, second):
                if r in sig.role_names and r not in simple:
                    out.append(Violation(where, f"role conjunction requires simple roles, {r!r} is not"))
        case ProductToRole(left, right, sup):
            check_concept(left)
            check_concept(right)
            check_role(sup)
        case RoleToProduct(sub, left, right):
            check_role(sub)
            check_concept(left)
            check_concept(right)
        case ConceptAssertion(concept, individual):
            check_concept(concept)
            check_ind(individual)
        case RoleAssertion(role, subject, target):
            check_role(role)
            check_ind(subject)
            check_ind(target)
    return out


def _t_only_inside_lhs(ax: GCI) -> bool:
    return not contains_typicality(ax.rhs)


def is_simple(kb: KnowledgeBase) -> bool:
    """A KB is simple when T occurs only inside left-hand sides of TBox inclusions.

    No typicality in the RBox or ABox, none on any right-hand side.  Simple
    KBs are the ones the rational-closure construction accepts.
    """
    return first_non_simple_axiom(kb) is None


def first_non_simple_axiom(kb: KnowledgeBase):
    """The first axiom that breaks simplicity, or None."""
    for ax in kb.rbox:
        match ax:
            case ProductToRole(left, right, _) | RoleToProduct(_, left, right):
                if contains_typicality(left) or contains_typicality(right):
                    return ax
    for ax in kb.abox:
        if isinstance(ax, ConceptAssertion) and contains_typicality(ax.concept):
            return ax
    for ax in kb.tbox:
        if not _t_only_inside_lhs(ax):
            return ax
    return None
