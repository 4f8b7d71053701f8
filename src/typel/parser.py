"""Surface syntax for knowledge bases (.kbt files) and queries.

Statement forms, each ended by a period:

    class A.                      role r.                 individual a.
    C <= D.                       r <= s.                 r o s <= t.
    r & s <= t.                   C x D <= r.             r <= C x D.
    C(a).                         r(a, b).

Concepts:  top | bot | A | {a} | self(r) | T(C) | C and D | some r.C
"and" binds tighter than "<=" and associates left; the filler of "some"
is a single atom, so conjunctive fillers need parens: some r.(C and D).
Names must be declared before use.  The tokens, names and "%" comments
among them, are those of the .kbt grammar in _scan.

A query is one assertion or concept inclusion of this grammar, C(a),
T(C)(a), r(a, b), C <= D or T(C) <= D, with an optional period; a role
axiom is not a query.  A concept may be MAX_NESTING levels deep: each
"some", parenthesis, "T(" and "and" is one level.
"""

from __future__ import annotations

from ._scan import Cursor, shown, token_pattern
from .kb import (
    BOT,
    MAX_NESTING,
    TOP,
    ABoxAxiom,
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
    RoleChain,
    RoleConj,
    RoleHolds,
    RoleIncl,
    RoleToProduct,
    SelfRestriction,
    Signature,
    Subsumes,
    TypSubsumes,
    Typicality,
    TypicalInstanceOf,
    compute_simple_roles,
    concept_text,
    query_axiom,
)

KEYWORDS = frozenset({"class", "role", "individual", "top", "bot", "and", "some", "self", "T", "x", "o"})


class ParseError(ValueError):
    pass


def tokenize(text: str, filename: str = "<input>") -> list[tuple]:
    """The (kind, text, line, col) tokens of a .kbt text, eof last."""
    return _Parser(text, filename).toks


class _Parser(Cursor):
    TOKENS = token_pattern(punct=r"<=|[(){}.,&]", name=r"\w+")
    KEYWORDS = dict.fromkeys(KEYWORDS, "keyword")

    def __init__(self, text: str, filename: str):
        self.filename = filename
        super().__init__(text)
        self.concepts: set[str] = set()
        self.roles: set[str] = set()
        self.individuals: set[str] = set()
        self.depth = 0
        self.height = 0

    def fail(self, tok: tuple, msg: str):
        raise ParseError(f"{self.filename}:{tok[2]}:{tok[3]}: {msg}")

    # a token whose text is a keyword is that keyword: KEYWORDS gives every
    # such name the kind "keyword"

    def expect_keyword(self, word: str) -> tuple:
        t = self.next()
        if t[1] != word:
            self.fail(t, f"expected {word!r}, found {shown(t)!r}")
        return t

    def ident(self, what: str) -> tuple:
        t = self.next()
        if t[0] != "ident":
            self.fail(t, f"expected {what}, found {shown(t)!r}")
        return t

    def declared(self, names: set[str], what: str) -> str:
        """The next token, which must name a declared `what` (in names)."""
        t = self.ident(f"{what} name")
        if t[1] not in names:
            self.fail(t, f"undeclared {what} {t[1]!r}")
        return t[1]

    def too_deep(self, tok: tuple):
        self.fail(tok, f"concept nested deeper than {MAX_NESTING} levels")

    def nested(self, opener: tuple, parse):
        """parse() one nesting level below the construct opened at opener."""
        if self.depth == MAX_NESTING:
            self.too_deep(opener)
        self.depth += 1
        c = parse()
        self.depth -= 1
        self.height += 1
        return c

    # concept grammar; each parse method leaves in self.height the levels
    # below the concept it returns, and depth + height never exceeds
    # MAX_NESTING

    def concept(self) -> ConceptExpr:
        c = self.concept_atom_or_some()
        height = self.height
        while self.peek()[1] == "and":
            t = self.next()
            right = self.concept_atom_or_some()
            # the conjunction so far becomes the left part, one level down
            height = 1 + max(height, self.height)
            if self.depth + height > MAX_NESTING:
                self.too_deep(t)
            c = Conj(c, right)
        self.height = height
        return c

    def concept_atom_or_some(self) -> ConceptExpr:
        t = self.peek()
        if t[1] == "some":
            self.next()
            role = self.declared(self.roles, "role")
            self.expect(".")
            return Exists(role, self.nested(t, self.concept_atom_or_some))
        return self.concept_atom()

    def concept_atom(self) -> ConceptExpr:
        self.height = 0
        t = self.next()
        kind, text = t[0], t[1]
        if kind == "keyword":
            if text == "top":
                return TOP
            if text == "bot":
                return BOT
            if text == "self":
                self.expect("(")
                role = self.declared(self.roles, "role")
                self.expect(")")
                return SelfRestriction(role)
            if text == "T":
                self.expect("(")
                arg = self.nested(t, self.concept)
                self.expect(")")
                try:
                    return Typicality(arg)
                except ValueError as e:
                    self.fail(t, str(e))
            self.fail(t, f"unexpected keyword {text!r} in concept")
        if kind == "ident":
            if text in self.roles:
                self.fail(t, f"{text!r} is a role, not a concept")
            if text in self.individuals:
                self.fail(t, f"{text!r} is an individual; write {{{text}}} for its nominal")
            if text not in self.concepts:
                self.fail(t, f"undeclared concept name {text!r}")
            return Name(text)
        if kind == "{":
            ind = self.declared(self.individuals, "individual")
            self.expect("}")
            return Nominal(ind)
        if kind == "(":
            c = self.nested(t, self.concept)
            self.expect(")")
            return c
        self.fail(t, f"expected a concept, found {shown(t)!r}")

    # statements, each without its closing period

    def statement(self):
        """A declaration, which returns None, or an axiom."""
        t = self.peek()
        if t[1] in ("class", "role", "individual"):
            self.next()
            name = self.ident(f"{t[1]} name")
            if name[1] in self.concepts | self.roles | self.individuals:
                self.fail(name, f"{name[1]!r} is already declared")
            {"class": self.concepts, "role": self.roles, "individual": self.individuals}[t[1]].add(name[1])
            return None
        return self.axiom()

    def axiom(self) -> GCI | RBoxAxiom | ABoxAxiom:
        t = self.peek()
        if t[0] == "ident" and t[1] in self.roles:
            return self.role_axiom()
        lhs = self.concept()
        nxt = self.next()
        if nxt[1] == "x":
            right = self.concept()
            self.expect("<=")
            return ProductToRole(lhs, right, self.declared(self.roles, "role"))
        if nxt[0] == "<=":
            return GCI(lhs, self.concept())
        if nxt[0] == "(":
            ind = self.declared(self.individuals, "individual")
            self.expect(")")
            return ConceptAssertion(lhs, ind)
        self.fail(nxt, f"expected 'x', '<=' or '(' after concept, found {shown(nxt)!r}")

    def role_axiom(self) -> RBoxAxiom | RoleAssertion:
        first = self.ident("role name")[1]
        nxt = self.next()
        if nxt[0] == "(":
            subject = self.declared(self.individuals, "individual")
            self.expect(",")
            target = self.declared(self.individuals, "individual")
            self.expect(")")
            return RoleAssertion(first, subject, target)
        if nxt[1] in ("o", "&"):
            second = self.declared(self.roles, "role")
            self.expect("<=")
            sup = self.declared(self.roles, "role")
            return (RoleChain if nxt[1] == "o" else RoleConj)(first, second, sup)
        if nxt[0] == "<=":
            # no concept starts with a role name
            after = self.peek()
            if after[0] == "ident" and after[1] in self.roles:
                return RoleIncl(first, self.next()[1])
            left = self.concept()
            self.expect_keyword("x")
            return RoleToProduct(first, left, self.concept())
        self.fail(nxt, f"expected '(', 'o', '&' or '<=' after role, found {shown(nxt)!r}")


def parse_kb(text: str, filename: str = "<input>") -> KnowledgeBase:
    """Parse a .kbt document into a knowledge base.

    Declarations may appear anywhere but every name must be declared before
    use.  Raises ParseError with a file:line:col prefix on malformed input.
    """
    p = _Parser(text, filename)
    tbox: list[GCI] = []
    rbox: list[RBoxAxiom] = []
    abox: list[ABoxAxiom] = []
    while p.peek()[0] != "eof":
        ax = p.statement()
        p.expect(".")
        match ax:
            case None:
                pass
            case GCI():
                tbox.append(ax)
            case ConceptAssertion() | RoleAssertion():
                abox.append(ax)
            case _:
                rbox.append(ax)
    sig = Signature(
        concept_names=frozenset(p.concepts),
        role_names=frozenset(p.roles),
        individual_names=frozenset(p.individuals),
        simple_roles=compute_simple_roles(frozenset(p.roles), tuple(rbox)),
    )
    return KnowledgeBase(sig, tuple(tbox), tuple(rbox), tuple(abox))


def _parse_one(text: str, kb: KnowledgeBase, filename: str, what: str, parse):
    """parse() one `what` against kb's signature; then an optional period
    and the end of the input."""
    p = _Parser(text, filename)
    p.concepts = set(kb.signature.concept_names)
    p.roles = set(kb.signature.role_names)
    p.individuals = set(kb.signature.individual_names)
    out = parse(p)
    if p.peek()[0] == ".":
        p.next()
    if p.peek()[0] != "eof":
        p.fail(p.peek(), f"trailing input after {what}: {p.peek()[1]!r}")
    return out


def parse_concept(text: str, kb: KnowledgeBase, filename: str = "<concept>") -> ConceptExpr:
    """Parse a single concept expression against a KB's signature."""
    return _parse_one(text, kb, filename, "concept", _Parser.concept)


def _query(p: _Parser) -> Query:
    start = p.peek()
    match p.axiom():
        case ConceptAssertion(Typicality(arg), individual):
            return TypicalInstanceOf(arg, individual)
        case ConceptAssertion(concept, individual):
            return InstanceOf(concept, individual)
        case RoleAssertion(role, subject, target):
            return RoleHolds(role, subject, target)
        case GCI(Typicality(arg), rhs):
            return TypSubsumes(arg, rhs)
        case GCI(lhs, rhs):
            return Subsumes(lhs, rhs)
    p.fail(start, "a role axiom is not a query; ask C(a), T(C)(a), r(a, b), C <= D or T(C) <= D")


def parse_query(text: str, kb: KnowledgeBase, filename: str = "<query>") -> Query:
    """Parse a query against an existing KB's signature.

    A query is one assertion or concept inclusion in .kbt syntax, read as
    the question whether the KB entails it: C(a), T(C)(a), r(a, b), C <= D
    or T(C) <= D.  The period is optional.  query_axiom inverts this.
    """
    return _parse_one(text, kb, filename, "query", _query)


def axiom_text(ax) -> str:
    """Render one axiom in .kbt syntax, without the closing period."""
    match ax:
        case GCI(lhs, rhs):
            return f"{concept_text(lhs)} <= {concept_text(rhs)}"
        case RoleIncl(sub, sup):
            return f"{sub} <= {sup}"
        case RoleChain(first, second, sup):
            return f"{first} o {second} <= {sup}"
        case RoleConj(first, second, sup):
            return f"{first} & {second} <= {sup}"
        case ProductToRole(left, right, sup):
            return f"{concept_text(left)} x {concept_text(right)} <= {sup}"
        case RoleToProduct(sub, left, right):
            return f"{sub} <= {concept_text(left)} x {concept_text(right)}"
        case ConceptAssertion(concept, individual):
            c = concept_text(concept)
            if not isinstance(concept, (Name, Typicality)):
                c = f"({c})"
            return f"{c}({individual})"
        case RoleAssertion(role, subject, target):
            return f"{role}({subject}, {target})"
    raise TypeError(f"not an axiom: {ax!r}")


def print_kb(kb: KnowledgeBase) -> str:
    """Render a KB as a .kbt document; parse_kb inverts this exactly."""
    lines: list[str] = []
    for n in sorted(kb.signature.concept_names):
        lines.append(f"class {n}.")
    for n in sorted(kb.signature.role_names):
        lines.append(f"role {n}.")
    for n in sorted(kb.signature.individual_names):
        lines.append(f"individual {n}.")
    for ax in (*kb.tbox, *kb.rbox, *kb.abox):
        lines.append(f"{axiom_text(ax)}.")
    return "\n".join(lines) + "\n"


def query_text(q: Query) -> str:
    """Render a query as the axiom it asks about; parse_query reads it back."""
    return axiom_text(query_axiom(q))
