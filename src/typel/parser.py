"""Surface syntax for knowledge bases (.kbt files) and queries.

Statement forms, each ended by a period:

    class A.                      role r.                 individual a.
    C <= D.                       r <= s.                 r o s <= t.
    r & s <= t.                   C x D <= r.             r <= C x D.
    C(a).                         r(a, b).

Concepts:  top | bot | A | {a} | self(r) | T(C) | C and D | some r.C
"and" binds tighter than "<=" and associates left; the filler of "some"
is a single atom, so conjunctive fillers need parens: some r.(C and D).
Names must be declared before use.  "%" starts a line comment.

A query is one assertion or concept inclusion of this grammar, C(a),
T(C)(a), r(a, b), C <= D or T(C) <= D, with an optional period; a role
axiom is not a query.  A concept may be MAX_NESTING levels deep: each
"some", parenthesis, "T(" and "and" is one level.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_PUNCT = {"<=", "(", ")", "{", "}", ".", ",", "&"}


class ParseError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident", "keyword", or the punct text itself
    text: str
    line: int
    col: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("<=", i):
            toks.append(Token("<=", "<=", line, col))
            i += 2
            col += 2
            continue
        if ch in "(){}.,&":
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"{filename}:{line}:{col}: unexpected character {ch!r}")
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[Token], filename: str):
        self.toks = toks
        self.pos = 0
        self.filename = filename
        self.concepts: set[str] = set()
        self.roles: set[str] = set()
        self.individuals: set[str] = set()
        self.depth = 0
        self.height = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, tok: Token, msg: str):
        raise ParseError(f"{self.filename}:{tok.line}:{tok.col}: {msg}")

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            shown = t.text if t.kind != "eof" else "end of input"
            self.fail(t, f"expected {kind!r}, found {shown!r}")
        return t

    def expect_keyword(self, word: str) -> Token:
        t = self.next()
        if t.kind != "keyword" or t.text != word:
            self.fail(t, f"expected {word!r}, found {t.text!r}")
        return t

    def ident(self, what: str) -> Token:
        t = self.next()
        if t.kind != "ident":
            shown = t.text if t.kind != "eof" else "end of input"
            self.fail(t, f"expected {what}, found {shown!r}")
        return t

    def declared(self, names: set[str], what: str) -> str:
        """The next token, which must name a declared `what` (in names)."""
        t = self.ident(f"{what} name")
        if t.text not in names:
            self.fail(t, f"undeclared {what} {t.text!r}")
        return t.text

    def too_deep(self, tok: Token):
        self.fail(tok, f"concept nested deeper than {MAX_NESTING} levels")

    def nested(self, opener: Token, parse):
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
        while self.peek().kind == "keyword" and self.peek().text == "and":
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
        if t.kind == "keyword" and t.text == "some":
            self.next()
            role = self.declared(self.roles, "role")
            self.expect(".")
            return Exists(role, self.nested(t, self.concept_atom_or_some))
        return self.concept_atom()

    def concept_atom(self) -> ConceptExpr:
        self.height = 0
        t = self.next()
        if t.kind == "keyword":
            if t.text == "top":
                return TOP
            if t.text == "bot":
                return BOT
            if t.text == "self":
                self.expect("(")
                role = self.declared(self.roles, "role")
                self.expect(")")
                return SelfRestriction(role)
            if t.text == "T":
                self.expect("(")
                arg = self.nested(t, self.concept)
                self.expect(")")
                try:
                    return Typicality(arg)
                except ValueError as e:
                    self.fail(t, str(e))
            self.fail(t, f"unexpected keyword {t.text!r} in concept")
        if t.kind == "ident":
            if t.text in self.roles:
                self.fail(t, f"{t.text!r} is a role, not a concept")
            if t.text in self.individuals:
                self.fail(t, f"{t.text!r} is an individual; write {{{t.text}}} for its nominal")
            if t.text not in self.concepts:
                self.fail(t, f"undeclared concept name {t.text!r}")
            return Name(t.text)
        if t.kind == "{":
            ind = self.declared(self.individuals, "individual")
            self.expect("}")
            return Nominal(ind)
        if t.kind == "(":
            c = self.nested(t, self.concept)
            self.expect(")")
            return c
        shown = t.text if t.kind != "eof" else "end of input"
        self.fail(t, f"expected a concept, found {shown!r}")

    # statements, each without its closing period

    def statement(self):
        """A declaration, which returns None, or an axiom."""
        t = self.peek()
        if t.kind == "keyword" and t.text in ("class", "role", "individual"):
            self.next()
            name = self.ident(f"{t.text} name")
            if name.text in self.concepts | self.roles | self.individuals:
                self.fail(name, f"{name.text!r} is already declared")
            {"class": self.concepts, "role": self.roles, "individual": self.individuals}[t.text].add(name.text)
            return None
        return self.axiom()

    def axiom(self) -> GCI | RBoxAxiom | ABoxAxiom:
        t = self.peek()
        if t.kind == "ident" and t.text in self.roles:
            return self.role_axiom()
        lhs = self.concept()
        nxt = self.next()
        if nxt.kind == "keyword" and nxt.text == "x":
            right = self.concept()
            self.expect("<=")
            return ProductToRole(lhs, right, self.declared(self.roles, "role"))
        if nxt.kind == "<=":
            return GCI(lhs, self.concept())
        if nxt.kind == "(":
            ind = self.declared(self.individuals, "individual")
            self.expect(")")
            return ConceptAssertion(lhs, ind)
        shown = nxt.text if nxt.kind != "eof" else "end of input"
        self.fail(nxt, f"expected 'x', '<=' or '(' after concept, found {shown!r}")

    def role_axiom(self) -> RBoxAxiom | RoleAssertion:
        first = self.ident("role name").text
        nxt = self.next()
        if nxt.kind == "(":
            subject = self.declared(self.individuals, "individual")
            self.expect(",")
            target = self.declared(self.individuals, "individual")
            self.expect(")")
            return RoleAssertion(first, subject, target)
        if nxt.text in ("o", "&"):
            second = self.declared(self.roles, "role")
            self.expect("<=")
            sup = self.declared(self.roles, "role")
            return (RoleChain if nxt.text == "o" else RoleConj)(first, second, sup)
        if nxt.kind == "<=":
            # no concept starts with a role name
            after = self.peek()
            if after.kind == "ident" and after.text in self.roles:
                return RoleIncl(first, self.next().text)
            left = self.concept()
            self.expect_keyword("x")
            return RoleToProduct(first, left, self.concept())
        shown = nxt.text if nxt.kind != "eof" else "end of input"
        self.fail(nxt, f"expected '(', 'o', '&' or '<=' after role, found {shown!r}")


def parse_kb(text: str, filename: str = "<input>") -> KnowledgeBase:
    """Parse a .kbt document into a knowledge base.

    Declarations may appear anywhere but every name must be declared before
    use.  Raises ParseError with a file:line:col prefix on malformed input.
    """
    p = _Parser(tokenize(text, filename), filename)
    tbox: list[GCI] = []
    rbox: list[RBoxAxiom] = []
    abox: list[ABoxAxiom] = []
    while p.peek().kind != "eof":
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
    p = _Parser(tokenize(text, filename), filename)
    p.concepts = set(kb.signature.concept_names)
    p.roles = set(kb.signature.role_names)
    p.individuals = set(kb.signature.individual_names)
    out = parse(p)
    if p.peek().kind == ".":
        p.next()
    if p.peek().kind != "eof":
        p.fail(p.peek(), f"trailing input after {what}: {p.peek().text!r}")
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
