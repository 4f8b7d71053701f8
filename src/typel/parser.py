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
"""

from __future__ import annotations

from dataclasses import dataclass

from .kb import (
    BOT,
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
)

KEYWORDS = frozenset({"class", "role", "individual", "top", "bot", "and", "some", "self", "T", "x", "o"})

_PUNCT = {"<=", "(", ")", "{", "}", ".", ",", "&"}

# how many some-fillers, parentheses and T(...) a concept may sit inside;
# the parser and the passes after it recurse once or more per level
MAX_NESTING = 100


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

    def nested(self, opener: Token, parse):
        """parse() one nesting level below the construct opened at opener."""
        if self.depth == MAX_NESTING:
            self.fail(opener, f"concept nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        c = parse()
        self.depth -= 1
        return c

    # concept grammar

    def concept(self) -> ConceptExpr:
        c = self.concept_atom_or_some()
        while self.peek().kind == "keyword" and self.peek().text == "and":
            self.next()
            c = Conj(c, self.concept_atom_or_some())
        return c

    def concept_atom_or_some(self) -> ConceptExpr:
        t = self.peek()
        if t.kind == "keyword" and t.text == "some":
            self.next()
            role = self.ident("role name")
            if role.text not in self.roles:
                self.fail(role, f"undeclared role {role.text!r}")
            self.expect(".")
            return Exists(role.text, self.nested(t, self.concept_atom_or_some))
        return self.concept_atom()

    def concept_atom(self) -> ConceptExpr:
        t = self.next()
        if t.kind == "keyword":
            if t.text == "top":
                return TOP
            if t.text == "bot":
                return BOT
            if t.text == "self":
                self.expect("(")
                role = self.ident("role name")
                if role.text not in self.roles:
                    self.fail(role, f"undeclared role {role.text!r}")
                self.expect(")")
                return SelfRestriction(role.text)
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
            ind = self.ident("individual name")
            if ind.text not in self.individuals:
                self.fail(ind, f"undeclared individual {ind.text!r}")
            self.expect("}")
            return Nominal(ind.text)
        if t.kind == "(":
            c = self.nested(t, self.concept)
            self.expect(")")
            return c
        shown = t.text if t.kind != "eof" else "end of input"
        self.fail(t, f"expected a concept, found {shown!r}")

    # statements

    def statement(self, tbox: list[GCI], rbox: list[RBoxAxiom], abox: list[ABoxAxiom]) -> None:
        t = self.peek()
        if t.kind == "keyword" and t.text in ("class", "role", "individual"):
            self.next()
            name = self.ident(f"{t.text} name")
            if name.text in self.concepts | self.roles | self.individuals:
                self.fail(name, f"{name.text!r} is already declared")
            self.expect(".")
            {"class": self.concepts, "role": self.roles, "individual": self.individuals}[t.text].add(name.text)
            return
        if t.kind == "ident" and t.text in self.roles:
            self.role_statement(rbox, abox)
            return
        lhs = self.concept()
        nxt = self.next()
        if nxt.kind == "keyword" and nxt.text == "x":
            right = self.concept()
            self.expect("<=")
            sup = self.ident("role name")
            if sup.text not in self.roles:
                self.fail(sup, f"undeclared role {sup.text!r}")
            self.expect(".")
            rbox.append(ProductToRole(lhs, right, sup.text))
            return
        if nxt.kind == "<=":
            rhs = self.concept()
            self.expect(".")
            tbox.append(GCI(lhs, rhs))
            return
        if nxt.kind == "(":
            ind = self.ident("individual name")
            if ind.text not in self.individuals:
                self.fail(ind, f"undeclared individual {ind.text!r}")
            self.expect(")")
            self.expect(".")
            abox.append(ConceptAssertion(lhs, ind.text))
            return
        shown = nxt.text if nxt.kind != "eof" else "end of input"
        self.fail(nxt, f"expected 'x', '<=' or '(' after concept, found {shown!r}")

    def role_statement(self, rbox: list[RBoxAxiom], abox: list[ABoxAxiom]) -> None:
        first = self.ident("role name")
        nxt = self.next()
        if nxt.kind == "(":
            subject = self.ident("individual name")
            if subject.text not in self.individuals:
                self.fail(subject, f"undeclared individual {subject.text!r}")
            self.expect(",")
            target = self.ident("individual name")
            if target.text not in self.individuals:
                self.fail(target, f"undeclared individual {target.text!r}")
            self.expect(")")
            self.expect(".")
            abox.append(RoleAssertion(first.text, subject.text, target.text))
            return
        if nxt.kind == "keyword" and nxt.text == "o":
            second = self.ident("role name")
            if second.text not in self.roles:
                self.fail(second, f"undeclared role {second.text!r}")
            self.expect("<=")
            sup = self.ident("role name")
            if sup.text not in self.roles:
                self.fail(sup, f"undeclared role {sup.text!r}")
            self.expect(".")
            rbox.append(RoleChain(first.text, second.text, sup.text))
            return
        if nxt.kind == "&":
            second = self.ident("role name")
            if second.text not in self.roles:
                self.fail(second, f"undeclared role {second.text!r}")
            self.expect("<=")
            sup = self.ident("role name")
            if sup.text not in self.roles:
                self.fail(sup, f"undeclared role {sup.text!r}")
            self.expect(".")
            rbox.append(RoleConj(first.text, second.text, sup.text))
            return
        if nxt.kind == "<=":
            after = self.peek()
            if after.kind == "ident" and after.text in self.roles and self.peek(1).kind == ".":
                sup = self.next()
                self.expect(".")
                rbox.append(RoleIncl(first.text, sup.text))
                return
            left = self.concept()
            self.expect_keyword("x")
            right = self.concept()
            self.expect(".")
            rbox.append(RoleToProduct(first.text, left, right))
            return
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
        p.statement(tbox, rbox, abox)
    sig = Signature(
        concept_names=frozenset(p.concepts),
        role_names=frozenset(p.roles),
        individual_names=frozenset(p.individuals),
        simple_roles=compute_simple_roles(frozenset(p.roles), tuple(rbox)),
    )
    return KnowledgeBase(sig, tuple(tbox), tuple(rbox), tuple(abox))


def parse_concept(text: str, kb: KnowledgeBase, filename: str = "<concept>") -> ConceptExpr:
    """Parse a single concept expression against a KB's signature."""
    p = _Parser(tokenize(text, filename), filename)
    p.concepts = set(kb.signature.concept_names)
    p.roles = set(kb.signature.role_names)
    p.individuals = set(kb.signature.individual_names)
    c = p.concept()
    if p.peek().kind == ".":
        p.next()
    if p.peek().kind != "eof":
        p.fail(p.peek(), f"trailing input after concept: {p.peek().text!r}")
    return c


def parse_query(text: str, kb: KnowledgeBase, filename: str = "<query>") -> Query:
    """Parse a query against an existing KB's signature.

    Forms:  C(a)   r(a, b)   C <= D   T(C)(a)   T(C) <= D
    A trailing period is optional.
    """
    p = _Parser(tokenize(text, filename), filename)
    p.concepts = set(kb.signature.concept_names)
    p.roles = set(kb.signature.role_names)
    p.individuals = set(kb.signature.individual_names)
    t = p.peek()
    if t.kind == "ident" and t.text in p.roles:
        role = p.ident("role name")
        p.expect("(")
        subject = p.ident("individual name")
        if subject.text not in p.individuals:
            p.fail(subject, f"undeclared individual {subject.text!r}")
        p.expect(",")
        target = p.ident("individual name")
        if target.text not in p.individuals:
            p.fail(target, f"undeclared individual {target.text!r}")
        p.expect(")")
        query: Query = RoleHolds(role.text, subject.text, target.text)
    else:
        lhs = p.concept()
        nxt = p.next()
        if nxt.kind == "<=":
            rhs = p.concept()
            if isinstance(lhs, Typicality):
                query = TypSubsumes(lhs.arg, rhs)
            else:
                query = Subsumes(lhs, rhs)
        elif nxt.kind == "(":
            ind = p.ident("individual name")
            if ind.text not in p.individuals:
                p.fail(ind, f"undeclared individual {ind.text!r}")
            p.expect(")")
            if isinstance(lhs, Typicality):
                query = TypicalInstanceOf(lhs.arg, ind.text)
            else:
                query = InstanceOf(lhs, ind.text)
        else:
            shown = nxt.text if nxt.kind != "eof" else "end of input"
            p.fail(nxt, f"expected '<=' or '(' in query, found {shown!r}")
    if p.peek().kind == ".":
        p.next()
    if p.peek().kind != "eof":
        p.fail(p.peek(), f"trailing input after query: {p.peek().text!r}")
    return query


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
    match q:
        case InstanceOf(concept, individual):
            c = concept_text(concept)
            if not isinstance(concept, Name):
                c = f"({c})"
            return f"{c}({individual})"
        case TypicalInstanceOf(concept, individual):
            return f"T({concept_text(concept)})({individual})"
        case RoleHolds(role, subject, target):
            return f"{role}({subject}, {target})"
        case Subsumes(lhs, rhs):
            return f"{concept_text(lhs)} <= {concept_text(rhs)}"
        case TypSubsumes(lhs, rhs):
            return f"T({concept_text(lhs)}) <= {concept_text(rhs)}"
    raise TypeError(f"not a query: {q!r}")
