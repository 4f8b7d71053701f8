"""The scanner and token cursor that both of typel's text formats share.

The .kbt knowledge base (parser) and the Datalog program text (datalog)
have one lexical shape.  Spaces, tabs and carriage returns separate
tokens, a newline ends a line, and "%" starts a comment that runs to the
end of its line.  A name starts with a letter or "_" and goes on with
letters, digits and "_"; Datalog names may also hold "$" and "'",
anywhere.  Beyond names, the two token grammars are

    .kbt:     punctuation  <=  (  )  {  }  .  ,  &
              a name in parser.KEYWORDS is a keyword
    Datalog:  punctuation  :-  (  )  ,  .  <  >  -  ?
              integers, runs of decimal digits; the name "not" is a keyword

A token is a plain tuple (kind, text, line, col), with 1-based line and
column.  Its kind is "ident" for a name, the kind its format gives a
keyword, "int" for an integer, and the text itself for punctuation.  The
last token is ("eof", "", line, col); after a trailing comment with no
newline, col is the comment's own column.
"""

from __future__ import annotations

import re


def token_pattern(punct: str, name: str, number: str = "(?!)") -> re.Pattern:
    """The scanner's pattern for a format whose punctuation, names and
    integers match these regular expressions; by default, as "(?!)" never
    matches, the format has no integers."""
    return re.compile(
        rf"([ \t\r]*)(?:((?:%[^\n]*)?\n)|((?:%[^\n]*)?\Z)|({punct})|({number})|({name})|(.))"
    )


def scan(text: str, pattern: re.Pattern, keywords: dict[str, str], fail) -> list[tuple]:
    """The tokens of text, the eof token last.  keywords maps a name to its
    token kind; fail(tok, msg) raises the caller's located error, which a
    character no token takes gets."""
    toks = []
    line, line_start, pos = 1, 0, 0
    for space, newline, _, punct, number, name, bad in pattern.findall(text):
        pos += len(space)
        col = pos - line_start + 1
        if punct:
            toks.append((punct, punct, line, col))
            pos += len(punct)
        elif name:
            # \w also takes numerals such as "²" and "½", which may go on a
            # name but not start it
            if not (name[0].isalpha() or name[0] in "_$'"):
                fail(("bad", name[0], line, col), f"unexpected character {name[0]!r}")
            toks.append((keywords.get(name, "ident"), name, line, col))
            pos += len(name)
        elif number:
            toks.append(("int", number, line, col))
            pos += len(number)
        elif newline:
            line += 1
            pos += len(newline)
            line_start = pos
        elif bad:
            fail(("bad", bad, line, col), f"unexpected character {bad!r}")
        else:
            # the end of the text, after at most a comment
            toks.append(("eof", "", line, col))
            return toks


def shown(tok: tuple) -> str:
    """A token's text in an error message."""
    return tok[1] or "end of input"


class Cursor:
    """A parser's position in the tokens of its text; next never moves past
    eof.  A subclass sets TOKENS and KEYWORDS, which scan reads, and defines
    fail(tok, msg), which raises its format's located error."""

    TOKENS: re.Pattern
    KEYWORDS: dict[str, str]

    def __init__(self, text: str):
        self.toks = scan(text, self.TOKENS, self.KEYWORDS, self.fail)
        self.pos = 0

    def fail(self, tok: tuple, msg: str):
        raise NotImplementedError

    def peek(self, ahead: int = 0) -> tuple:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> tuple:
        t = self.next()
        if t[0] != kind:
            self.fail(t, f"expected {kind!r}, found {shown(t)!r}")
        return t
