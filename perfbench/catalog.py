"""Hand-written expected verdicts for the fixture knowledge bases.

Every verdict below is taken from the README quick start and the
acceptance criteria 1, 4, 5 and 6, or follows from the fixture text by a
one-step argument given next to it.  None of them is computed by typel.

An entry is (fixture, op, argument, expected):

- op is one of the entry points in OPS;
- argument is the query text, or for rc_ranks a tuple of extra concepts;
- expected is the verdict string the CLI prints with --format records,
  or for rc_ranks the sorted (concept, rank) rows.
"""

from __future__ import annotations

from typing import NamedTuple

OPS = ("check", "consistent", "subsumes", "refute", "rc_ranks", "rc_check", "rc_consistent")

# CLI subcommand per entry point
CLI_COMMAND = {op: op.replace("_", "-") for op in OPS}


class Entry(NamedTuple):
    fixture: str
    op: str
    arg: object
    expected: object


AF_RANKS = (("Italian", "0"), ("Student", "0"), ("Student and Nerd", "1"), ("top", "0"))

CATALOG: tuple[Entry, ...] = (
    # criterion 1 and the README quick start
    Entry("example1", "check", "MathHater(paul)", "entailed"),
    Entry("example1", "check", "(some hasHair.{Black})(luigi)", "not-entailed"),
    Entry("example1", "check", "Young(mario)", "entailed"),
    Entry("example1", "check", "T(Student)(mario)", "entailed"),
    Entry("example1", "check", "MathHater(luigi)", "entailed"),
    Entry("example1", "check", "MathLover(tom)", "entailed"),
    # asserted in the ABox
    Entry("example1", "check", "friendOf(mario, mary)", "entailed"),
    # no axiom concludes Italian or Nerd, so a model without them exists
    Entry("example1", "check", "Italian(mary)", "not-entailed"),
    Entry("example1", "check", "Nerd(paul)", "not-entailed"),
    # every fixture has a model: nothing is asserted into a bottom class
    # (rc_inconsistent is classically consistent; criterion 5 is about its
    # closure)
    Entry("example1", "consistent", None, "consistent"),
    Entry("example1-af", "consistent", None, "consistent"),
    Entry("example4", "consistent", None, "consistent"),
    Entry("rc_still_consistent", "consistent", None, "consistent"),
    Entry("rc_inconsistent", "consistent", None, "consistent"),
    # criterion 1; the other two are axioms of example1
    Entry("example1", "subsumes", "T(Young and Italian) <= some hasHair.{Black}", "not-entailed"),
    Entry("example1", "subsumes", "T(Student and Nerd) <= MathLover", "entailed"),
    # D <= A and D <= B are axioms; an element of A alone is a model of
    # example4 that falsifies A <= B
    Entry("example4", "subsumes", "D <= A", "entailed"),
    Entry("example4", "subsumes", "D <= B", "entailed"),
    Entry("example4", "subsumes", "A <= B", "not-entailed"),
    # the README shows both counter-models; entailed queries have none
    Entry("example1", "refute", "(some hasHair.{Black})(luigi)", "counter-model"),
    Entry("example1", "refute", "T(Young and Italian) <= some hasHair.{Black}", "counter-model"),
    Entry("example1", "refute", "MathHater(paul)", "none-found"),
    Entry("example1", "refute", "Young(mario)", "none-found"),
    Entry("example4", "refute", "A <= B", "counter-model"),
    # README rc-ranks output and criterion 6
    Entry("example1-af", "rc_ranks", (), AF_RANKS),
    Entry("example4", "rc_ranks", ("D",), (("A", "0"), ("B", "0"), ("D", "1"), ("top", "0"))),
    # README rc-check and library examples, criterion 4; typical nerdy
    # students are math lovers, and math lovers are not math haters
    Entry("example1-af", "rc_check", "T(Young and Italian) <= some hasHair.{Black}", "in-closure"),
    Entry("example1-af", "rc_check", "T(Student and Italian) <= Young", "in-closure"),
    Entry("example1-af", "rc_check", "T(Student and Nerd) <= MathHater", "not-in-closure"),
    # criteria 4 and 5
    Entry("example1-af", "rc_consistent", None, "consistent"),
    Entry("rc_inconsistent", "rc_consistent", None, "inconsistent"),
)

# the CLI workload runs one process per entry; its share of the expensive
# closure commands is kept small so one round stays a few seconds long
CLI_CATALOG: tuple[Entry, ...] = (
    Entry("example1", "check", "MathHater(paul)", "entailed"),
    Entry("example1", "check", "(some hasHair.{Black})(luigi)", "not-entailed"),
    Entry("example1", "check", "Young(mario)", "entailed"),
    Entry("example1", "consistent", None, "consistent"),
    Entry("example4", "consistent", None, "consistent"),
    Entry("example4", "subsumes", "D <= A", "entailed"),
    Entry("example1", "refute", "T(Young and Italian) <= some hasHair.{Black}", "counter-model"),
    Entry("example1", "refute", "MathHater(paul)", "none-found"),
    Entry("example1-af", "rc_ranks", (), AF_RANKS),
    Entry("example1-af", "rc_check", "T(Young and Italian) <= some hasHair.{Black}", "in-closure"),
    Entry("example1-af", "rc_consistent", None, "consistent"),
)
