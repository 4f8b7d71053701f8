"""Command line behavior: verdicts, exit codes, output formats."""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import test_parser
import typel.cli
import typel.materialize
from typel.cli import main
from typel.datalog import Saturation, evaluate, load_program
from typel.materialize import query_program, store_inconsistent
from typel.parser import MAX_NESTING, parse_concept, parse_query, print_kb, query_text
from typel.rc import closure_program
from conftest import fixture_path, load_fixture
from test_rc import read_assignment

EX1 = str(fixture_path("example1.kbt"))
EX1_AF = str(fixture_path("example1-af.kbt"))
EX4 = str(fixture_path("example4.kbt"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_entailed(capsys):
    code, out, _ = run(capsys, "check", EX1, "Young(mario)")
    assert code == 0
    assert out.strip() == "entailed"


def test_check_not_entailed(capsys):
    code, out, _ = run(capsys, "check", EX1, "(some hasHair.{Black})(luigi)")
    assert code == 1
    assert out.strip() == "not-entailed"


def test_check_records_format(capsys):
    code, out, _ = run(capsys, "check", EX1, "T(Student)(mario)", "--format", "records")
    assert code == 0
    record = json.loads(out)
    assert record == {"mode": "check", "query": "T(Student)(mario)", "verdict": "entailed"}


def test_check_rejects_inclusions(capsys):
    code, _, err = run(capsys, "check", EX1, "Student <= Young")
    assert code == 2
    assert "subsumes" in err


def test_subsumes(capsys):
    code, out, _ = run(capsys, "subsumes", EX1, "some friendOf.{mary} <= Young")
    assert code == 0
    code, out, _ = run(capsys, "subsumes", EX1, "T(Young and Italian) <= some hasHair.{Black}")
    assert code == 1


def test_consistent(capsys):
    code, out, _ = run(capsys, "consistent", EX1)
    assert (code, out.strip()) == (0, "consistent")


def test_normalize_output_reparses(capsys, tmp_path):
    code, out, _ = run(capsys, "normalize", EX1)
    assert code == 0
    from typel.parser import parse_kb

    parse_kb(out)  # well-formed .kbt text


def test_translate_dump_round_trips(capsys, tmp_path):
    dump_file = tmp_path / "program.dl"
    code, out, _ = run(capsys, "translate", EX1, "--dump-program", str(dump_file))
    assert code == 0
    program = load_program(out)
    assert len(program.rules) == 42
    assert dump_file.read_text() == out


@pytest.mark.parametrize(
    "command, fixture, arg",
    [
        ("check", "example1.kbt", "MathHater(paul)"),
        ("check", "example1.kbt", "T(Student)(mario)"),
        ("check", "example1.kbt", "Nerd(paul)"),
        ("subsumes", "example1.kbt", "T(Student and Nerd) <= MathLover"),
        ("subsumes", "example4.kbt", "A <= B"),
        ("consistent", "example4.kbt", None),
        ("rc-ranks", "example4.kbt", "D"),
        ("rc-check", "example1-af.kbt", "T(Young and Italian) <= some hasHair.{Black}"),
        ("rc-check", "example1-af.kbt", "T(Student and Nerd) <= MathHater"),
        ("rc-consistent", "example1-af.kbt", None),
        ("rc-consistent", "rc_inconsistent.kbt", None),
    ],
)
def test_dump_program_is_the_evaluated_program(
    capsys, tmp_path, monkeypatch, command, fixture, arg
):
    evaluated, extended = [], []

    def recording_evaluate(program):
        store = evaluate(program)
        evaluated.append((program, store))
        return store

    def recording_extend(self, facts, stop=None):
        store = real_extend(self, facts, stop)
        extended.append(store)
        return store

    real_extend = Saturation.extend
    monkeypatch.setattr(typel.materialize, "evaluate", recording_evaluate)
    monkeypatch.setattr(Saturation, "extend", recording_extend)
    # a prepared KB from an earlier test would hide its evaluations
    typel.materialize._prepared.cache_clear()
    dump_file = tmp_path / "program.dl"
    extra = () if arg is None else ("--concept", arg) if command == "rc-ranks" else (arg,)
    kb_path = str(fixture_path(fixture))
    code, out, _ = run(capsys, command, kb_path, *extra, "--dump-program", str(dump_file))
    assert code in (0, 1)
    dumped = load_program(dump_file.read_text())
    store = evaluate(dumped)
    kb = load_fixture(fixture)
    if command.startswith("rc-"):
        # the dump is the closure table over the question, which the
        # prepared closure answers like: its least model gives the printed
        # verdict or ranks
        concepts = (parse_concept(arg, kb),) if command == "rc-ranks" else ()
        query = parse_query(arg, kb) if command == "rc-check" else None
        program, nkb, goal = closure_program(kb, query, concepts)
        assert dumped == program
    elif arg is None:
        # the KB's own saturation holds the least model of the dumped
        # program fact for fact
        assert not extended
        assert store_facts(evaluated[-1][1]) == store_facts(store)
        goal = None
    else:
        # a query's extension stops at the end of the round that stores its
        # goal or a bottom fact: a part of the dumped program's least model,
        # all of it when the goal is not entailed
        (answered,) = extended
        _, goal = query_program(kb, parse_query(arg, kb))
        assert all(answered.facts(pred) <= store.facts(pred) for pred in answered.preds())
        if store.contains(goal.pred, goal.args):
            assert answered.contains(goal.pred, goal.args) or store_inconsistent(answered)
        else:
            assert store_facts(answered) == store_facts(store)
    if command == "rc-ranks":
        rows = read_assignment(store, nkb).rows()
        verdict = "\n".join(f"{name} {rank}" for name, rank in rows)
    elif goal is None:
        verdict = "inconsistent" if store_inconsistent(store) else "consistent"
    elif store.contains(goal.pred, goal.args):
        verdict = "in-closure" if command == "rc-check" else "entailed"
    else:
        verdict = "not-in-closure" if command == "rc-check" else "not-entailed"
    assert out.strip() == verdict


def store_facts(store):
    return {pred: store.facts(pred) for pred in store.preds() if store.facts(pred)}


def test_rc_ranks_rows(capsys):
    code, out, _ = run(capsys, "rc-ranks", EX1_AF)
    assert code == 0
    lines = out.strip().splitlines()
    assert "Student 0" in lines
    assert "Student and Nerd 1" in lines


def test_rc_ranks_query_concept(capsys):
    code, out, _ = run(capsys, "rc-ranks", EX4, "--concept", "D")
    assert code == 0
    assert "D 1" in out.strip().splitlines()


def test_rc_ranks_rejects_a_concept_with_t(capsys):
    code, out, err = run(capsys, "rc-ranks", EX1_AF, "--concept", "T(Student)")
    assert (code, out) == (2, "")
    assert err == "error: cannot rank T(Student): a ranked concept may not contain T\n"


def test_rc_ranks_records(capsys):
    code, out, _ = run(capsys, "rc-ranks", EX1_AF, "--format", "records")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {"mode": "rc-ranks", "query": "Student", "verdict": "0"} in rows


def test_rc_ranks_prints_top_once(capsys, tmp_path):
    # T(top) ranks top under an alias that displays as top as well
    path = tmp_path / "kb.kbt"
    path.write_text("class A. class B. T(top) <= B. T(A) <= B.\n")
    for extra in ((), ("--concept", "top")):
        code, out, _ = run(capsys, "rc-ranks", str(path), *extra)
        assert (code, out) == (0, "A 0\ntop 0\n")
        code, out, _ = run(capsys, "rc-ranks", str(path), "--format", "records", *extra)
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"mode": "rc-ranks", "query": "A", "verdict": "0"},
            {"mode": "rc-ranks", "query": "top", "verdict": "0"},
        ]


def test_rc_check(capsys):
    code, out, _ = run(
        capsys, "rc-check", EX1_AF, "T(Young and Italian) <= some hasHair.{Black}"
    )
    assert (code, out.strip()) == (0, "in-closure")
    code, out, _ = run(capsys, "rc-check", EX1_AF, "T(Student and Nerd) <= MathHater")
    assert (code, out.strip()) == (1, "not-in-closure")


def test_rc_consistent(capsys):
    code, out, _ = run(capsys, "rc-consistent", EX1_AF)
    assert (code, out.strip()) == (0, "consistent")
    code, out, _ = run(capsys, "rc-consistent", str(fixture_path("rc_inconsistent.kbt")))
    assert (code, out.strip()) == (1, "inconsistent")


def test_rc_commands_reject_non_simple_kb(capsys):
    code, _, err = run(capsys, "rc-ranks", EX1)
    assert code == 2
    assert "not a simple KB" in err


@pytest.mark.parametrize(
    "argv",
    [("rc-ranks", EX1), ("rc-check", EX1, "T(Student) <= Young"), ("rc-consistent", EX1)],
)
def test_dump_program_waits_for_the_gate(capsys, tmp_path, argv):
    dump_file = tmp_path / "program.dl"
    code, _, err = run(capsys, *argv, "--dump-program", str(dump_file))
    assert code == 2
    assert "not a simple KB" in err
    assert not dump_file.exists()


def test_refute_none_found(capsys):
    code, out, _ = run(capsys, "refute", EX1, "Young(mario)")
    assert (code, out.strip()) == (0, "none-found")


def test_refute_trivially_true_subsumption_is_none_found(capsys):
    code, out, _ = run(capsys, "refute", EX1_AF, "MathHater <= MathHater")
    assert (code, out.strip()) == (0, "none-found")


def test_refute_prints_counter_model(capsys):
    code, out, _ = run(capsys, "refute", EX1, "(some hasHair.{Black})(luigi)")
    assert code == 1
    assert out.startswith("counter-model:")
    assert "luigi" in out


@pytest.mark.parametrize(
    "bound", [("--max-domain", "0"), ("--max-domain", "-3"), ("--max-rank", "-1")]
)
def test_refute_bounds_that_admit_no_model_are_usage_errors(capsys, bound):
    # the query has a counter-model at the default bounds, so none-found
    # here would be a verdict the search never looked for
    code, out, err = run(capsys, "refute", EX1, "(some hasHair.{Black})(luigi)", *bound)
    assert (code, out) == (2, "")
    assert err.startswith("error: no model within max_domain")


def test_refute_records(capsys):
    code, out, _ = run(
        capsys, "refute", EX1, "(some hasHair.{Black})(luigi)", "--format", "records"
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "counter-model"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "no-such-file.kbt", "A(a)")
    assert code == 2
    assert "error:" in err


def test_parse_error_has_location(capsys, tmp_path):
    bad = tmp_path / "bad.kbt"
    bad.write_text("class A.\nA <= some.\n")
    code, _, err = run(capsys, "check", str(bad), "A(a)")
    assert code == 2
    assert f"{bad}:2:" in err


def test_crash_is_internal_error_not_a_verdict(capsys, monkeypatch):
    def crash(kb, query):
        raise RuntimeError("boom")

    monkeypatch.setattr("typel.cli.check_instance", crash)
    code, out, err = run(capsys, "check", EX1, "Young(mario)", "--format", "records")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError('boom')")
    assert len(err.strip().splitlines()) == 1


def _nested_kb(tmp_path, concept: str):
    path = tmp_path / "deep.kbt"
    path.write_text(f"class A. role r. individual a.\nA(a).\nA <= {concept}.\n")
    return str(path)


def test_nesting_at_the_limit_gets_a_verdict(capsys, tmp_path):
    deep = _nested_kb(tmp_path, "some r." * MAX_NESTING + "A")
    code, out, _ = run(capsys, "check", deep, "(some r.top)(a)")
    assert (code, out.strip()) == (0, "entailed")
    # each "and" is one level, and so are the query's parentheses
    wide = _nested_kb(tmp_path, " and ".join(["A"] * (MAX_NESTING + 1)))
    query = "(%s)(a)" % " and ".join(["A"] * MAX_NESTING)
    for command, verdict in (("check", "entailed"), ("refute", "none-found")):
        code, out, _ = run(capsys, command, wide, query)
        assert (code, out.strip()) == (0, verdict)


@pytest.mark.parametrize(
    "concept, in_query",
    [
        ("some r." * (MAX_NESTING + 1) + "A", False),
        ("some r.(" * 2000 + "A" + ")" * 2000, False),
        (" and ".join(["A"] * 990), False),
        (" and ".join(["A"] * 5000), False),
        (" and ".join(["A"] * 990), True),
        (" and ".join(["A"] * 5000), True),
    ],
    ids=["limit+1", "2000-deep", "990-conjuncts", "5000-conjuncts", "990-conjuncts-query", "5000-conjuncts-query"],
)
def test_nesting_past_the_limit_is_a_located_error(capsys, tmp_path, concept, in_query):
    if in_query:
        kb = _nested_kb(tmp_path, "A")
        query, where = f"({concept})(a)", "<query>:1"
    else:
        kb = _nested_kb(tmp_path, concept)
        query, where = "A(a)", f"{kb}:3"
    for command in ("check", "refute"):
        code, out, err = run(capsys, command, kb, query)
        assert code == 2
        assert out == ""
        assert re.fullmatch(rf"error: {re.escape(where)}:\d+: .*nested deeper than {MAX_NESTING} levels\n", err)


def test_undeclared_query_name_is_usage_error(capsys):
    code, _, err = run(capsys, "check", EX1, "Missing(mario)")
    assert code == 2
    assert "undeclared" in err


def test_check_batch_answers_every_query_in_order(capsys):
    code, out, _ = run(capsys, "check", EX1, "MathHater(paul)", "Nerd(paul)", "Young(mario)")
    assert (code, out) == (1, "entailed\nnot-entailed\nentailed\n")
    code, out, _ = run(capsys, "subsumes", EX1, "T(Student) <= Young", "Student <= Student")
    assert (code, out) == (0, "entailed\nentailed\n")
    code, out, _ = run(
        capsys, "check", EX1, "T(Student)(mario)", "Italian(mary)", "--format", "records"
    )
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == [
        {"mode": "check", "query": "T(Student)(mario)", "verdict": "entailed"},
        {"mode": "check", "query": "Italian(mary)", "verdict": "not-entailed"},
    ]


def test_rc_check_batch_gives_the_verdicts_of_separate_runs(capsys, monkeypatch):
    texts = ("T(Student and Italian) <= Young", "T(Student and Italian) <= MathLover")
    alone = [run(capsys, "rc-check", EX1_AF, text)[:2] for text in texts]
    assert alone == [(0, "in-closure\n"), (1, "not-in-closure\n")]
    # a fresh closure: the first question tests its left side's rank, and
    # the second, with the same left side, reads the rank kept
    typel.materialize._prepared.cache_clear()
    run(capsys, "rc-ranks", EX1_AF)
    extensions = []
    extend = Saturation.extend

    def counting(self, facts, stop=None):
        extensions.append(facts)
        return extend(self, facts, stop)

    monkeypatch.setattr(Saturation, "extend", counting)
    code, out, _ = run(capsys, "rc-check", EX1_AF, *texts)
    assert (code, out) == (1, "in-closure\nnot-in-closure\n")
    assert len(extensions) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", EX1, "MathHater(paul)", "Nerd(paul"), "<query>:1:"),
        (("check", EX1, "MathHater(paul)", "Missing(paul)"), "undeclared"),
        (("check", EX1, "MathHater(paul)", "Student <= Young"), "use subsumes"),
        (("subsumes", EX1, "Student <= Young", "Young(mario)"), "use check"),
        (("check", EX1, "MathHater(paul)", "Nerd(paul)", "--dump-program", "x.dl"), "single query"),
    ],
)
def test_check_batch_rejects_before_any_verdict(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_check_batch_error_in_one_query_exits_2_after_the_others(capsys, monkeypatch):
    real = typel.cli.check_instance

    def failing(kb, q):
        if query_text(q) == "Nerd(paul)":
            raise ValueError("grounding bound exceeded")
        return real(kb, q)

    monkeypatch.setattr(typel.cli, "check_instance", failing)
    code, out, err = run(capsys, "check", EX1, "Nerd(paul)", "Italian(mary)", "MathHater(paul)")
    assert (code, out, err) == (2, "not-entailed\nentailed\n", "error: grounding bound exceeded\n")


def test_model_search_budget_overflow_is_an_input_error(capsys, monkeypatch):
    # the CLI imports model only for refute, and still reports its overflow
    # with exit 2, not as an internal error
    from typel.model import BoundOverflow

    def overflowing(kb, q, max_domain, max_rank):
        raise BoundOverflow("decision budget exceeded")

    monkeypatch.setattr(typel.cli, "refute", overflowing)
    code, out, err = run(capsys, "refute", EX1, "Young(mario)")
    assert (code, out) == (2, "")
    assert err == "error: decision budget exceeded\n"


# each command and the entry point it calls
ENTRY_CALLS = [
    (["check", EX1, "MathHater(paul)"], "check_instance"),
    (["subsumes", EX1, "Student <= Young"], "check_subsumption"),
    (["consistent", EX1], "check_consistency"),
    (["rc-ranks", EX1_AF], "compute_ranks"),
    (["rc-check", EX1_AF, "T(Student and Italian) <= Young"], "rc_entails"),
    (["rc-consistent", EX1_AF], "rc_consistent"),
    (["refute", EX1, "MathHater(paul)"], "refute"),
]


@pytest.mark.parametrize("argv, entry", ENTRY_CALLS, ids=[e for _, e in ENTRY_CALLS])
def test_commands_call_entry_points_as_cli_attributes(capsys, monkeypatch, argv, entry):
    """A wrapper bound in typel.cli is what the command calls, as a tracer
    that rebinds the CLI's entry points needs, including those the CLI
    imports only on first use."""
    real = getattr(typel.cli, entry)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(typel.cli, entry, counting)
    assert run(capsys, *argv)[0] in (0, 1)
    assert len(calls) == 1


def test_installed_entry_point():
    # the child imports typel from wherever this process did
    src = str(Path(typel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "typel.cli", "check", EX1, "MathLover(tom)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "entailed"


# every command that answers with a verdict, its verdicts for exit 0 and 1,
# and whether it takes a query
VERDICT_COMMANDS = {
    "check": (("entailed", "not-entailed"), True),
    "subsumes": (("entailed", "not-entailed"), True),
    "consistent": (("consistent", "inconsistent"), False),
    "rc-check": (("in-closure", "not-in-closure"), True),
    "rc-consistent": (("consistent", "inconsistent"), False),
    "refute": (("none-found", "counter-model"), True),
}


@pytest.fixture(scope="module")
def kb_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(
    test_parser.kbs,
    test_parser.queries,
    st.sampled_from(sorted(VERDICT_COMMANDS)),
    st.sampled_from(("human", "records")),
)
def test_cli_prints_one_verdict_or_one_error(kb_dir, kb, query, command, fmt):
    """Exit 0 or 1 prints exactly the command's verdict for that code; exit 2
    prints nothing on stdout and an error on stderr; nothing crashes."""
    kb_path = kb_dir / "kb.kbt"
    kb_path.write_text(print_kb(kb))
    verdicts, takes_query = VERDICT_COMMANDS[command]
    argv = [command, str(kb_path), "--format", fmt]
    if takes_query:
        argv.insert(2, query_text(query))
    if command == "refute":
        argv += ["--max-domain", "2", "--max-rank", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == "" and err.startswith("error:")
    elif fmt == "records":
        assert out.count("\n") == 1 and json.loads(out)["verdict"] == verdicts[code]
    elif command == "refute" and code == 1:
        assert out.startswith("counter-model:\n")
    else:
        assert out == verdicts[code] + "\n"
