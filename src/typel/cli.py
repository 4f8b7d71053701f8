"""Command-line front end: one subcommand per reasoning task.

Exit codes: 0 entailed/consistent/in-closure/none-found (or plain success),
1 the negative verdict, 2 usage or input errors, 3 an internal error (a
one-line "internal error:" message on stderr and no verdict).  --format
records emits one JSON object per line with keys {mode, query, verdict} in
stable order, so repeated runs are byte-identical.  --dump-program writes
the program the command's entry point evaluates, as query_program and
closure_program return it, once the entry point has accepted the KB.

check and subsumes take several queries and answer them in order from one
process, which prepares the KB once.  Every query is parsed before the
first is answered; the exit code is 2 if some query erred, else 1 if some
verdict was negative, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from .datalog import DatalogError, DatalogProgram, dump_program
from .kb import (
    InstanceOf,
    KnowledgeBase,
    Query,
    RoleHolds,
    Subsumes,
    TypSubsumes,
    TypicalInstanceOf,
)
from .materialize import (
    check_consistency,
    check_instance,
    check_subsumption,
    query_program,
)
from .normalize import normalize
from .parser import parse_concept, parse_kb, parse_query, print_kb, query_text

# what the commands take from rc and model, resolved through the package
# on first access so that check, subsumes and consistent load neither.
# Commands call these as attributes of this module (_cli), which honours a
# rebinding here, as a tracer or a test makes one.
_LAZY = frozenset(
    {"closure_program", "compute_ranks", "rc_consistent", "rc_entails", "refute", "render_model"}
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


class UsageError(ValueError):
    pass


def _load_kb(path: str) -> KnowledgeBase:
    with open(path, encoding="utf-8") as fh:
        return parse_kb(fh.read(), filename=path)


def _emit(args, verdict: str, query: Query | None) -> None:
    if args.format == "records":
        record = {
            "mode": args.command,
            "query": query_text(query) if query is not None else None,
            "verdict": verdict,
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(verdict)


def _dump(path: str, program: DatalogProgram) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_program(program))


def _cmd_normalize(args) -> int:
    kb = _load_kb(args.kb)
    nkb, _ = normalize(kb)
    sys.stdout.write(print_kb(nkb.to_kb()))
    return 0


def _cmd_translate(args) -> int:
    program, _ = query_program(_load_kb(args.kb))
    sys.stdout.write(dump_program(program))
    if args.dump_program:
        _dump(args.dump_program, program)
    return 0


# accepted query kinds per query command, and the usage message for others;
# consistent and rc-consistent take no query
_QUERY_KINDS = {
    "check": (
        (InstanceOf, TypicalInstanceOf, RoleHolds),
        "check takes C(a), T(C)(a) or r(a, b); use subsumes for inclusions",
    ),
    "subsumes": (
        (Subsumes, TypSubsumes),
        "subsumes takes C <= D or T(C) <= D; use check for assertions",
    ),
    "rc-check": ((TypSubsumes,), "rc-check takes a T(C) <= D query"),
}

_ENTAILED = ("entailed", "not-entailed")
_CONSISTENT = ("consistent", "inconsistent")


# the commands that take several queries
_BATCH = ("check", "subsumes")

# what main reports as an error with exit code 2
_INPUT_ERRORS = (OSError, ValueError, DatalogError)


def _input_errors() -> tuple[type[Exception], ...]:
    """_INPUT_ERRORS, and the model search's budget overflow once model is
    loaded: only refute raises it."""
    model = sys.modules.get("typel.model")
    return _INPUT_ERRORS if model is None else _INPUT_ERRORS + (model.BoundOverflow,)


def _verdict(command: str, kb: KnowledgeBase, q: Query | None) -> tuple[bool, tuple[str, str]]:
    match command:
        case "check":
            return check_instance(kb, q).entailed, _ENTAILED
        case "subsumes":
            return check_subsumption(kb, q).entailed, _ENTAILED
        case "consistent":
            return check_consistency(kb), _CONSISTENT
        case "rc-check":
            return _cli.rc_entails(kb, q).in_closure, ("in-closure", "not-in-closure")
        case _:  # rc-consistent
            return _cli.rc_consistent(kb), _CONSISTENT


def _cmd_query(args) -> int:
    texts = args.query if args.command in _BATCH else [getattr(args, "query", None)]
    if args.dump_program and len(texts) > 1:
        raise UsageError("--dump-program takes a single query")
    kb = _load_kb(args.kb)
    queries: list[Query | None] = [None]
    if args.command in _QUERY_KINDS:
        kinds, usage = _QUERY_KINDS[args.command]
        queries = [parse_query(text, kb) for text in texts]
        if not all(isinstance(q, kinds) for q in queries):
            raise UsageError(usage)
    code = 0
    for q in queries:
        try:
            holds, verdicts = _verdict(args.command, kb, q)
        except _input_errors() as e:
            print(f"error: {e}", file=sys.stderr)
            code = 2
            continue
        if args.dump_program:
            make = _cli.closure_program if args.command.startswith("rc-") else query_program
            _dump(args.dump_program, make(kb, q)[0])
        _emit(args, verdicts[0] if holds else verdicts[1], q)
        code = max(code, 0 if holds else 1)
    return code


def _cmd_rc_ranks(args) -> int:
    kb = _load_kb(args.kb)
    extra = tuple(parse_concept(text, kb) for text in (args.concept or ()))
    ra = _cli.compute_ranks(kb, query_concepts=extra)
    if args.dump_program:
        _dump(args.dump_program, _cli.closure_program(kb, concepts=extra)[0])
    if args.format == "records":
        for name, rank in ra.rows():
            print(json.dumps({"mode": "rc-ranks", "query": name, "verdict": rank}, sort_keys=True))
    else:
        for name, rank in ra.rows():
            print(f"{name} {rank}")
    return 0


def _cmd_refute(args) -> int:
    kb = _load_kb(args.kb)
    q = parse_query(args.query, kb)
    m = _cli.refute(kb, q, max_domain=args.max_domain, max_rank=args.max_rank)
    if m is None:
        _emit(args, "none-found", q)
        return 0
    if args.format == "records":
        _emit(args, "counter-model", q)
    else:
        print("counter-model:")
        print(_cli.render_model(m))
    return 1


def _add_common(sp, query: bool, fmt: bool = True, dump: bool = True, batch: bool = False):
    sp.add_argument("kb", help=".kbt knowledge base file")
    if batch:
        sp.add_argument(
            "query", nargs="+", help="query text, e.g. 'C(a)'; several are answered in order"
        )
    elif query:
        sp.add_argument("query", help="query text, e.g. 'C(a)' or 'C <= D'")
    if fmt:
        sp.add_argument(
            "--format", choices=("human", "records"), default="human",
            help="records = one JSON object per line",
        )
    if dump:
        sp.add_argument(
            "--dump-program", metavar="PATH", default=None,
            help="also write the evaluated Datalog program to PATH",
        )


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="typel",
        description="Reasoner for a low-complexity description logic with typicality.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="print the normal-form KB")
    sp.add_argument("kb")
    sp.set_defaults(fn=_cmd_normalize, format="human")

    sp = sub.add_parser("translate", help="print the Datalog program for the KB")
    sp.add_argument("kb")
    sp.add_argument("--dump-program", metavar="PATH", default=None)
    sp.set_defaults(fn=_cmd_translate, format="human")

    for command, help_text in (
        ("check", "rational entailment of an assertion"),
        ("subsumes", "rational entailment of an inclusion"),
        ("consistent", "classical consistency"),
        ("rc-check", "membership of T(C) <= D in the rational closure"),
        ("rc-consistent", "consistency of the rational closure"),
    ):
        sp = sub.add_parser(command, help=help_text)
        _add_common(sp, query=command in _QUERY_KINDS, batch=command in _BATCH)
        sp.set_defaults(fn=_cmd_query)

    sp = sub.add_parser("rc-ranks", help="rational-closure concept ranks")
    _add_common(sp, query=False)
    sp.add_argument(
        "--concept", action="append", metavar="TEXT",
        help="extra concept to rank (repeatable)",
    )
    sp.set_defaults(fn=_cmd_rc_ranks)

    sp = sub.add_parser("refute", help="bounded counter-model search for a query")
    _add_common(sp, query=True, dump=False)
    sp.add_argument("--max-domain", type=int, default=3, metavar="N")
    sp.add_argument("--max-rank", type=int, default=2, metavar="N")
    sp.set_defaults(fn=_cmd_refute)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _input_errors() as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a crash is not a verdict: exit 1 is kept for the negative one.  The
        # innermost frame stands in for the traceback on the one line.
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{tb.tb_frame.f_code.co_filename}:{tb.tb_lineno}"
        print(f"internal error: {e!r} at {where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
