"""Command-line front end.

Exit codes: 0 on success, 1 for a semantic finding (an axiom violation, total
conflict, conditioning on an impossible event, an undefined sum), 2 for usage,
parse or validation errors.  All numeric output is exact: rationals print as
``p/q`` and eps-terms in ascending powers.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .credal import ImpossibleEventError, IncompatibleCredalError
from .embedding import verify_embedding
from .evidence import SelectionBudgetError, TotalConflictError, run_gelman
from .kernels import KERNELS, DomainError, UndefinedSumError, check_axioms, get_kernel
from .parser import parse_eps_expr
from .refinement import TWO_PATH_LAWS, ScenarioUndefinedError, two_path_eval
from .scenario import Query, load_scenario, order_verdict, run_queries

__all__ = ["dispatch", "main"]

# Semantic findings are caught first: several subclass ValueError, which
# otherwise marks a usage, parse or validation error.
_SEMANTIC_ERRORS = (
    TotalConflictError,
    ImpossibleEventError,
    IncompatibleCredalError,
    UndefinedSumError,
    ScenarioUndefinedError,
    SelectionBudgetError,
    DomainError,
)
_USAGE_ERRORS = (ValueError, OSError, ZeroDivisionError)

# check-axioms and embed: help text, default sample count and checker.
_CHECKERS = {
    "check-axioms": ("sample the kernel laws and report each", 500, check_axioms),
    "embed": ("verify the ordered-field embedding on samples", 200, verify_embedding),
}

# ds combine --rule: the scenario op each rule runs.
_DS_RULES = {"dempster": "dempster", "robust": "robust-combine"}

# Commands that run queries of a scenario file: the one query each builds from
# its arguments, or None to run the file's own queries.
_FILE_QUERY = {
    "scenario": lambda a: None,
    "ds": lambda a: Query(_DS_RULES[a.rule], {"bodies": _split_names(a.bodies)}),
    "credal": lambda a: Query(a.action, {"credal": a.credal, "event": _split_names(a.event)}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plauscalc",
        description="Exact plausibility calculus: kernels, embeddings, credal sets, evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (text, samples, _) in _CHECKERS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--kernel", required=True, choices=KERNELS)
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scenario", help="run the queries of a scenario file")
    p.add_argument("action", choices=("run",))
    p.add_argument("file")

    p = sub.add_parser("ds", help="combine bodies of evidence from a scenario file")
    p.add_argument("action", choices=("combine",))
    p.add_argument("--rule", required=True, choices=_DS_RULES)
    p.add_argument("file")
    p.add_argument("--bodies", required=True, nargs="+")

    p = sub.add_parser("credal", help="credal-set operations on a scenario file")
    p.add_argument("action", choices=("condition", "envelopes", "decompose"))
    p.add_argument("file")
    p.add_argument("--credal", required=True)
    p.add_argument("--event", required=True, nargs="+")

    p = sub.add_parser("order", help="compare two eps-expressions: LT, EQ or GT")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("scenario-law", help="evaluate an algebraic law along two derivations")
    p.add_argument("--kernel", required=True, choices=KERNELS)
    p.add_argument("--law", required=True, choices=TWO_PATH_LAWS)
    p.add_argument("values", nargs="+", help="eps-expressions, one per law operand")

    sub.add_parser("gelman", help="run the boxer/wrestler/coin comparison")

    return parser


def _split_names(raw: Sequence[str]) -> list[str]:
    names: list[str] = []
    for chunk in raw:
        names.extend(n for n in chunk.split(",") if n)
    return names


def _run(args: argparse.Namespace) -> int:
    if args.command in _CHECKERS:
        report = _CHECKERS[args.command][2](get_kernel(args.kernel), args.samples, args.seed)
        print("\n".join(report.format_lines()))
        return 0 if report.all_passed else 1

    if args.command in _FILE_QUERY:
        scenario = load_scenario(args.file)
        query = _FILE_QUERY[args.command](args)
        if query is not None:
            scenario = scenario._replace(queries=(query,))
        for line in run_queries(scenario):
            print(line)
        return 0

    if args.command == "order":
        print(order_verdict(args.left, args.right))
        return 0

    if args.command == "scenario-law":
        kernel = get_kernel(args.kernel)
        values = tuple(kernel.coerce(parse_eps_expr(v)) for v in args.values)
        left, right = two_path_eval(kernel, args.law, values)
        agree = "agree" if kernel.eq(left, right) else "DISAGREE"
        print(f"{args.law}: left={kernel.fmt(left)} right={kernel.fmt(right)} [{agree}]")
        return 0 if agree == "agree" else 1

    if args.command == "gelman":
        for line in run_gelman().format_lines():
            print(line)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _run(args)
    except _SEMANTIC_ERRORS as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
