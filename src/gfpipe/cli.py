"""Command-line front end.

Subcommands:

  eval EXPR [--order N] [--set r=p/q] [--format table|csv|json]
  triangle EXPR --rows N [--mode ogf|egf] [--format F]
  fixtures [--list | --run [ID ...]] [--format F]

``triangle`` evaluates the builtin triangle(EXPR, N, mode) at order N; it
reads powers of r as columns, so its entries hold no r and it has no --set.

Exit codes: 0 success, 1 mathematical error, 2 usage or expression error.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .dsl import Call, Env, Name, Num, evaluate, parse
from .errors import MATH_ERRORS, ExprError, ParseError
from .formats import format_value


def _parse_set(text: str) -> Fraction:
    name, _, value = text.partition("=")
    # no exponent: Fraction would expand r=1e999999999 digit by digit
    if name.strip() != "r" or not value or "e" in value.lower():
        raise argparse.ArgumentTypeError("expected r=p/q")
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {value!r}: {exc}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused, so
    that a process calling ``cli_main`` many times does not rebuild the
    three subparsers per request.  Parsing leaves the parser unchanged."""
    top = argparse.ArgumentParser(
        prog="gfpipe",
        description="exact generating-function transformation engine",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--order", type=int, default=8)

    p_tri = sub.add_parser("triangle", help="expand an expression to a triangle")
    p_tri.add_argument("expr")
    p_tri.add_argument("--rows", type=int, required=True)
    p_tri.add_argument("--mode", choices=("ogf", "egf"), default="ogf")

    p_fix = sub.add_parser("fixtures", help="list or run the golden fixtures")
    group = p_fix.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true", dest="list_only")
    group.add_argument("--run", nargs="*", metavar="ID", default=None)

    for p in (p_eval, p_tri, p_fix):
        # cli_main's own usage errors print the subcommand's usage line
        p.set_defaults(subparser=p)
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        if p is p_eval:  # after --format: the usage lines keep their order
            p.add_argument("--set", dest="set_r", type=_parse_set, default=None,
                           metavar="r=p/q",
                           help="substitute an exact rational for r afterwards")
    return top


def _diagnose(exc: Exception, expr: str = "") -> None:
    if isinstance(exc, ParseError) and expr and 0 <= exc.start <= len(expr):
        print(expr, file=sys.stderr)
        print(" " * exc.start + "^", file=sys.stderr)
    print(f"error: {exc}", file=sys.stderr)


def cli_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "order", 1) < 1:
        args.subparser.error("--order must be at least 1")
    if getattr(args, "rows", 1) < 1:
        args.subparser.error("--rows must be at least 1")

    try:
        if args.command != "fixtures":
            ast, order = parse(args.expr), getattr(args, "order", None)
            if args.command == "triangle":
                ast = Call(-1, -1, "triangle",
                           (ast, Num(-1, -1, args.rows), Name(-1, -1, args.mode)))
                order = args.rows
            value = evaluate(ast, Env(order=order, r_value=getattr(args, "set_r", None)))
            print(format_value(value, args.format))
            return 0

        # fixtures: imported here, so eval and triangle do not pay for it
        from . import fixtures

        if args.list_only:
            print(fixtures.render_list(args.format))
            return 0
        known = {fx.id for fx in fixtures.all_fixtures()}
        missing = [i for i in args.run or () if i not in known]
        if missing:
            args.subparser.error(f"unknown fixture ids: {', '.join(missing)}")
        ids = args.run if args.run else None
        cases = fixtures.run_fixtures(ids)
        print(fixtures.render_report(cases, args.format))
        return 0 if all(c.passed for c in cases) else 1

    except ExprError as exc:
        _diagnose(exc, getattr(args, "expr", ""))
        return 2
    except MATH_ERRORS as exc:
        _diagnose(exc)
        return 1


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()  # a closed stdout fails here, inside the try
    except BrokenPipeError:
        # the reader left early (``| head``): no traceback, and fd 1 on
        # devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
