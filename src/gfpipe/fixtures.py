"""Golden fixtures: every sequence, triangle, continued fraction, and
production matrix the engine is expected to reproduce, with the build
expression that produces it.

The rows live in ``fixtures.json`` beside this module, package data read
once on first use, in the order they run.  Each row has an ``id``, a value
``kind`` of formats.KINDS, a ``build`` expression, the ``expected`` data
and its ``source``, and may set an evaluation ``order``, an exact
rational ``set_r`` substituted for r after evaluation, and ``prefix``
(expected lists are prefixes of the result).

Expected data is transcribed literal by literal from the printed tables it
mirrors (OEIS heads and the classical triangle displays); it is never
computed by the engine.  Entries are ints, "p/q" strings, or lists of ints
(ascending coefficients of a polynomial in r).  The ``source`` string says
what the data is, so every row can be audited against the OEIS entry or
the classical definition it came from.

Build strings use the expression language only; negative literals appear
as ``0-n`` because the grammar has no unary minus.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction
from typing import Optional

from .dsl import Env, evaluate, parse
from .errors import MATH_ERRORS, ExprError
from .formats import CONVERSIONS, build_value, kind_name, kind_of
from .ratfun import FieldElem, fe
from .record import Record

_DATA = os.path.join(os.path.dirname(__file__), "fixtures.json")


class Fixture(Record):
    """One row of fixtures.json; see the module docstring."""

    __slots__ = ("id", "kind", "build", "expected", "source", "order", "set_r", "prefix")

    def __init__(self, id: str, kind: str, build: str, expected, source: str,
                 order: Optional[int] = None, set_r: Optional[str] = None,
                 prefix: bool = False):
        super().__init__(id, kind, build, expected, source, order, set_r, prefix)


def _lit(v) -> FieldElem:
    if isinstance(v, int):
        return fe(v)
    if isinstance(v, str):
        return fe(Fraction(v))
    if isinstance(v, (list, tuple)):
        return FieldElem(tuple(int(c) for c in v))
    raise TypeError(f"bad literal {v!r}")


def decode_expected(fx: Fixture):
    return build_value(fx.kind, fx.expected, _lit)


def _load(text: str) -> dict:
    """The fixtures of a fixtures.json text by id, in file order.  A row
    with an unknown or a missing field, or a repeated id, raises
    ValueError naming the fixture."""
    by_id = {}
    for row in json.loads(text):
        try:
            fx = Fixture(**row)
        except TypeError as exc:
            raise ValueError(f"fixture {row.get('id')!r}: {exc}") from None
        if fx.id in by_id:
            raise ValueError(f"duplicate fixture id {fx.id!r}")
        by_id[fx.id] = fx
    return by_id


@functools.cache
def _by_id() -> dict:
    with open(_DATA, encoding="utf-8") as fh:
        return _load(fh.read())


def all_fixtures() -> tuple:
    return tuple(_by_id().values())


class CaseResult(Record):
    __slots__ = ("id", "passed", "detail")


def _first_diff(kind, got, want, prefix: bool) -> Optional[str]:
    """The first place where ``got`` differs from ``want``, walking the
    entries of their kind to its depth; ``prefix`` lets every list of
    ``got`` run longer than its expected counterpart.  Rows that the kind
    labels (b and lambda, alpha and beta) are named by their label."""

    def walk(gs, ws, depth, label, names=()):
        if depth == 0:
            return None if gs == ws else f"{label}: got {gs}, expected {ws}"
        if not prefix and len(gs) != len(ws):
            return f"{label}: length {len(gs)} != {len(ws)}"
        if len(gs) < len(ws):
            return f"{label}: only {len(gs)} of {len(ws)} entries"
        for i, (g, w) in enumerate(zip(gs, ws)):
            sub = names[i].rstrip(": ") if names else f"{label}[{i}]"
            diff = walk(g, w, depth - 1, sub)
            if diff:
                return diff
        return None

    names = kind.labels if kind.depth == 2 else ()
    return walk(kind.entries(got), kind.entries(want), kind.depth, "entry", names)


def fixture_order(fx: Fixture) -> int:
    """The order a fixture's build is evaluated at: its own ``order``, else
    the length of an expected series, else the number of expected entries
    (at least 4)."""
    if fx.order is not None:
        return fx.order
    if fx.kind == "series":
        return len(fx.expected)
    return max(len(fx.expected) if fx.kind != "fieldelem" else 0, 4)


def run_fixture(fx: Fixture) -> CaseResult:
    want = decode_expected(fx)
    kind = kind_of(want)
    order = fixture_order(fx)
    env = Env(order=order,
              r_value=Fraction(fx.set_r) if fx.set_r is not None else None)
    try:
        got = evaluate(parse(fx.build), env)
    except (ExprError, *MATH_ERRORS) as exc:
        return CaseResult(fx.id, False, f"error: {exc}")
    if type(got) is not type(want):
        convert = CONVERSIONS.get((type(got), type(want)))
        if convert is None:
            return CaseResult(fx.id, False, f"kind mismatch: got {kind_name(got)}")
        got = convert(got, order)
    diff = _first_diff(kind, got, want, fx.prefix)
    return CaseResult(fx.id, diff is None, diff or "")


def run_fixtures(ids=None) -> tuple:
    """The CaseResults of the selected fixtures (None runs all; [] none)."""
    by_id = _by_id()
    if ids is not None:
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise ValueError(f"unknown fixture ids: {', '.join(missing)}")
        chosen = [by_id[i] for i in ids]
    else:
        chosen = by_id.values()
    return tuple(run_fixture(fx) for fx in chosen)


def render_report(cases, fmt: str = "table") -> str:
    """The report on ``cases`` (what run_fixtures returns) in ``fmt``, with
    the summary "k/n fixtures passed"."""
    summary = f"{sum(c.passed for c in cases)}/{len(cases)} fixtures passed"
    if fmt == "json":
        return json.dumps(
            {
                "kind": "report",
                "summary": summary,
                "cases": [
                    {"id": c.id, "passed": c.passed, "detail": c.detail}
                    for c in cases
                ],
            },
            separators=(",", ":"),
        )
    if fmt == "csv":
        lines = [
            '{},{},"{}"'.format(c.id, "PASS" if c.passed else "FAIL",
                                c.detail.replace('"', '""'))
            for c in cases
        ]
        return "\n".join(lines + [summary])
    lines = []
    for c in cases:
        mark = "PASS" if c.passed else "FAIL"
        tail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"{mark}  {c.id}{tail}")
    lines.append(summary)
    return "\n".join(lines)


def render_list(fmt: str = "table") -> str:
    """Every fixture's id and source, in file order: tab-separated lines in
    a table, ``id,"source"`` rows in csv (a ``"`` in the source doubled),
    and one list of {"id", "source"} objects in json."""
    fxs = all_fixtures()
    if fmt == "json":
        return json.dumps([{"id": fx.id, "source": fx.source} for fx in fxs],
                          separators=(",", ":"))
    if fmt == "csv":
        return "\n".join('{},"{}"'.format(fx.id, fx.source.replace('"', '""'))
                         for fx in fxs)
    return "\n".join(f"{fx.id}\t{fx.source}" for fx in fxs)
