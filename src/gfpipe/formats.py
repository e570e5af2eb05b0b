"""Rendering and exact serialization of engine values.

Three formats: ``table`` (aligned, human-readable, polynomials in
descending powers of r with explicit signs), ``csv`` (one row per line,
comma-separated), and ``json`` (loss-free; every coefficient is carried as
decimal strings of unbounded size).  JSON writing is deterministic, and
decoding accepts only what it writes, so decode-then-encode is
byte-identical.

Each kind of value (series, triangle, matrix, J- and S-fraction,
recurrence, single coefficient) is one row of ``KINDS``: its class, JSON
name, how deep its entries nest, how to read and rebuild them, and its
table layout.  Serialization, rendering, the kind names of diagnostics
and the substitution of r all run off that table, so a new kind is one
row.  ``CONVERSIONS`` says which kind stands for which: a J- or
S-fraction or a single coefficient for its series, a production matrix
for its recurrence.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import cfrac, triangles
from .cfrac import JFraction, SFraction
from .errors import TypeErrorValue
from .ratfun import FieldElem, PONE, iparse, istr
from .series import Series
from .triangles import RecurrenceCoeffs, SquareMatrix, Triangle


# -- coefficients -------------------------------------------------------------


def _enc_fe(v: FieldElem):
    num = [istr(c) for c in v.num] or ["0"]
    if v.den == PONE:
        return num
    return {"num": num, "den": [istr(c) for c in v.den]}


def _dec_fe(obj) -> FieldElem:
    if isinstance(obj, list):
        return FieldElem([iparse(c) for c in obj])
    if isinstance(obj, dict):
        return FieldElem(
            [iparse(c) for c in obj["num"]], [iparse(c) for c in obj["den"]]
        )
    raise ValueError(f"not a coefficient encoding: {obj!r}")


# -- value kinds --------------------------------------------------------------


class Kind(NamedTuple):
    """One kind of engine value and its layout."""

    cls: type
    name: str          # the JSON "kind"
    depth: int         # entries: 0 one coefficient, 1 a list, 2 a list of lists
    entries: Callable  # value -> entries
    build: Callable    # entries -> value
    size: str = ""     # the JSON field holding len(entries), if any
    labels: tuple = ()  # table row prefixes, rows joined by ", "; else _aligned


KINDS = (
    Kind(Series, "series", 1, lambda v: v.coeffs, Series, "order", ("",)),
    Kind(Triangle, "triangle", 2, lambda v: v.rows, Triangle, "rows"),
    Kind(SquareMatrix, "matrix", 2, lambda v: v.rows, SquareMatrix, "rows"),
    Kind(JFraction, "jfrac", 2, lambda v: (v.b, v.lam), lambda e: JFraction(*e),
         labels=("b:      ", "lambda: ")),
    Kind(SFraction, "sfrac", 1, lambda v: v.s, SFraction),
    Kind(RecurrenceCoeffs, "recurrence", 2, lambda v: (v.alpha, v.beta),
         lambda e: RecurrenceCoeffs(*e), labels=("alpha: ", "beta:  ")),
    Kind(FieldElem, "fieldelem", 0, lambda v: v, lambda e: e, labels=("",)),
)


# CONVERSIONS[(given, wanted)](value, prec) is the value of class ``wanted``
# that ``value`` of class ``given`` stands for, series to precision prec.
# Each entry calls through the module attribute, so that rebinding it (as
# perfbench/tracer.py does) reaches these calls too.
CONVERSIONS = {
    (JFraction, Series): lambda v, p: cfrac.jfrac_to_series(v, p),
    (SFraction, Series): lambda v, p: cfrac.sfrac_to_series(v, p),
    (FieldElem, Series): lambda v, p: Series.constant(v, p),
    (SquareMatrix, RecurrenceCoeffs):
        lambda v, p: triangles.recurrence_from_production(v),
}


def kind_of(value) -> Optional[Kind]:
    return next((k for k in KINDS if isinstance(value, k.cls)), None)


def _kind(value, doing: str) -> Kind:
    k = kind_of(value)
    if k is None:
        raise TypeErrorValue(f"cannot {doing} {type(value).__name__}")
    return k


def _map(fn, entries, depth: int):
    """fn applied to every coefficient of entries nested ``depth`` deep."""
    if depth == 0:
        return fn(entries)
    return [_map(fn, e, depth - 1) for e in entries]


def kind_name(value) -> str:
    """The kind name of a value, or of a value class."""
    cls = value if isinstance(value, type) else type(value)
    return next((k.name for k in KINDS if issubclass(cls, k.cls)), cls.__name__)


def build_value(kind: str, entries, leaf):
    """The value of the named kind whose coefficients are ``leaf`` of
    those in ``entries``."""
    for k in KINDS:
        if k.name == kind:
            return k.build(_map(leaf, entries, k.depth))
    raise ValueError(f"unknown value kind {kind!r}")


def substitute_value(value, r_value: Fraction):
    """Specialize the parameter r in a finished value, exactly."""
    k = _kind(value, "specialize")
    return k.build(_map(lambda c: c.substitute(r_value), k.entries(value), k.depth))


# -- JSON ---------------------------------------------------------------------


def to_json(value) -> str:
    k = _kind(value, "serialize")
    entries = k.entries(value)
    out = {"kind": k.name}
    if k.size:
        out[k.size] = len(entries)
    out["entries"] = _map(_enc_fe, entries, k.depth)
    return json.dumps(out, separators=(",", ":"))


def from_json(text: str):
    """The value whose ``to_json`` is ``text``, up to whitespace between
    JSON tokens; any other text, even one that names the same value,
    raises ValueError."""
    obj = json.loads(text)
    try:
        value = build_value(obj["kind"], obj["entries"], _dec_fe)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(
            f"malformed JSON value ({type(exc).__name__}: {exc})"
        ) from None
    if to_json(value) != json.dumps(obj, separators=(",", ":")):
        raise ValueError(f"not the canonical JSON of a {kind_name(value)}")
    return value


# -- table and csv ------------------------------------------------------------


def _aligned(rows: list) -> str:
    cells = [[str(v) for v in row] for row in rows]
    ncols = max(len(row) for row in cells)
    widths = [0] * ncols
    for row in cells:
        for j, s in enumerate(row):
            widths[j] = max(widths[j], len(s))
    lines = []
    for row in cells:
        line = ",  ".join(s.rjust(widths[j]) for j, s in enumerate(row))
        lines.append(line.rstrip())
    return "\n".join(lines)


def format_value(value, fmt: str = "table") -> str:
    """Render a value; table and csv are for reading, json is for reloading."""
    if fmt == "json":
        return to_json(value)
    k = _kind(value, "format")
    rows = k.entries(value)
    for _ in range(2 - k.depth):
        rows = [rows]
    if fmt == "csv":
        # a coefficient's text holds no comma, quote or newline, so no
        # cell needs quoting
        return "".join(",".join(map(str, row)) + "\n" for row in rows)
    if k.labels:
        return "\n".join(
            label + ", ".join(str(v) for v in row)
            for label, row in zip(k.labels, rows)
        )
    return _aligned(rows)
