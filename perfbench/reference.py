"""Independent reference values, and a parser for the engine's printed output.

Nothing here calls the engine's series, fraction, triangle or formatting
code.  Every reference value is a polynomial in r with rational
coefficients, held as a tuple of Fractions in ascending powers with trailing
zeros trimmed (the zero polynomial is the empty tuple).  References come
from three independent sources:

* closed forms (Stirling, Narayana and Galton numbers, binomial
  coefficients), the same binomial sums as ``triangles.oracle``, written out
  again here so the check does not depend on the package;
* sympy's ``ring_series`` over QQ[x, r], truncated in x;
* path-counting (Stieltjes tableau) evaluation of continued fractions, with
  plain sympy ring arithmetic.

Engine output is parsed back into the same tuples, so a check compares
exact values, not strings.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb, factorial

from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_exp, rs_mul, rs_series_inversion
from sympy.polys.rings import ring

# series variable x, parameter r (also the second triangle variable)
_XR, _X, _R = ring("x,r", QQ)


def ptrim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def const(c) -> tuple:
    return ptrim([c])


def _q(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def series_coeffs(p, n: int) -> list:
    """Coefficients x^0..x^{n-1} of a sympy element of QQ[x, r], as r-polys."""
    out = [dict() for _ in range(n)]
    for (i, j), c in p.terms():
        if i < n:
            out[i][j] = _q(c)
    return [ptrim(d.get(j, 0) for j in range(max(d, default=-1) + 1)) for d in out]


# -- closed forms ---------------------------------------------------------------


def stirling2(n: int, k: int) -> int:
    total = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
    return total // factorial(k)


def narayana3(n: int, k: int) -> int:
    return comb(n + 1, k) * comb(n, k) // (k + 1)


def galton(n: int, k: int) -> int:
    odd = 1
    for m in range(1, 2 * k, 2):
        odd *= m
    return stirling2(n, k) * odd * 2 ** (n - k)


def genbell_series(n: int) -> list:
    """sum_k k! S(m, k) r^k: the ordered-Bell polynomials, m < n."""
    return [ptrim(factorial(k) * stirling2(m, k) for k in range(m + 1)) for m in range(n)]


def narayana_series(n: int) -> list:
    return [ptrim(narayana3(m, k) for k in range(m + 1)) for m in range(n)]


def galton_series(n: int) -> list:
    """egf coefficients of (1 + r(1 - e^{2x}))^{-1/2}: row sums over m!."""
    return [
        ptrim(Fraction(galton(m, k), factorial(m)) for k in range(m + 1))
        for m in range(n)
    ]


def a019538_triangle(rows: int) -> list:
    return [[const(factorial(k) * stirling2(n, k)) for k in range(n + 1)] for n in range(rows)]


def ordered_bell_prodmat(size: int) -> list:
    """Jacobi matrix of the ordered-Bell moments: diagonal (2i+1)r + i,
    subdiagonal i^2 r(r+1), superdiagonal 1."""
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            if j == i:
                row.append(ptrim([i, 2 * i + 1]))
            elif j == i + 1:
                row.append(const(1))
            elif j == i - 1:
                row.append(ptrim([0, i * i, i * i]))
            else:
                row.append(())
        out.append(row)
    return out


def bell_jfrac(c: Fraction, n: int) -> tuple:
    """J-fraction of the ordered-Bell egf 1/(1 + c(1 - e^x)) read as an ogf:
    b_m = c + m(2c + 1), lambda_m = m^2 c(c + 1); sized as from n terms."""
    b = [const(c + m * (2 * c + 1)) for m in range(n // 2)]
    lam = [const(m * m * c * (c + 1)) for m in range(1, (n - 1) // 2 + 1)]
    return b, lam


def bell_sfrac(c: Fraction, n: int) -> list:
    """S-fraction of the same series: s_{2k-1} = k c, s_{2k} = k (c + 1)."""
    out = []
    for i in range(1, n):
        k = (i + 1) // 2
        out.append(const(k * c if i % 2 else k * (c + 1)))
    return out


def binomial_power_triangle(rows: int, base: Fraction) -> list:
    """T(n, k) = C(n, k) base^(n - k)."""
    return [[const(comb(n, k) * base ** (n - k)) for k in range(n + 1)] for n in range(rows)]


# -- sympy ring_series ------------------------------------------------------------


def binom_series(n: int) -> list:
    """Binomial transform of 1/(1 - r x - x^2), which is
    (1 - x)/((1 - x)^2 - r x (1 - x) - x^2)."""
    x, r = _X, _R
    den = (1 - x) ** 2 - r * x * (1 - x) - x**2
    return series_coeffs(rs_mul(1 - x, rs_series_inversion(den, x, n), x, n), n)


def reverse_p_bell_series(n: int) -> list:
    """reverseP of 1/(1 + r(1 - e^x)) is the Etude I family
    (1 + (r - 1)x)/((1 - x)(1 + r x)) read as an egf."""
    x, r = _X, _R
    ogf = rs_mul(1 + (r - 1) * x, rs_series_inversion((1 - x) * (1 + r * x), x, n), x, n)
    return [
        ptrim(c / factorial(m) for c in cs)
        for m, cs in enumerate(series_coeffs(ogf, n))
    ]


def bell_eriordan(rows: int) -> list:
    """Exponential Riordan array (g, (e^x - 1) g), g = 1/(1 + r(1 - e^x))."""
    x, r = _X, _R
    e = rs_exp(x, x, rows)
    g = rs_series_inversion(1 + r * (1 - e), x, rows)
    f = rs_mul(e - 1, g, x, rows)
    cols = [series_coeffs(g, rows)]
    col = g
    for _ in range(1, rows):
        col = rs_mul(col, f, x, rows)
        cols.append(series_coeffs(col, rows))
    return [
        [ptrim(c * Fraction(factorial(n), factorial(k)) for c in cols[k][n]) for k in range(n + 1)]
        for n in range(rows)
    ]


# -- continued fractions by path counting -------------------------------------------


def _as_ring(v):
    return _XR(v) if not isinstance(v, type(_R)) else v


def jfrac_tableau(b, lam, n: int) -> list:
    """[x^m] of 1/(1 - b0 x - lam1 x^2/(1 - b1 x - ...)), m < n: weighted
    Motzkin paths, level steps b_k at height k, down steps lam_k from
    height k.  Missing entries are zero, so a short list terminates."""
    b = [_as_ring(v) for v in b]
    lam = [_as_ring(v) for v in lam]
    col = [_XR(1)]
    out = []
    for m in range(n):
        out.append(col[0])
        top = min(len(col) + 1, n - m)
        new = [_XR(0)] * top
        for k, v in enumerate(col):
            if not v:
                continue
            if k + 1 < top:
                new[k + 1] += v
            if k < top and k < len(b):
                new[k] += b[k] * v
            if 1 <= k <= len(lam) and k - 1 < top:
                new[k - 1] += lam[k - 1] * v
        col = new
    return out


def sfrac_tableau(s, n: int) -> list:
    """[x^m] of 1/(1 - s1 x/(1 - s2 x/(1 - ...))), m < n: weighted Dyck
    paths of length 2m, down steps s_k from height k."""
    s = [_as_ring(v) for v in s]
    col = [_XR(1)]
    out = []
    for step in range(2 * n - 1):
        if step % 2 == 0:
            out.append(col[0])
        new = [_XR(0)] * (len(col) + 1)
        for k, v in enumerate(col):
            if not v:
                continue
            new[k + 1] += v
            if 1 <= k <= len(s):
                new[k - 1] += s[k - 1] * v
        col = new
    return out


def _ring_poly(v) -> tuple:
    """r-polynomial of a ring element that holds no x."""
    return series_coeffs(v, 1)[0]


def _inverse(series: list, n: int) -> list:
    """1/series for a unit constant term 1, by the defining recurrence."""
    out = [_XR(1)]
    for m in range(1, n):
        out.append(-sum((series[j] * out[m - j] for j in range(1, m + 1)), _XR(0)))
    return out


def _weights(rs, ss, depth):
    rs = [_XR(v) for v in rs]
    ss = [_XR(v) for v in ss]
    return [
        (rs[k] if k < len(rs) else 0) + (ss[k] if k < len(ss) else 0) * _R
        for k in range(depth)
    ]


def _rows(gf: list, rows: int) -> list:
    out = []
    for n in range(rows):
        p = _ring_poly(gf[n])
        out.append([const(p[k]) if k < len(p) else () for k in range(n + 1)])
    return out


def deleham_triangle(rs, ss, rows: int) -> list:
    return _rows(sfrac_tableau(_weights(rs, ss, max(rows - 1, 0)), rows), rows)


def deleham1_triangle(rs, ss, rows: int) -> list:
    """1/(1 - w0 x - w1 x T), T the S-fraction of w2, w3, ..."""
    w = _weights(rs, ss, rows + 1)
    tail = sfrac_tableau(w[2:], rows)
    den = [_XR(1)] + [_XR(0)] * (rows - 1)
    if rows > 1:
        den[1] -= w[0]
        for m in range(1, rows):
            den[m] -= w[1] * tail[m - 1]
    return _rows(_inverse(den, rows), rows)


def ring_values(vals: list) -> list:
    return [_ring_poly(v) for v in vals]


# -- parsing the engine's printed output -----------------------------------------


def parse_poly(text: str) -> tuple:
    """'4r^2 + 8r - 3' -> (-3, 8, 4); the engine prints descending powers."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    tokens = text.split()
    if not tokens:
        raise ValueError("empty coefficient")
    terms, sign = [], 1
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        terms.append((sign, tok))
        sign = 1
    out: dict = {}
    for sign, tok in terms:
        coef, _, power = tok.partition("r")
        if "r" in tok:
            e = int(power[1:]) if power.startswith("^") else 1
            c = int(coef) if coef else 1
        else:
            e, c = 0, int(coef)
        out[e] = out.get(e, 0) + sign * c
    return ptrim(out.get(k, 0) for k in range(max(out) + 1))


def parse_coeff(text: str) -> tuple:
    """A printed Q(r) element; raises ValueError unless it is a polynomial
    in r (every reference value is)."""
    num, slash, den = text.strip().partition("/")
    p = parse_poly(num)
    if not slash:
        return p
    d = parse_poly(den)
    if len(d) != 1:
        raise ValueError(f"{text!r} is not polynomial in r")
    return ptrim(c / d[0] for c in p)


def _json_coeff(obj) -> tuple:
    if isinstance(obj, list):
        return ptrim(int(c) for c in obj)
    num = [int(c) for c in obj["num"]]
    den = [int(c) for c in obj["den"]]
    if len(den) != 1:
        raise ValueError("coefficient is not polynomial in r")
    return ptrim(Fraction(c, den[0]) for c in num)


def _cells(out: str, fmt: str) -> list:
    """Rows of printed cells, for the table and csv formats."""
    body = out[:-1] if out.endswith("\n") else out
    if fmt == "csv":
        return list(csv.reader(io.StringIO(body)))
    return [[c for c in (s.strip() for s in line.split(",")) if c] for line in body.split("\n")]


def parse_output(kind: str, fmt: str, out: str):
    """Printed value -> the reference shape for its kind."""
    if fmt == "json":
        obj = json.loads(out)
        if obj.get("kind") != kind:
            raise ValueError(f"kind {obj.get('kind')!r}, expected {kind!r}")
        e = obj["entries"]
        if kind in ("series", "sfrac"):
            return [_json_coeff(c) for c in e]
        if kind == "jfrac":
            return [_json_coeff(c) for c in e[0]], [_json_coeff(c) for c in e[1]]
        return [[_json_coeff(c) for c in row] for row in e]
    if kind == "jfrac" and fmt == "table":
        lines = out.rstrip("\n").split("\n")
        b = lines[0].partition(":")[2]
        lam = lines[1].partition(":")[2] if len(lines) > 1 else ""
        return (
            [parse_coeff(c) for c in b.split(",") if c.strip()],
            [parse_coeff(c) for c in lam.split(",") if c.strip()],
        )
    rows = [[parse_coeff(c) for c in row] for row in _cells(out, fmt)]
    if kind in ("series", "sfrac"):
        return rows[0] if rows else []
    if kind == "jfrac":
        rows += [[]] * (2 - len(rows))
        return rows[0], rows[1]
    return rows


def _first_diff(got, want, prefix: bool, label="entry"):
    if isinstance(want, tuple) and len(want) == 2 and isinstance(want[0], list):
        return _first_diff(got[0], want[0], prefix, "b") or _first_diff(
            got[1], want[1], prefix, "lambda"
        )
    if len(got) < len(want) or (not prefix and len(got) != len(want)):
        return f"{label}: {len(got)} entries, expected {len(want)}"
    for i, w in enumerate(want):
        if isinstance(w, list):
            d = _first_diff(got[i], w, prefix, f"row {i}")
            if d:
                return d
        elif got[i] != w:
            return f"{label}[{i}]: got {got[i]}, expected {w}"
    return None


def check_value(kind: str, fmt: str, out: str, want, prefix: bool = False):
    """None when the printed value equals the reference, else a reason."""
    try:
        got = parse_output(kind, fmt, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable {kind} output: {exc}"
    return _first_diff(got, want, prefix)
