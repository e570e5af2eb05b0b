"""Jacobi- and Stieltjes-type continued fractions over Q(r).

A Jacobi fraction J(b; lam) is

    1 / (1 - b0 x - lam1 x^2 / (1 - b1 x - lam2 x^2 / (1 - ...)))

and a Stieltjes fraction S(s) is

    1 / (1 - s1 x / (1 - s2 x / (1 - ...))).

A missing tail of lam (or of s) means the fraction terminates there: all
further partial numerators are zero, so the value is a rational function
and can be expanded to any precision.

Both directions run one recurrence, the Stieltjes tableau (Flajolet
1980).  T(n, k) weighs the Motzkin paths from height 0 to height k in n
steps: an up step weighs 1, a level step at height k weighs b_k, and a
down step from k+1 to k weighs lam_(k+1) (``lam[k]``, 0-based).  So

    T(n+1, k) = T(n, k-1) + b_k T(n, k) + lam_(k+1) T(n, k+1),

with T(0, 0) = 1, T(k, k) = 1, T(n, k) = 0 for k < 0 or k > n, and
[x^n] f = T(n, 0).  Evaluation (``_tableau``) runs it forwards, one row n
at a time, in O(prec * depth) entries.  Expansion (``series_to_jfrac``)
runs it backwards, one column k at a time from T(n, 0) = [x^n] f: that is
the Chebyshev algorithm, O(n^2) entries and one inverse per level.  Each
expansion entry is one ``ratfun.dot``, so one normal form; so is each
evaluation entry, unless every weight in play is a rational constant.
Then evaluation runs V(n, k) = s^n T(n, k) in Python ints, with s the lcm
of the weights' denominators, and normalizes only each output coefficient
V(n, 0) / s^n.  An S-fraction is evaluated through its even contraction
and expanded by undoing that contraction on the J-fraction.

The module also provides the two-sequence triangle construction (partial
numerators r_k x + s_k x y, with y carried by the parameter r), and the
pairing between fractions with constant tails (b0; c, c, ...; mu, mu, ...)
and fractions with affine diagonal b0 + n c and weights n^2 mu.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence, Tuple

from .errors import DegenerateCfrac, InsufficientDepth, NonUnitConstantTerm, PatternMismatch
from .ratfun import ONE, ZERO, R, FieldElem, _qnorm, dot, fe
from .record import Record
from .series import Series, divide
from .triangles import triangle_from_gf


class JFraction(Record):
    __slots__ = ("b", "lam")

    def __init__(self, b: Sequence, lam: Sequence):
        super().__init__(tuple(fe(v) for v in b), tuple(fe(v) for v in lam))


class SFraction(Record):
    __slots__ = ("s",)

    def __init__(self, s: Sequence):
        super().__init__(tuple(fe(v) for v in s))


def _tableau(b: Sequence, lam: Sequence, depth: int, prec: int) -> Series:
    """Series of the J-fraction cut below level ``depth``: the tableau run
    forwards, row n from row n-1.  Heights stop at depth - 1 and at
    prec - 1 - n, above which no path returns in time; so O(prec * depth)
    entries.  ``b`` needs depth entries, ``lam`` depth - 1.

    When every weight in play is a rational constant the rows run in
    Python ints: with s the lcm of the weights' denominators, V(n, k) =
    s^n T(n, k) is an integer and

        V(n+1, k) = s V(n, k-1) + (s b_k) V(n, k) + (s lam_(k+1)) V(n, k+1),

    so no entry is a ``FieldElem`` and each output coefficient T(n, 0) =
    V(n, 0) / s^n takes one constant normal form.  Any other weight sends
    the run to ``_dot_tableau``."""
    weights = (*b[:depth], *lam[:depth - 1])
    s = 1
    for w in weights:
        if len(w.num) > 1 or len(w.den) > 1:
            return _dot_tableau(b, lam, depth, prec)
        s = lcm(s, w.den[0])
    scaled = [w.num[0] * (s // w.den[0]) if w.num else 0 for w in weights]
    steps = list(zip(scaled, [*scaled[depth:], 0]))  # (s b_k, s lam_(k+1))
    row = [1]
    out = [ONE]
    sn = 1
    for n in range(1, prec):
        top = min(depth - 1, n, prec - 1 - n)
        prev = [0, *row, 0, 0]  # prev[k] = V(n-1, k-1)
        row = [s * prev[k] + bk * prev[k + 1] + lk * prev[k + 2]
               for k, (bk, lk) in zip(range(top + 1), steps)]
        sn *= s
        out.append(_qnorm(row[0], sn))
    return Series(out)


def _dot_tableau(b: Sequence, lam: Sequence, depth: int, prec: int) -> Series:
    """``_tableau`` over Q(r): each entry is one ``dot`` of (1, b_k,
    lam_(k+1)) against (T(n-1, k-1), T(n-1, k), T(n-1, k+1)), so one
    normal form per entry."""
    steps = [(ONE, b[k], lam[k] if k + 1 < depth else ZERO) for k in range(depth)]
    row = [ONE]
    out = [ONE]
    for n in range(1, prec):
        top = min(depth - 1, n, prec - 1 - n)
        prev = [ZERO, *row, ZERO, ZERO]  # prev[k] = T(n-1, k-1)
        row = [dot(steps[k], prev[k:k + 3]) for k in range(top + 1)]
        out.append(row[0])
    return Series(out)


def series_to_jfrac(f: Series) -> JFraction:
    """Expand f as a Jacobi fraction by the Chebyshev algorithm (Gautschi
    2004, section 2.1): the tableau run backwards from T(n, 0) = [x^n] f.
    Column k comes from columns k-1 and k-2, since the recurrence gives

        lam_k T(k+j, k) = T(k+j+1, k-1) - T(k+j, k-2) - b_(k-1) T(k+j, k-1),

    with lam_k the value at j = 0 (T(k, k) = 1), and b_k = T(k+1, k) -
    T(k, k-1).  Each entry is one ``dot``; so O(N^2) entries and one
    inverse per level, and no series division.

    From N known coefficients column k has N - 2k entries, so the
    expansion determines floor(N/2) diagonal terms and floor((N-1)/2)
    weights.  A vanishing weight with a nonzero remainder (the rest of its
    column) is a degeneracy; with a zero remainder the fraction simply
    terminates (rational case).
    """
    if not f.coeffs or not f.coeffs[0].is_one():
        raise NonUnitConstantTerm("fraction expansion needs f(0) = 1")
    bs, lams = [], []
    below, col = [ZERO] * f.prec, list(f.coeffs)  # columns k-2, k-1
    while len(col) >= 2:  # col[j] = T(k-1+j, k-1)
        b = col[1] - below[1]
        bs.append(b)
        if len(col) < 3:
            break
        # (T(k+j+1, k-1), T(k+j, k-2), T(k+j, k-1)) for j = 0 .. N-2k-1
        terms = list(zip(col[2:], below[2:], col[1:]))
        step = (ONE, -ONE, -b)
        lam = dot(step, terms[0])
        if lam.is_zero():
            if any(not dot(step, t).is_zero() for t in terms[1:]):
                raise DegenerateCfrac(
                    "partial numerator vanished with a nonzero remainder"
                )
            break
        lams.append(lam)
        inv = lam.inverse()
        step = (inv, -inv, -(b * inv))
        below, col = col, [dot(step, t) for t in terms]
    return JFraction(bs, lams)


def jfrac_to_series(J: JFraction, prec: int) -> Series:
    """The truncated fraction to prec terms, by the Stieltjes tableau in
    O(prec * depth) entries.

    Coefficient x^n sees b_k for 2k+1 <= n and lam_k for 2k <= n, so prec
    coefficients need floor(prec/2) diagonal terms and floor((prec-1)/2)
    weights.  A short lam means the fraction terminates (rational value);
    a short b with weights still in play is an error.
    """
    if prec <= 0:
        return Series([])
    needed_b = prec // 2
    needed_l = (prec - 1) // 2
    if len(J.lam) >= needed_l:
        if len(J.b) < needed_b:
            raise InsufficientDepth(
                f"need {needed_b} diagonal terms for precision {prec}, "
                f"have {len(J.b)}"
            )
        depth = needed_l + 1
    else:
        depth = len(J.lam) + 1  # terminates; missing b treated as 0
    b = J.b[:depth] + (ZERO,) * (depth - len(J.b))
    return _tableau(b, J.lam, depth, prec)


def sfrac_to_series(S: SFraction, prec: int) -> Series:
    """Through the even contraction, so by the same tableau in
    O(prec * depth) entries.  Coefficient x^n sees s_1 .. s_n, so prec
    terms need prec - 1 entries; a short s-list terminates."""
    if prec <= 0:
        return Series([])
    return jfrac_to_series(contract_s_to_j(SFraction(S.s[: prec - 1])), prec)


def series_to_sfrac(f: Series) -> SFraction:
    """Expand f as a Stieltjes fraction, one coefficient per order, by
    undoing the even contraction of its Jacobi fraction: s1 = b0,
    s[2k] = lam_k / s[2k-1], s[2k+1] = b_k - s[2k].  A zero odd entry
    ends the fraction where the J-fraction ends, and is a degeneracy
    anywhere else."""
    J = series_to_jfrac(f)
    ss = []
    for k, b in enumerate(J.b):
        odd = b - ss[-1] if ss else b
        if odd.is_zero():
            if k == len(J.lam):
                break
            raise DegenerateCfrac(
                "partial numerator vanished with a nonzero remainder"
            )
        ss.append(odd)
        if k < len(J.lam):
            ss.append(J.lam[k] / odd)
    return SFraction(ss)


def contract_s_to_j(S: SFraction) -> JFraction:
    """Classical even contraction: b0 = s1, bn = s[2n] + s[2n+1],
    lam_n = s[2n-1] * s[2n]; absent entries count as zero."""
    m = len(S.s)

    def s(i: int) -> FieldElem:  # 1-based with zero padding
        return S.s[i - 1] if 1 <= i <= m else ZERO

    bs = [s(1)]
    lams = []
    n = 1
    while 2 * n <= m:
        bs.append(s(2 * n) + s(2 * n + 1))
        lams.append(s(2 * n - 1) * s(2 * n))
        n += 1
    return JFraction(bs, lams)


# -- two-sequence (Deleham) triangle constructions ------------------------


def _bivariate_weights(rs: Sequence, ss: Sequence, depth: int) -> list:
    rs = [fe(v) for v in rs]
    ss = [fe(v) for v in ss]
    out = []
    for k in range(depth):
        rk = rs[k] if k < len(rs) else ZERO
        sk = ss[k] if k < len(ss) else ZERO
        out.append(rk + sk * R)  # the second variable rides on r
    return out


def deleham(rs: Sequence, ss: Sequence, rows: int):
    """Triangle whose bivariate gf is 1/(1 - w0 x/(1 - w1 x/(...))) with
    w_k = r_k + s_k y; row n lists the y^k coefficients of [x^n]."""
    w = _bivariate_weights(rs, ss, max(rows - 1, 0))
    gf = sfrac_to_series(SFraction(w), rows)
    return triangle_from_gf(gf, rows)


def deleham_delta1(rs: Sequence, ss: Sequence, rows: int):
    """Variant with the first weight at the top level:
    1/(1 - w0 x - w1 x/(1 - w2 x/(1 - ...)))."""
    w = _bivariate_weights(rs, ss, max(rows + 1, 2))
    prec = rows
    x = Series.x(prec)
    tail = sfrac_to_series(SFraction(w[2:]), prec)
    gf = divide(Series.one(prec), Series.one(prec) - x * w[0] - x * w[1] * tail)
    return triangle_from_gf(gf, rows)


# -- pairing of constant-tail and quadratic-weight fractions ---------------


def t_inverse(b0, c, mu, depth: int) -> JFraction:
    """The quadratic-weight partner of J(b0; c, c, ...; mu, mu, ...):
    diagonal b0 + n*c and weights n^2 * mu, to ``depth`` entries each."""
    b0, c, mu = fe(b0), fe(c), fe(mu)
    bs = [b0 + c * n for n in range(depth)]
    lams = [mu * (n * n) for n in range(1, depth + 1)]
    return JFraction(bs, lams)


def t_forward(J: JFraction) -> Tuple[FieldElem, FieldElem, FieldElem]:
    """Validate the affine/quadratic pattern and return (b0, c, mu)."""
    if len(J.b) < 2 or len(J.lam) < 1:
        raise PatternMismatch("need at least two diagonal terms and one weight")
    b0 = J.b[0]
    c = J.b[1] - b0
    mu = J.lam[0]
    for n, bn in enumerate(J.b):
        if bn != b0 + c * n:
            raise PatternMismatch(
                f"diagonal term {n} is {bn}, expected {b0 + c * n}"
            )
    for i, ln in enumerate(J.lam):
        n = i + 1
        if ln != mu * (n * n):
            raise PatternMismatch(
                f"weight {n} is {ln}, expected {mu * (n * n)}"
            )
    return b0, c, mu


def t_forward_image(J: JFraction) -> JFraction:
    """The constant-tail fraction J(b0; c, c, ...; mu, mu, ...) paired with J,
    at the same depth as the input."""
    b0, c, mu = t_forward(J)
    bs = [b0] + [c] * (len(J.b) - 1)
    lams = [mu] * len(J.lam)
    return JFraction(bs, lams)
