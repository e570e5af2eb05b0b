"""Triangle algebra, Riordan arrays, production matrices, and closed-form
oracles for the classical triangles the engine reproduces.

Triangles are dense lower-triangular arrays of Q(r) entries, built from
bivariate generating functions (the second variable riding on the
parameter r), from Riordan pairs, from continued fractions, or from the
closed forms in ``oracle``.  Oracles are deliberately computed from
binomial sums and explicit recurrences only, independent of any series
machinery, so they can confirm the generating-function routes.

``matmul``, ``tri_inverse`` and ``riordan_to_triangle`` run one loop over
either element type.  When every entry in play is an integer (denominator
1, degree 0 in r; ``_ints`` reads them), the loop runs over Python ints,
each sum of products one ``sum(map(mul, ...))``, and ``FieldElem``s are
built once, for the output.  An integer has no denominator, so these sums
never grow a common one and the route needs no size rule.  Any other
entry keeps the loop on ``dot``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Callable, Sequence

from .errors import (
    IndexRange,
    NonPolynomialRow,
    NotTridiagonal,
    PrecisionExhausted,
    SingularDiagonal,
    UnknownOracle,
)
from .ratfun import ONE, PONE, ZERO, FieldElem, dot, fe
from .record import Record
from .series import Series


class Triangle(Record):
    """Lower-triangular array; row n holds entries T(n,0) .. T(n,n)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(fe(v) for v in row) for row in rows)
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")
        super().__init__(rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class SquareMatrix(Record):
    """Dense square matrix of Q(r) entries (production-matrix truncations)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(fe(v) for v in row) for row in rows)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
        super().__init__(rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def apply(self, vec: Sequence) -> tuple:
        vec = [fe(v) for v in vec]
        if len(vec) != self.size:
            raise ValueError("vector length must match matrix size")
        return tuple(dot(row, vec) for row in self.rows)


class RiordanArray(Record):
    """Pair (g, f) with g(0) != 0 and f(0) = 0.

    Proper group elements also have f'(0) != 0; stretched arrays such as
    (1, x^2/(1-2x)) are admitted because only reversion-based operations
    (production matrices) actually need the nonzero linear term, and those
    enforce it themselves.
    """

    __slots__ = ("g", "f")

    def __init__(self, g: Series, f: Series):
        if not g.coeffs or g.coeffs[0].is_zero():
            raise ValueError("Riordan g needs a nonzero constant term")
        if f.prec < 2 or not f.coeffs[0].is_zero():
            raise ValueError("Riordan f needs f(0) = 0")
        super().__init__(g, f)


class RecurrenceCoeffs(Record):
    """Three-term recurrence data read off a tridiagonal production matrix:
    alpha[n] = P[n][n], beta[n] = P[n+1][n]."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Sequence, beta: Sequence):
        super().__init__(tuple(fe(v) for v in alpha), tuple(fe(v) for v in beta))


# -- construction ----------------------------------------------------------


def triangle_from_gf(gf: Series, rows: int) -> Triangle:
    """Row n collects the r-coefficients of [x^n] gf; the triangle of an
    exponential gf is that of its Sumudu transform.

    Entries must be polynomial in r of degree at most n.
    """
    if gf.prec < rows:
        raise ValueError(f"need {rows} coefficients, series has {gf.prec}")
    out = []
    for n in range(rows):
        c = gf.coeffs[n]
        if len(c.den) > 1:
            raise NonPolynomialRow(
                f"order-{n} coefficient {c} is not polynomial in r"
            )
        if len(c.num) > n + 1:
            raise NonPolynomialRow(
                f"order-{n} coefficient {c} has degree above {n}"
            )
        d = c.den[0]
        row = [
            fe(Fraction(c.num[k], d)) if k < len(c.num) else ZERO
            for k in range(n + 1)
        ]
        out.append(row)
    return Triangle(out)


def reversal(T: Triangle) -> Triangle:
    return Triangle([tuple(reversed(row)) for row in T.rows])


def _ints(rows):
    """The entries of ``rows`` (a triangle's rows, or series' coefficient
    lists) as lists of Python ints, or None if any is not an integer."""
    out = []
    for row in rows:
        for v in row:
            if v.den != PONE or len(v.num) > 1:
                return None
        out.append([v.num[0] if v.num else 0 for v in row])
    return out


def _isum(xs, ys):
    """``dot`` over Python ints."""
    return sum(map(mul, xs, ys))


def matmul(A: Triangle, B: Triangle) -> Triangle:
    """Entry (i, j) is one sum of products of A's row i from column j with
    B's column j from row j; B's columns are built once, and the sum stops
    at the end of the row.  Over integer entries it runs in Python ints,
    otherwise each sum is one ``dot``."""
    n = min(A.n_rows, B.n_rows)
    ab = _ints(A.rows[:n] + B.rows[:n])
    a, b, sp = (ab[:n], ab[n:], _isum) if ab else (A.rows, B.rows, dot)
    cols = [[b[k][j] for k in range(j, n)] for j in range(n)]
    return Triangle([
        [sp(a[i][j:], cols[j]) for j in range(i + 1)]
        for i in range(n)
    ])


def identity_triangle(rows: int) -> Triangle:
    return Triangle([[ONE if k == n else ZERO for k in range(n + 1)] for n in range(rows)])


def tri_inverse(T: Triangle) -> Triangle:
    """Exact inverse of the truncation, by forward substitution.

    Row i of T below the diagonal is scaled once by -1/T(i,i); entry (i, j)
    of the inverse is then one sum of products of that row from column j
    with the inverse's column j found so far, to which it is appended.
    Over integer entries with every diagonal entry ±1, its own inverse, no
    division is needed and the loop runs in Python ints; otherwise each
    sum is one ``dot``."""
    n = T.n_rows
    t = _ints(T.rows)
    if t and all(row[i] in (1, -1) for i, row in enumerate(t)):
        diag, sp = [row[i] for i, row in enumerate(t)], _isum
    else:
        t, sp = T.rows, dot
        for i, row in enumerate(t):
            if row[i].is_zero():
                raise SingularDiagonal(f"zero diagonal entry in row {i}")
        diag = [row[i].inverse() for i, row in enumerate(t)]
    cols = [[] for _ in range(n)]
    for i, row in enumerate(t):
        d = diag[i]
        m = -d
        scaled = [v * m for v in row[:i]]
        for j in range(i):
            cols[j].append(sp(scaled[j:], cols[j]))
        cols[i].append(d)
    return Triangle([[cols[j][i - j] for j in range(i + 1)] for i in range(n)])


def binomial_matrix(rows: int) -> Triangle:
    return Triangle([[comb(n, k) for k in range(n + 1)] for n in range(rows)])


def riordan_to_triangle(Rarr: RiordanArray, rows: int, exponential: bool = False) -> Triangle:
    """Column k is g*f^k, scaled by n!/k! for an exponential array.

    Column k is made from column k-1, whose valuation is at least k-1: as
    f(0) = 0, its entry n >= k is one sum of products of column k-1's
    entries k-1 .. n-1 with f's coefficients n-k+1 .. 1, and its entries
    below k are zero, also when f'(0) = 0.  When g and f have integer
    coefficients the columns, and the integer scale n!/k!, run in Python
    ints; otherwise each sum is one ``dot``."""
    g, f = Rarr.g.coeffs, Rarr.f.coeffs
    if min(len(g), len(f)) < rows:
        raise ValueError("Riordan pair not expanded far enough")
    gf = _ints((g[:rows], f[:rows]))
    (g, f), sp = (gf, _isum) if gf else ((g, f), dot)
    col = g[:rows]
    cols = [col]
    for k in range(1, rows):
        col = [ZERO] * k + [sp(col[k - 1:n], f[n - k + 1:0:-1])
                            for n in range(k, rows)]
        cols.append(col)
    facts = [factorial(n) for n in range(rows)] if exponential else ()
    return Triangle([
        [cols[k][n] * (facts[n] // facts[k]) if exponential else cols[k][n]
         for k in range(n + 1)]
        for n in range(rows)
    ])


def riordan_apply(Rarr: RiordanArray, h: Series) -> Series:
    """Action of the ordinary array on a coefficient column: g * h(f)."""
    return Rarr.g * h.compose(Rarr.f)


# -- production matrices and orthogonal polynomials ------------------------


def production_matrix(Rarr: RiordanArray, size: int) -> SquareMatrix:
    """Production matrix of an exponential Riordan array.

    With A = f' o revert(f) and Z = (g' o revert(f)) / (g o revert(f)),
    entry (i, j) is (i!/j!) (z_{i-j} + j a_{i-j+1}), negative indices zero.
    A is taken as 1/revert(f)' (the chain rule on f(revert(f)) = x) and Z
    as (g'/g) o revert(f), so only one composition is needed.
    """
    g, f = Rarr.g, Rarr.f
    fbar = f.revert()
    A = 1 / fbar.derivative()
    Z = g.log_derivative().compose(fbar)
    if A.prec < size + 1 or Z.prec < size:
        raise ValueError("Riordan pair not expanded far enough for this size")

    def a(m: int) -> FieldElem:
        return A.coeffs[m] if 0 <= m < A.prec else ZERO

    def z(m: int) -> FieldElem:
        return Z.coeffs[m] if 0 <= m < Z.prec else ZERO

    rows = []
    for i in range(size):
        fi = factorial(i)
        row = []
        for j in range(size):
            if j > i + 1:
                row.append(ZERO)
                continue
            coef = z(i - j) + a(i - j + 1) * j
            row.append(coef * Fraction(fi, factorial(j)))
        rows.append(row)
    return SquareMatrix(rows)


def recurrence_from_production(P: SquareMatrix) -> RecurrenceCoeffs:
    """Read alpha (diagonal) and beta (subdiagonal) off a tridiagonal P
    whose superdiagonal is identically 1."""
    n = P.size
    for i in range(n):
        for j in range(n):
            if j > i + 1 and not P.rows[i][j].is_zero():
                raise NotTridiagonal(f"nonzero entry above the superdiagonal at {(i, j)}")
            if j == i + 1 and not P.rows[i][j].is_one():
                raise NotTridiagonal(f"superdiagonal entry at {(i, j)} is not 1")
            if j < i - 1 and not P.rows[i][j].is_zero():
                raise NotTridiagonal(f"nonzero entry below the subdiagonal at {(i, j)}")
    alpha = [P.rows[i][i] for i in range(n)]
    beta = [P.rows[i + 1][i] for i in range(n - 1)]
    return RecurrenceCoeffs(alpha, beta)


def orthopoly_triangle(rc: RecurrenceCoeffs, rows: int) -> Triangle:
    """Coefficient rows of the monic polynomials defined by
    P_n = (x - alpha[n-1]) P_{n-1} - beta[n-2] P_{n-2}, P_0 = 1: each
    coefficient one ``dot`` of (1, -alpha[n-1], -beta[n-2]) against
    (P_(n-1)[i-1], P_(n-1)[i], P_(n-2)[i])."""
    if rows > len(rc.alpha) + 1 or (rows > 2 and rows > len(rc.beta) + 2):
        raise ValueError("not enough recurrence coefficients for that many rows")
    polys = [[ONE]]
    for n in range(1, rows):
        step = (ONE, -rc.alpha[n - 1], -rc.beta[n - 2] if n >= 2 else ZERO)
        prev = [ZERO, *polys[n - 1], ZERO]  # prev[i] = P_(n-1)[i-1]
        older = [*(polys[n - 2] if n >= 2 else ()), ZERO, ZERO]
        polys.append([dot(step, (prev[i], prev[i + 1], older[i]))
                      for i in range(n + 1)])
    return Triangle(polys[:rows])


def moment_functional(moments: Series, p: Sequence, q: Sequence) -> FieldElem:
    """L[p * q] where L[x^n] is the n-th moment coefficient."""
    p = [fe(v) for v in p]
    q = [fe(v) for v in q]
    deg = (len(p) - 1) + (len(q) - 1)
    if deg >= moments.prec:
        raise PrecisionExhausted(
            f"need moment {deg}, only {moments.prec} moments known"
        )
    m = moments.coeffs
    return dot(p, [dot(q, m[i:]) for i in range(len(p))])


# -- closed-form oracles ----------------------------------------------------


def _comb(n: int, k: int) -> int:
    """Binomial with the empty-product convention C(-1, 0) = 1."""
    if k == 0:
        return 1
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def _stirling2(n: int, k: int) -> Fraction:
    total = 0
    for j in range(k + 1):
        total += (-1) ** (k - j) * comb(k, j) * j**n
    return Fraction(total, factorial(k))


def _eulerian(n: int, k: int) -> int:
    """Permutations of n with k descents (A(0,0)=1)."""
    total = 0
    for j in range(k + 1):
        total += (-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n
    return total


def _narayana3(n: int, k: int) -> Fraction:
    return Fraction(_comb(n + 1, k) * _comb(n, k), k + 1)


def _a096078(n: int, k: int) -> int:
    """T(n,k) = (k+1) T(n-1,k) + (n-k+1) T(n,k-1), T(0,0) = 1, tabulated
    row by row."""
    row = [1]
    for m in range(1, n + 1):
        prev, row = row, []
        for j in range(m + 1):
            up = prev[j] if j < m else 0
            row.append((j + 1) * up + (m - j + 1) * (row[j - 1] if j else 0))
    return row[k]


def _double_factorial_odd(k: int) -> int:
    out = 1
    for m in range(1, 2 * k, 2):
        out *= m
    return out


_ORACLES: dict[str, Callable[[int, int], object]] = {
    "N1": lambda n, k: Fraction(_comb(n, k) * _comb(n - 1, k), k + 1)
    if n > 0 else Fraction(1 if k == 0 else 0),
    "N2": lambda n, k: Fraction(_comb(n - 1, n - k) * _comb(n, k), n - k + 1),
    "N3": _narayana3,
    "E1": _eulerian,
    "E2": lambda n, k: _eulerian(n, n - k),
    "E3": lambda n, k: _eulerian(n + 1, k),
    "stirling2": _stirling2,
    "A019538": lambda n, k: _stirling2(n, k) * factorial(k),
    "A086810": lambda n, k: Fraction(_comb(n - 1, n - k) * _comb(n + k, k), n + 1),
    "A028246ext": lambda n, k: _stirling2(n, k) * factorial(k - 1)
    if k >= 1 else Fraction(1 if n == 0 else 0),
    "A130850": lambda n, k: Fraction(
        sum(
            (-1) ** (n - i - k) * comb(n - k, i) * (i + 1) ** n
            for i in range(n - k + 1)
        )
    ),
    "A090582signed": lambda n, k: _stirling2(n, n - k)
    * ((-1) ** k * factorial(n - k)),
    "galton": lambda n, k: _stirling2(n, k)
    * (_double_factorial_odd(k) * 2 ** (n - k)),
    "A096078": _a096078,
    "etude2_seq": lambda n, k: Fraction(
        _comb(n - k - 1, n - 2 * k) * 2 ** (n - 2 * k)
    )
    if n >= 2 * k else Fraction(0),
}


def oracle(name: str, n: int, k: int) -> FieldElem:
    """Closed-form or recurrence value, independent of any series route."""
    fn = _ORACLES.get(name)
    if fn is None:
        raise UnknownOracle(f"no oracle named {name!r}")
    if n < 0 or k < 0 or k > n:
        raise IndexRange(f"indices ({n}, {k}) out of range for {name}")
    v = fn(n, k)
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise ValueError(f"oracle {name}({n},{k}) is not an integer: {v}")
        v = v.numerator
    return fe(v)


def oracle_triangle(name: str, rows: int) -> Triangle:
    return Triangle(
        [[oracle(name, n, k) for k in range(n + 1)] for n in range(rows)]
    )

