"""Truncated formal power series with coefficients in Q(r).

A Series holds exactly ``prec`` known coefficients c_0 .. c_{prec-1}; the
truncation order is the order of the O(x^prec) error.  The formal variable
is anonymous.  Coefficients are plain: when a series is read as an
exponential generating function the represented sequence is c_n * n!, and
that reinterpretation is performed by the transforms, never stored here.

Every operation returns the largest precision it can guarantee: binary
operations truncate to the smaller input precision, differentiation loses
one order, integration gains one.  Nothing is ever zero-padded silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .errors import (
    CompositionNeedsZeroConstant,
    NonUnitConstantTerm,
    NotReversible,
)
from .ratfun import ONE, ZERO, FieldElem, dot, fe, power


class Series:
    """Truncated power series; immutable, exact, prec == len(coeffs)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = tuple(map(fe, coeffs))

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> FieldElem:
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Series[" + ", ".join(str(c) for c in self.coeffs) + "]"

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c, prec: int) -> "Series":
        if prec < 1:
            return cls([])
        return cls([fe(c)] + [ZERO] * (prec - 1))

    @classmethod
    def one(cls, prec: int) -> "Series":
        return cls.constant(ONE, prec)

    @classmethod
    def x(cls, prec: int) -> "Series":
        cs = [ZERO] * prec
        if prec >= 2:
            cs[1] = ONE
        return cls(cs)

    def truncate(self, prec: int) -> "Series":
        if prec >= self.prec:
            if prec == self.prec:
                return self
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[:prec])

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _as_series(other, self.prec)
        n = min(self.prec, other.prec)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_series(other, self.prec))

    def __rsub__(self, other):
        return _as_series(other, self.prec) + (-self)

    def __mul__(self, other):
        """Scalar multiple, one field product per coefficient, or self
        itself for the scalar 1; else the Cauchy product to the shared
        precision: each coefficient is one ``dot`` of a prefix of self
        against the reversed prefix of other, so it is normalised once."""
        if isinstance(other, (int, Fraction, FieldElem)):
            k = fe(other)
            return self if k.is_one() else Series([c * k for c in self.coeffs])
        n = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        return Series([dot(a[: k + 1], b[k::-1]) for k in range(n)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self * fe(other).inverse()
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(_as_series(other, self.prec), self)

    def __pow__(self, e: int):
        """``ratfun.power`` for an int e >= 0."""
        if not isinstance(e, int) or e < 0:
            raise TypeError("use pow_rational for non-integer powers")
        return power(self, e) if e else Series.one(self.prec)

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "Series":
        """Termwise derivative; one fewer known coefficient."""
        return Series([self.coeffs[n] * n for n in range(1, self.prec)])

    def integrate(self) -> "Series":
        """Antiderivative with constant term 0; one extra known order."""
        out = [ZERO]
        for n, c in enumerate(self.coeffs):
            out.append(c / (n + 1))
        return Series(out)

    # -- composition and reversion --------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner) by Brent–Kung baby-step giant-step: with m about
        sqrt(n), block j = sum_{i<m} f_(jm+i) inner^i takes one ``dot`` per
        coefficient against the baby powers inner^0..inner^(m-1), and the
        blocks are joined by Horner in inner^m.  About 2 sqrt(n) series
        products in all."""
        if inner.prec and not inner.coeffs[0].is_zero():
            raise CompositionNeedsZeroConstant(
                "inner series of a composition must have constant term 0"
            )
        n = min(self.prec, inner.prec)
        if n == 0:
            return Series([])
        m = isqrt(n - 1) + 1
        powers = [Series.one(n), inner.truncate(n)]
        while len(powers) <= m:
            powers.append(powers[-1] * powers[1])
        columns = list(zip(*(p.coeffs for p in powers[:m])))
        f = self.coeffs
        acc = None
        for j in range((n - 1) // m, -1, -1):
            block = Series([dot(f[j * m : j * m + m], col) for col in columns])
            acc = block if acc is None else acc * powers[m] + block
        return acc

    def revert(self) -> "Series":
        """Compositional inverse: the unique u with self(u) = u(self) = x.

        Lagrange inversion, [x^k] u = (1/k) [x^(k-1)] winv^k with
        winv = x/self, by baby-step giant-step (Johansson 2015): keep
        winv^0..winv^m for m about sqrt(n) and a giant power winv^(am);
        each wanted coefficient is one ``dot`` of a giant prefix against a
        reversed baby prefix.  About 2 sqrt(n) series products in all."""
        if self.prec and not self.coeffs[0].is_zero():
            raise NotReversible("reversion needs constant term 0")
        if self.prec < 2:
            raise NotReversible("reversion needs at least two known coefficients")
        if self.coeffs[1].is_zero():
            raise NotReversible("reversion needs a nonzero linear coefficient")
        n = self.prec
        w = Series(self.coeffs[1:])  # f/x, unit constant term
        winv = divide(Series.one(n - 1), w)
        m = isqrt(n - 1) or 1
        baby = [Series.one(n - 1), winv]
        while len(baby) <= m:
            baby.append(baby[-1] * winv)
        out = [ZERO] * n
        giant = baby[0]
        for k in range(1, n):
            a, b = divmod(k, m)
            if b == 0:
                giant = giant * baby[m] if a > 1 else baby[m]
                out[k] = giant.coeffs[k - 1] / k
            else:
                out[k] = dot(giant.coeffs[:k], baby[b].coeffs[k - 1 :: -1]) / k
        return Series(out)

    def gf_revert(self) -> "Series":
        """Reversion of a unit-constant gf: solve u*self(u) = x, return u/x."""
        if not self.coeffs or self.coeffs[0].is_zero():
            raise NotReversible("gf reversion needs a nonzero constant term")
        xg = Series([ZERO] + list(self.coeffs))
        return Series(xg.revert().coeffs[1:])

    # -- exp / log family -----------------------------------------------

    def log(self) -> "Series":
        """Series L with exp(L) = self; needs constant term 1."""
        if not self.coeffs:
            return Series([])
        if not self.coeffs[0].is_one():
            raise NonUnitConstantTerm("log needs constant term 1")
        return self.log_derivative().integrate()

    def exp(self) -> "Series":
        """Series E with log(E) = self; needs constant term 0."""
        if not self.coeffs:
            return Series([])
        if not self.coeffs[0].is_zero():
            raise CompositionNeedsZeroConstant("exp needs constant term 0")
        n = self.prec
        f = self.coeffs
        df = [c * k for k, c in enumerate(f)]
        out = [ONE]
        # E' = E * f'  =>  m E_m = sum_j E_j (m-j) f_{m-j}
        for m in range(1, n):
            out.append(dot(out, df[m:0:-1]) / m)
        return Series(out)

    def log_derivative(self) -> "Series":
        """derivative(self)/self; loses one order of precision."""
        if not self.coeffs:
            return Series([])
        if self.coeffs[0].is_zero():
            raise NonUnitConstantTerm("logarithmic derivative needs f(0) != 0")
        return divide(self.derivative(), self)

    def pow_rational(self, e) -> "Series":
        """self**e for an exact rational exponent; needs constant term 1."""
        e = Fraction(e)
        if not self.coeffs:
            return Series([])
        if not self.coeffs[0].is_one():
            raise NonUnitConstantTerm("rational powers need constant term 1")
        return (self.log() * fe(e)).exp()


def _as_series(v, prec: int) -> Series:
    if isinstance(v, Series):
        return v
    return Series.constant(fe(v), prec)


def divide(a: Series, b: Series) -> Series:
    """Quotient q with q*b = a to the shared precision; needs b(0) != 0.

    Solved term by term: q_m * b_0 = a_m - sum_{j<m} q_j b_{m-j} is one
    ``dot`` of (q_0, ..., q_{m-1}, a_m) against (-b_m, ..., -b_1, 1), so
    the subtraction costs no normal form of its own; it is multiplied by
    1/b_0 only when b_0 != 1."""
    n = min(a.prec, b.prec)
    if n == 0:
        return Series([])
    b0 = b.coeffs[0]
    if b0.is_zero():
        raise NonUnitConstantTerm("series division needs a unit constant term")
    b0inv = None if b0.is_one() else b0.inverse()
    # (-b_{n-1}, ..., -b_1, 1): its last m+1 entries pair with out + [a_m]
    negb = [-c for c in b.coeffs[n - 1 : 0 : -1]] + [ONE]
    out = []
    for m in range(n):
        out.append(a.coeffs[m])
        q = dot(out, negb[n - 1 - m :])
        out[m] = q if b0inv is None else q * b0inv
    return Series(out)


def from_ratfun(num: Sequence, den: Sequence, prec: int) -> Series:
    """Expand num/den, polynomials in the formal variable, to prec terms."""
    if not den or fe(den[0]).is_zero():
        raise NonUnitConstantTerm("rational expansion needs den(0) != 0")
    prec = max(prec, 0)
    pad = (ZERO,) * prec
    return divide(Series((*num, *pad)[:prec]), Series((*den, *pad)[:prec]))

