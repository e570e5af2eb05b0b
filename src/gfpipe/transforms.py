"""Sequence-level transforms built on the series kernel.

The central object is the transformation pipeline: starting from an
ordinary generating function g whose expansion begins 1, 0, ...

  1. reinterpret the coefficients as an exponential gf (inverse Sumudu),
  2. take the logarithmic derivative h,
  3. integrate 1 - h from 0 (prepending a zero coefficient),
  4. revert, and differentiate the reversion.

The result F is again an exponential gf with F(0) = 1.  The reverse
pipeline reconstructs the step-1 egf from F via
g_tilde = exp(x - Rev(integral of F)).
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul, truediv

from .errors import PipelinePrecondition
from .ratfun import dot, fe
from .record import Record
from .series import Series


class PipelineTrace(Record):
    """All intermediate series of one pipeline run: ``g_tilde`` the egf
    reinterpretation of the input, ``h`` its logarithmic derivative, ``q``
    the integral of 1 - h vanishing at 0, ``u`` the compositional inverse
    of q, and ``F`` the derivative of u, the pipeline image."""

    __slots__ = ("g_tilde", "h", "q", "u", "F")


def _factorial_scale(g: Series, op) -> Series:
    """op(c_n, n!) for each coefficient c_n: both Sumudu directions."""
    facts = accumulate(range(1, g.prec), mul, initial=1)
    return Series([c if f == 1 else op(c, f) for c, f in zip(g.coeffs, facts)])


def inverse_sumudu(g: Series) -> Series:
    """Divide coefficient n by n!: same sequence, read as an egf."""
    return _factorial_scale(g, truediv)


def sumudu(f: Series) -> Series:
    """Multiply coefficient n by n!: same sequence, read as an ogf."""
    return _factorial_scale(f, mul)


def invert_transform(g: Series, c) -> Series:
    """g / (1 - c*x*g).

    The classical INVERT(m) transform is ``invert_transform(g, -m)``: the
    parameter here is the coefficient that ends up in the denominator.
    """
    c = fe(c)
    den = Series([fe(1)] + [-(c * gk) for gk in g.coeffs[: g.prec - 1]])
    return g / den


def binomial_transform(g: Series, inverse: bool = False) -> Series:
    """Ogf binomial transform (1/(1-sx)) g(x/(1-sx)), s = 1, or s = -1 for
    the inverse, as the direct sum b_m = sum_k C(m,k) s^(m-k) g_k: one
    ``dot`` per coefficient and no series product."""
    s = -1 if inverse else 1
    return Series([
        dot(g.coeffs[: m + 1], [fe(comb(m, k) * s ** (m - k)) for k in range(m + 1)])
        for m in range(g.prec)
    ])


def partial_P(g: Series) -> Series:
    """Steps 1 and 2 only: logarithmic derivative of the egf form."""
    return inverse_sumudu(g).log_derivative()


def pipeline_P_trace(g: Series) -> PipelineTrace:
    if g.prec < 2 or not g.coeffs[0].is_one() or not g.coeffs[1].is_zero():
        raise PipelinePrecondition(
            "pipeline input must expand to a sequence beginning 1, 0"
        )
    g_tilde = inverse_sumudu(g)
    h = g_tilde.log_derivative()
    q = (Series.one(h.prec) - h).integrate()
    u = q.revert()
    F = u.derivative()
    return PipelineTrace(g_tilde, h, q, u, F)


def pipeline_P(g: Series) -> Series:
    """The full pipeline; output precision is one less than the input's."""
    return pipeline_P_trace(g).F


def reverse_P(F: Series) -> Series:
    """Recover the pipeline's step-1 egf: exp(x - Rev(integral of F))."""
    if not F.coeffs or not F.coeffs[0].is_one():
        raise PipelinePrecondition("reverse pipeline needs F(0) = 1")
    rev = F.integrate().revert()
    return (Series.x(rev.prec) - rev).exp()
