"""Exact arithmetic in Q(r), the field of rational functions in one parameter.

A value is a quotient of integer-coefficient polynomials in r, held in a
canonical normal form so that equal values have identical representations:

* numerator and denominator share no polynomial factor,
* the integer contents of the two polynomials are coprime,
* the denominator's leading coefficient is positive.

Polynomials are tuples of ints in ascending powers with no trailing zeros;
the zero polynomial is the empty tuple.  Coefficients are unbounded Python
ints, so every operation is exact.

One function, ``_norm``, computes the normal form.  Over a constant
denominator it takes one integer gcd of the denominator and the
numerator's coefficients; otherwise it divides out the polynomial gcd
``pgcd`` and fixes the sign.  ``pgcd`` itself answers with the gcd of the
contents as soon as either argument is a constant.  Most values met in
practice are rational constants (num and den of length at most one), so
sums and products of two constants skip to ``_qnorm``, which takes the gcd
of two ints and returns the ``FieldElem``.  The normal form is the same on
every path.

Every sum of products of ``FieldElem``s (series products and quotients,
the exp recurrence, triangle and matrix products over Q(r)) goes through
one kernel, ``dot``; sums of rational constants in ``cfrac._tableau`` and
of integers in ``triangles._isum`` run in Python ints.  ``dot`` brings the
products over the lcm of their denominators, adds the numerators in place
in Z[r], and runs the normal form once on the sum, instead of once per
partial sum as ``s = s + a * b`` does.  It makes one walk over its
operands, which skips zero terms and adds each product of two rational
constants at once to a running integer sum over the lcm of those terms'
denominators.  It notes every other term's numerators and integer product
denominator, with their lcm and the length of the sum; a polynomial
denominator met on the way hands the sum to the lcm in Z[r].  A sum of
constants ends in one ``_qnorm``; otherwise the constant sum joins the
Z[r] sum over the common lcm, which ends in ``_norm``.  Since the normal
form is unique, ``dot`` returns exactly what the left fold returns.  Every
integer power goes through one loop, ``power``.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd as _igcd

from .errors import EvaluationPole, InexactDivision

Poly = tuple  # tuple[int, ...], ascending powers, trailing zeros trimmed

PZERO: Poly = ()
PONE: Poly = (1,)


def ptrim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return PZERO
    if a == PONE:
        return b
    if b == PONE:
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ptrim(out)


def pcontent(a: Poly) -> int:
    g = 0
    for c in a:
        g = _igcd(g, c)
    return g


def pprimitive(a: Poly) -> Poly:
    """Primitive part with positive leading coefficient."""
    if not a:
        return PZERO
    c = pcontent(a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return a
    return tuple(x // c for x in a)


def pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Quotient a/b when b divides a exactly in Z[r]."""
    if not a:
        return PZERO
    if b == PONE:
        return a
    if len(b) == 1:
        d = b[0]
        return tuple(c // d for c in a)
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + db]
        if c:
            qc = c // lb
            q[i] = qc
            for j, cb in enumerate(b):
                rem[i + j] -= qc * cb
    if any(rem):
        raise InexactDivision(f"{pstr(b)} does not divide {pstr(a)} in Z[r]")
    return ptrim(q)


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of a by b (fraction-free); a and b are trimmed."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(rem) - 1 >= db:
        lead = rem[-1]
        shift = len(rem) - 1 - db
        rem = [c * lb for c in rem]
        for j, cb in enumerate(b):
            rem[shift + j] -= lead * cb
        rem = list(ptrim(rem))
    return tuple(rem)


def pgcd(a: Poly, b: Poly) -> Poly:
    """Gcd in Z[r], primitive x content, positive leading coefficient."""
    if not a or not b:
        g = a or b
        return g if not g or g[-1] > 0 else pneg(g)
    c = _igcd(pcontent(a), pcontent(b))
    if len(a) == 1 or len(b) == 1:
        return (c,)
    pa, pb = pprimitive(a), pprimitive(b)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    # primitive PRS keeps intermediate coefficients small
    while pb:
        if len(pb) == 1:
            pa = PONE
            break
        r = _prem(pa, pb)
        pa, pb = pb, pprimitive(r)
    g = pprimitive(pa)
    return tuple(x * c for x in g) if c != 1 else g


def peval(a: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def istr(n: int) -> str:
    """The decimal text of n, however long: past CPython's limit on
    int-to-string conversion (4,300 digits) it is written through Decimal,
    which has none."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def iparse(s: str) -> int:
    """The int whose decimal text is s, however long; the inverse of istr.
    Past int()'s limit only one optional '-' and ASCII digits are read."""
    try:
        return int(s)
    except ValueError:
        digits = s[1:] if s[:1] == "-" else s
        if not (digits.isascii() and digits.isdecimal()):
            raise
        return int(Decimal(s))


def pstr(a: Poly) -> str:
    """Render in descending powers with explicit signs."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = istr(mag)
        else:
            v = "r" if k == 1 else f"r^{k}"
            body = v if mag == 1 else f"{istr(mag)}{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _norm(num: Poly, den: Poly) -> tuple:
    """Normal form (num, den) of num/den; both trimmed, den nonzero."""
    if len(den) == 1:
        d = den[0]
        g = _igcd(d, *num)
        if d < 0:
            g = -g
        if g == 1:
            return num, den
        return tuple(c // g for c in num), (d // g,)
    if not num:
        return PZERO, PONE
    g = pgcd(num, den)
    if g != PONE:
        num = pdiv_exact(num, g)
        den = pdiv_exact(den, g)
    if den[-1] < 0:
        num, den = pneg(num), pneg(den)
    return num, den


def _make(num: Poly, den: Poly) -> "FieldElem":
    """A FieldElem from a pair already in normal form."""
    out = object.__new__(FieldElem)
    out.num, out.den = num, den
    return out


def _qnorm(n: int, d: int) -> "FieldElem":
    """The constant n/d in normal form, for d > 0 (no sign fix)."""
    g = _igcd(n, d)
    return _make((n // g,) if n else PZERO, (d // g,))


class FieldElem:
    """An element of Q(r) in canonical normal form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE):
        den = ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(r)")
        self.num, self.den = _norm(ptrim(num), den)

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == PONE and self.den == PONE

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a rational constant")
        n = self.num[0] if self.num else 0
        return Fraction(n, self.den[0])

    def __add__(self, other):
        if not isinstance(other, FieldElem):
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = fe(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a) <= 1 and len(b) == 1 and len(c) <= 1 and len(d) == 1:
            n = (a[0] * d[0] if a else 0) + (c[0] * b[0] if c else 0)
            return _qnorm(n, b[0] * d[0])
        if b == d:
            return FieldElem(padd(a, c), b)
        return FieldElem(padd(pmul(a, d), pmul(c, b)), pmul(b, d))

    __radd__ = __add__

    def __neg__(self):
        return _make(pneg(self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self + (-fe(other))

    def __rsub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return fe(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, FieldElem):
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = fe(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a) == 1 and len(b) == 1 and len(c) == 1 and len(d) == 1:
            return _qnorm(a[0] * c[0], b[0] * d[0])
        # cross-cancel; b, d and pgcd have positive leads, so no sign fix
        g1 = pgcd(a, d) if d != PONE and a != PONE else PONE
        g2 = pgcd(c, b) if b != PONE and c != PONE else PONE
        if g1 != PONE:
            a, d = pdiv_exact(a, g1), pdiv_exact(d, g1)
        if g2 != PONE:
            c, b = pdiv_exact(c, g2), pdiv_exact(b, g2)
        return _make(pmul(a, c), pmul(b, d))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in Q(r)")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = pneg(num), pneg(den)
        return _make(num, den)

    def __truediv__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self * fe(other).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return fe(other) * self.inverse()

    def __pow__(self, e: int) -> "FieldElem":
        """``power`` for an int e; a negative e inverts first."""
        if e < 0:
            return self.inverse() ** -e
        return power(self, e) if e else ONE

    def __eq__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = fe(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def substitute(self, value: Fraction) -> "FieldElem":
        """Specialize r to an exact rational; reports poles."""
        d = peval(self.den, value)
        if d == 0:
            raise EvaluationPole(f"denominator {pstr(self.den)} vanishes at r={value}")
        return fe(peval(self.num, value) / d)

    def __str__(self):
        num, den = self.num, self.den
        if len(num) <= 1 and len(den) == 1:  # a rational constant: no pstr
            ns = istr(num[0]) if num else "0"
            return ns if den == PONE else f"{ns}/{istr(den[0])}"
        ns = pstr(num)
        if den == PONE:
            return ns
        ds = pstr(den)
        if " " in ns:
            ns = f"({ns})"
        if " " in ds or len(den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"FieldElem({self})"


# what the operators accept as the other operand, converted by ``fe``
_OPERANDS = (FieldElem, int, Fraction)


def dot(xs, ys) -> FieldElem:
    """sum(x * y for x, y in zip(xs, ys)) with one normal form at the end.

    xs and ys are sequences.  One walk over the pairs skips zero terms.  A
    term whose four polynomials are constants is added at once to a
    running sum n / nd over the lcm nd of those terms' denominators, with
    no term kept.  Every other term is kept as (longer numerator, shorter
    numerator, product denominator pd) while the walk takes the lcm d of
    their pd and the length of the sum.  A polynomial denominator, met
    anywhere in the walk, hands the whole sum to ``_dot_rational``.  With
    no term kept the result is one ``_qnorm`` of n / nd.  Otherwise the
    sum over lcm(d, nd) starts at n scaled to it and adds a Z[r] product
    per term, the shorter numerator on the outside, scaled once."""
    terms = []
    n = 0
    nd = d = width = 1
    for x, y in zip(xs, ys):
        a, c = x.num, y.num
        if not a or not c:
            continue
        b, e = x.den, y.den
        if len(b) > 1 or len(e) > 1:
            return _dot_rational(xs, ys)
        pd = b[0] * e[0]
        if len(a) == 1 and len(c) == 1:
            if nd % pd:
                f = pd // _igcd(nd, pd)
                n *= f
                nd *= f
            n += a[0] * c[0] * (nd // pd)
            continue
        if d % pd:
            d = d // _igcd(d, pd) * pd
        w = len(a) + len(c)
        if w > width:
            width = w
        terms.append((a, c, pd) if len(c) <= len(a) else (c, a, pd))
    if not terms:
        return _qnorm(n, nd)
    acc = [0] * (width - 1)
    if n:
        if d % nd:
            d = d // _igcd(d, nd) * nd
        acc[0] = n * (d // nd)
    for a, c, pd in terms:
        if pd != d:
            f = d // pd
            c = [v * f for v in c]
        for j, v in enumerate(c):
            if v:
                i = j  # a counter, not enumerate: no tuple per product
                for u in a:
                    acc[i] += v * u
                    i += 1
    return _make(*_norm(ptrim(acc), (d,)))


def _dot_rational(xs, ys) -> FieldElem:
    """``dot`` over the lcm in Z[r] of the product denominators, for sums
    in which some denominator is a polynomial of positive degree."""
    terms = [(x, y) for x, y in zip(xs, ys) if x.num and y.num]
    dens = [pmul(x.den, y.den) for x, y in terms]
    den = dens[0]
    for pd in dens[1:]:
        if pd != den:
            den = pmul(den, pdiv_exact(pd, pgcd(den, pd)))
    num = PZERO
    for (x, y), pd in zip(terms, dens):
        num = padd(num, pmul(pmul(x.num, y.num), pdiv_exact(den, pd)))
    return FieldElem(num, den)


def power(x, e: int):
    """x ** e for an int e >= 1, FieldElem or Series: one squaring per bit
    of e below the leading one, and one more product per set bit."""
    acc = x
    for bit in bin(e)[3:]:
        acc = acc * acc
        if bit == "1":
            acc = acc * x
    return acc


ZERO = FieldElem(PZERO)
ONE = FieldElem(PONE)
R = FieldElem((0, 1))

_INT_CACHE = {0: ZERO, 1: ONE}
for _n in (-1, 2, -2, 3, -3, 4, 6):
    _INT_CACHE[_n] = FieldElem((_n,))


def fe(v) -> FieldElem:
    """The element of Q(r) that an int, a Fraction or a FieldElem stands
    for; the one conversion into Q(r)."""
    if v.__class__ is FieldElem:
        return v
    if isinstance(v, int):
        return _INT_CACHE.get(v) or _make((v,), PONE)
    if isinstance(v, Fraction):
        return _make((v.numerator,) if v else PZERO, (v.denominator,))
    raise TypeError(f"cannot convert {type(v).__name__} into Q(r)")
