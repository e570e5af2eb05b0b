import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gfpipe
from gfpipe.errors import EvaluationPole, InexactDivision
from gfpipe.ratfun import (
    ONE, R, ZERO, FieldElem, dot, fe, pdiv_exact, pgcd, pmul, pstr, ptrim,
)

from conftest import field_elems, nonzero_field_elems, scalars, small_ints


def test_normalization_canonical_two_routes():
    a = (R * R - 1) / (R - 1)
    b = R + 1
    assert a == b
    assert a.num == b.num and a.den == b.den


def test_normalization_invariants():
    v = FieldElem((2, 2), (-4,))
    # denominator positive leading coefficient, contents coprime
    assert v.den[-1] > 0
    assert v == FieldElem((-1, -1), (2,))
    assert str(v) == "(-r - 1)/2"


def test_gcd_reduction_in_r():
    assert FieldElem((0, 4), (0, 2)) == fe(2)
    assert FieldElem((0, 0, 1), (0, 1)) == R


def test_zero_and_one():
    assert ZERO.is_zero() and ONE.is_one()
    with pytest.raises(ZeroDivisionError):
        FieldElem((1,), ())
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_substitute_and_pole():
    v = (R * 2 + 2) / (R - 1)
    assert v.substitute(Fraction(3)) == fe(4)
    with pytest.raises(EvaluationPole):
        v.substitute(Fraction(1))


def test_as_fraction():
    assert fe(Fraction(-3, 2)).as_fraction() == Fraction(-3, 2)
    with pytest.raises(ValueError):
        R.as_fraction()


def test_pstr_descending_powers():
    assert pstr((16, 12, 1)) == "r^2 + 12r + 16"
    assert pstr((0, -1)) == "-r"
    assert pstr(()) == "0"


LONG = 10**4400 + 7  # past CPython's 4,300-digit limit on str(int)


@given(st.integers(), st.integers(1, 10**40))
@example(0, 1)
@example(1, 1)
@example(-1, 1)
@example(-6, 4)
@example(LONG, 1)
@example(-LONG, 3)
@example(5, LONG)
@example(-LONG, LONG + 2)
def test_constant_prints_as_its_polynomials_do(n, d):
    # a rational constant prints without pstr; the text is what the
    # general rule, pstr of numerator and denominator, gives
    v = fe(Fraction(n, d))
    general = pstr(v.num) if v.den == (1,) else f"{pstr(v.num)}/{pstr(v.den)}"
    assert str(v) == general


@given(field_elems(), st.integers(0, 6))
def test_integer_power_is_repeated_product(a, e):
    expected = ONE
    for _ in range(e):
        expected = expected * a
    assert a ** e == expected
    if not a.is_zero():
        assert a ** -e == 1 / expected


def test_integer_power_by_squaring(monkeypatch):
    # the products of ratfun.power: one squaring per bit of e below the
    # leading one, one more per set bit; none for e = 0 or 1
    a = (R + 1) / (R * R - 2)
    products = []
    mul = FieldElem.__mul__
    monkeypatch.setattr(FieldElem, "__mul__",
                        lambda x, y: products.append(1) or mul(x, y))
    for e, count in [(0, 0), (1, 0), (2, 1), (3, 2), (64, 6), (63, 10), (-3, 2)]:
        products.clear()
        a ** e
        assert len(products) == count, e


@given(field_elems(), field_elems())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(field_elems(), field_elems(), field_elems())
@settings(max_examples=50)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(field_elems())
def test_additive_inverse(a):
    assert a + (-a) == ZERO


@given(nonzero_field_elems(), nonzero_field_elems())
def test_field_inverses(a, b):
    assert (a / b) * (b / a) == ONE
    assert a * a.inverse() == ONE


@given(field_elems(), field_elems())
def test_canonical_equality_through_arithmetic(a, b):
    # same value along two routes ends up structurally identical
    lhs = (a + b) * (a + b)
    rhs = a * a + a * b * 2 + b * b
    assert lhs == rhs
    assert lhs.num == rhs.num and lhs.den == rhs.den


@given(nonzero_field_elems())
def test_gcd_is_unit_after_normalization(a):
    assert pgcd(a.num, a.den) == (1,)


# -- integer fast path for constants -------------------------------------------

fractions = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)


def fraction_form(q):
    q = Fraction(q)
    return ((q.numerator,) if q else (), (q.denominator,))


def form(v):
    return (v.num, v.den)


@given(st.integers(-60, 60), st.integers(-60, 60).filter(bool))
@example(0, 1)
@example(-3, 2)
def test_constant_constructor_normal_form(n, d):
    v = FieldElem((n,), (d,))
    assert form(v) == fraction_form(Fraction(n, d))
    assert v.den[0] > 0
    # fe reaches the same normal form without the constructor
    assert form(fe(Fraction(n, d))) == form(v)
    assert form(fe(n)) == form(FieldElem((n,)))


polys = st.lists(st.integers(-9, 9), max_size=4).map(ptrim)


@given(polys, polys.filter(bool), polys.filter(bool))
@example((4, 6), (-6,), (1,))         # negative constant den sharing content 2
@example((3, 1), (1,), (2, 1))        # d = 1
@example((3, 1), (-1,), (-2, 0, 1))   # d = -1
@example((), (-6,), (1, 1))           # zero numerator
def test_normal_form_cancels_a_common_factor(n, d, q):
    # n/d and nq/dq reach one normal form, whether each goes through the
    # integer gcd over a constant denominator or through pgcd
    v = FieldElem(n, d)
    assert form(FieldElem(pmul(n, q), pmul(d, q))) == form(v)
    assert form(FieldElem(n) * FieldElem(d).inverse()) == form(v)
    assert v.den[-1] > 0
    if v.num:
        assert pgcd(v.num, v.den) == (1,)


def test_fe_is_the_one_conversion():
    v = R / (R + 1)
    assert fe(v) is v and fe(ONE) is ONE
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError, match=type(bad).__name__):
            fe(bad)
    with pytest.raises(TypeError):
        fe(2) + "a"
    assert 1 - fe(3) == fe(-2) and fe(1) == 1 and fe(1) != "1"


@given(fractions, fractions)
def test_constant_arithmetic_matches_fraction(p, q):
    a, b = fe(p), fe(q)
    assert form(a) == fraction_form(p)
    assert form(a + b) == fraction_form(Fraction(p) + q)
    assert form(a - b) == fraction_form(Fraction(p) - q)
    assert form(a * b) == fraction_form(Fraction(p) * q)
    assert form(a + q) == form(p + b) == form(a + b)
    assert form(a * q) == form(p * b) == form(a * b)
    if q:
        assert form(a / b) == fraction_form(Fraction(p) / q)
        assert form(b.inverse()) == fraction_form(1 / Fraction(q))
    for v in (a + b, a - b, a * b):
        assert v.den[0] > 0


@given(fractions, field_elems())
def test_mixed_products_match_the_prs_route(q, e):
    c = fe(q)
    got = c * e
    assert form(got) == form(e * c)
    # multiplying num and den by 1 + r forces the polynomial remainder sequence
    ref = FieldElem(pmul(pmul(c.num, e.num), (1, 1)), pmul(pmul(c.den, e.den), (1, 1)))
    assert form(got) == form(ref)
    assert got.den[-1] > 0


@given(polys, st.integers(-30, 30))
def test_pgcd_with_a_constant_matches_the_prs_route(a, k):
    b = (k,) if k else ()
    got = pgcd(a, b)
    assert got == pgcd(b, a)
    if a or b:
        # gcd(a (1+r), b (1+r)) = gcd(a, b) (1+r), computed by the PRS
        ref = pdiv_exact(pgcd(pmul(a, (1, 1)), pmul(b, (1, 1))), (1, 1))
        assert got == ref


def test_pgcd_constant_examples():
    assert pgcd((6,), (4, 2)) == (2,)
    assert pgcd((4, 2), (6,)) == (2,)
    assert pgcd((), (-3,)) == (3,)
    assert pgcd((0, -2, -4), ()) == (0, 2, 4)
    assert pgcd((), ()) == ()
    assert pgcd((-5,), (0, 3)) == (1,)


# -- the dot kernel ---------------------------------------------------------------


def fold(xs, ys):
    """The per-term sum ``dot`` replaces: a normal form after every step."""
    s = ZERO
    for x, y in zip(xs, ys):
        s = s + x * y
    return s


# a polynomial in r over an integer denominator, as in series of rational gfs
int_den = st.builds(
    lambda cs, d: FieldElem(tuple(cs), (d,)),
    st.lists(small_ints, min_size=1, max_size=4), st.integers(1, 6))
constants = st.builds(lambda n, d: fe(Fraction(n, d)), small_ints, st.integers(1, 6))
_OPERANDS = {
    "scalars": st.one_of(scalars(), st.just(ZERO)),
    "constants": st.one_of(constants, st.just(ZERO)),
    "int_den": st.one_of(int_den, constants, st.just(ZERO)),
    "poly_den": st.one_of(field_elems(), int_den, st.just(ZERO)),
}
operand_lists = st.sampled_from(sorted(_OPERANDS)).flatmap(
    lambda kind: st.tuples(st.lists(_OPERANDS[kind], max_size=7),
                           st.lists(_OPERANDS[kind], max_size=7)))


@given(operand_lists)
@settings(max_examples=300, deadline=None)
# Z[r] numerators over integer denominators: the sum over d = 1, over d = 9
# with content 2 to cancel, and over d = 2 with nothing to cancel
@example(([FieldElem((1, 2, 3)), R], [fe(2), FieldElem((1, -1))]))
@example(([FieldElem((2, 2), (3,)), FieldElem((0, 4), (9,))], [fe(Fraction(1, 2)), ONE]))
@example(([FieldElem((1, 1), (2,))], [ONE]))
# integer denominators, then a (1+r) denominator, and the reverse: the
# walk hands the whole sum to the lcm in Z[r] wherever it meets one
@example(([FieldElem((1, 2), (3,)), fe(Fraction(1, 2)), FieldElem((1,), (1, 1))],
          [R, FieldElem((0, 1, 1), (2,)), fe(3)]))
@example(([FieldElem((1,), (1, 1)), FieldElem((1, 2), (3,)), fe(Fraction(1, 2))],
          [fe(3), R, FieldElem((0, 1, 1), (2,))]))
# every product denominator is the lcm 6, so every d/pd = 1
@example(([FieldElem((1, 1), (2,)), FieldElem((0, 5), (3,)), FieldElem((2, 0, 1), (6,))],
          [fe(Fraction(1, 3)), fe(Fraction(1, 2)), ONE]))
# constants over distinct denominators
@example(([fe(Fraction(1, 2)), fe(Fraction(2, 3)), fe(Fraction(-5, 4))],
          [fe(Fraction(1, 5)), fe(3), fe(Fraction(1, 7))]))
# constant terms summed in the walk: before a Z[r] numerator and after one,
# each sum joining the Z[r] sum over lcm(5, 2 * 21)
@example(([fe(Fraction(1, 2)), fe(Fraction(1, 3)), FieldElem((1, 2), (5,))],
          [ONE, fe(Fraction(1, 7)), R]))
@example(([FieldElem((1, 2), (5,)), fe(Fraction(1, 2)), fe(Fraction(1, 3))],
          [R, ONE, fe(Fraction(1, 7))]))
# coprime denominators grow the running lcm of the constant sum: 2, 6, 30
@example(([fe(Fraction(1, 2)), fe(Fraction(1, 3)), fe(Fraction(1, 5))], [ONE, ONE, ONE]))
# constants that cancel to 0, alone and next to a Z[r] numerator
@example(([fe(Fraction(1, 2)), fe(Fraction(1, 3)), fe(Fraction(-5, 6))], [ONE, ONE, ONE]))
@example(([fe(Fraction(1, 2)), R, fe(Fraction(-1, 2))],
          [fe(Fraction(1, 3)), FieldElem((1, 1), (3,)), fe(Fraction(1, 3))]))
# a partial constant sum, then a (1+r) denominator hands the sum over
@example(([fe(Fraction(1, 2)), fe(Fraction(1, 3)), FieldElem((1,), (1, 1))],
          [fe(Fraction(1, 5)), ONE, R]))
def test_dot_matches_the_left_fold(lists):
    xs, ys = lists
    got, want = dot(xs, ys), fold(xs, ys)
    assert form(got) == form(want)
    assert type(got.num) is tuple and type(got.den) is tuple


def test_dot_examples():
    half, third = fe(Fraction(1, 2)), fe(Fraction(1, 3))
    assert form(dot([], [])) == form(ZERO)
    assert form(dot([ONE, R], [])) == form(ZERO)
    assert form(dot([ZERO, R], [R, ZERO])) == form(ZERO)
    # constants over different denominators: 1/2 + 1 - 3
    assert form(dot([half, third, ONE], [ONE, fe(3), fe(-3)])) == fraction_form(Fraction(-3, 2))
    assert form(dot([half, -half], [third, third])) == form(ZERO)
    # Q[r] over integer denominators: (r/2)(r/3) + (r^2/6)(-1) = 0
    assert form(dot([R * half, R * R * fe(Fraction(1, 6))], [R * third, fe(-1)])) == form(ZERO)
    # true Q(r): 1/(1+r) + r/(1+r) = 1, and unequal lengths stop at the shorter
    inv = (ONE + R).inverse()
    assert form(dot([inv, R * inv, R], [ONE, ONE])) == form(ONE)
    assert form(dot([inv, inv], [R, (R - 1).inverse()])) == form(fold([inv, inv], [R, (R - 1).inverse()]))


# -- exact division --------------------------------------------------------------


def test_pdiv_exact_rejects_a_remainder():
    assert pdiv_exact((1, 2, 1), (1, 1)) == (1, 1)
    with pytest.raises(InexactDivision):
        pdiv_exact((1, 0, 1), (1, 1))


def test_pdiv_exact_check_survives_optimize_flag():
    src = str(Path(gfpipe.__file__).resolve().parent.parent)
    code = (
        "from gfpipe.errors import InexactDivision\n"
        "from gfpipe.ratfun import pdiv_exact\n"
        "try:\n"
        "    print(pdiv_exact((1, 0, 1), (1, 1)))\n"
        "except InexactDivision:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
