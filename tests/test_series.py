from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfpipe.errors import (
    CompositionNeedsZeroConstant,
    NonUnitConstantTerm,
    NotReversible,
)
from gfpipe.ratfun import ONE, R, ZERO, FieldElem, fe
from gfpipe.series import Series, divide, from_ratfun

from conftest import field_elems, nonzero_field_elems, scalars, series_values


def S(*cs):
    return Series(cs)


def ints(series):
    return [c.as_fraction() for c in series]


class TestFromRatfun:
    def test_geometric_even(self):
        assert ints(from_ratfun([1], [1, 0, -1], 8)) == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_parameterized_central(self):
        got = from_ratfun([fe(1), fe(-2)], [fe(1), fe(-2), -R], 7)
        want = [fe(1), fe(0), R, R * 2, R * R + R * 4, R * R * 4 + R * 8,
                R * (R * R + R * 12 + 16)]
        assert list(got) == want

    def test_constant(self):
        assert ints(from_ratfun([1], [1], 4)) == [1, 0, 0, 0]

    def test_rejects_zero_constant_denominator(self):
        with pytest.raises(NonUnitConstantTerm):
            from_ratfun([1], [0, 1], 4)


class TestRingOps:
    def test_add(self):
        assert S(1, 0, 1) + S(0, 1, 0) == S(1, 1, 1)
        f = S(2, 3, 4)
        assert f + Series.constant(0, 3) == f
        assert S(1, -1) + S(-1, 1) == S(0, 0)

    def test_min_precision(self):
        assert (S(1, 1, 1) + S(1, 1)).prec == 2

    def test_mul(self):
        assert S(1, 1) * S(1, 1) == S(1, 2)  # truncated at shared precision
        assert Series([1, 1, 1]) * Series([1, 1, 1]) == S(1, 2, 3)
        assert from_ratfun([1, -1], [1], 5) * from_ratfun([1], [1, -1], 5) \
            == Series.one(5)

    def test_catalan_recurrence(self):
        c = S(1, 1, 2, 5, 14)
        assert Series.one(5) + Series([0, 1, 0, 0, 0]) * (c * c) == c

    def test_div(self):
        assert ints(S(1, 0, 0, 0) / S(1, -1, 0, 0)) == [1, 1, 1, 1]
        f = S(3, 1, 4)
        assert f / f == Series.one(3)
        got = from_ratfun([fe(1), R - 1], [fe(1), R - 1, -R], 4)
        assert list(got) == [fe(1), fe(0), R, R * (fe(1) - R)]
        with pytest.raises(NonUnitConstantTerm):
            S(1, 1) / S(0, 1)

    def test_scalar_division_inverts_once(self):
        f = S(2, 3, 4)
        assert f / 1 is f
        assert f / 2 == f * fe(Fraction(1, 2))
        assert f / R == Series([fe(2) / R, fe(3) / R, fe(4) / R])
        with pytest.raises(ZeroDivisionError, match="inverse of 0 in Q"):
            Series([]) / 0
        with pytest.raises(ZeroDivisionError):
            f / ZERO

    def test_integer_power_by_squaring(self, monkeypatch):
        f = Series([fe(1), R, fe(Fraction(1, 2)), R * R - 1, fe(3)])
        acc = Series.one(f.prec)
        for e in range(18):
            assert f ** e == acc, e
            acc = acc * f
        products = []
        mul = Series.__mul__
        monkeypatch.setattr(Series, "__mul__",
                            lambda a, b: products.append(1) or mul(a, b))
        for e, count in [(0, 0), (1, 0), (2, 1), (3, 2), (64, 6), (63, 10)]:
            products.clear()
            f ** e
            assert len(products) == count, e

    @pytest.mark.parametrize("e", [-1, 2.0, Fraction(1, 2)])
    def test_integer_power_rejects_other_exponents(self, e):
        with pytest.raises(TypeError):
            S(1, 1) ** e


class TestCompose:
    def test_identity_inner(self):
        g = S(3, 1, 4, 1)
        assert g.compose(Series.x(4)) == g

    def test_exp_log_round(self):
        e = Series.x(6).exp()
        l = from_ratfun([1], [1, 1], 6).log()  # log(1/(1+x)) = -log(1+x)
        assert ints(e.compose(-l)) == [1, 1, 0, 0, 0, 0]

    def test_geometric_substitution(self):
        outer = from_ratfun([1], [1, -1], 5)
        inner = from_ratfun([0, 1], [1, -1], 5)
        assert ints(outer.compose(inner)) == [1, 1, 2, 4, 8]

    def test_rejects_nonzero_constant(self):
        with pytest.raises(CompositionNeedsZeroConstant):
            S(1, 1).compose(S(1, 1))


class TestRevert:
    def test_identity(self):
        assert Series.x(5).revert() == Series.x(5)

    def test_shifted_catalan(self):
        assert ints(S(0, 1, -1, 0, 0).revert()) == [0, 1, 1, 2, 5]

    def test_two_sided(self):
        q = S(0, 1, Fraction(-1, 2), 0, Fraction(1, 12))
        assert q.revert().compose(q) == Series.x(5)
        assert q.compose(q.revert()) == Series.x(5)

    def test_matches_coefficientwise_baseline(self):
        # solve compose(f, u) = x degree by degree, the slow reference
        f = Series([0, 1, -1, 2, 0, 1, -3])
        u = [ZERO, f[1].inverse()]
        for n in range(2, f.prec):
            trial = Series(u + [ZERO])
            err = f.truncate(n + 1).compose(trial)[n]
            u.append(-err / f[1])
        assert f.revert() == Series(u)

    def test_rejects(self):
        with pytest.raises(NotReversible):
            S(1, 1).revert()
        with pytest.raises(NotReversible):
            S(0, 0, 1).revert()

    def test_diagnostics_name_the_cause(self):
        # x + x^2 known to order 1 has a nonzero linear coefficient; it is
        # only not kept, so the message names the missing coefficients
        for short in (Series([]), S(0)):
            with pytest.raises(NotReversible,
                               match="^reversion needs at least two known coefficients$"):
                short.revert()
        with pytest.raises(NotReversible,
                           match="^reversion needs a nonzero linear coefficient$"):
            S(0, 0, 1).revert()
        with pytest.raises(NotReversible, match="^reversion needs constant term 0$"):
            S(1).revert()


class TestGfRevert:
    def test_catalan(self):
        assert ints(S(1, -1, 0, 0, 0).gf_revert()) == [1, 1, 2, 5, 14]

    def test_narayana_source(self):
        got = from_ratfun([fe(1), fe(-1)], [fe(1), R - 1], 4).gf_revert()
        assert list(got) == [fe(1), R, R * R + R, R * R * R + R * R * 3 + R]

    def test_constant_one(self):
        assert ints(Series.one(3).gf_revert()) == [1, 0, 0]


class TestCalculus:
    def test_derivative(self):
        assert ints(S(1, 1, 1, 1).derivative()) == [1, 2, 3]
        assert ints(Series.constant(5, 3).derivative()) == [0, 0]

    def test_integrate(self):
        assert ints(S(1, 0, 0).integrate()) == [0, 1, 0, 0]
        assert ints(S(1, 2, 3).integrate()) == [0, 1, 1, 1]

    def test_round_trips(self):
        f = S(2, -1, 3, 5)
        assert f.integrate().derivative() == f
        g = f.derivative().integrate()
        assert g.coeffs[1:] == f.coeffs[1:] and g[0] == ZERO

    def test_one_minus_tanh_integral(self):
        tanh = S(0, 1, 0, Fraction(-1, 3), 0, Fraction(2, 15))
        got = (Series.one(6) - tanh).integrate()
        assert got == S(0, 1, Fraction(-1, 2), 0, Fraction(1, 12), 0,
                        Fraction(-1, 45))


class TestExpLog:
    def test_log_examples(self):
        assert ints(Series.one(4).log()) == [0, 0, 0, 0]
        assert ints(from_ratfun([1], [1, -1], 5).log()) == \
            [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_exp_examples(self):
        assert ints(Series.constant(0, 3).exp()) == [1, 0, 0]
        assert ints(Series.x(5).exp()) == \
            [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]

    def test_exp_of_shifted_fubini_ratio(self):
        # exp((e^z-1)/(e^z-2)) carries the sequence 1,-1,-2,-5,-13,-12,379
        prec = 7
        ez = Series.x(prec).exp()
        arg = (ez - 1) / (ez - 2)
        got = arg.exp()
        f = 1
        seq = []
        for n, c in enumerate(got):
            f = f * n if n else 1
            seq.append(c.as_fraction() * f)
        assert seq == [1, -1, -2, -5, -13, -12, 379]

    def test_errors(self):
        with pytest.raises(NonUnitConstantTerm):
            S(2, 1).log()
        with pytest.raises(CompositionNeedsZeroConstant):
            S(1, 1).exp()


class TestPowRational:
    def test_identity_power(self):
        f = S(1, 2, 3)
        assert f.pow_rational(1) == f

    def test_square_root_of_square(self):
        sq = S(1, 2, 1, 0)
        assert ints(sq.pow_rational(Fraction(1, 2))) == [1, 1, 0, 0]

    def test_central_binomials(self):
        got = from_ratfun([1, -4], [1], 5).pow_rational(Fraction(-1, 2))
        assert ints(got) == [1, 2, 6, 20, 70]

    def test_integer_power_agrees_with_mul(self):
        f = Series([1, R, fe(2), -R])
        assert f.pow_rational(3) == f * f * f

    def test_rejects(self):
        with pytest.raises(NonUnitConstantTerm):
            S(2, 1).pow_rational(Fraction(1, 2))


class TestLogDerivative:
    def test_cosh_gives_tanh(self):
        cosh = S(1, 0, Fraction(1, 2), 0, Fraction(1, 24), 0, Fraction(1, 720))
        assert ints(cosh.log_derivative()) == \
            [0, 1, 0, Fraction(-1, 3), 0, Fraction(2, 15)]

    def test_trivials(self):
        assert ints(Series.one(4).log_derivative()) == [0, 0, 0]
        assert ints(Series.x(4).exp().log_derivative()) == [1, 0, 0]

    def test_rejects_zero_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            S(0, 1).log_derivative()


# -- property tests ----------------------------------------------------------


@given(series_values(prec=5), series_values(prec=5))
@settings(max_examples=40, deadline=None)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(series_values(prec=4), series_values(prec=4), series_values(prec=4))
@settings(max_examples=25, deadline=None)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(series_values(prec=5), series_values(prec=5))
@settings(max_examples=40, deadline=None)
def test_div_mul_round_trip(a, b):
    if b[0].is_zero():
        b = b + Series.one(b.prec)
    if b[0].is_zero():
        return
    assert (a / b) * b == a


@given(series_values(prec=6, constant=ZERO))
@settings(max_examples=30, deadline=None)
def test_revert_two_sided(f):
    if f.prec < 2 or f[1].is_zero():
        return
    u = f.revert()
    assert f.compose(u) == Series.x(f.prec)
    assert u.compose(f) == Series.x(f.prec)


@given(series_values(prec=6, constant=ONE))
@settings(max_examples=30, deadline=None)
def test_log_exp_round_trip(f):
    assert f.log().exp() == f


@given(series_values(prec=6, constant=ZERO))
@settings(max_examples=30, deadline=None)
def test_exp_log_round_trip(f):
    assert f.exp().log() == f


@given(series_values(prec=5, constant=ONE))
@settings(max_examples=20, deadline=None)
def test_pow_rational_additivity(f):
    a, b = Fraction(1, 2), Fraction(-3, 2)
    assert f.pow_rational(a) * f.pow_rational(b) == f.pow_rational(a + b)


# -- the per-term loops the dot kernel replaced, kept as oracles -------------------


def mul_oracle(a, b):
    n = min(a.prec, b.prec)
    out = [ZERO] * n
    for i in range(n):
        ai = a[i]
        if ai.is_zero():
            continue
        for j in range(n - i):
            bj = b[j]
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return Series(out)


def divide_oracle(a, b):
    n = min(a.prec, b.prec)
    b0inv = b[0].inverse()
    out = []
    for m in range(n):
        s = a[m]
        for j in range(m):
            bk = b[m - j]
            if not bk.is_zero():
                s = s - out[j] * bk
        out.append(s * b0inv)
    return Series(out)


def exp_oracle(f):
    n = f.prec
    out = [ONE] + [ZERO] * (n - 1)
    for m in range(1, n):
        s = ZERO
        for j in range(m):
            k = m - j
            if not f[k].is_zero():
                s = s + out[j] * (f[k] * k)
        out[m] = s / m
    return Series(out)


def forms(series):
    return [(c.num, c.den) for c in series]


# coefficients: constants, polynomials in r, and true Q(r) values
coeffs = st.one_of(scalars(), field_elems(max_deg=1), st.just(ZERO))


def series_of(prec, first=coeffs):
    return st.builds(lambda c0, rest: Series([c0] + rest), first,
                     st.lists(coeffs, min_size=prec - 1, max_size=prec - 1))


def constant_series_of(prec):
    return st.builds(lambda c: Series([c] + [ZERO] * (prec - 1)), coeffs)


def factors_of(prec):
    return st.one_of(series_of(prec), constant_series_of(prec))


precs = st.integers(1, 7)
inv1r = FieldElem((1,), (1, 1))


@given(precs.flatmap(lambda n: st.tuples(factors_of(n), factors_of(n))))
@settings(max_examples=60, deadline=None)
# a constant series on the left, on the right, and precision 1
@example((Series([R + 1, 0, 0, 0]), Series([1, R, inv1r, 2])))
@example((Series([1, R, inv1r, 2]), Series([fe(Fraction(-3, 2)), 0, 0, 0])))
@example((Series([R]), Series([inv1r])))
# unequal precisions: the product stops at the shorter
@example((Series([1, R, inv1r, 2]), Series([fe(2), 0])))
@example((Series([R + 1, 0]), Series([1, R, inv1r, 2])))
# the constant 1 on either side, at a shorter and at the same precision
@example((Series([1, 0, 0]), Series([1, R, inv1r, 2])))
@example((Series([1, R, inv1r, 2]), Series.one(4)))
def test_mul_matches_the_per_term_loop(ab):
    a, b = ab
    assert forms(a * b) == forms(mul_oracle(a, b))


def test_mul_by_one_returns_the_other_factor():
    f = Series([1, R, inv1r, 2])
    assert f * 1 is f and 1 * f is f and f * ONE is f
    assert f * Series.one(4) == f == Series.one(4) * f
    assert Series.one(3) * f == f.truncate(3) == f * Series.one(3)
    assert (Series.one(6) * f).prec == 4


@given(precs.flatmap(lambda n: st.tuples(
    series_of(n), series_of(n, nonzero_field_elems(max_deg=1)))))
@settings(max_examples=60, deadline=None)
# b_0 = 1 (no closing product), 3/2 and 1+r
@example((Series([1, R, 2, fe(Fraction(1, 3))]), Series([1, R, 0, inv1r])))
@example((Series([R, 1, 0, 2]), Series([fe(Fraction(3, 2)), 1, R, 0])))
@example((Series([1, R, 2]), Series([R + 1, 1, R])))
def test_divide_matches_the_per_term_loop(ab):
    a, b = ab
    assert forms(divide(a, b)) == forms(divide_oracle(a, b))


@given(precs.flatmap(lambda n: series_of(n, st.just(ZERO))))
@settings(max_examples=60, deadline=None)
def test_exp_matches_the_per_term_loop(f):
    assert forms(f.exp()) == forms(exp_oracle(f))


def compose_oracle(f, inner):
    """Horner in inner: one full series product per coefficient of f."""
    n = min(f.prec, inner.prec)
    if n == 0:
        return Series([])
    acc = Series.constant(f[n - 1], n)
    for k in range(n - 2, -1, -1):
        acc = acc * inner
        acc = Series([acc[0] + f[k]] + list(acc.coeffs[1:]))
    return acc


def revert_oracle(f):
    """Lagrange inversion over the linear powers winv, winv^2, ..., winv^(n-1)."""
    n = f.prec
    winv = divide(Series.one(n - 1), Series(f.coeffs[1:]))
    out = [ZERO] * n
    power = winv
    out[1] = power[0]
    for k in range(2, n):
        power = power * winv
        out[k] = power[k - 1] / k
    return Series(out)


def edge_series(n, qr, constant=None):
    """A fixed series of precision n, with true Q(r) entries (k+r)/(1+r)
    when qr and nonzero rationals otherwise."""
    cs = [FieldElem((k, 1), (1, 1)) if qr else fe(Fraction((-1) ** k * (k + 1), k + 2))
          for k in range(n)]
    if constant is not None and n:
        cs[0] = constant
    return Series(cs)


def at_block_edges(make):
    """Pin make(n, qr) at n = m^2 - 1, m^2, m^2 + 1 for m = 2, 3, 4, where
    several giant steps and block edges are crossed."""
    def pin(test):
        for m in (2, 3, 4):
            for n in (m * m - 1, m * m, m * m + 1):
                for qr in (False, True):
                    test = example(make(n, qr))(test)
        return test
    return pin


def maybe_empty(n, strategy):
    return strategy if n else st.just(Series([]))


@given(st.tuples(st.integers(0, 20), st.integers(0, 20)).flatmap(lambda nm: st.tuples(
    maybe_empty(nm[0], series_of(max(nm[0], 1))),
    maybe_empty(nm[1], series_of(max(nm[1], 1), st.just(ZERO))))))
# the longer of the two alternates, so the composition has precision n with
# inner.prec both above and below self.prec
@at_block_edges(lambda n, qr: (edge_series(n + (not qr), qr),
                               edge_series(n + qr, qr, ZERO)))
@settings(max_examples=40, deadline=None)
def test_compose_matches_horner(fg):
    f, inner = fg
    assert forms(f.compose(inner)) == forms(compose_oracle(f, inner))


@given(st.integers(0, 20).flatmap(lambda n: maybe_empty(n, st.builds(
    lambda c1, rest: Series([ZERO, c1, *rest]).truncate(n),
    nonzero_field_elems(max_deg=1), st.lists(coeffs, min_size=n, max_size=n)))))
@at_block_edges(lambda n, qr: edge_series(n, qr, ZERO))
@settings(max_examples=30, deadline=None)
def test_revert_matches_linear_powers(f):
    if f.prec < 2:
        with pytest.raises(NotReversible):
            f.revert()
        return
    assert forms(f.revert()) == forms(revert_oracle(f))


# -- differential tests against sympy's ring_series over QQ(r) ---------------------


def sympy_qr(names):
    """sympy's QQ(r)[names], its generators, and maps of gfpipe values into it."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring

    K = sympy.QQ.frac_field(sympy.Symbol("r"))
    r = K.gens[0]
    ring_, *gens = ring(names, K)

    def to_k(c):
        num = sum((k * r**i for i, k in enumerate(c.num)), K.zero)
        den = sum((k * r**i for i, k in enumerate(c.den)), K.zero)
        return num / den

    def to_ring(f, x):
        return sum((to_k(c) * x**i for i, c in enumerate(f)), ring_.zero)

    return to_k, to_ring, gens


def coeffs_of(p, x, n):
    return [p.coeff(x**i) for i in range(n)]


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    series_of(n), series_of(n, nonzero_field_elems(max_deg=1)),
    series_of(n, st.just(ZERO)))))
@settings(max_examples=15, deadline=None)
def test_against_sympy_ring_series(abf):
    to_k, to_ring, (x,) = sympy_qr("x")
    from sympy.polys.ring_series import rs_exp, rs_mul, rs_series_inversion

    a, b, f = abf
    n = a.prec
    assert [to_k(c) for c in a * b] == \
        coeffs_of(rs_mul(to_ring(a, x), to_ring(b, x), x, n), x, n)
    assert [to_k(c) for c in divide(Series.one(n), b)] == \
        coeffs_of(rs_series_inversion(to_ring(b, x), x, n), x, n)
    assert [to_k(c) for c in f.exp()] == coeffs_of(rs_exp(to_ring(f, x), x, n), x, n)


@given(st.integers(2, 10).flatmap(lambda n: st.tuples(
    series_of(n - 1, nonzero_field_elems(max_deg=1)), series_of(n, st.just(ONE)))))
@settings(max_examples=10, deadline=None)
def test_revert_and_log_against_sympy_ring_series(wg):
    to_k, to_ring, (x, y) = sympy_qr("x,y")
    from sympy.polys.ring_series import rs_log, rs_series_reversion

    w, g = wg
    f = Series([ZERO, *w])  # f = x*w with w(0) != 0, so f is reversible
    n = f.prec
    assert [to_k(c) for c in f.revert()] == \
        coeffs_of(rs_series_reversion(to_ring(f, x), x, n, y), y, n)
    assert [to_k(c) for c in g.log()] == coeffs_of(rs_log(to_ring(g, x), x, n), x, n)


@given(st.tuples(st.integers(1, 10), st.integers(1, 10)).flatmap(lambda nm: st.tuples(
    series_of(nm[0]), series_of(nm[1], st.just(ZERO)))))
@settings(max_examples=15, deadline=None)
def test_compose_against_sympy_rs_subs(fg):
    to_k, to_ring, (x,) = sympy_qr("x")
    from sympy.polys.ring_series import rs_subs

    f, inner = fg
    n = min(f.prec, inner.prec)
    assert [to_k(c) for c in f.compose(inner)] == \
        coeffs_of(rs_subs(to_ring(f, x), {x: to_ring(inner, x)}, x, n), x, n)
