from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpipe.errors import PipelinePrecondition
from gfpipe.ratfun import ONE, R, ZERO, fe
from gfpipe.series import Series, from_ratfun
from gfpipe.transforms import (
    binomial_transform,
    inverse_sumudu,
    invert_transform,
    partial_P,
    pipeline_P,
    pipeline_P_trace,
    reverse_P,
    sumudu,
)

from conftest import field_elems, scalars, series_values, small_ints


def ints(series):
    return [c.as_fraction() for c in series]


def agree(a, b):
    """Equality of the shared-precision truncations of two series."""
    n = min(a.prec, b.prec)
    return a.coeffs[:n] == b.coeffs[:n]


FUBINI_G = from_ratfun([1], [1, 0, -1], 10)


class TestSumuduPair:
    def test_inverse_sumudu_cosh(self):
        got = inverse_sumudu(Series([1, 0, 1, 0, 1]))
        assert ints(got) == [1, 0, Fraction(1, 2), 0, Fraction(1, 24)]

    def test_trivial(self):
        assert inverse_sumudu(Series([1, 0, 0])) == Series([1, 0, 0])
        assert sumudu(Series([1, 0, 0])) == Series([1, 0, 0])

    def test_sumudu_fubini(self):
        egf = Series([1, 1, Fraction(3, 2), Fraction(13, 6), Fraction(75, 24)])
        assert ints(sumudu(egf)) == [1, 1, 3, 13, 75]

    def test_sumudu_cosh(self):
        cosh = Series([1, 0, Fraction(1, 2), 0, Fraction(1, 24)])
        assert ints(sumudu(cosh)) == [1, 0, 1, 0, 1]

    @given(series_values(prec=6))
    @settings(max_examples=30, deadline=None)
    def test_mutually_inverse(self, f):
        assert sumudu(inverse_sumudu(f)) == f
        assert inverse_sumudu(sumudu(f)) == f


class TestInvert:
    def test_fibonacci(self):
        got = invert_transform(from_ratfun([1], [1, 0, -1], 7), 1)
        assert ints(got) == [1, 1, 2, 3, 5, 8, 13]

    def test_signed_fibonacci(self):
        got = invert_transform(from_ratfun([1], [1, 0, -1], 6), -1)
        assert ints(got) == [1, -1, 2, -3, 5, -8]

    def test_zero_is_identity(self):
        f = Series([1, 2, R, fe(4)])
        assert invert_transform(f, 0) == f

    @given(series_values(prec=5), st.tuples(small_ints, small_ints))
    @settings(max_examples=30, deadline=None)
    def test_additivity(self, f, ab):
        a, b = ab
        once = invert_transform(invert_transform(f, a), b)
        assert once == invert_transform(f, a + b)


class TestBinomial:
    def test_forward_powers_of_two(self):
        got = binomial_transform(from_ratfun([1], [1, -1], 6))
        assert ints(got) == [1, 2, 4, 8, 16, 32]

    def test_inverse_gives_signed_powers(self):
        g = from_ratfun([fe(1), R - 1], [fe(1), R - 1, -R], 6)
        got = binomial_transform(g, inverse=True)
        p = R + 1
        assert list(got) == [ONE, fe(-1), p, -(p * p), p * p * p,
                             -(p * p * p * p)]

    @given(series_values(prec=6))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, f):
        assert binomial_transform(binomial_transform(f), inverse=True) == f
        assert binomial_transform(binomial_transform(f, inverse=True)) == f

    @given(st.integers(0, 16).flatmap(
        lambda n: st.lists(st.one_of(scalars(), field_elems(max_deg=1)),
                           min_size=n, max_size=n).map(Series)))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_composition_formula(self, g):
        # (1/(1-sx)) g(x/(1-sx)), the formula the direct sum replaced
        for inverse, s in ((False, 1), (True, -1)):
            n = g.prec
            pre = Series([fe(s**k) for k in range(n)])
            inner = Series([fe(0)] + [fe(s ** (k - 1)) for k in range(1, n)])
            assert binomial_transform(g, inverse=inverse) == pre * g.compose(inner)


class TestPipeline:
    def test_fubini(self):
        assert ints(sumudu(pipeline_P(FUBINI_G))) == \
            [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]

    def test_matches_exponential_closed_form(self):
        F = pipeline_P(FUBINI_G)
        closed = Series.one(9) / (Series.constant(2, 9) - Series.x(9).exp())
        assert F == closed

    def test_parameterized_family(self):
        g = from_ratfun([fe(1), R - 1], [fe(1), R - 1, -R], 11)
        F = pipeline_P(g)
        closed = Series.one(10) / (
            Series.one(10) + (Series.one(10) - Series.x(10).exp()) * R
        )
        assert F == closed
        head = list(sumudu(F))[:4]
        assert head == [ONE, R, R * (R * 2 + 1), R * (R * R * 6 + R * 6 + 1)]

    def test_even_doubled(self):
        got = sumudu(pipeline_P(from_ratfun([1], [1, 0, -2], 8)))
        assert ints(got) == [1, 2, 12, 112, 1440, 23648, 473088]

    def test_precondition(self):
        with pytest.raises(PipelinePrecondition):
            pipeline_P(from_ratfun([1], [1, -1], 6))


class TestTrace:
    def test_fubini_h_is_tanh(self):
        tr = pipeline_P_trace(FUBINI_G)
        assert ints(tr.h)[:6] == [0, 1, 0, Fraction(-1, 3), 0, Fraction(2, 15)]

    def test_trivial_one(self):
        tr = pipeline_P_trace(Series.one(6))
        assert all(c.is_zero() for c in tr.h)
        assert tr.q == Series.x(6)
        assert tr.F == Series.one(5)

    def test_mixed_parity_example(self):
        tr = pipeline_P_trace(from_ratfun([1, 0, 1], [1, 0, -1], 8))
        assert ints(sumudu(tr.F)) == [1, 2, 12, 110, 1380, 22022, 426972]

    def test_invariants(self):
        for g in (FUBINI_G, from_ratfun([1, 0, 1], [1, 0, -1], 9)):
            tr = pipeline_P_trace(g)
            assert tr.q[0] == ZERO
            assert tr.q[1] == ONE - tr.h[0]
            n = min(tr.q.prec, tr.u.prec)
            assert tr.q.compose(tr.u) == Series.x(n)
            assert tr.F[0] == ONE


class TestPartial:
    def test_eulerian_route(self):
        g = from_ratfun([fe(1), -R], [fe(1), -(R - 1)], 6)
        got = -partial_P(g)
        rows = sumudu(got)
        r2, r3, r4 = R * R, R * R * R, R * R * R * R
        assert list(rows) == [ONE, R, r2 + R, r3 + r2 * 4 + R,
                              r4 + r3 * 11 + r2 * 11 + R]

    def test_one(self):
        assert partial_P(Series.one(5)) == Series.constant(0, 4)

    def test_fubini_partial_is_tanh(self):
        got = partial_P(FUBINI_G)
        assert ints(got)[:6] == [0, 1, 0, Fraction(-1, 3), 0, Fraction(2, 15)]


class TestReversePipeline:
    def test_fubini_back_to_cosh(self):
        F = pipeline_P(FUBINI_G)
        assert ints(sumudu(reverse_P(F))) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_one(self):
        assert reverse_P(Series.one(5)) == Series.one(6)

    def test_sech_true_preimage_roundtrips(self):
        # exp(x - Rev(integral F)) genuinely inverts the pipeline here
        prec = 10
        sech = Series.constant(2, prec) / (
            Series.one(prec) + Series([0, 2] + [0] * (prec - 2)).exp()
        )
        gt = reverse_P(sech)
        assert agree(pipeline_P(sumudu(gt)), sech)

    def test_sech_printed_preimage_needs_shifted_chain(self):
        # the companion chain exp(int(-(Rev int F)'')) produces the
        # sequence 1,-1,-2,-5,... printed for this example; reverse_P
        # itself yields a different (round-tripping) preimage
        prec = 10
        sech = Series.constant(2, prec) / (
            Series.one(prec) + Series([0, 2] + [0] * (prec - 2)).exp()
        )
        u = sech.integrate().revert()
        chain = (-u.derivative().derivative()).integrate().exp()
        assert ints(sumudu(chain)) == \
            [1, -1, -2, -5, -13, -12, 379, 6907, 99112, 1378941]
        assert ints(sumudu(reverse_P(sech)))[:4] != [1, -1, -2, -5]

    def test_round_trip_on_random_rational_gfs(self):
        # admissible inputs expand to 1, 0, ...
        for num_tail, den_tail in [((1,), (2,)), ((-1, 1), (1, -1)),
                                   ((2, 0, 1), (-1,)), ((0, 1), (1, 1))]:
            den = [fe(1)] + [fe(c) for c in den_tail]
            num = list(den)
            for i, c in enumerate(num_tail):
                while len(num) < i + 3:
                    num.append(fe(0))
                num[i + 2] = num[i + 2] + fe(c)
            g = from_ratfun(num, den, 9)
            assert g[0] == ONE and g[1] == ZERO
            F = pipeline_P(g)
            back = sumudu(reverse_P(F))
            assert agree(back, g)
            again = pipeline_P(sumudu(reverse_P(F)))
            assert agree(again, F)
