from contextlib import ExitStack
from fractions import Fraction
from math import factorial
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfpipe import triangles
from gfpipe.dsl import Env, evaluate, parse
from gfpipe.errors import (
    IndexRange,
    NonPolynomialRow,
    NotTridiagonal,
    PrecisionExhausted,
    SingularDiagonal,
    UnknownOracle,
)
from gfpipe.fixtures import all_fixtures
from gfpipe.ratfun import ONE, R, ZERO, dot, fe
from gfpipe.series import Series, divide, from_ratfun
from gfpipe.transforms import sumudu
from gfpipe.triangles import (
    RecurrenceCoeffs,
    RiordanArray,
    SquareMatrix,
    Triangle,
    binomial_matrix,
    identity_triangle,
    matmul,
    moment_functional,
    oracle,
    oracle_triangle,
    orthopoly_triangle,
    production_matrix,
    recurrence_from_production,
    reversal,
    riordan_apply,
    riordan_to_triangle,
    triangle_from_gf,
    tri_inverse,
)

from conftest import field_elems, nonzero_field_elems, scalars, small_ints


def tri_ints(T):
    return [[v.as_fraction() for v in row] for row in T.rows]


def _exp(prec, scale=1):
    return Series([0, scale] + [0] * (prec - 2)).exp()


def ordered_bell_pair(prec):
    one = Series.one(prec)
    den = one + (one - _exp(prec)) * R
    return divide(one, den), divide(_exp(prec) - one, den)


class TestTriangleFromGf:
    def test_a019538_egf(self):
        g, _ = ordered_bell_pair(6)
        assert tri_ints(triangle_from_gf(sumudu(g), 5)) == [
            [1], [0, 1], [0, 1, 2], [0, 1, 6, 6], [0, 1, 14, 36, 24]]

    def test_eulerian2_egf(self):
        prec = 5
        er = Series([ZERO, R] + [ZERO] * (prec - 2)).exp()
        gf = divide((1 - R) * er, er - _exp(prec) * R)
        assert tri_ints(triangle_from_gf(sumudu(gf), 5)) == [
            [1], [0, 1], [0, 1, 1], [0, 1, 4, 1], [0, 1, 11, 11, 1]]

    def test_constant(self):
        assert tri_ints(triangle_from_gf(Series.one(3), 3)) == [
            [1], [0, 0], [0, 0, 0]]

    def test_degree_guard(self):
        with pytest.raises(NonPolynomialRow):
            triangle_from_gf(Series([ONE, R * R]), 2)
        with pytest.raises(NonPolynomialRow):
            triangle_from_gf(Series([ONE, ONE / (R + 1)]), 2)


class TestReversal:
    def test_symmetric_fixed_point(self):
        n3 = Triangle([[1], [1, 1], [1, 3, 1], [1, 6, 6, 1]])
        assert reversal(n3) == n3

    def test_eulerian_exchange(self):
        e1 = Triangle([[1], [1, 0], [1, 1, 0], [1, 4, 1, 0]])
        e2 = Triangle([[1], [0, 1], [0, 1, 1], [0, 1, 4, 1]])
        assert reversal(e1) == e2

    def test_involution(self):
        t = Triangle([[1], [2, 3], [4, 5, 6]])
        assert reversal(reversal(t)) == t


class TestMatmul:
    def test_identity(self):
        t = Triangle([[1], [R, 2], [3, R + 1, 1]])
        assert matmul(t, identity_triangle(3)) == t

    def test_a248727(self):
        a046802 = Triangle([[1], [1, 1], [1, 3, 1], [1, 7, 7, 1]])
        got = matmul(a046802, binomial_matrix(4))
        assert tri_ints(got) == [[1], [2, 1], [5, 5, 1], [16, 24, 10, 1]]

    def test_signed_a028246_to_a019538(self):
        prec = 6
        signed = triangle_from_gf(
            sumudu(divide(Series.one(prec), R - (R - 1) * _exp(prec))), 5)
        got = matmul(signed, binomial_matrix(5))
        assert tri_ints(got) == [
            [1], [0, 1], [0, 1, 2], [0, 1, 6, 6], [0, 1, 14, 36, 24]]


class TestInverse:
    def test_binomial_inverse_is_signed(self):
        B = binomial_matrix(5)
        got = tri_inverse(B)
        want = Triangle([
            [(-1) ** (n - k) * (B.rows[n][k]) for k in range(n + 1)]
            for n in range(5)])
        assert got == want
        assert matmul(B, got) == identity_triangle(5)

    def test_identity(self):
        assert tri_inverse(identity_triangle(4)) == identity_triangle(4)

    def test_moment_column(self):
        # coefficient array [1/(1+rz), log((1+(r+1)z)/(1+rz))]: the inverse
        # truncation's first column holds the ordered-Bell moments
        prec = 7
        g = from_ratfun([1], [ONE, R], prec)
        f = divide(from_ratfun([ONE, R + 1], [1], prec),
                   from_ratfun([ONE, R], [1], prec)).log()
        T = riordan_to_triangle(RiordanArray(g, f), 5, exponential=True)
        inv = tri_inverse(T)
        assert [inv.rows[n][0] for n in range(5)] == [
            ONE, R, R * (R * 2 + 1), R * (R * R * 6 + R * 6 + 1),
            R * (R * R * R * 24 + R * R * 36 + R * 14 + 1)]

    def test_singular(self):
        with pytest.raises(SingularDiagonal):
            tri_inverse(Triangle([[1], [1, 0]]))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(field_elems(max_deg=1), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2),
        st.lists(nonzero_field_elems(max_deg=1), min_size=n, max_size=n))))
    @settings(max_examples=25, deadline=None)
    def test_inverse_of_a_qr_triangle(self, parts):
        below, diag = parts
        it = iter(below)
        T = Triangle([[next(it) for _ in range(n)] + [d]
                      for n, d in enumerate(diag)])
        I = identity_triangle(T.n_rows)
        assert matmul(T, tri_inverse(T)) == I
        assert matmul(tri_inverse(T), T) == I


class TestBinomialMatrix:
    def test_row_four(self):
        assert [v.as_fraction() for v in binomial_matrix(5).rows[4]] == \
            [1, 4, 6, 4, 1]

    def test_inverse_product(self):
        B = binomial_matrix(6)
        assert matmul(B, tri_inverse(B)) == identity_triangle(6)

    def test_parameter_shift_action(self):
        prec = 8
        fam = from_ratfun([ONE, R - 1], [ONE, R - 1, -R], prec)
        shifted = from_ratfun([ONE, R], [ONE, R, -(R + 1)], prec)
        lhs = matmul(triangle_from_gf(fam, 8), binomial_matrix(8))
        assert lhs == triangle_from_gf(shifted, 8)


class TestRiordan:
    def test_stirling2(self):
        T = riordan_to_triangle(
            RiordanArray(Series.one(6), _exp(6) - 1), 5, exponential=True)
        assert tri_ints(T) == [
            [1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 7, 6, 1]]

    def test_scaled_stirling(self):
        T = riordan_to_triangle(
            RiordanArray(Series.one(6), (_exp(6, 2) - 1) / 2), 5, exponential=True)
        want = [[oracle("stirling2", n, k).as_fraction() * 2 ** (n - k)
                 for k in range(n + 1)] for n in range(5)]
        assert tri_ints(T) == want

    def test_pascal_as_riordan(self):
        T = riordan_to_triangle(
            RiordanArray(from_ratfun([1], [1, -1], 5),
                         from_ratfun([0, 1], [1, -1], 5)), 5)
        assert T == binomial_matrix(5)

    def test_apply_stretched(self):
        prec = 5
        f = from_ratfun([0, 0, 1], [1, -2], prec)
        h = from_ratfun([1], [ONE, -R], prec)
        got = riordan_apply(RiordanArray(Series.one(prec), f), h)
        assert list(got) == [ONE, ZERO, R, R * 2, R * R + R * 4]

    def test_apply_identity(self):
        h = Series([1, R, fe(3), fe(-1), R + 2])
        ident = RiordanArray(Series.one(5), Series.x(5))
        assert riordan_apply(ident, h) == h

    def test_apply_partial_sums(self):
        h = Series([1, 2, 3, 4])
        psum = RiordanArray(from_ratfun([1], [1, -1], 4), Series.x(4))
        assert [v.as_fraction() for v in riordan_apply(psum, h)] == \
            [1, 3, 6, 10]

    def test_pair_checks_g_and_f_and_takes_no_kind(self):
        with pytest.raises(ValueError, match="nonzero constant term"):
            RiordanArray(Series.x(4), Series.x(4))
        with pytest.raises(ValueError, match="f\\(0\\) = 0"):
            RiordanArray(Series.one(4), Series.one(4))
        with pytest.raises(TypeError):
            RiordanArray(Series.one(4), Series.x(4), "ordinary")

    def test_group_product_coherence(self):
        # triangle of a Riordan product equals the product of triangles
        prec, rows = 7, 6
        g1 = from_ratfun([1], [1, -1], prec)
        f1 = from_ratfun([0, 1], [1, -1], prec)
        g2 = from_ratfun([1, 1], [1], prec)
        f2 = Series([0, 1, 2, 1] + [0] * (prec - 4))
        prod_g = g1 * g2.compose(f1)
        prod_f = f2.compose(f1)
        lhs = riordan_to_triangle(RiordanArray(prod_g, prod_f), rows)
        rhs = matmul(
            riordan_to_triangle(RiordanArray(g1, f1), rows),
            riordan_to_triangle(RiordanArray(g2, f2), rows),
        )
        assert lhs == rhs

    @given(st.lists(small_ints, min_size=2, max_size=4),
           st.lists(small_ints, min_size=1, max_size=3),
           st.lists(small_ints, min_size=2, max_size=4),
           st.lists(small_ints, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_group_product_coherence_random(self, g1c, f1c, g2c, f2c):
        prec, rows = 6, 5
        g1 = Series([1] + g1c + [0] * (prec - 1 - len(g1c)))
        f1 = Series([0, 1] + f1c + [0] * (prec - 2 - len(f1c)))
        g2 = Series([1] + g2c + [0] * (prec - 1 - len(g2c)))
        f2 = Series([0, 1] + f2c + [0] * (prec - 2 - len(f2c)))
        lhs = riordan_to_triangle(
            RiordanArray(g1 * g2.compose(f1), f2.compose(f1)), rows)
        rhs = matmul(
            riordan_to_triangle(RiordanArray(g1, f1), rows),
            riordan_to_triangle(RiordanArray(g2, f2), rows))
        assert lhs == rhs

    @given(st.lists(small_ints, min_size=2, max_size=4),
           st.lists(small_ints, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_inverse_coherence_random(self, gc, fc):
        prec, rows = 6, 5
        g = Series([1] + gc + [0] * (prec - 1 - len(gc)))
        f = Series([0, 1] + fc + [0] * (prec - 2 - len(fc)))
        fbar = f.revert()
        lhs = riordan_to_triangle(
            RiordanArray(divide(Series.one(prec), g.compose(fbar)), fbar), rows)
        rhs = tri_inverse(riordan_to_triangle(RiordanArray(g, f), rows))
        assert lhs == rhs

    def test_riordan_inverse_matches_triangle_inverse(self):
        prec, rows = 7, 6
        g = from_ratfun([1, 1], [1], prec)
        f = from_ratfun([0, 1], [1, 1], prec)
        fbar = f.revert()
        inv_g = divide(Series.one(prec), g.compose(fbar))
        inv_f = fbar
        lhs = riordan_to_triangle(RiordanArray(inv_g, inv_f), rows)
        rhs = tri_inverse(riordan_to_triangle(RiordanArray(g, f), rows))
        assert lhs == rhs


class TestProductionMatrix:
    def test_ordered_bell(self):
        g, f = ordered_bell_pair(8)
        P = production_matrix(RiordanArray(g, f), 6)
        rr1 = R * (R + 1)
        assert P.rows[0][:3] == (R, ONE, ZERO)
        assert P.rows[1][:3] == (rr1, R * 3 + 1, ONE)
        assert P.rows[2][:4] == (ZERO, rr1 * 4, R * 5 + 2, ONE)
        assert P.rows[5][4:] == (rr1 * 25, R * 11 + 5)

    def test_galton(self):
        prec = 8
        one = Series.one(prec)
        den = one + (one - _exp(prec, 2)) * R
        g = den.pow_rational(Fraction(-1, 2))
        f = divide(_exp(prec, 2) - one, den * 2)
        P = production_matrix(RiordanArray(g, f), 6)
        rr1 = R * (R + 1)
        assert P.rows[1][:2] == (rr1 * 2, R * 5 + 2)
        assert P.rows[2][1:3] == (rr1 * 12, R * 9 + 4)
        assert P.rows[5][4:] == (rr1 * 90, R * 21 + 10)

    def test_descent_family(self):
        prec = 7
        one = Series.one(prec)
        den = one + (one - _exp(prec)) * (R * 2)
        g = den.pow_rational(Fraction(-1, 2))
        f = divide(_exp(prec) - one, den)
        P = production_matrix(RiordanArray(g, f), 5)
        w = R * (R * 2 + 1)
        assert P.rows[0][:2] == (R, ONE)
        assert P.rows[1][:2] == (w, R * 5 + 1)
        assert P.rows[2][1:3] == (w * 6, R * 9 + 2)
        assert P.rows[4][3:] == (w * 28, R * 17 + 4)


def three_composition_prodmat(g, f, size):
    """The production matrix with A = f' o fbar and Z = (g' o fbar)/(g o fbar)."""
    fbar = f.revert()
    A = f.derivative().compose(fbar)
    Z = divide(g.derivative().compose(fbar), g.compose(fbar))

    def entry(i, j):
        if j > i + 1:
            return ZERO
        z = Z[i - j] if i >= j else ZERO
        return (z + A[i - j + 1] * j) * Fraction(factorial(i), factorial(j))

    return [tuple(entry(i, j) for j in range(size)) for i in range(size)]


class TestProductionMatrixOneComposition:
    def test_ordered_bell_and_galton(self):
        prec = 9
        one = Series.one(prec)
        den = one + (one - _exp(prec, 2)) * R
        pairs = [ordered_bell_pair(prec),
                 (den.pow_rational(Fraction(-1, 2)),
                  divide(_exp(prec, 2) - one, den * 2))]
        for g, f in pairs:
            P = production_matrix(RiordanArray(g, f), prec - 2)
            assert list(P.rows) == three_composition_prodmat(g, f, prec - 2)

    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.lists(field_elems(max_deg=1), min_size=n - 1, max_size=n - 1),
        nonzero_field_elems(max_deg=1), nonzero_field_elems(max_deg=1),
        st.lists(field_elems(max_deg=1), min_size=n - 2, max_size=n - 2))))
    @settings(max_examples=25, deadline=None)
    def test_matches_three_compositions_on_qr_pairs(self, parts):
        gs, g0, f1, fs = parts
        g, f = Series([g0, *gs]), Series([ZERO, f1, *fs])
        size = g.prec - 2
        P = production_matrix(RiordanArray(g, f), size)
        assert list(P.rows) == three_composition_prodmat(g, f, size)


def prodmat_by_inverse(g, f, size):
    """The production matrix as T^-1 T-bar: T the first size rows of the
    exponential Riordan array, T-bar its rows 1 .. size cut to size columns."""
    T = riordan_to_triangle(RiordanArray(g, f), size + 1, exponential=True)
    inv = tri_inverse(Triangle(T.rows[:size])).rows
    bar = [row[:size] + (ZERO,) * (size - len(row)) for row in T.rows[1:]]
    return [tuple(dot(inv[i], [bar[k][j] for k in range(i + 1)]) for j in range(size))
            for i in range(size)]


def prodmat_fixture_pair(fid):
    """(g, f, size) of a prodmat fixture's build, g and f to size + 2 terms."""
    g, f, n = parse({fx.id: fx for fx in all_fixtures()}[fid].build).args
    env = Env(order=n.value + 2)
    return evaluate(g, env), evaluate(f, env), n.value


@st.composite
def exponential_pairs(draw):
    """(g, f, size) over Q(r): g(0) != 0, f(0) = 0, f'(0) != 0, size 1 to 8,
    both series to size + 2 terms."""
    size = draw(st.integers(1, 8))
    coeffs = st.lists(field_elems(max_deg=1), min_size=size, max_size=size)
    g = Series([draw(nonzero_field_elems(max_deg=1)), *draw(coeffs),
                draw(field_elems(max_deg=1))])
    f = Series([ZERO, draw(nonzero_field_elems(max_deg=1)), *draw(coeffs)])
    return g, f, size


@given(exponential_pairs())
@example(prodmat_fixture_pair("prodmat-ordered-bell"))
@example(prodmat_fixture_pair("prodmat-galton"))
@example(prodmat_fixture_pair("prodmat-etude3"))
@settings(max_examples=25, deadline=None)
def test_production_matrix_is_the_inverse_times_the_shifted_array(pair):
    g, f, size = pair
    P = production_matrix(RiordanArray(g, f), size)
    assert list(P.rows) == prodmat_by_inverse(g, f, size)


class TestRecurrence:
    def test_ordered_bell_coeffs(self):
        g, f = ordered_bell_pair(8)
        rc = recurrence_from_production(
            production_matrix(RiordanArray(g, f), 6))
        assert list(rc.alpha[:3]) == [R, R * 3 + 1, R * 5 + 2]
        assert list(rc.beta[:3]) == [R * (R + 1), R * (R + 1) * 4,
                                     R * (R + 1) * 9]

    def test_diagonal_only(self):
        P = SquareMatrix([[2, 1, 0], [0, 3, 1], [0, 0, 4]])
        rc = recurrence_from_production(P)
        assert all(v.is_zero() for v in rc.beta)

    def test_not_tridiagonal(self):
        with pytest.raises(NotTridiagonal):
            recurrence_from_production(
                SquareMatrix([[1, 1, 1], [1, 1, 1], [0, 1, 1]]))
        with pytest.raises(NotTridiagonal):
            recurrence_from_production(SquareMatrix([[1, 2], [1, 1]]))


constants = st.builds(Fraction, small_ints, st.integers(1, 3)).map(fe)


class TestOrthopoly:
    def test_first_rows(self):
        rc = RecurrenceCoeffs([R, R * 3 + 1], [R * (R + 1)])
        T = orthopoly_triangle(rc, 3)
        assert T.rows[1] == (-R, ONE)
        # (x - (3r+1))(x - r) - r(r+1)
        assert T.rows[2] == (R * R * 2, -(R * 4 + 1), ONE)

    def test_zero_recurrence_gives_powers(self):
        rc = RecurrenceCoeffs([0, 0, 0], [0, 0])
        T = orthopoly_triangle(rc, 4)
        assert T == Triangle([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]])

    @given(st.lists(st.one_of(constants, scalars()), min_size=9, max_size=9),
           st.lists(st.one_of(constants, scalars()), min_size=8, max_size=8),
           st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_loop(self, alpha, beta, rows):
        rc = RecurrenceCoeffs(alpha, beta)
        got, want = orthopoly_triangle(rc, rows), orthopoly_by_loop(rc, rows)
        assert [[(c.num, c.den) for c in row] for row in got.rows] == \
            [[(c.num, c.den) for c in row] for row in want.rows]


def orthopoly_by_loop(rc, rows):
    """P_n = (x - alpha[n-1]) P_(n-1) - beta[n-2] P_(n-2), one product and
    one difference at a time."""
    polys = []
    for n in range(rows):
        if n == 0:
            polys.append([ONE])
            continue
        prev = polys[n - 1]
        shifted = [ZERO] + list(prev)               # x * P_(n-1)
        scaled = [c * rc.alpha[n - 1] for c in prev]
        cur = [shifted[i] - (scaled[i] if i < len(scaled) else ZERO)
               for i in range(n + 1)]
        if n >= 2:
            for i, c in enumerate(polys[n - 2]):
                cur[i] = cur[i] - rc.beta[n - 2] * c
        polys.append(cur)
    return Triangle(polys)


def _family_orthogonality(g, f, size=6):
    rc = recurrence_from_production(
        production_matrix(RiordanArray(g, f), size))
    polys = orthopoly_triangle(rc, size)
    moments = sumudu(g)
    for n in range(size):
        for m in range(n):
            assert moment_functional(moments, polys.rows[n], polys.rows[m]) \
                == ZERO
        norm = moment_functional(moments, polys.rows[n], polys.rows[n])
        want = ONE
        for k in range(n):
            want = want * rc.beta[k]
        assert norm == want


class TestMoments:
    def test_mu0(self):
        moments = Series([1, 1, 3, 13])
        assert moment_functional(moments, [1], [1]) == ONE

    def test_orthogonality_values(self):
        g, f = ordered_bell_pair(8)
        rc = recurrence_from_production(
            production_matrix(RiordanArray(g, f), 4))
        polys = orthopoly_triangle(rc, 3)
        moments = sumudu(g)
        assert moment_functional(moments, polys.rows[1], polys.rows[0]) == ZERO
        assert moment_functional(moments, polys.rows[1], polys.rows[1]) \
            == R * (R + 1)

    def test_precision_guard(self):
        with pytest.raises(PrecisionExhausted):
            moment_functional(Series([1, 1]), [0, 1], [0, 1])

    def test_ordered_bell_family(self):
        g, f = ordered_bell_pair(12)
        _family_orthogonality(g, f)

    def test_galton_family(self):
        prec = 12
        one = Series.one(prec)
        den = one + (one - _exp(prec, 2)) * R
        _family_orthogonality(den.pow_rational(Fraction(-1, 2)),
                              divide(_exp(prec, 2) - one, den * 2))

    def test_descent_family(self):
        prec = 12
        one = Series.one(prec)
        den = one + (one - _exp(prec)) * (R * 2)
        _family_orthogonality(den.pow_rational(Fraction(-1, 2)),
                              divide(_exp(prec) - one, den))


class TestOracle:
    def test_spot_values(self):
        assert oracle("N3", 6, 3).as_fraction() == 175
        assert oracle("E3", 4, 1).as_fraction() == 26
        assert oracle("A096078", 3, 2).as_fraction() == 34

    def test_unknown_and_range(self):
        with pytest.raises(UnknownOracle):
            oracle("nope", 1, 1)
        with pytest.raises(IndexRange):
            oracle("N1", 2, 3)

    def test_etude2_coefficients(self):
        assert oracle("etude2_seq", 4, 1).as_fraction() == 4
        assert oracle("etude2_seq", 6, 2).as_fraction() == 12
        assert oracle("etude2_seq", 6, 3).as_fraction() == 1

    def test_oracles_match_gf_routes(self):
        prec = 8
        fam = from_ratfun([ONE, R - 1], [ONE, R - 1, -R], prec)
        g, _ = ordered_bell_pair(prec)
        pairs = [
            ("N1", triangle_from_gf(
                from_ratfun([ONE, -R], [ONE, -(R - 1)], prec).gf_revert(),
                7)),
            ("N2", triangle_from_gf(
                from_ratfun([1, -1], [ONE, R - 1], prec).gf_revert(),
                7)),
            ("N3", triangle_from_gf(
                from_ratfun([1], [ONE, R + 1, R], prec).gf_revert(), 7)),
            ("A019538", triangle_from_gf(sumudu(g), 7)),
            ("galton", triangle_from_gf(sumudu(
                (Series.one(prec) + (Series.one(prec) - _exp(prec, 2)) * R)
                .pow_rational(Fraction(-1, 2))), 7)),
        ]
        for name, built in pairs:
            assert built == oracle_triangle(name, 7), name

    def test_a096078_matches_its_recurrence(self):
        memo = {(0, 0): 1}

        def t(n, k):
            if k < 0 or k > n:
                return 0
            if (n, k) not in memo:
                memo[(n, k)] = (k + 1) * t(n - 1, k) + (n - k + 1) * t(n, k - 1)
            return memo[(n, k)]

        for n in range(23):
            for k in range(n + 1):
                assert oracle("A096078", n, k).as_fraction() == t(n, k)

    def test_a096078_diagonal(self):
        T = oracle_triangle("A096078", 5)
        assert [T.rows[n][n].as_fraction() for n in range(5)] == \
            [1, 1, 4, 34, 496]


class TestSquareMatrixApply:
    def test_path_graph_image(self):
        rows = [[1 if (j == i or (j < i and j % 2 == 0)) else 0
                 for j in range(8)] for i in range(8)]
        M = SquareMatrix(rows)
        image = M.apply([1, -1, 2, -3, 6, -9, 18, -27])
        assert [v.as_fraction() for v in image] == [1, 0, 3, 0, 9, 0, 27, 0]


# -- the column kernels against the per-entry code they replaced -------------


def matmul_by_entry(A, B):
    n = min(A.n_rows, B.n_rows)
    return Triangle([
        [dot(A.rows[i][j:], [B.rows[k][j] for k in range(j, i + 1)])
         for j in range(i + 1)]
        for i in range(n)
    ])


def tri_inverse_by_entry(T):
    n = T.n_rows
    inv = [[ZERO] * (i + 1) for i in range(n)]
    for i in range(n):
        inv[i][i] = T.rows[i][i].inverse()
        for j in range(i - 1, -1, -1):
            s = dot(T.rows[i][j:i], [inv[k][j] for k in range(j, i)])
            inv[i][j] = -(s * inv[i][i]) if not s.is_zero() else ZERO
    return Triangle(inv)


def riordan_by_series_products(Rarr, rows, exponential):
    cols = [Rarr.g]
    for _ in range(1, rows):
        cols.append(cols[-1] * Rarr.f)
    return Triangle([
        [cols[k].coeffs[n] * (Fraction(factorial(n), factorial(k)) if exponential else 1)
         for k in range(n + 1)]
        for n in range(rows)
    ])


_constants = st.builds(lambda n, d: fe(Fraction(n, d)), small_ints, st.integers(1, 6))
_nonzero_constants = _constants.filter(lambda v: not v.is_zero())
# (entries below the diagonal, diagonal entries): rational constants, or
# Q(r) with unit, non-unit and r-dependent diagonals
_ENTRIES = {
    "constant": (st.one_of(_constants, st.just(ZERO)),
                 st.one_of(st.just(ONE), _nonzero_constants)),
    "qr": (st.one_of(scalars(), field_elems(max_deg=1), st.just(ZERO)),
           st.one_of(st.just(ONE), _nonzero_constants, nonzero_field_elems(max_deg=1))),
}


@st.composite
def lower_triangles(draw, kind):
    below, diag = _ENTRIES[kind]
    n = draw(st.integers(1, 6))
    return Triangle([[draw(below) for _ in range(i)] + [draw(diag)] for i in range(n)])


triangle_pairs = st.sampled_from(sorted(_ENTRIES)).flatmap(
    lambda kind: st.tuples(lower_triangles(kind), lower_triangles(kind)))


@st.composite
def riordan_cases(draw):
    prec = draw(st.integers(2, 7))
    coeff = st.one_of(draw(st.sampled_from([_constants, scalars()])), st.just(ZERO))
    g0 = draw(st.one_of(_nonzero_constants, nonzero_field_elems(max_deg=1)))
    g = Series([g0] + [draw(coeff) for _ in range(prec - 1)])
    # f'(0) = 0 half the time: a stretched array
    f = Series([ZERO] + [ZERO if i == 1 and draw(st.booleans()) else draw(coeff)
                         for i in range(1, prec)])
    return RiordanArray(g, f), draw(st.integers(1, prec))


# the triangle of 1/(1-(1+r)x) scaled by 1+r: every diagonal entry is 1+r
R_DIAGONAL = Triangle([[v * (ONE + R) for v in row] for row in triangle_from_gf(
    from_ratfun([1], [ONE, -(ONE + R)], 5), 5).rows])


class TestColumnKernels:
    @given(triangle_pairs)
    @settings(max_examples=80, deadline=None)
    @example((binomial_matrix(6), R_DIAGONAL))
    @example((R_DIAGONAL, tri_inverse(R_DIAGONAL)))
    def test_matmul_and_inverse_match_the_per_entry_code(self, pair):
        A, B = pair
        assert matmul(A, B) == matmul_by_entry(A, B)
        inv = tri_inverse(B)
        assert inv == tri_inverse_by_entry(B)
        assert matmul(B, inv) == identity_triangle(B.n_rows)

    @given(riordan_cases())
    @settings(max_examples=80, deadline=None)
    # stretched arrays: (1/(1-x), x^2/(1-x)) and (exp(x), x^2+x^3)
    @example((RiordanArray(Series([1] * 7), Series([0, 0, 1, 1, 1, 1, 1])), 7))
    @example((RiordanArray(_exp(7), Series([0, 0, 1, 1, 0, 0, 0])), 7))
    def test_riordan_matches_the_series_products(self, case):
        Rarr, rows = case
        for exponential in (False, True):
            assert riordan_to_triangle(Rarr, rows, exponential) == \
                riordan_by_series_products(Rarr, rows, exponential)

    def test_stretched_examples(self):
        T = riordan_to_triangle(
            RiordanArray(Series([1] * 7), Series([0, 0, 1, 1, 1, 1, 1])), 7)
        assert tri_ints(T)[6] == [1, 5, 6, 1, 0, 0, 0]
        T = riordan_to_triangle(
            RiordanArray(_exp(7), Series([0, 0, 1, 1, 0, 0, 0])), 7, exponential=True)
        assert tri_ints(T)[6] == [1, 150, 1260, 120, 0, 0, 0]


# -- the integer route against the dot route and plain Fractions -------------


def matmul_by_fractions(A, B):
    n = min(A.n_rows, B.n_rows)
    a, b = (tri_ints(Triangle(T.rows[:n])) for T in (A, B))
    return [[sum((a[i][k] * b[k][j] for k in range(j, i + 1)), Fraction(0))
             for j in range(i + 1)] for i in range(n)]


def riordan_by_fractions(Rarr, rows, exponential):
    """Column k of the array is g * f^k, by plain Fraction convolutions."""
    g = [v.as_fraction() for v in Rarr.g.coeffs[:rows]]
    f = [v.as_fraction() for v in Rarr.f.coeffs[:rows]]
    cols = [g]
    for _ in range(1, rows):
        col = cols[-1]
        cols.append([sum((col[m] * f[n - m] for m in range(n)), Fraction(0))
                     for n in range(rows)])
    return [[cols[k][n] * (Fraction(factorial(n), factorial(k)) if exponential else 1)
             for k in range(n + 1)] for n in range(rows)]


def outcome(fn):
    """fn()'s value, or the type and text of the SingularDiagonal it raises."""
    try:
        return fn()
    except SingularDiagonal as exc:
        return type(exc), str(exc)


def routes(fn):
    """The sums of products fn's triangle code makes: "int" for
    ``_isum``, "dot" for ``dot``."""
    seen = set()
    with ExitStack() as stack:
        for name, route in (("_isum", "int"), ("dot", "dot")):
            real = getattr(triangles, name)
            stack.enter_context(patch.object(
                triangles, name,
                lambda xs, ys, real=real, route=route: seen.add(route) or real(xs, ys)))
        outcome(fn)
    return seen


def dot_route(fn):
    """fn() with the integer route off: ``_ints`` finds no integers."""
    with patch.object(triangles, "_ints", lambda rows: None):
        return outcome(fn)


def all_ints(rows):
    return all(v.den == (1,) and len(v.num) < 2 for row in rows for v in row)


_big_ints = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**30, 10**30))
# an entry that leaves the integer route: a rational constant or one in r
_SPOILS = (lambda v: fe(Fraction(2 * v + 1, 2)), lambda v: R + v)


@st.composite
def spoiled(draw, entries, positions):
    """entries, one of them made rational or r-dependent half the time."""
    if positions and draw(st.booleans()):
        i, j = draw(st.sampled_from(positions))
        entries[i][j] = draw(st.sampled_from(_SPOILS))(entries[i][j])
    return entries


@st.composite
def integer_triangles(draw):
    n = draw(st.integers(0, 30))
    diag = draw(st.sampled_from([st.sampled_from([1, -1]), _big_ints]))
    rows = [[draw(_big_ints) for _ in range(i)] + [draw(diag)] for i in range(n)]
    return Triangle(draw(spoiled(rows, [(i, j) for i in range(n) for j in range(i + 1)])))


@st.composite
def integer_riordan_pairs(draw):
    rows = draw(st.integers(0, 30))
    prec = max(rows, 2)
    g0 = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)).filter(bool)
    g = [draw(g0)] + [draw(_big_ints) for _ in range(prec - 1)]
    f = [0] + [draw(_big_ints) for _ in range(prec - 1)]
    g, f = draw(spoiled([g, f], [(0, n) for n in range(rows)]
                        + [(1, n) for n in range(1, rows)]))
    return RiordanArray(Series(g), Series(f)), rows


UNIT = Triangle([[1], [-7, -1], [10**30, 0, 1]])
NON_UNIT = triangle_from_gf(from_ratfun([1], [1, -(2 * R + 1)], 5), 5)  # 2^k C(n,k)
ONE_RATIONAL = Triangle([[1], [-7, -1], [10**30, fe(Fraction(1, 2)), 1]])
ONE_IN_R = Triangle([[1], [-7, R], [10**30, 0, 1]])
ZERO_DIAGONAL = Triangle([[1], [-7, -1], [10**30, 5, 0]])


class TestIntegerRoute:
    """The integer route of matmul, tri_inverse and riordan_to_triangle
    gives what the dot route gives, and takes only integer entries."""

    @given(st.tuples(integer_triangles(), integer_triangles()))
    @settings(max_examples=40, deadline=None)
    @example((Triangle([[-1]]), Triangle([[10**30]])))      # one row
    @example((UNIT, NON_UNIT))                              # a non-unit diagonal
    @example((ONE_RATIONAL, UNIT))                          # one rational entry
    @example((UNIT, ONE_IN_R))                              # one entry in r
    @example((UNIT, ZERO_DIAGONAL))                         # a zero diagonal
    def test_matmul_and_inverse_match_the_dot_route(self, pair):
        A, B = pair
        n = min(A.n_rows, B.n_rows)
        got = matmul(A, B)
        assert got == dot_route(lambda: matmul(A, B))
        on_ints = all_ints(A.rows[:n]) and all_ints(B.rows[:n])
        assert routes(lambda: matmul(A, B)) <= {"int" if on_ints else "dot"}
        if on_ints:
            assert tri_ints(got) == matmul_by_fractions(A, B)

        inv = outcome(lambda: tri_inverse(B))
        assert inv == dot_route(lambda: tri_inverse(B))
        unit = all_ints(B.rows) and all(row[i] in (1, -1) for i, row in enumerate(tri_ints(B)))
        assert routes(lambda: tri_inverse(B)) <= {"int" if unit else "dot"}
        if not isinstance(inv, Triangle):
            assert inv[0] is SingularDiagonal
        elif all(v.is_constant() for row in B.rows for v in row):
            assert matmul_by_fractions(B, inv) == tri_ints(identity_triangle(B.n_rows))

    def test_route_examples(self):
        assert routes(lambda: tri_inverse(UNIT)) == {"int"}
        assert routes(lambda: tri_inverse(NON_UNIT)) == {"dot"}
        assert tri_ints(tri_inverse(NON_UNIT))[1] == [Fraction(-1, 2), Fraction(1, 2)]
        assert routes(lambda: matmul(ONE_RATIONAL, UNIT)) == {"dot"}
        assert routes(lambda: matmul(UNIT, ONE_IN_R)) == {"dot"}
        with pytest.raises(SingularDiagonal, match=r"^zero diagonal entry in row 2$"):
            tri_inverse(ZERO_DIAGONAL)

    @given(integer_riordan_pairs())
    @settings(max_examples=40, deadline=None)
    @example((RiordanArray(Series([5, 0]), Series([0, 1])), 1))       # one row
    # (1/(1-x), x/(1-x)) with one rational coefficient, and with one in r
    @example((RiordanArray(Series([1, 1, fe(Fraction(1, 2)), 1]), Series([0, 1, 1, 1])), 4))
    @example((RiordanArray(Series([1, 1, 1, 1]), Series([0, 1, R, 1])), 4))
    def test_riordan_matches_the_dot_route(self, case):
        Rarr, rows = case
        entries = (Rarr.g.coeffs[:rows], Rarr.f.coeffs[:rows])
        for exponential in (False, True):
            got = riordan_to_triangle(Rarr, rows, exponential)
            assert got == dot_route(lambda: riordan_to_triangle(Rarr, rows, exponential))
            assert routes(lambda: riordan_to_triangle(Rarr, rows, exponential)) <= \
                {"int" if all_ints(entries) else "dot"}
            if all(v.is_constant() for col in entries for v in col):
                assert tri_ints(got) == riordan_by_fractions(Rarr, rows, exponential)

    def test_exponential_scale(self):
        # [1/(1-x), x/(1-x)]: entry (n, k) is C(n, k) n!/k!
        Rarr = RiordanArray(Series([1] * 6), Series([0] + [1] * 5))
        assert routes(lambda: riordan_to_triangle(Rarr, 6, True)) == {"int"}
        assert tri_ints(riordan_to_triangle(Rarr, 6, True))[5] == [120, 600, 600, 200, 25, 1]
