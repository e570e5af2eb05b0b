from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfpipe import cfrac
from gfpipe.cfrac import (
    JFraction,
    SFraction,
    contract_s_to_j,
    deleham,
    deleham_delta1,
    jfrac_to_series,
    series_to_jfrac,
    series_to_sfrac,
    sfrac_to_series,
    t_forward,
    t_forward_image,
    t_inverse,
)
from gfpipe.errors import (
    DegenerateCfrac,
    EngineError,
    InsufficientDepth,
    NonUnitConstantTerm,
    PatternMismatch,
)
from gfpipe.ratfun import ONE, R, ZERO, fe
from gfpipe.series import Series, divide, from_ratfun
from gfpipe.triangles import triangle_from_gf

from conftest import nonzero_field_elems, scalars, small_ints


def ints(series):
    return [c.as_fraction() for c in series]


FUBINI = Series([1, 1, 3, 13, 75, 541, 4683, 47293, 545835])


class TestEvaluation:
    def test_fubini_jfrac(self):
        J = JFraction([1, 4, 7, 10, 13], [2, 8, 18, 32])
        assert ints(jfrac_to_series(J, 9)) == ints(FUBINI)

    def test_parameterized_jfrac(self):
        J = JFraction([R, R * 3 + 1, R * 5 + 2], [R * (R + 1), R * (R + 1) * 4])
        got = jfrac_to_series(J, 4)
        assert list(got) == [ONE, R, R * (R * 2 + 1),
                             R * (R * R * 6 + R * 6 + 1)]

    def test_empty_is_one(self):
        assert ints(jfrac_to_series(JFraction([], []), 4)) == [1, 0, 0, 0]

    @pytest.mark.parametrize("prec", range(6))
    def test_empty_sfrac_is_one(self, prec):
        assert ints(sfrac_to_series(SFraction([]), prec)) == [1, 0, 0, 0, 0, 0][:prec]

    def test_insufficient_depth(self):
        with pytest.raises(InsufficientDepth):
            jfrac_to_series(JFraction([1], [2, 8, 18, 32]), 9)

    def test_fubini_sfrac(self):
        S = SFraction([1, 2, 2, 4, 3, 6, 4, 8])
        assert ints(sfrac_to_series(S, 9)) == ints(FUBINI)

    def test_catalan_sfrac(self):
        S = SFraction([1, 1, 1, 1])
        assert ints(sfrac_to_series(S, 5)) == [1, 1, 2, 5, 14]

    def test_terminating_sfrac_geometric(self):
        got = sfrac_to_series(SFraction([R]), 4)
        assert list(got) == [ONE, R, R * R, R * R * R]


class TestExpansion:
    def test_fubini_jfrac(self):
        J = series_to_jfrac(Series([1, 1, 3, 13, 75, 541, 4683]))
        assert [v.as_fraction() for v in J.b] == [1, 4, 7]
        assert [v.as_fraction() for v in J.lam] == [2, 8, 18]

    def test_shifted_fubini(self):
        shifted = Series([1, 3, 13, 75, 541, 4683, 47293])
        J = series_to_jfrac(shifted)
        assert [v.as_fraction() for v in J.b] == [3, 6, 9]
        assert [v.as_fraction() for v in J.lam] == [4, 12, 24]

    def test_nonelementary_has_non_integer_level(self):
        seq = Series([1, 2, 12, 112, 1440, 23648, 473088, 11164288,
                      303648000, 9352781312, 320497851392])
        J = series_to_jfrac(seq)
        vals = [v.as_fraction() for v in J.b] + [v.as_fraction() for v in J.lam]
        assert any(v.denominator != 1 for v in vals)

    def test_fubini_sfrac(self):
        S = series_to_sfrac(FUBINI)
        assert [v.as_fraction() for v in S.s] == [1, 2, 2, 4, 3, 6, 4, 8]

    def test_catalan_sfrac(self):
        S = series_to_sfrac(Series([1, 1, 2, 5, 14]))
        assert [v.as_fraction() for v in S.s] == [1, 1, 1, 1]

    def test_terminating_rational(self):
        geom = from_ratfun([1], [fe(1), -R], 7)
        S = series_to_sfrac(geom)
        assert list(S.s) == [R]
        J = series_to_jfrac(geom)
        assert list(J.b) == [R] and J.lam == ()

    def test_degenerate(self):
        with pytest.raises(DegenerateCfrac):
            series_to_jfrac(Series([1, 1, 1, 1, 1, 2]))
        with pytest.raises(DegenerateCfrac):
            series_to_sfrac(Series([1, 0, 0, 1]))

    def test_needs_unit_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            series_to_jfrac(Series([2, 1, 1]))
        for f in (Series([]), Series([2, 1])):
            with pytest.raises(NonUnitConstantTerm):
                series_to_sfrac(f)


class TestContraction:
    def test_fubini(self):
        J = contract_s_to_j(SFraction([1, 2, 2, 4, 3, 6, 4, 8, 5]))
        assert [v.as_fraction() for v in J.b][:4] == [1, 4, 7, 10]
        assert [v.as_fraction() for v in J.lam] == [2, 8, 18, 32]

    def test_parameterized(self):
        S = SFraction([R, R + 1, R * 2, (R + 1) * 2, R * 3, (R + 1) * 3])
        J = contract_s_to_j(S)
        assert list(J.b)[:3] == [R, R * 3 + 1, R * 5 + 2]
        assert list(J.lam)[:2] == [R * (R + 1), R * (R + 1) * 4]

    def test_single(self):
        J = contract_s_to_j(SFraction([R + 2]))
        assert list(J.b) == [R + 2] and J.lam == ()

    @given(st.lists(small_ints.filter(bool), min_size=1, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_contraction_identity(self, svals):
        S = SFraction(svals)
        J = contract_s_to_j(S)
        for prec in (4, 9):
            assert jfrac_to_series(J, prec) == sfrac_to_series(S, prec)


class TestRoundTrips:
    @given(st.lists(small_ints, min_size=3, max_size=6),
           st.lists(small_ints.filter(bool), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_jfrac_series_jfrac(self, bs, lams):
        J = JFraction(bs, lams)
        depth = min(len(bs), len(lams) + 1)
        prec = 2 * depth
        got = series_to_jfrac(jfrac_to_series(J, prec))
        n_b = min(len(got.b), depth)
        assert got.b[:n_b] == J.b[:n_b]
        n_l = min(len(got.lam), len(lams))
        assert got.lam[:n_l] == J.lam[:n_l]

    @given(st.lists(small_ints.filter(bool), min_size=2, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_sfrac_series_sfrac(self, svals):
        S = SFraction(svals)
        got = series_to_sfrac(sfrac_to_series(S, len(svals) + 1))
        assert got.s[: len(svals)] == S.s


class TestDeleham:
    def test_a019538(self):
        T = deleham([0, 1, 0, 2, 0, 3], [1, 1, 2, 2, 3, 3], 5)
        assert [[v.as_fraction() for v in row] for row in T.rows] == [
            [1], [0, 1], [0, 1, 2], [0, 1, 6, 6], [0, 1, 14, 36, 24]]

    def test_a060693(self):
        T = deleham([1, 1, 1], [1, 0, 1], 4)
        assert [[v.as_fraction() for v in row] for row in T.rows] == [
            [1], [1, 1], [2, 3, 1], [5, 10, 6, 1]]

    def test_zero_sequences(self):
        T = deleham([0, 0], [0, 0], 3)
        assert [[v.as_fraction() for v in row] for row in T.rows] == [
            [1], [0, 0], [0, 0, 0]]

    def test_delta1_eulerian(self):
        T = deleham_delta1([0, 1, 0, 2, 0], [1, 0, 2, 0, 3], 5)
        assert [[v.as_fraction() for v in row] for row in T.rows] == [
            [1], [1, 1], [1, 4, 1], [1, 11, 11, 1], [1, 26, 66, 26, 1]]

    def test_delta1_narayana(self):
        T = deleham_delta1([0, 1, 0, 1], [1, 0, 1, 0], 4)
        assert [[v.as_fraction() for v in row] for row in T.rows] == [
            [1], [1, 1], [1, 3, 1], [1, 6, 6, 1]]

    def test_delta1_zeros(self):
        T = deleham_delta1([0, 0], [0, 0], 3)
        assert [[v.as_fraction() for v in row] for row in T.rows] == [
            [1], [0, 0], [0, 0, 0]]

    @pytest.mark.parametrize("rs,ss", [
        ([0, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1]),
        ([1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]),   # Narayana pair
        ([1, 0, 2, 0, 3, 0], [0, 1, 0, 2, 0, 3]),   # Eulerian pair
    ])
    def test_reversal_duality(self, rs, ss):
        from gfpipe.triangles import reversal

        a = deleham(rs, ss, 6)
        b = deleham(ss, rs, 6)
        assert reversal(a) == b


class TestPairing:
    def test_eulerian_from_narayana(self):
        J = t_inverse(1, R + 1, R, 3)
        assert list(J.b) == [ONE, R + 2, R * 2 + 3]
        assert list(J.lam) == [R, R * 4, R * 9]

    def test_a046802_parameters(self):
        J = t_inverse(R + 1, R + 1, R, 3)
        assert list(J.b) == [R + 1, (R + 1) * 2, (R + 1) * 3]
        assert list(J.lam) == [R, R * 4, R * 9]

    def test_zero(self):
        J = t_inverse(0, 0, 0, 2)
        assert all(v.is_zero() for v in J.b) and all(v.is_zero() for v in J.lam)

    def test_forward_ordered_bell(self):
        J = JFraction([R, R * 3 + 1, R * 5 + 2],
                      [R * (R + 1), R * (R + 1) * 4, R * (R + 1) * 9])
        b0, c, mu = t_forward(J)
        assert (b0, c, mu) == (R, R * 2 + 1, R * (R + 1))
        image = t_forward_image(J)
        assert list(image.b) == [R, R * 2 + 1, R * 2 + 1]
        assert list(image.lam) == [R * (R + 1)] * 3

    def test_forward_signed_chain(self):
        J = JFraction([fe(0), -R, R * (-2), R * (-3)],
                      [-(R + 1), (R + 1) * -4, (R + 1) * -9])
        b0, c, mu = t_forward(J)
        assert (b0, c, mu) == (fe(0), -R, -(R + 1))

    def test_forward_rejects_eulerian3(self):
        J = JFraction([R + 1, (R + 1) * 2, (R + 1) * 3],
                      [R * 2, R * 6, R * 12])
        with pytest.raises(PatternMismatch):
            t_forward(J)

    @given(st.tuples(small_ints, small_ints, small_ints),
           st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, triple, depth):
        b0, c, mu = triple
        J = t_inverse(b0, c, mu, depth)
        got = t_forward(J)
        assert [v.as_fraction() for v in got] == [b0, c, mu]
        back = t_inverse(*got, depth)
        assert back == J


# -- differential tests of the tableau against bottom-up division ---------------


def bottom_up_jfrac(J, prec):
    """The former evaluation: one series reciprocal per level, deepest first."""
    if prec <= 0:
        return Series([])
    needed_b = prec // 2
    needed_l = (prec - 1) // 2
    if len(J.lam) >= needed_l:
        if len(J.b) < needed_b:
            raise InsufficientDepth("short diagonal")
        depth = needed_l + 1
    else:
        depth = len(J.lam) + 1
    x = Series.x(prec)
    tail = Series.one(prec)
    for k in range(depth - 1, -1, -1):
        bk = J.b[k] if k < len(J.b) else ZERO
        level = Series.one(prec) - x * bk
        if k < depth - 1:
            level = level - x * x * J.lam[k] * tail
        tail = divide(Series.one(prec), level)
    return tail


def bottom_up_sfrac(s, prec):
    """S(s) at x = t^2 is the J-fraction with zero diagonal and weights s."""
    if prec <= 0:
        return Series([])
    J = JFraction([0] * (len(s) + 1), s)
    return Series(bottom_up_jfrac(J, 2 * prec - 1).coeffs[::2])


def weights(rs, ss, n):
    return [fe(rs[k] if k < len(rs) else 0) + fe(ss[k] if k < len(ss) else 0) * R
            for k in range(n)]


def forms(value):
    """Exact (num, den) tuples of a series or a triangle; or the error."""
    try:
        v = value()
    except InsufficientDepth:
        return InsufficientDepth
    rows = v.rows if hasattr(v, "rows") else [v.coeffs]
    return [[(c.num, c.den) for c in row] for row in rows]


entries = st.lists(scalars(), max_size=7)
precs = st.integers(0, 12)


@st.composite
def constants(draw):
    """Rational constants: zeros, negatives, denominators 1-9, and now and
    then +-10^30/7."""
    if draw(st.integers(0, 9)) == 0:
        return fe(Fraction(draw(st.sampled_from([1, -1])) * 10**30, 7))
    return fe(draw(st.fractions(-9, 9, max_denominator=9)))


const_entries = st.lists(constants(), max_size=21)
HALF = fe(Fraction(1, 2))


class TestTableau:
    @given(entries, entries, precs)
    @settings(max_examples=60, deadline=None)
    def test_jfrac_matches_bottom_up(self, bs, lams, prec):
        J = JFraction(bs, lams)
        assert forms(lambda: jfrac_to_series(J, prec)) == forms(
            lambda: bottom_up_jfrac(J, prec))

    @given(entries, precs)
    @example(svals=[], prec=2)
    @settings(max_examples=60, deadline=None)
    def test_sfrac_matches_bottom_up(self, svals, prec):
        assert forms(lambda: sfrac_to_series(SFraction(svals), prec)) == forms(
            lambda: bottom_up_sfrac(SFraction(svals).s, prec))

    @given(const_entries, const_entries, st.integers(0, 40))
    @example(bs=[], lams=[], prec=6)
    @example(bs=[ONE, fe(2), -ONE, fe(Fraction(1, 3))], lams=[fe(2), ZERO, fe(5)],
             prec=12)                                     # terminates at the zero
    @example(bs=[HALF], lams=[fe(3)], prec=1)
    @example(bs=[HALF], lams=[fe(3)], prec=2)
    @example(bs=[HALF] * 20, lams=[HALF] * 20, prec=40)   # s^n = 2^n
    @example(bs=[ONE, R, fe(Fraction(1, 3))], lams=[fe(2), fe(Fraction(1, 5))],
             prec=8)                                      # an r weight: dot loop
    @example(bs=[(R + 1) - R, fe(2)], lams=[fe(Fraction(1, 7))], prec=10)
    @settings(max_examples=100, deadline=None)
    def test_constant_weights_match_bottom_up_and_dot_loop(self, bs, lams, prec):
        """Rational-constant weights run the tableau in integers; the dot
        loop, put in place of ``_tableau``, is the second oracle."""
        J, S = JFraction(bs, lams), SFraction(bs + lams)
        for value, oracle in ((lambda: jfrac_to_series(J, prec),
                               lambda: bottom_up_jfrac(J, prec)),
                              (lambda: sfrac_to_series(S, prec),
                               lambda: bottom_up_sfrac(S.s, prec))):
            got = forms(value)
            assert got == forms(oracle)
            with patch.object(cfrac, "_tableau", cfrac._dot_tableau):
                assert got == forms(value)

    @given(st.lists(small_ints, max_size=8), st.lists(small_ints, max_size=8),
           st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_deleham_matches_bottom_up(self, rs, ss, rows):
        w = weights(rs, ss, max(rows - 1, 0))
        assert forms(lambda: deleham(rs, ss, rows)) == forms(
            lambda: triangle_from_gf(bottom_up_sfrac(w, rows), rows))

    @given(st.lists(small_ints, max_size=8), st.lists(small_ints, max_size=8),
           st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_deleham_delta1_matches_bottom_up(self, rs, ss, rows):
        w = weights(rs, ss, rows + 1)
        x = Series.x(rows)
        tail = bottom_up_sfrac(w[2:], rows)
        level0 = Series.one(rows) - x * w[0]
        if len(w) > 1:
            level0 = level0 - x * w[1] * tail
        gf = divide(Series.one(rows), level0)
        assert forms(lambda: deleham_delta1(rs, ss, rows)) == forms(
            lambda: triangle_from_gf(gf, rows))

    @pytest.mark.parametrize("bs,lams,prec", [
        ([1], [2, 8, 18, 32], 9),       # weights in play, diagonal short
        ([], [1], 3),
        ([1, 2], [1, 1, 1], 6),
    ])
    def test_insufficient_depth_agrees(self, bs, lams, prec):
        J = JFraction(bs, lams)
        with pytest.raises(InsufficientDepth):
            bottom_up_jfrac(J, prec)
        with pytest.raises(InsufficientDepth):
            jfrac_to_series(J, prec)


def reciprocal_strip_jfrac(f):
    """The former J expansion: one series reciprocal per level, so O(N^3)."""
    if not f.coeffs or not f.coeffs[0].is_one():
        raise NonUnitConstantTerm("fraction expansion needs f(0) = 1")
    bs, lams = [], []
    cur = f
    while cur.prec >= 2:
        u = Series.one(cur.prec) - divide(Series.one(cur.prec), cur)
        bs.append(u.coeffs[1])
        if cur.prec < 3:
            break
        rest = u.coeffs[2:]  # u - b x, shifted down twice
        lam = rest[0]
        if lam.is_zero():
            if any(not c.is_zero() for c in rest):
                raise DegenerateCfrac(
                    "partial numerator vanished with a nonzero remainder"
                )
            break
        lams.append(lam)
        cur = Series([c / lam for c in rest])
    return JFraction(bs, lams)


def reciprocal_strip_sfrac(f):
    """The S-fraction by one reciprocal-and-strip per entry."""
    if not f.coeffs or not f.coeffs[0].is_one():
        raise NonUnitConstantTerm("fraction expansion needs f(0) = 1")
    ss = []
    cur = f
    while cur.prec >= 2:
        u = Series.one(cur.prec) - divide(Series.one(cur.prec), cur)
        rest = u.coeffs[1:]
        s = rest[0]
        if s.is_zero():
            if any(not c.is_zero() for c in rest):
                raise DegenerateCfrac(
                    "partial numerator vanished with a nonzero remainder"
                )
            break
        ss.append(s)
        cur = Series([c / s for c in rest])
    return SFraction(ss)


def sfrac_or_error(expand, f):
    try:
        return expand(f)
    except (DegenerateCfrac, NonUnitConstantTerm) as exc:
        return type(exc)


# mostly zeros, so that terminations and degeneracies are common
sparse_tails = st.lists(
    st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, fe(2), R, R + 1]), max_size=9)


class TestSfracFromJfrac:
    @given(sparse_tails)
    @example([])
    @example([ZERO])
    @example([ZERO, ZERO, ONE])          # degenerate at s1
    @example([ONE, ONE, ONE])            # 1/(1-x) terminates after s1
    @example([ONE, ONE, ZERO, ONE])      # degenerate at s2
    @example([ONE, ZERO, ZERO, ZERO])    # 1+x: s1 = 1, s2 = -1, then ends
    @settings(max_examples=300, deadline=None)
    def test_matches_reciprocal_and_strip(self, tail):
        f = Series([ONE, *tail])
        assert sfrac_or_error(series_to_sfrac, f) == sfrac_or_error(
            reciprocal_strip_sfrac, f)


# tails after the leading 1 of f, and the (len(b), len(lam)) or the error
PINNED_J = [
    ([], (0, 0)),                                           # N = 1
    ([R], (1, 0)),                                          # N = 2
    ([ONE, fe(2)], (1, 1)),                                 # N = 3
    ([ONE, ONE, ONE], (1, 0)),                              # 1/(1-x) ends at lam1
    ([ONE, ONE, fe(2)], DegenerateCfrac),                   # degenerate at lam1
    ([ZERO, ONE, ZERO, ONE, ZERO, fe(2)], DegenerateCfrac),  # degenerate at lam2
]


class TestJfracFromChebyshev:
    @given(sparse_tails)
    @example([])
    @example([R])
    @example([ONE, fe(2)])
    @example([ONE, ONE, ONE])
    @example([ONE, ONE, fe(2)])
    @example([ZERO, ONE, ZERO, ONE, ZERO, fe(2)])
    @settings(max_examples=300, deadline=None)
    def test_matches_reciprocal_and_strip(self, tail):
        f = Series([ONE, *tail])
        assert sfrac_or_error(series_to_jfrac, f) == sfrac_or_error(
            reciprocal_strip_jfrac, f)

    @pytest.mark.parametrize("tail,shape", PINNED_J)
    def test_pinned_outcomes(self, tail, shape):
        J = sfrac_or_error(series_to_jfrac, Series([ONE, *tail]))
        assert (J if isinstance(J, type) else (len(J.b), len(J.lam))) == shape

    def test_makes_no_series_division(self, monkeypatch):
        import gfpipe.series

        def forbidden(a, b):
            raise AssertionError("series division")

        monkeypatch.setattr(gfpipe.series, "divide", forbidden)
        monkeypatch.setattr("gfpipe.cfrac.divide", forbidden)
        J = series_to_jfrac(FUBINI)
        assert [v.as_fraction() for v in J.b] == [1, 4, 7, 10]
        assert [v.as_fraction() for v in J.lam] == [2, 8, 18, 32]

    def test_degenerate_wording(self):
        with pytest.raises(DegenerateCfrac,
                           match="partial numerator vanished with a nonzero remainder"):
            series_to_jfrac(Series([ONE, ZERO, ONE, ZERO, ONE, ZERO, fe(2)]))

    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.lists(scalars(), min_size=d, max_size=d),
        st.lists(nonzero_field_elems(max_deg=1), min_size=d - 1, max_size=d - 1))))
    @settings(max_examples=40, deadline=None)
    def test_qr_round_trip(self, entries):
        bs, lams = entries
        J = JFraction(bs, lams)
        assert series_to_jfrac(jfrac_to_series(J, 2 * len(bs))) == J


def delta1_by_contraction(rs, ss, rows):
    """Delta-1 on the tableau: the even contraction of S(w1, w2, ...) with
    w0 added to its b0, expanded with no series division."""
    w = weights(rs, ss, max(rows + 1, 2))
    J = contract_s_to_j(SFraction(w[1:]))
    J = JFraction((J.b[0] + w[0], *J.b[1:]), J.lam)
    return triangle_from_gf(jfrac_to_series(J, rows), rows)


def triangle_or_error(make):
    try:
        T = make()
    except EngineError as exc:
        return type(exc), str(exc)
    return [[(c.num, c.den) for c in row] for row in T.rows]


constants = st.builds(Fraction, small_ints, st.integers(1, 3)).map(fe)


class TestDelta1ByContraction:
    # the y of ss rides on r, so an ss entry that depends on r can push a
    # row past degree n; both routes must then fail alike
    @given(st.lists(scalars(), max_size=8),
           st.lists(st.one_of(constants, scalars()), max_size=8),
           st.integers(1, 12))
    @example(rs=[], ss=[], rows=1)
    @example(rs=[], ss=[], rows=12)
    @example(rs=[R], ss=[], rows=5)
    @example(rs=[], ss=[R], rows=3)
    @settings(max_examples=100, deadline=None)
    def test_matches_division(self, rs, ss, rows):
        assert triangle_or_error(lambda: deleham_delta1(rs, ss, rows)) == \
            triangle_or_error(lambda: delta1_by_contraction(rs, ss, rows))

