"""Acceptance suite: one check per engine-level guarantee, exact arithmetic
throughout (tolerance is identity).  Each criterion prints a PASS line when
it holds; scripts/run_acceptance.py runs the same list standalone.
"""

import random
from fractions import Fraction

import pytest

from gfpipe.cfrac import (
    JFraction,
    SFraction,
    contract_s_to_j,
    jfrac_to_series,
    series_to_jfrac,
    series_to_sfrac,
    sfrac_to_series,
    t_forward,
    t_inverse,
)
from gfpipe.dsl import Env, evaluate, evaluate_text, parse, pretty
from gfpipe.errors import ParseError, PatternMismatch
from gfpipe.formats import from_json, substitute_value, to_json
from gfpipe.ratfun import ONE, R, ZERO, fe
from gfpipe.series import Series, divide, from_ratfun
from gfpipe.transforms import (
    binomial_transform,
    invert_transform,
    pipeline_P,
    sumudu,
)
from gfpipe.triangles import (
    RiordanArray,
    binomial_matrix,
    matmul,
    moment_functional,
    oracle_triangle,
    orthopoly_triangle,
    production_matrix,
    recurrence_from_production,
    triangle_from_gf,
)


def ints(series):
    return [c.as_fraction() for c in series]


def _expr(text, order, r_value=None):
    return evaluate_text(text, Env(order=order, r_value=r_value))


def criterion_1_fubini():
    got = sumudu(pipeline_P(from_ratfun([1], [1, 0, -1], 10)))
    assert ints(got) == [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]


def criterion_2_nonelementary():
    got = sumudu(pipeline_P(from_ratfun([1], [1, 0, -2], 10)))
    assert ints(got) == [1, 2, 12, 112, 1440, 23648, 473088, 11164288,
                         303648000]
    J = series_to_jfrac(sumudu(pipeline_P(from_ratfun([1], [1, 0, -2], 13))))
    head = list(J.b[:6]) + list(J.lam[:6])
    assert any(v.as_fraction().denominator != 1 for v in head)


def criterion_3_mixed_parity_example():
    got = sumudu(pipeline_P(from_ratfun([1, 0, 1], [1, 0, -1], 8)))
    assert ints(got) == [1, 2, 12, 110, 1380, 22022, 426972]
    # the printed pre-image of the exp(-x) sech(x) data, via the example's
    # own reverse chain (see the decisions ledger on reverse_P)
    prec = 9
    sech = Series.constant(2, prec) / (
        Series.one(prec) + Series([0, 2] + [0] * (prec - 2)).exp())
    u = sech.integrate().revert()
    chain = (-u.derivative().derivative()).integrate().exp()
    assert ints(sumudu(chain))[:8] == [1, -1, -2, -5, -13, -12, 379, 6907]


GENBELL_COEFFS = [  # printed polynomial coefficients, ascending powers of r
    [1], [0, 1], [0, 1, 2], [0, 1, 6, 6], [0, 1, 14, 36, 24],
    [0, 1, 30, 150, 240, 120], [0, 1, 62, 540, 1560, 1800, 720],
]


def criterion_4_rational_families():
    prec = 11
    one = Series.one(prec - 1)
    ex = Series.x(prec - 1).exp()
    families = [
        (from_ratfun([ONE, R - 1], [ONE, R - 1, -R], prec),
         divide(one, one + (one - ex) * R)),
        (from_ratfun([ONE, -(R + 1)], [ONE, -(R + 1), R], prec),
         divide(one, one + (ex - one) * R)),
        (from_ratfun([ONE, R], [ONE, R, -(R + 1)], prec),
         divide(one, one + (one - ex) * (R + 1))),
    ]
    for g, closed in families:
        assert pipeline_P(g) == closed
    bell = sumudu(pipeline_P(families[0][0]))
    # specializations against the printed coefficient arrays
    for rv in range(1, 6):
        got = ints(substitute_value(bell, Fraction(rv)))[:7]
        want = [sum(c * rv**k for k, c in enumerate(row))
                for row in GENBELL_COEFFS]
        assert got == want
    assert ints(substitute_value(bell, Fraction(2)))[:6] == [1, 2, 10, 74, 730, 9002]


def criterion_5_continued_fractions():
    fub = Series([1, 1, 3, 13, 75, 541, 4683, 47293, 545835])
    J = series_to_jfrac(fub)
    assert [v.as_fraction() for v in J.b] == [1, 4, 7, 10]
    assert [v.as_fraction() for v in J.lam] == [2, 8, 18, 32]
    S = series_to_sfrac(fub)
    assert [v.as_fraction() for v in S.s] == [1, 2, 2, 4, 3, 6, 4, 8]
    C = contract_s_to_j(S)
    assert C.b[: len(J.b)] == J.b and C.lam[: len(J.lam)] == J.lam

    rng = random.Random(20260810)
    for trial in range(100):
        if trial % 2 == 0:
            depth = rng.randrange(2, 5)
            b = [fe(rng.randrange(-3, 4)) for _ in range(depth)]
            lam = [fe(rng.choice([-3, -2, -1, 1, 2, 3]))
                   for _ in range(depth - 1)]
            J = JFraction(b, lam)
            prec = 2 * depth
            back = series_to_jfrac(jfrac_to_series(J, prec))
            assert back.b[: len(back.b)] == J.b[: len(back.b)]
            assert back.lam[: len(back.lam)] == J.lam[: len(back.lam)]
        else:
            n = rng.randrange(2, 8)
            s = [fe(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)]
            S = SFraction(s)
            back = series_to_sfrac(sfrac_to_series(S, n + 1))
            assert back.s[: len(s)] == S.s
            assert jfrac_to_series(contract_s_to_j(S), n + 2) == \
                sfrac_to_series(S, n + 2)


PAIRINGS = [
    # (name, b0, c, mu): affine/quadratic side J(b0, b0+c, ...; mu, 4mu, ...)
    # pairs with the constant-tail side J(b0; c, c, ...; mu, mu, ...)
    ("E1 <-> N1", fe(1), R + 1, R),
    ("E2 <-> N2", R, R + 1, R),
    ("A046802 <-> N3", R + 1, R + 1, R),
    ("ordered Bell <-> A086810", R, R * 2 + 1, R * (R + 1)),
    ("signed chain down", fe(0), -R, -(R + 1)),
    ("signed Eulerian <-> signed Narayana", fe(1), fe(1) - R, -R),
    ("unsigned mirror pair", fe(1), fe(2) - R, fe(1) - R),
    ("A130850 <-> A060693", R + 1, R + 2, R + 1),
]


def criterion_6_pairings():
    for name, b0, c, mu in PAIRINGS:
        J = t_inverse(b0, c, mu, 5)
        got = t_forward(J)
        assert got == (b0, c, mu), name
        assert t_inverse(*got, 5) == J, name
    e3 = JFraction([R + 1, (R + 1) * 2, (R + 1) * 3], [R * 2, R * 6, R * 12])
    with pytest.raises(PatternMismatch):
        t_forward(e3)


def criterion_7_triangle_conformance():
    from gfpipe.fixtures import all_fixtures, run_fixtures

    bad = [c for c in run_fixtures() if not c.passed]
    assert not bad, "; ".join(f"{c.id}: {c.detail}" for c in bad)
    n_triangles = sum(1 for fx in all_fixtures() if fx.kind == "triangle")
    assert n_triangles >= 25


def _moment_arrays(prec):
    one = Series.one(prec)
    ex = Series.x(prec).exp()
    e2x = Series([0, 2] + [0] * (prec - 2)).exp()
    d1 = one + (one - ex) * R
    d2 = one + (one - e2x) * R
    d3 = one + (one - ex) * (R * 2)
    return [
        (divide(one, d1), divide(ex - one, d1)),
        (d2.pow_rational(Fraction(-1, 2)), divide(e2x - one, d2 * 2)),
        (d3.pow_rational(Fraction(-1, 2)), divide(ex - one, d3)),
    ]


def criterion_8_production_matrices():
    rr = R * (R + 1)
    w = R * (R * 2 + 1)
    printed = [
        [[R, 1], [rr, R * 3 + 1, 1], [0, rr * 4, R * 5 + 2, 1],
         [0, 0, rr * 9, R * 7 + 3, 1], [0, 0, 0, rr * 16, R * 9 + 4, 1],
         [0, 0, 0, 0, rr * 25, R * 11 + 5]],
        [[R, 1], [rr * 2, R * 5 + 2, 1], [0, rr * 12, R * 9 + 4, 1],
         [0, 0, rr * 30, R * 13 + 6, 1], [0, 0, 0, rr * 56, R * 17 + 8, 1],
         [0, 0, 0, 0, rr * 90, R * 21 + 10]],
        [[R, 1], [w, R * 5 + 1, 1], [0, w * 6, R * 9 + 2, 1],
         [0, 0, w * 15, R * 13 + 3, 1], [0, 0, 0, w * 28, R * 17 + 4, 1],
         [0, 0, 0, 0, w * 45, R * 21 + 5]],
    ]
    for (g, f), rows in zip(_moment_arrays(10), printed):
        P = production_matrix(RiordanArray(g, f), 6)
        recurrence_from_production(P)  # exactly tridiagonal, unit superdiag
        for i, row in enumerate(rows):
            padded = [fe(v) for v in row] + [ZERO] * (6 - len(row))
            assert list(P.rows[i]) == padded, (i, row)


def criterion_9_orthogonality():
    for g, f in _moment_arrays(13):
        rc = recurrence_from_production(
            production_matrix(RiordanArray(g, f), 6))
        polys = orthopoly_triangle(rc, 6)
        moments = sumudu(g)
        for n in range(6):
            for m in range(n):
                assert moment_functional(
                    moments, polys.rows[n], polys.rows[m]) == ZERO
            norm = moment_functional(moments, polys.rows[n], polys.rows[n])
            want = ONE
            for k in range(n):
                want = want * rc.beta[k]
            assert norm == want


def criterion_10_oracles():
    routes = {
        "N1": "triangle(gfrev((1-r*x)/(1-(r-1)*x)),7,ogf)",
        "N2": "triangle(gfrev((1-x)/(1+(r-1)*x)),7,ogf)",
        "N3": "triangle(gfrev(1/(1+(r+1)*x+r*x^2)),7,ogf)",
        "E1": "triangle((1-r)*exp(x)/(exp(r*x)-r*exp(x)),7,egf)",
        "E2": "triangle((1-r)*exp(r*x)/(exp(r*x)-r*exp(x)),7,egf)",
        "E3": "triangle(exp(x*(r+1))*(r-1)^2/(exp(r*x)-r*exp(x))^2,7,egf)",
        "stirling2": "eriordan(1,exp(x)-1,7)",
        "A019538": "triangle(1/(1+r*(1-exp(x))),7,egf)",
        "A086810": "deleham([0,1,0,1,0,1],[1,1,1,1,1,1],7)",
        "A130850": "triangle(r/((r+1)*exp(0-r*x)-1),7,egf)",
        "galton": "triangle(powq(1+r*(1-exp(2*x)),0-1/2),7,egf)",
        "A090582signed": "triangle(tinv(1,2-r,1-r,4),7,ogf)",
        "A028246ext": "triangle(1-integ(logd(1+r*(1-exp(x)))),7,egf)",
    }
    for name, build in routes.items():
        assert _expr(build, 7) == oracle_triangle(name, 7), name
    etude2 = _expr("triangle((1-2*x)/(1-2*x-r*x^2),7,ogf)", 7)
    assert etude2 == oracle_triangle("etude2_seq", 7)
    a096078 = oracle_triangle("A096078", 5)
    assert [a096078.rows[n][n].as_fraction() for n in range(5)] == \
        [1, 1, 4, 34, 496]


def criterion_11_transform_algebra():
    g = Series([fe(1), R, fe(-2), R + 1, fe(0), R * R, fe(3), -R])
    for inverse in (False, True):
        assert binomial_transform(
            binomial_transform(g, inverse=inverse), inverse=not inverse) == g
    assert invert_transform(invert_transform(g, R), -R + 3) == \
        invert_transform(g, R - R + 3)
    fib = invert_transform(from_ratfun([1], [1, 0, -1], 7), 1)
    assert ints(fib) == [1, 1, 2, 3, 5, 8, 13]
    sfib = invert_transform(from_ratfun([1], [1, 0, -1], 6), -1)
    assert ints(sfib) == [1, -1, 2, -3, 5, -8]
    fam = from_ratfun([ONE, R - 1], [ONE, R - 1, -R], 8)
    shifted = from_ratfun([ONE, R], [ONE, R, -(R + 1)], 8)
    assert matmul(triangle_from_gf(fam, 8), binomial_matrix(8)) == \
        triangle_from_gf(shifted, 8)


def criterion_12_dsl_cli():
    from gfpipe.cli import cli_main
    from gfpipe.fixtures import all_fixtures

    for fx in all_fixtures():
        ast = parse(fx.build)
        assert parse(pretty(ast)) == ast, fx.id
        order = fx.order or (len(fx.expected) if fx.kind == "series" else 6)
        value = evaluate(ast, Env(order=order))
        blob = to_json(value)
        assert to_json(from_json(blob)) == blob, fx.id
    import contextlib
    import io

    err_text = io.StringIO()
    with contextlib.redirect_stderr(err_text):
        assert cli_main(["eval", "1/(1-x"]) == 2
    assert "offset" in err_text.getvalue()
    with pytest.raises(ParseError) as err:
        parse("1/(1-x")
    assert err.value.start >= 0


CRITERIA = [
    (1, "pipeline maps 1/(1-x^2) to the Fubini numbers, 9 terms exact",
     criterion_1_fubini),
    (2, "pipeline image of 1/(1-2x^2) and its non-integer fraction level",
     criterion_2_nonelementary),
    (3, "mixed-parity example image and printed pre-image data",
     criterion_3_mixed_parity_example),
    (4, "three rational families hit their exponential closed forms; "
        "r=1..5 ordered-Bell specializations", criterion_4_rational_families),
    (5, "Fubini fraction expansions, contraction, 100 random round trips",
     criterion_5_continued_fractions),
    (6, "all eight constant-tail/quadratic-weight pairings; E3 rejected",
     criterion_6_pairings),
    (7, "every printed array reproduced entry-exact (fixture suite)",
     criterion_7_triangle_conformance),
    (8, "three production matrices tridiagonal and entry-exact",
     criterion_8_production_matrices),
    (9, "orthogonality and norms L[Pn^2] = prod(beta) for three families",
     criterion_9_orthogonality),
    (10, "closed-form oracles agree with every generating-function route",
     criterion_10_oracles),
    (11, "binomial involution, shift additivity, Fibonacci heads, "
         "binomial action as parameter shift", criterion_11_transform_algebra),
    (12, "expression corpus parses, evaluates, JSON round-trips; "
         "malformed input diagnosed with position", criterion_12_dsl_cli),
]


@pytest.mark.parametrize("number,label,check", CRITERIA,
                         ids=[f"criterion-{n:02d}" for n, _, _ in CRITERIA])
def test_acceptance(number, label, check):
    check()
    print(f"ACCEPTANCE {number:2d} PASS: {label}")

