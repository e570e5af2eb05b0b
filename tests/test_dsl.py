from fractions import Fraction

import pytest

from gfpipe.cfrac import JFraction
from gfpipe.dsl import (
    MAX_DEPTH,
    MAX_NESTING,
    Bin,
    Call,
    Env,
    ListLit,
    Name,
    Num,
    evaluate,
    evaluate_text,
    parse,
    pretty,
)
from gfpipe.errors import (
    ArityError,
    NonUnitConstantTerm,
    ParseError,
    TypeErrorValue,
)
from gfpipe.formats import format_value, from_json, to_json
from gfpipe.ratfun import R, fe
from gfpipe.series import Series
from gfpipe.transforms import sumudu
from gfpipe.triangles import Triangle


def ints(series):
    return [c.as_fraction() for c in series]


class TestParse:
    def test_pipeline_call_structure(self):
        ast = parse("P(1/(1-x^2))")
        assert isinstance(ast, Call) and ast.name == "P" and len(ast.args) == 1
        assert isinstance(ast.args[0], Bin) and ast.args[0].op == "/"

    def test_list_arguments(self):
        ast = parse("deleham([0,1,0,2],[1,1,2,2])")
        assert isinstance(ast, Call)
        assert all(isinstance(a, ListLit) for a in ast.args)
        assert [i.value for i in ast.args[0].items] == [0, 1, 0, 2]

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("1+*2")
        assert err.value.position == 2

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse("1/(1-x")

    @pytest.mark.parametrize("text,position", [
        ("(" * 3000 + "x" + ")" * 3000, MAX_NESTING),
        ("exp(" * 200 + "x" + ")" * 200, 4 * MAX_NESTING),
        ("[" * 200 + "]" * 200, MAX_NESTING),
    ])
    def test_bracket_nesting_capped(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    def test_tree_depth_capped(self):
        text = "+".join(["x"] * (MAX_DEPTH + 1))
        with pytest.raises(ParseError):
            parse(text)
        shallow = "+".join(["x"] * MAX_DEPTH)
        assert ints(evaluate_text(shallow, Env(order=2))) == [0, MAX_DEPTH]
        nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert ints(evaluate_text(nested, Env(order=2))) == [0, 1]

    def test_precedence(self):
        ast = parse("1+2*x")
        assert isinstance(ast, Bin) and ast.op == "+"
        assert isinstance(ast.right, Bin) and ast.right.op == "*"

    def test_left_associativity(self):
        ast = parse("1-2-3")
        assert ast.op == "-" and isinstance(ast.left, Bin)
        assert ast.left.op == "-" and isinstance(ast.right, Num)

    def test_names_are_atoms(self):
        ast = parse("triangle(x,3,egf)")
        assert isinstance(ast.args[2], Name) and ast.args[2].ident == "egf"


PRETTY_CORPUS = [
    "P(1/(1-x^2))",
    "x",
    "r",
    "1+2*x",
    "1-2-3",
    "1-(2-3)",
    "x/(1-x)/(1+x)",
    "x/((1-x)/(1+x))",
    "(1-x)*(1+r*x)",
    "(1+(r-1)*x)/((1-x)*(1+r*x))",
    "x^2",
    "(1-x)^3",
    "2^64",
    "sumudu(P(1/(1-2*x^2)))",
    "deleham([0,1,0,2],[1,1,2,2],5)",
    "jfrac([1,4,7,10],[2,8,18,32])",
    "triangle(1/(1+r*(1-exp(x))),6,egf)",
    "powq(1-4*x,0-1/2)",
    "invert(1/(1-x^2),0-1)",
    "matmul(Bmat(5),inv(Bmat(5)))",
    "tinv(r+1,r+1,r,4)",
    "oracle(N3,6,3)",
    "1/2+1/3",
    "exp(x)*exp(0-x)",
    "log(1/(1-x))",
    "reverseP(1/(2-exp(x)))",
    "binom(ibinom(x))",
    "matvec(matrix([[1,0],[1,1]]),[1,2])",
    "prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),4)",
    "orthopoly(prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),4),3)",
    "gfrev((1-x)/(1+(r-1)*x))",
    "1-partialP((1-(r+1)*x)/((1-x)*(1-r*x)))",
]


@pytest.mark.parametrize("text", PRETTY_CORPUS)
def test_pretty_round_trip_fixed_point(text):
    ast = parse(text)
    printed = pretty(ast)
    ast2 = parse(printed)
    assert ast2 == ast
    assert pretty(ast2) == printed


def test_pretty_round_trip_on_fixture_builds():
    from gfpipe.fixtures import all_fixtures

    for fx in all_fixtures():
        ast = parse(fx.build)
        printed = pretty(ast)
        assert parse(printed) == ast, fx.id


class TestEval:
    def test_fubini_order8(self):
        v = evaluate_text("P(1/(1-x^2))", Env(order=8))
        assert ints(sumudu(v)) == [1, 1, 3, 13, 75, 541, 4683, 47293]

    def test_triangle_builtin(self):
        v = evaluate_text("triangle(1/(1+r*(1-exp(x))),6,egf)", Env(order=6))
        assert isinstance(v, Triangle)
        assert [x.as_fraction() for x in v.rows[4]] == [0, 1, 14, 36, 24]

    def test_variable(self):
        assert ints(evaluate_text("x", Env(order=3))) == [0, 1, 0]

    def test_precision_demand_through_losses(self):
        # two derivative steps still deliver exactly the requested order
        v = evaluate_text("diff(diff(1/(1-x)))", Env(order=5))
        assert v.prec == 5
        assert ints(v) == [2, 6, 12, 20, 30]

    def test_scalar_rejects_x(self):
        with pytest.raises(TypeErrorValue):
            evaluate_text("invert(1/(1-x),x)", Env(order=4))

    def test_arity(self):
        with pytest.raises(ArityError):
            evaluate_text("P(x,x)", Env(order=4))

    def test_unknown_function(self):
        with pytest.raises(TypeErrorValue):
            evaluate_text("mystery(1)", Env(order=4))

    @pytest.mark.parametrize("text,count", [
        ("deleham1([1],[1],0-5)", "0-5"),
        ("deleham([1],[1],0)", "0"),
        ("tinv(1,1,1,0-1)", "0-1"),
        ("Bmat(0-1)", "0-1"),
        ("triangle(1/(1-x),0-2,ogf)", "0-2"),
        ("oracletri(N1,0)", "0"),
        ("riordan(1/(1-x),x,0)", "0"),
        ("eriordan(exp(x),x,0)", "0"),
        ("prodmat(exp(x),x,0)", "0"),
        ("orthopoly(prodmat(exp(x),x,3),0)", "0"),
    ])
    def test_count_below_one_spans_the_count(self, text, count):
        with pytest.raises(TypeErrorValue) as exc:
            evaluate_text(text, Env(order=3))
        assert text[exc.value.start:exc.value.end] == count

    def test_empty_matrix_spans_the_list(self):
        text = "matrix([])"
        with pytest.raises(TypeErrorValue) as exc:
            evaluate_text(text, Env(order=3))
        assert text[exc.value.start:exc.value.end] == "[]"

    def test_type_mismatch(self):
        with pytest.raises(TypeErrorValue):
            evaluate_text("matmul(x,Bmat(3))", Env(order=4))

    def test_exponent_cap(self):
        with pytest.raises(TypeErrorValue):
            evaluate_text("x^65", Env(order=4))

    def test_math_errors_propagate(self):
        with pytest.raises(NonUnitConstantTerm):
            evaluate_text("log(x)", Env(order=4))

    def test_determinism(self):
        a = evaluate_text("sumudu(P((1+x^2)/(1-x^2)))", Env(order=7))
        b = evaluate_text("sumudu(P((1+x^2)/(1-x^2)))", Env(order=7))
        assert a == b


def _bind(node, literal):
    from gfpipe.dsl import ParamR, Pow

    if isinstance(node, ParamR):
        return literal
    if isinstance(node, Bin):
        return Bin(node.start, node.end, node.op,
                   _bind(node.left, literal), _bind(node.right, literal))
    if isinstance(node, Pow):
        return Pow(node.start, node.end, _bind(node.base, literal),
                   node.exponent)
    if isinstance(node, Call):
        return Call(node.start, node.end, node.name,
                    tuple(_bind(a, literal) for a in node.args))
    if isinstance(node, ListLit):
        return ListLit(node.start, node.end,
                       tuple(_bind(i, literal) for i in node.items))
    return node


class TestSpecialization:
    @pytest.mark.parametrize("expr", [
        "sumudu(P((1+(r-1)*x)/((1-x)*(1+r*x))))",
        "invert((1-2*x)/(1-2*x-r*x^2),1)",
        "jfrac([r,3*r+1,5*r+2],[r*(r+1),4*r*(r+1)])",
    ])
    @pytest.mark.parametrize("rv", ["2", "1/2", "-3"])
    def test_substitute_after_equals_bind_from_start(self, expr, rv):
        r0 = Fraction(rv)
        after = evaluate_text(expr, Env(order=6, r_value=r0))
        # binding from the start: graft a rational literal over every
        # parameter node, then evaluate without any substitution
        p, q = r0.numerator, r0.denominator
        literal = parse(f"(0-{-p}/{q})" if p < 0 else f"({p}/{q})")
        start = evaluate(_bind(parse(expr), literal), Env(order=6))
        assert after == start


class TestFormats:
    def test_table_series(self):
        v = evaluate_text("1+r*x^2", Env(order=3))
        assert format_value(v, "table") == "1, 0, r"

    def test_json_shape(self):
        v = Series([1, 1, 3, 13, 75, 541])
        assert to_json(v) == (
            '{"kind":"series","order":6,"entries":'
            '[["1"],["1"],["3"],["13"],["75"],["541"]]}'
        )

    def test_csv_triangle(self):
        t = Triangle([[1], [0, 1], [0, 1, 2]])
        assert format_value(t, "csv") == "1\n0,1\n0,1,2\n"

    def test_json_loss_free_round_trip(self):
        values = [
            Series([fe(1), R, R / (R + 1), fe(Fraction(-3, 2))]),
            Triangle([[1], [R, R * R]]),
            JFraction([1, R + 1], [R]),
            evaluate_text("tosfrac(sumudu(P(1/(1-x^2))))", Env(order=9)),
            evaluate_text(
                "prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),3)",
                Env(order=5)),
            evaluate_text("oracle(N3,6,3)", Env(order=2)),
            evaluate_text(
                "recurrence(prodmat(1/(1+r*(1-exp(x))),"
                "(exp(x)-1)/(1+r*(1-exp(x))),4))", Env(order=5)),
        ]
        for v in values:
            blob = to_json(v)
            again = from_json(blob)
            assert to_json(again) == blob
            assert type(again) is type(v)

    def test_table_recurrence_and_jfrac(self):
        v = evaluate_text("jfrac([1,4],[2])", Env(order=4))
        out = format_value(v, "table")
        assert out.splitlines()[0].startswith("b:")
