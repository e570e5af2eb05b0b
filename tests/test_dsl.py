import operator
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gfpipe.cfrac import JFraction, SFraction
from gfpipe.dsl import (
    BUILTIN_NAMES,
    MAX_DEPTH,
    MAX_INT_EXPONENT,
    MAX_NESTING,
    Bin,
    Call,
    Env,
    ListLit,
    Name,
    Num,
    Pow,
    _BUILTINS,
    _Evaluator,
    evaluate,
    evaluate_text,
    parse,
    pretty,
    substitute_value,
)
from gfpipe.errors import (
    MATH_ERRORS,
    ArityError,
    ExprError,
    NonUnitConstantTerm,
    ParseError,
    TypeErrorValue,
)
from gfpipe.fixtures import all_fixtures, fixture_order
from gfpipe.formats import CONVERSIONS, format_value, from_json, kind_name, to_json
from gfpipe.ratfun import R, FieldElem, fe
from gfpipe.series import Series
from gfpipe.transforms import sumudu
from gfpipe.triangles import RecurrenceCoeffs, SquareMatrix, Triangle

from test_fuzz import DIGITS, GOOD, GOOD_SIZE, NAMES, SIGNATURES, makers


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
        # one text per ParseError site; each error sits at one offset
        for text, position in [
            ("1+*2", 2),                                   # expected a value
            ("1+$", 2),                                    # unexpected character
            ("1/(1-x", 6),                                 # expected ')'
            ("1 2", 2),                                    # after the expression
            ("x^" + "9" * 5000, 2),                        # literal too long
            ("(" * (MAX_NESTING + 1) + "x", MAX_NESTING),  # brackets nested
            ("+".join(["x"] * (MAX_DEPTH + 1)), 0),        # tree nested
        ]:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.start == err.value.end == position, text[:20]

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
        assert err.value.start == err.value.end == position

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
        # x and r are names too, the two with a value
        for text in ("x", "r"):
            node = parse(text)
            assert node == Name(0, 1, text) and (node.start, node.end) == (0, 1)

    @pytest.mark.parametrize("text", ["x(1)", "r(2)"])
    def test_valued_names_never_start_a_call(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == "unexpected '(' after expression (at offset 1)"


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
    "((1-x)^2)^3",  # ^ does not chain, so a Pow base keeps its brackets
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


def test_syntax_nodes_are_frozen_records_compared_without_their_span():
    a, b = parse("x+1"), parse(" (x+1)")
    assert (a.start, a.end, b.start, b.end) == (0, 3, 1, 6)
    assert a == b and hash(a) == hash(b) and a != parse("x+2")
    assert Num(0, 1, 7) != Name(0, 1, "7")
    assert repr(Num(0, 1, 7)) == "Num(start=0, end=1, value=7)"
    assert a.replace(op="-") == parse("x-1")
    with pytest.raises(AttributeError):
        a.start = 3
    with pytest.raises(ValueError, match="order must be at least 1"):
        Env(order=4).replace(order=0)
    with pytest.raises(TypeError, match="Num takes 3 field"):
        Num(0, 1)
    with pytest.raises(TypeError, match="Bin has no field 'nosuch'"):
        a.replace(nosuch=1)


@pytest.mark.parametrize("cls", [Triangle, SquareMatrix])
def test_triangles_and_matrices_are_frozen_records(cls):
    m = cls([[1]])
    with pytest.raises(AttributeError):
        m.rows = ()
    assert m == cls([[fe(1)]]) and hash(m) == hash(cls([[fe(1)]]))
    assert m != (SquareMatrix if cls is Triangle else Triangle)([[1]])
    with pytest.raises(TypeError, match=f"{cls.__name__} has no field 'nosuch'"):
        m.replace(nosuch=1)


def test_replace_runs_the_conversion_of_a_checked_record():
    from gfpipe.fixtures import Fixture, all_fixtures

    j = JFraction([1], []).replace(lam=[2])
    assert j.lam == (fe(2),) and isinstance(j.lam[0], FieldElem)
    with pytest.raises(ValueError, match="row 1 must have 2 entries"):
        Triangle([[1]]).replace(rows=[[1], [1, 2, 3]])
    fx = all_fixtures()[0]
    moved = fx.replace(order=3)
    assert isinstance(moved, Fixture) and moved.order == 3
    assert moved == Fixture(fx.id, fx.kind, fx.build, fx.expected, fx.source,
                            3, fx.set_r, fx.prefix)


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

    @pytest.mark.parametrize("name,parity", [("cosh", 0), ("sinh", 1)])
    def test_cosh_sinh_of_rx(self, name, parity):
        v = evaluate_text(f"{name}(r*x)", Env(order=9))
        assert v.prec == 9
        term = fe(1)
        for n in range(9):
            assert v[n] == (term if n % 2 == parity else fe(0)), n
            term = term * R / (n + 1)

    def test_determinism(self):
        a = evaluate_text("sumudu(P((1+x^2)/(1-x^2)))", Env(order=7))
        b = evaluate_text("sumudu(P((1+x^2)/(1-x^2)))", Env(order=7))
        assert a == b


def _bind(node, literal):
    if isinstance(node, Name) and node.ident == "r":
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


def _literal(c: Fraction):
    """The expression node of the rational c."""
    p, q = c.numerator, c.denominator
    return parse(f"(0-{-p}/{q})" if p < 0 else f"({p}/{q})")


def _as_series(value, order):
    convert = CONVERSIONS.get((type(value), Series))
    return convert(value, order) if convert else value


# builtins that turn powers of r into positions (the columns of a
# triangle): substituting for r does not commute with them, so the grammar
# half of the specialisation check never calls them
R_TO_POSITIONS = ("triangle", "deleham", "deleham1")


@st.composite
def well_sorted(draw, sort, depth):
    """An expression of the given sort over test_fuzz's signatures, with
    no wrong sort, no arity fault and only valid sizes (1 to 6)."""
    if sort in ("count", "int"):
        return draw(GOOD_SIZE)
    if sort == "name":
        return draw(NAMES)
    if sort == "list":
        items = draw(st.lists(well_sorted("scalar", depth - 1), min_size=1, max_size=4))
        return "[" + ",".join(items) + "]"
    if sort == "rows":  # a square matrix of 1 to 3 rows
        k = draw(st.integers(1, 3))
        return "[" + ",".join(
            "[" + ",".join(draw(well_sorted("scalar", depth - 1)) for _ in range(k)) + "]"
            for _ in range(k)) + "]"
    choice = draw(st.integers(0, 6 if depth > 0 else 1))
    if sort in ("series", "scalar") and choice == 0:
        atoms = ["r"] if sort == "scalar" else ["x", "r"]
        return draw(st.one_of(DIGITS, st.sampled_from(atoms)))
    if sort in ("series", "scalar") and choice == 1:
        return draw(GOOD) if sort == "series" else draw(DIGITS)
    if sort in ("series", "scalar") and choice == 2:
        left, right = draw(well_sorted(sort, depth - 1)), draw(well_sorted(sort, depth - 1))
        return f"{left}{draw(st.sampled_from('+-*/'))}{right}"
    if sort in ("series", "scalar") and choice == 3:
        return f"({draw(well_sorted(sort, depth - 1))})^{draw(st.sampled_from('0123'))}"
    if depth <= 0:  # the cheapest maker of the sort
        return {"series": "x", "scalar": "r", "jfrac": "jfrac([r],[1])",
                "sfrac": "sfrac([r])", "matrix": "matrix([[r]])"}[sort]
    name = draw(st.sampled_from([n for n in makers(sort) if n not in R_TO_POSITIONS]))
    args = [draw(well_sorted(s, depth - 1)) for s in SIGNATURES[name][0]]
    return f"{name}({','.join(args)})"


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
        start = evaluate(_bind(parse(expr), _literal(r0)), Env(order=6))
        assert after == start

    def test_fixture_builds_substitute_after_as_bound_from_start(self):
        # every build but the triangles, at its fixture order; J- and
        # S-fractions are compared as the series they stand for
        compared = 0
        for fx in all_fixtures():
            if fx.kind == "triangle":
                continue
            order = fixture_order(fx)
            ast = parse(fx.build)
            evaluate(ast, Env(order=order))  # so a math error below comes from c
            for c in (Fraction(2), Fraction(3), Fraction(-1), Fraction(5),
                      Fraction(1, 2)):
                try:
                    after = evaluate(ast, Env(order=order, r_value=c))
                    start = evaluate(_bind(ast, _literal(c)), Env(order=order))
                except MATH_ERRORS:
                    continue
                compared += 1
                assert _as_series(after, order) == _as_series(start, order), \
                    (fx.id, c)
        assert compared >= 200

    def test_grammar_expressions_substitute_after_as_bound_from_start(self):
        # series-sorted expressions from the fuzzer's signatures: the late
        # route runs dot's Z[r] branches, the early one its constant ones
        compared = 0

        @given(well_sorted("series", 3), st.integers(1, 6))
        @settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(text, order):
            nonlocal compared
            ast = parse(text)
            assume(_bind(ast, _literal(Fraction(1))) != ast)  # r occurs
            try:
                _as_series(evaluate(ast, Env(order=order)), order)
            except (ExprError, *MATH_ERRORS):
                return  # it fails with r unbound, so no pair to compare
            for c in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)):
                try:
                    after = _as_series(evaluate(ast, Env(order=order, r_value=c)), order)
                    start = _as_series(
                        evaluate(_bind(ast, _literal(c)), Env(order=order)), order)
                except MATH_ERRORS:  # a pole or a vanishing coefficient at c
                    continue
                compared += 1
                assert after == start, (text, c)

        check()
        assert compared >= 400


# -- the front end: spans, operators and literal scalars ----------------------


def _nodes(node):
    """node and every node below it, parents first."""
    yield node
    kids = {Bin: lambda n: (n.left, n.right), Pow: lambda n: (n.base,),
            Call: lambda n: n.args, ListLit: lambda n: n.items}.get(type(node))
    for kid in kids(node) if kids else ():
        yield from _nodes(kid)


@st.composite
def arithmetic(draw, depth, leaves):
    """An x-free text over ``leaves``, + - * /, brackets and ^0..^3."""
    choice = draw(st.integers(0, 3 if depth > 0 else 0))
    if choice == 0:
        return draw(leaves)
    inner = draw(arithmetic(depth - 1, leaves))
    if choice == 1:
        return f"{inner}{draw(st.sampled_from('+-*/'))}{draw(arithmetic(depth - 1, leaves))}"
    if choice == 2:
        return f"({inner})"
    base = inner if inner.isalnum() else f"({inner})"
    return f"{base}^{draw(st.sampled_from('0123'))}"


INTEGERS = st.one_of(DIGITS, st.integers(0, 10**30).map(str))


@given(st.sampled_from(["series", "scalar", "jfrac", "sfrac", "matrix"]).flatmap(
    lambda sort: well_sorted(sort, 3)))
@example("(x^2)*3")              # brackets around a Pow
@example("2*(exp(x))")           # around a Call
@example("jfrac([(1/2),r],[1])")  # around a list item
@example("1-(2-3)")              # a right operand at the same precedence
@example("8/(4/2)")
@example("(1+x)^2*r")            # ^ after a parenthesised sum
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_each_node_spans_a_text_that_parses_to_it(text):
    tree = parse(text)
    assert (tree.start, tree.end) == (0, len(text))
    for node in _nodes(tree):
        assert parse(text[node.start:node.end]) == node, (text, node)
    assert parse(pretty(tree)) == tree


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _fraction(node):
    """The rational value of an x-free integer tree, read off its shape."""
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, Pow):
        return _fraction(node.base) ** node.exponent
    return OPERATORS[node.op](_fraction(node.left), _fraction(node.right))


@given(arithmetic(4, DIGITS))
@example("1-2-3")
@example("8/4/2")
@example("1+2*3-4/5")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_operators_group_as_in_python(text):
    # Python's own grammar reads + - * / and ** with the same precedence
    # and associativity, so its value of the text is an independent oracle
    python = re.sub(r"\d+", r"F(\g<0>)", text.replace("^", "**"))
    try:
        expected = eval(python, {"F": Fraction})
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _fraction(parse(text))
        return
    assert _fraction(parse(text)) == expected


def _outcome(read):
    """read()'s value, or its error as (class, message, span)."""
    try:
        return read()
    except (ExprError, *MATH_ERRORS) as err:
        return type(err), str(err), getattr(err, "start", None), getattr(err, "end", None)


def _has_x(node):
    return any(isinstance(n, Name) and n.ident == "x" for n in _nodes(node))


class _SeriesRoute(_Evaluator):
    """The evaluator with every number and r a constant series, ^ and
    + - * / applied to series operands, and a scalar read off the one-term
    series ``value(node, 1)``: the route that ``term``'s arithmetic in Q(r)
    replaces, kept as its oracle."""

    def term(self, node, p):
        if isinstance(node, Num):
            return Series.constant(node.value, p)
        if isinstance(node, Name) and node.ident == "r":
            return Series.constant(R, p)
        if isinstance(node, Pow):
            if abs(node.exponent) > MAX_INT_EXPONENT:
                raise TypeErrorValue(
                    f"integer exponents are capped at {MAX_INT_EXPONENT}",
                    node.start, node.end)
            return self.series(node.base, p) ** node.exponent
        if isinstance(node, Bin):
            a, b = self.series(node.left, p), self.series(node.right, p)
            if node.op == "/" and not _has_x(node.right):
                # at precision 0 a divisor with no call under it is read at
                # precision 1, so its zero is reported at every precision
                d = b if p or any(isinstance(n, Call) for n in _nodes(node.right)) \
                    else self.series(node.right, 1)
                if d.prec and d.coeffs[0].is_zero():
                    raise ZeroDivisionError(
                        f"scalar division by zero (divisor {pretty(node.right)})")
            return OPERATORS[node.op](a, b)
        return super().term(node, p)  # x, another name, a call or a list

    def scalar(self, node):
        if _has_x(node):
            raise TypeErrorValue(
                "expected a scalar (no x allowed here)", node.start, node.end)
        v = self.value(node, 1)
        if isinstance(v, Series):
            return v.coeffs[0]
        if isinstance(v, FieldElem):
            return v
        raise TypeErrorValue(f"expected a scalar, got {kind_name(v)}", node.start, node.end)


SCALAR_LEAVES = st.one_of(INTEGERS, st.sampled_from(["r", "r", "0", "y", "z"]))


@given(arithmetic(4, SCALAR_LEAVES))
@example("r^65")
@example("1/(r-r)")
@example("y/0+z")
@example("(1/0)^2")
@example("(0-1/2)^3")
@settings(max_examples=400, deadline=None, derandomize=True)
def test_literal_scalars_are_the_constant_term_of_their_series(text):
    node, env = parse(text), Env(order=3)
    assert _outcome(lambda: _Evaluator(env).scalar(node)) == \
        _outcome(lambda: _SeriesRoute(env).scalar(node))


SCALAR_SLOTS = ["jfrac([{}],[])", "sfrac([1,{}])", "tinv({},1,1,3)", "powq(1+x,{})",
                "invert(1/(1-x),{})", "deleham([1,{}],[1],2)", "matrix([[{}]])",
                "matvec(matrix([[1]]),[{}])"]
# a builtin with one argument slot filled by x-free arithmetic, or by
# arithmetic that holds x or a call
SLOT_TEXTS = st.builds(str.format, st.sampled_from(SCALAR_SLOTS), arithmetic(
    3, st.one_of(SCALAR_LEAVES, st.sampled_from(["x", "oracle(N1,2,1)", "jfrac([1],[1])"]))))


@given(SLOT_TEXTS)
@example("tinv(1/0,1,1,3)")
@example("jfrac([1/(r-r)],[])")
@example("Bmat(2^3)")
@example("powq(1+x,0-1/2)")
@example("jfrac([x+1],[])")
@example("jfrac([y],[])")
@example("deleham([r^65],[1],2)")
@example("tinv(oracle(N1,2,1),1,1,3)")  # a call: value(node, 1)
@example("tinv(jfrac([1],[1])+1,1,1,3)")  # a call as an operand: its series
@example("tinv(oracle(N1,2,1)*r,1,1,3)")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_builtins_read_scalars_as_the_series_route_does(text):
    node, env = parse(text), Env(order=3)
    assert _outcome(lambda: _Evaluator(env).value(node, 3)) == \
        _outcome(lambda: _SeriesRoute(env).value(node, 3))


def test_values_are_those_of_the_series_route():
    # every kind, precision and diagnostic at orders 1 to 6; at least
    # 1,000 of the 1,848 (text, order) pairs must give a value
    compared = 0

    @given(st.one_of(well_sorted("series", 3), SLOT_TEXTS))
    @example("oracle(N1,3,1)+1")
    @example("x*oracle(N1,3,1)")
    @example("sumudu(3)*x")
    @example("(r-1)^0")
    @example("x/(r-r)")
    @example("1/(sumudu(1)-1)")
    @example("x+1/(x-x)")
    @example("integ(1/0)")  # 1/0 read at precision 0
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def check(text):
        nonlocal compared
        node = parse(text)
        for p in range(1, 7):
            env = Env(order=p)
            got = _outcome(lambda: _Evaluator(env).value(node, p))
            assert got == _outcome(lambda: _SeriesRoute(env).value(node, p)), (text, p)
            compared += not isinstance(got, tuple)

    check()
    assert compared >= 1000


# every builtin with a series value; matvec's vector sets its length
SERIES_BUILTINS = [name for name, (_, out) in SIGNATURES.items()
                   if out == "series" and name != "matvec"]


@pytest.mark.parametrize("name", SERIES_BUILTINS)
def test_series_builtins_return_exactly_the_order_asked(name):
    # reverseP reads order p, not p - 1, at orders 1 and 2 for its checks
    # of F(0) = 1 and of an inner revert, so there it returns p + 1
    returned = set()

    # series arguments from GOOD, which meet the usual preconditions, or
    # from the grammar; each drawn call is made at orders 1 to 7
    @given(st.tuples(*(st.one_of(GOOD, st.just("x"), well_sorted(s, 2)) if s == "series"
                       else well_sorted(s, 2) for s in SIGNATURES[name][0])))
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def check(args):
        node = parse(f"{name}({','.join(args)})")
        for p in range(1, 8):
            try:
                v = _BUILTINS[name](_Evaluator(Env(order=p)), node, p)
            except (ExprError, *MATH_ERRORS):
                continue
            extra = name == "reverseP" and p <= 2
            assert v.prec == p + extra, (node, p)
            returned.add((args, p))

    check()
    assert len({p for _, p in returned}) >= 6 and len(returned) >= 20, sorted(returned)


# one call per builtin that reads a series, {0} its series; counts above the
# order make triangle, riordan, eriordan and prodmat read more than the order
STANDS_FOR_CALLS = {
    "P": "P({0})", "partialP": "partialP({0})", "reverseP": "reverseP({0})",
    "sumudu": "sumudu({0})", "isumudu": "isumudu({0})", "invert": "invert({0},2)",
    "binom": "binom({0})", "ibinom": "ibinom({0})", "revert": "revert({0}-1)",
    "gfrev": "gfrev({0})", "logd": "logd({0})", "diff": "diff({0})",
    "integ": "integ({0})", "log": "log({0})", "exp": "exp({0}-1)",
    "powq": "powq({0},1/2)", "cosh": "cosh({0}-1)", "sinh": "sinh({0}-1)",
    "rapply": "rapply({0},x*{0},{0})", "tojfrac": "tojfrac({0})",
    "tosfrac": "tosfrac({0})", "triangle": "triangle({0},6,egf)",
    "riordan": "riordan({0},x*{0},6)", "eriordan": "eriordan({0},x*{0},6)",
    "prodmat": "prodmat({0},x*{0},3)",
}
# builtins that read the expansions' fraction whole, {0} the fraction
FRACTION_CALLS = {"tfwd": "tfwd({0})", "contract": "contract({0})"}
NO_SERIES_ARGUMENT = ("jfrac", "sfrac", "deleham", "deleham1", "tinv",
                      "reverse", "matmul", "inv", "Bmat", "recurrence",
                      "orthopoly", "oracle", "oracletri", "matrix", "matvec")
STANDS_FOR_SERIES = ["exp(x)", "exp(r*x)", "1+x^2*exp(x)", "1/(1-x-r*x^2)"]


def _evaluated(text, order):
    try:
        return evaluate_text(text, Env(order=order))
    except (ExprError, *MATH_ERRORS) as err:
        return type(err)


def test_every_builtin_is_read_for_the_stands_for_test():
    assert sorted([*STANDS_FOR_CALLS, *FRACTION_CALLS, *NO_SERIES_ARGUMENT]) == sorted(
        BUILTIN_NAMES)


def test_a_fraction_expansion_stands_for_its_series():
    # B(tojfrac(f)) and B(tosfrac(f)) give the value of B((f)) at whatever
    # precision B reads its argument, above the order or below it; a case
    # where B((f)) fails, or f has no 12-term expansion, is not compared
    compared = 0
    for f in STANDS_FOR_SERIES:
        for expand in ["tojfrac", "tosfrac"]:
            if isinstance(_evaluated(f"{expand}({f})", 12), type):
                continue
            for call in STANDS_FOR_CALLS.values():
                for p in range(1, 8):
                    want = _evaluated(call.format(f"({f})"), p)
                    if isinstance(want, type):
                        continue
                    text = call.format(f"{expand}({f})")
                    assert _evaluated(text, p) == want, (text, p)
                    compared += 1
    assert compared >= 1000


def test_a_fraction_builtin_reads_the_expansion_to_the_order():
    # tfwd and contract take the fraction whole, so under a count n below
    # the order p they get the expansion at the order: the first n rows of
    # the p rows read at the order (a086810's series has the quadratic
    # pattern tfwd needs)
    compared = 0
    for f in [*STANDS_FOR_SERIES, "sumudu(P((1-(r+1)*x)/((1-x)*(1-r*x))))"]:
        for expand in ["tojfrac", "tosfrac"]:
            for call in FRACTION_CALLS.values():
                g = call.format(f"{expand}({f})")
                for p in range(1, 8):
                    full = _evaluated(f"triangle({g},{p},ogf)", p)
                    if isinstance(full, type):
                        continue
                    for n in range(1, p):
                        text = f"triangle({g},{n},ogf)"
                        assert _evaluated(text, p) == Triangle(full.rows[:n]), (text, p)
                        compared += 1
    assert compared >= 100


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
            # coefficients up to 5,761 digits, past CPython's str(int) limit
            Series([(-(2 ** 64)) ** n for n in range(300)]),
        ]
        for v in values:
            blob = to_json(v)
            again = from_json(blob)
            assert to_json(again) == blob
            assert type(again) is type(v) and again == v
        # whitespace between tokens is not part of the encoding
        spaced = '{"kind": "series", "order": 1,\n "entries": [["1"]]}\n'
        assert from_json(spaced) == Series([1])

    @pytest.mark.parametrize("text,message", [
        # texts to_json never writes, though each names a value
        ('{"kind":"series","order":1,"entries":[[" +1_0 "]]}', "of a series"),
        ('{"kind":"series","order":1,"entries":[["01"]]}', "of a series"),
        ('{"kind":"series","order":5,"entries":[["1"]]}', "of a series"),
        ('{"kind":"series","order":1,"entries":[{"num":["2"],"den":["4"]}]}',
         "of a series"),
        ('{"kind":"series","order":1,"entries":[["1"]],"extra":0}', "of a series"),
        ('{"kind":"series","order":true,"entries":[["1"]]}', "of a series"),
        ('{"kind":"series","entries":[["1"]],"order":1}', "of a series"),
        ('{"kind":"fieldelem","entries":{"num":["1"],"den":["1"]}}',
         "of a fieldelem"),
        # texts that name no value
        ('{"kind":"series"}', "KeyError"),
        ("[1]", "TypeError"),
        ('{"kind":"series","order":1,"entries":[[null]]}', "TypeError"),
        ('{"kind":"fieldelem","entries":["--5"]}', "invalid literal for int"),
        ('{"kind":"series","order":1,"entries":[{"num":["1"],"den":["0"]}]}',
         "ZeroDivisionError"),
        ('{"kind":"nope","entries":[]}', "unknown value kind"),
        ('{"kind":"triangle","rows":1,"entries":[[["1"],["2"]]]}', "row 0"),
    ])
    def test_json_decodes_only_the_canonical_encoding(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            from_json(text)

    def test_table_recurrence_and_jfrac(self):
        v = evaluate_text("jfrac([1,4],[2])", Env(order=4))
        out = format_value(v, "table")
        assert out.splitlines()[0].startswith("b:")

    # One Q(r)-valued instance of each value kind: its exact table, csv and
    # json renderings, and the table after substituting r = 2.
    @pytest.mark.parametrize("value, table, csv, json, at_two", [
        (Series([1, 1 / (R + 1), -R * R, 10]),
         "1, 1/(r + 1), -r^2, 10",
         "1,1/(r + 1),-r^2,10\n",
         '{"kind":"series","order":4,"entries":'
         '[["1"],{"num":["1"],"den":["1","1"]},["0","0","-1"],["10"]]}',
         "1, 1/3, -4, 10"),
        (Triangle([[1], [R, -1], [R / (R + 1), 10, R * R]]),
         "        1\n        r,  -1\nr/(r + 1),  10,  r^2",
         "1\nr,-1\nr/(r + 1),10,r^2\n",
         '{"kind":"triangle","rows":3,"entries":[[["1"]],[["0","1"],["-1"]],'
         '[{"num":["0","1"],"den":["1","1"]},["10"],["0","0","1"]]]}',
         "  1\n  2,  -1\n2/3,  10,  4"),
        (SquareMatrix([[1, R], [fe(Fraction(-1, 2)), 10 * R + 1]]),
         "   1,        r\n-1/2,  10r + 1",
         "1,r\n-1/2,10r + 1\n",
         '{"kind":"matrix","rows":2,"entries":[[["1"],["0","1"]],'
         '[{"num":["-1"],"den":["2"]},["1","10"]]]}',
         "   1,   2\n-1/2,  21"),
        (JFraction([R, 1 / (R + 1)], [-10 * R]),
         "b:      r, 1/(r + 1)\nlambda: -10r",
         "r,1/(r + 1)\n-10r\n",
         '{"kind":"jfrac","entries":'
         '[[["0","1"],{"num":["1"],"den":["1","1"]}],[["0","-10"]]]}',
         "b:      2, 1/3\nlambda: -20"),
        (SFraction([1, R / (R - 1), 10]),
         "1,  r/(r - 1),  10",
         "1,r/(r - 1),10\n",
         '{"kind":"sfrac","entries":'
         '[["1"],{"num":["0","1"],"den":["-1","1"]},["10"]]}',
         "1,  2,  10"),
        (RecurrenceCoeffs([R, 10], [R / (R + 1)]),
         "alpha: r, 10\nbeta:  r/(r + 1)",
         "r,10\nr/(r + 1)\n",
         '{"kind":"recurrence","entries":'
         '[[["0","1"],["10"]],[{"num":["0","1"],"den":["1","1"]}]]}',
         "alpha: 2, 10\nbeta:  2/3"),
        (R / (R + 1) - 10,
         "(-9r - 10)/(r + 1)",
         "(-9r - 10)/(r + 1)\n",
         '{"kind":"fieldelem","entries":{"num":["-10","-9"],"den":["1","1"]}}',
         "-28/3"),
        # empty fractions: one empty csv line per list
        (evaluate_text("tosfrac(1)", Env(order=8)),
         "", "\n", '{"kind":"sfrac","entries":[]}', ""),
        (evaluate_text("jfrac([],[])", Env(order=8)),
         "b:      \nlambda: ", "\n\n", '{"kind":"jfrac","entries":[[],[]]}',
         "b:      \nlambda: "),
    ], ids=["series", "triangle", "matrix", "jfrac", "sfrac", "recurrence",
            "fieldelem", "sfrac-empty", "jfrac-empty"])
    def test_each_kind_renders_exactly(self, value, table, csv, json, at_two):
        assert format_value(value, "table") == table
        assert format_value(value, "csv") == csv
        assert format_value(value, "json") == json
        assert format_value(substitute_value(value, Fraction(2)), "table") == at_two


# Every builtin's diagnostics, pinned: (text, class, message, start, span).
# The span is None for engine errors, which carry no source span.
BUILTIN_ARITY = [
    ("P(x,x)", ArityError, "P expects 1 argument(s), got 2", 0, "P(x,x)"),
    ("partialP(x,x)", ArityError, "partialP expects 1 argument(s), got 2", 0, "partialP(x,x)"),
    ("reverseP(x,x)", ArityError, "reverseP expects 1 argument(s), got 2", 0, "reverseP(x,x)"),
    ("sumudu(x,x)", ArityError, "sumudu expects 1 argument(s), got 2", 0, "sumudu(x,x)"),
    ("isumudu(x,x)", ArityError, "isumudu expects 1 argument(s), got 2", 0, "isumudu(x,x)"),
    ("binom(x,x)", ArityError, "binom expects 1 argument(s), got 2", 0, "binom(x,x)"),
    ("ibinom(x,x)", ArityError, "ibinom expects 1 argument(s), got 2", 0, "ibinom(x,x)"),
    ("revert(x,x)", ArityError, "revert expects 1 argument(s), got 2", 0, "revert(x,x)"),
    ("gfrev(x,x)", ArityError, "gfrev expects 1 argument(s), got 2", 0, "gfrev(x,x)"),
    ("logd(x,x)", ArityError, "logd expects 1 argument(s), got 2", 0, "logd(x,x)"),
    ("diff(x,x)", ArityError, "diff expects 1 argument(s), got 2", 0, "diff(x,x)"),
    ("integ(x,x)", ArityError, "integ expects 1 argument(s), got 2", 0, "integ(x,x)"),
    ("log(x,x)", ArityError, "log expects 1 argument(s), got 2", 0, "log(x,x)"),
    ("exp(x,x)", ArityError, "exp expects 1 argument(s), got 2", 0, "exp(x,x)"),
    ("cosh(x,x)", ArityError, "cosh expects 1 argument(s), got 2", 0, "cosh(x,x)"),
    ("sinh(x,x)", ArityError, "sinh expects 1 argument(s), got 2", 0, "sinh(x,x)"),
    ("tojfrac(x,x)", ArityError, "tojfrac expects 1 argument(s), got 2", 0, "tojfrac(x,x)"),
    ("tosfrac(x,x)", ArityError, "tosfrac expects 1 argument(s), got 2", 0, "tosfrac(x,x)"),
    ("invert(x)", ArityError, "invert expects 2 argument(s), got 1", 0, "invert(x)"),
    ("powq(x,1,1)", ArityError, "powq expects 2 argument(s), got 3", 0, "powq(x,1,1)"),
    ("jfrac([1])", ArityError, "jfrac expects 2 argument(s), got 1", 0, "jfrac([1])"),
    ("sfrac()", ArityError, "sfrac expects 1 argument(s), got 0", 0, "sfrac()"),
    ("contract()", ArityError, "contract expects 1 argument(s), got 0", 0, "contract()"),
    ("deleham([1],[1])", ArityError, "deleham expects 3 argument(s), got 2", 0, "deleham([1],[1])"),
    ("deleham1([1],[1],3,3)", ArityError, "deleham1 expects 3 argument(s), got 4", 0, "deleham1([1],[1],3,3)"),
    ("tinv(1,1,1)", ArityError, "tinv expects 4 argument(s), got 3", 0, "tinv(1,1,1)"),
    ("tfwd(x,x)", ArityError, "tfwd expects 1 argument(s), got 2", 0, "tfwd(x,x)"),
    ("triangle(x)", ArityError, "triangle expects 2 or 3 arguments, got 1", 0, "triangle(x)"),
    ("triangle(x,3,ogf,1)", ArityError, "triangle expects 2 or 3 arguments, got 4", 0, "triangle(x,3,ogf,1)"),
    ("reverse()", ArityError, "reverse expects 1 argument(s), got 0", 0, "reverse()"),
    ("matmul(Bmat(2))", ArityError, "matmul expects 2 argument(s), got 1", 0, "matmul(Bmat(2))"),
    ("inv(x,x)", ArityError, "inv expects 1 argument(s), got 2", 0, "inv(x,x)"),
    ("Bmat()", ArityError, "Bmat expects 1 argument(s), got 0", 0, "Bmat()"),
    ("riordan(1,x)", ArityError, "riordan expects 3 argument(s), got 2", 0, "riordan(1,x)"),
    ("eriordan(1,x,3,3)", ArityError, "eriordan expects 3 argument(s), got 4", 0, "eriordan(1,x,3,3)"),
    ("rapply(1,x)", ArityError, "rapply expects 3 argument(s), got 2", 0, "rapply(1,x)"),
    ("prodmat(1,x)", ArityError, "prodmat expects 3 argument(s), got 2", 0, "prodmat(1,x)"),
    ("recurrence()", ArityError, "recurrence expects 1 argument(s), got 0", 0, "recurrence()"),
    ("orthopoly(x)", ArityError, "orthopoly expects 2 argument(s), got 1", 0, "orthopoly(x)"),
    ("oracle(N3,6)", ArityError, "oracle expects 3 argument(s), got 2", 0, "oracle(N3,6)"),
    ("oracletri(N1)", ArityError, "oracletri expects 2 argument(s), got 1", 0, "oracletri(N1)"),
    ("matrix()", ArityError, "matrix expects 1 argument(s), got 0", 0, "matrix()"),
    ("matvec(x)", ArityError, "matvec expects 2 argument(s), got 1", 0, "matvec(x)"),
]

BUILTIN_WRONG_KIND = [
    ("P(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 2, "Bmat(2)"),
    ("partialP(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 9, "Bmat(2)"),
    ("reverseP(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 9, "Bmat(2)"),
    ("sumudu(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 7, "Bmat(2)"),
    ("isumudu(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 8, "Bmat(2)"),
    ("binom(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 6, "Bmat(2)"),
    ("ibinom(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 7, "Bmat(2)"),
    ("revert(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 7, "Bmat(2)"),
    ("gfrev(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 6, "Bmat(2)"),
    ("logd(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 5, "Bmat(2)"),
    ("diff(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 5, "Bmat(2)"),
    ("integ(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 6, "Bmat(2)"),
    ("log(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 4, "Bmat(2)"),
    ("exp(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 4, "Bmat(2)"),
    ("cosh(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 5, "Bmat(2)"),
    ("sinh(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 5, "Bmat(2)"),
    ("tojfrac(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 8, "Bmat(2)"),
    ("tosfrac(Bmat(2))", TypeErrorValue, "expected a series, got triangle", 8, "Bmat(2)"),
    ("invert(Bmat(2),1)", TypeErrorValue, "expected a series, got triangle", 7, "Bmat(2)"),
    ("invert(1/(1-r),x)", TypeErrorValue, "expected a scalar (no x allowed here)", 15, "x"),
    ("invert(1/(1-x),Bmat(2))", TypeErrorValue, "expected a scalar, got triangle", 15, "Bmat(2)"),
    ("powq(Bmat(2),1/2)", TypeErrorValue, "expected a series, got triangle", 5, "Bmat(2)"),
    ("powq(1-4*x,r)", TypeErrorValue, "expected a rational constant", 11, "r"),
    ("powq(1-4*r,x)", TypeErrorValue, "expected a scalar (no x allowed here)", 11, "x"),
    ("jfrac(7,[1])", TypeErrorValue, "expected a list here", 6, "7"),
    ("jfrac([1],7)", TypeErrorValue, "expected a list here", 10, "7"),
    ("jfrac([x],[1])", TypeErrorValue, "expected a scalar (no x allowed here)", 7, "x"),
    ("sfrac(7)", TypeErrorValue, "expected a list here", 6, "7"),
    ("sfrac([Bmat(2)])", TypeErrorValue, "expected a scalar, got triangle", 7, "Bmat(2)"),
    ("contract(x)", TypeErrorValue, "expected a sfrac, got series", 9, "x"),
    ("tfwd(x)", TypeErrorValue, "expected a jfrac, got series", 5, "x"),
    ("deleham(7,[1],3)", TypeErrorValue, "expected a list here", 8, "7"),
    ("deleham([1],7,3)", TypeErrorValue, "expected a list here", 12, "7"),
    ("deleham([1],[1],0)", TypeErrorValue, "expected a count of at least 1, got 0", 16, "0"),
    ("deleham([1],[1],1/2)", TypeErrorValue, "expected an integer", 16, "1/2"),
    ("deleham1(7,[1],3)", TypeErrorValue, "expected a list here", 9, "7"),
    ("deleham1([1],7,3)", TypeErrorValue, "expected a list here", 13, "7"),
    ("deleham1([1],[1],0)", TypeErrorValue, "expected a count of at least 1, got 0", 17, "0"),
    ("tinv(x,1,1,3)", TypeErrorValue, "expected a scalar (no x allowed here)", 5, "x"),
    ("tinv(1,x,1,3)", TypeErrorValue, "expected a scalar (no x allowed here)", 7, "x"),
    ("tinv(1,1,x,3)", TypeErrorValue, "expected a scalar (no x allowed here)", 9, "x"),
    ("tinv(1,1,1,0)", TypeErrorValue, "expected a count of at least 1, got 0", 11, "0"),
    ("tinv(1,1,1,r)", TypeErrorValue, "expected an integer", 11, "r"),
    ("triangle(Bmat(2),3)", TypeErrorValue, "expected a series, got triangle", 9, "Bmat(2)"),
    ("triangle(1/(1-x),0)", TypeErrorValue, "expected a count of at least 1, got 0", 17, "0"),
    ("triangle(1/(1-x),3,foo)", TypeErrorValue, "triangle mode must be ogf or egf", 19, "foo"),
    ("triangle(1/(1-x),3,7)", TypeErrorValue, "expected a name here", 19, "7"),
    ("triangle(1/(1-x),3,x)", TypeErrorValue, "expected a name here", 19, "x"),
    ("triangle(1/(1-x),1/2,egf)", TypeErrorValue, "expected an integer", 17, "1/2"),
    ("reverse(x)", TypeErrorValue, "expected a triangle, got series", 8, "x"),
    ("matmul(x,Bmat(2))", TypeErrorValue, "expected a triangle, got series", 7, "x"),
    ("matmul(Bmat(2),x)", TypeErrorValue, "expected a triangle, got series", 15, "x"),
    ("inv(x)", TypeErrorValue, "expected a triangle, got series", 4, "x"),
    ("Bmat(0)", TypeErrorValue, "expected a count of at least 1, got 0", 5, "0"),
    ("Bmat(1/2)", TypeErrorValue, "expected an integer", 5, "1/2"),
    ("riordan(Bmat(2),x,3)", TypeErrorValue, "expected a series, got triangle", 8, "Bmat(2)"),
    ("riordan(1,Bmat(2),3)", TypeErrorValue, "expected a series, got triangle", 10, "Bmat(2)"),
    ("riordan(1,x,0)", TypeErrorValue, "expected a count of at least 1, got 0", 12, "0"),
    ("eriordan(Bmat(2),x,3)", TypeErrorValue, "expected a series, got triangle", 9, "Bmat(2)"),
    ("eriordan(1,Bmat(2),3)", TypeErrorValue, "expected a series, got triangle", 11, "Bmat(2)"),
    ("eriordan(1,x,0)", TypeErrorValue, "expected a count of at least 1, got 0", 13, "0"),
    ("rapply(Bmat(2),x,x)", TypeErrorValue, "expected a series, got triangle", 7, "Bmat(2)"),
    ("rapply(1,Bmat(2),x)", TypeErrorValue, "expected a series, got triangle", 9, "Bmat(2)"),
    ("rapply(1,x,Bmat(2))", TypeErrorValue, "expected a series, got triangle", 11, "Bmat(2)"),
    ("prodmat(Bmat(2),x,3)", TypeErrorValue, "expected a series, got triangle", 8, "Bmat(2)"),
    ("prodmat(1,Bmat(2),3)", TypeErrorValue, "expected a series, got triangle", 10, "Bmat(2)"),
    ("prodmat(1,x,0)", TypeErrorValue, "expected a count of at least 1, got 0", 12, "0"),
    ("recurrence(x)", TypeErrorValue, "expected a matrix, got series", 11, "x"),
    ("orthopoly(x,3)", TypeErrorValue, "expected a recurrence, got series", 10, "x"),
    ("orthopoly(prodmat(exp(x),x,3),0)", TypeErrorValue, "expected a count of at least 1, got 0", 30, "0"),
    ("oracle(7,6,3)", TypeErrorValue, "expected a name here", 7, "7"),
    ("oracle(r,1,1)", TypeErrorValue, "expected a name here", 7, "r"),
    ("oracle(N3,1/2,3)", TypeErrorValue, "expected an integer", 10, "1/2"),
    ("oracle(N3,6,r)", TypeErrorValue, "expected an integer", 12, "r"),
    ("oracletri(7,3)", TypeErrorValue, "expected a name here", 10, "7"),
    ("oracletri(N1,0)", TypeErrorValue, "expected a count of at least 1, got 0", 13, "0"),
    ("matrix([])", TypeErrorValue, "a matrix needs at least one row", 7, "[]"),
    ("matrix(7)", TypeErrorValue, "expected a list here", 7, "7"),
    ("matrix([7])", TypeErrorValue, "expected a list here", 8, "7"),
    ("matrix([[x]])", TypeErrorValue, "expected a scalar (no x allowed here)", 9, "x"),
    ("matvec(x,[1])", TypeErrorValue, "expected a matrix, got series", 7, "x"),
    ("matvec(matrix([[1]]),7)", TypeErrorValue, "expected a list here", 21, "7"),
]

# Two faulty arguments: the order in which a builtin reads its arguments
# decides which fault is reported.
BUILTIN_READ_ORDER = [
    ("triangle(log(x),0)", TypeErrorValue, "expected a count of at least 1, got 0", 16, "0"),
    ("triangle(log(x),3,foo)", TypeErrorValue, "triangle mode must be ogf or egf", 18, "foo"),
    ("powq(log(x),[1])", NonUnitConstantTerm, "log needs constant term 1", None, None),
    ("prodmat(log(x),x,0)", TypeErrorValue, "expected a count of at least 1, got 0", 17, "0"),
]


@pytest.mark.parametrize("text,cls,message,start,span",
                         BUILTIN_ARITY + BUILTIN_WRONG_KIND + BUILTIN_READ_ORDER)
def test_builtin_diagnostics(text, cls, message, start, span):
    with pytest.raises(Exception) as exc:
        evaluate_text(text, Env(order=4))
    err = exc.value
    assert type(err) is cls
    assert err.args[0] == message
    if span is None:
        assert not isinstance(err, ExprError)
    else:
        assert err.start == start and text[err.start:err.end] == span


def test_every_builtin_has_pinned_diagnostics():
    def names(rows):
        return {text.split("(")[0] for text, *_ in rows}

    assert names(BUILTIN_ARITY) == set(BUILTIN_NAMES)
    assert names(BUILTIN_WRONG_KIND) == set(BUILTIN_NAMES)


def test_readme_lists_every_builtin():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = readme.split("Builtins:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(BUILTIN_NAMES)
