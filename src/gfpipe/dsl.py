"""Expression language over the engine.

Grammar (whitespace-insensitive, left-associative, standard precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' int)?
    atom   := int | 'x' | 'r' | '(' expr ')' | ident '(' args ')'
            | ident | '[' args ']'

Bare identifiers are only meaningful as arguments (triangle modes, oracle
names).  Evaluation is demand-driven: every builtin knows how much
precision it needs from its children to deliver the requested order, so a
top-level series result carries exactly ``order`` exact coefficients no
matter how many precision-losing steps the expression chains together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import cfrac, transforms, triangles
from .errors import ArityError, EngineError, ParseError, TypeErrorValue
from .ratfun import FieldElem
from .series import Series

MAX_INT_EXPONENT = 64
# Parsing and evaluation recurse once per level, so nesting is capped well
# inside the interpreter's recursion limit: brackets (parentheses, lists,
# argument lists) at MAX_NESTING, the syntax tree (where each operator of a
# chain such as 1+x+x^2 adds a level) at MAX_DEPTH.
MAX_NESTING = 100
MAX_DEPTH = 250


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    start: int = field(default=-1, compare=False)
    end: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: int = 0


@dataclass(frozen=True)
class VarX(Node):
    pass


@dataclass(frozen=True)
class ParamR(Node):
    pass


@dataclass(frozen=True)
class Name(Node):
    ident: str = ""


@dataclass(frozen=True)
class Bin(Node):
    op: str = "+"
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Pow(Node):
    base: Node = None
    exponent: int = 1


@dataclass(frozen=True)
class Call(Node):
    name: str = ""
    args: tuple = ()


@dataclass(frozen=True)
class ListLit(Node):
    items: tuple = ()


# -- tokenizer and parser ----------------------------------------------------

_SYMBOLS = "+-*/^()[],"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ("token",))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2],
                (kind,),
            )
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"unexpected {tok[1]!r} after expression", tok[2], ("end",)
            )
        _check_depth(node)
        return node

    def nest(self, start: int):
        """Enter a bracket opened at ``start``; see MAX_NESTING."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(
                f"brackets nested more than {MAX_NESTING} deep", start, ()
            )

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            node = Bin(node.start, right.end, op, node, right)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right = self.factor()
            node = Bin(node.start, right.end, op, node, right)
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            e = int(tok[1])
            node = Pow(node.start, tok[2] + len(tok[1]), node, e)
        return node

    def atom(self) -> Node:
        tok = self.peek()
        kind, textv, start = tok
        if kind == "int":
            self.advance()
            return Num(start, start + len(textv), int(textv))
        if kind == "(":
            self.advance()
            self.nest(start)
            node = self.expr()
            close = self.expect(")")
            self.nesting -= 1
            return _respan(node, start, close[2] + 1)
        if kind == "[":
            self.advance()
            self.nest(start)
            items = self.args("]")
            close = self.expect("]")
            self.nesting -= 1
            return ListLit(start, close[2] + 1, tuple(items))
        if kind == "ident":
            self.advance()
            if textv == "x":
                return VarX(start, start + 1)
            if textv == "r":
                return ParamR(start, start + 1)
            if self.peek()[0] == "(":
                self.advance()
                self.nest(start)
                args = self.args(")")
                close = self.expect(")")
                self.nesting -= 1
                return Call(start, close[2] + 1, textv, tuple(args))
            return Name(start, start + len(textv), textv)
        raise ParseError(
            f"expected a value, found {textv or 'end of input'!r}",
            start,
            ("int", "ident", "(", "["),
        )

    def args(self, closer: str):
        items = []
        if self.peek()[0] == closer:
            return items
        items.append(self.expr())
        while self.peek()[0] == ",":
            self.advance()
            items.append(self.expr())
        return items


def _children(node: Node) -> tuple:
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return node.args
    if isinstance(node, ListLit):
        return node.items
    return ()


def _check_depth(root: Node) -> None:
    """Reject a syntax tree deeper than MAX_DEPTH, level by level."""
    level = [root]
    for _ in range(MAX_DEPTH):
        level = [kid for node in level for kid in _children(node)]
        if not level:
            return
    raise ParseError(
        f"expression nested more than {MAX_DEPTH} levels deep",
        level[0].start,
        (),
    )


def _respan(node: Node, start: int, end: int) -> Node:
    cls = type(node)
    data = {f.name: getattr(node, f.name) for f in node.__dataclass_fields__.values()}
    data["start"] = start
    data["end"] = end
    return cls(**data)


def parse(text: str) -> Node:
    return _Parser(text).parse()


# -- pretty printer -----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def pretty(node: Node) -> str:
    return _pp(node, 0)


def _pp(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, VarX):
        return "x"
    if isinstance(node, ParamR):
        return "r"
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, ListLit):
        return "[" + ",".join(_pp(i, 0) for i in node.items) + "]"
    if isinstance(node, Call):
        return node.name + "(" + ",".join(_pp(a, 0) for a in node.args) + ")"
    if isinstance(node, Pow):
        base = _pp(node.base, 3)
        return f"{base}^{node.exponent}"
    if isinstance(node, Bin):
        p = _PREC[node.op]
        left = _pp(node.left, p)
        # the grammar is left-associative: a right operand at the same
        # level must keep its parentheses to re-parse to the same tree
        right = _pp(node.right, p + 1)
        out = f"{left}{node.op}{right}"
        if p < parent_prec:
            out = f"({out})"
        return out
    raise TypeError(f"unknown node {node!r}")


# -- values -------------------------------------------------------------------


@dataclass
class Env:
    """Per-invocation evaluation settings."""

    order: int = 8
    r_value: Optional[Fraction] = None
    format: str = "table"

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.format not in ("table", "csv", "json"):
            raise ValueError("format must be table, csv, or json")


Value = object  # Series | Triangle | JFraction | SFraction | SquareMatrix |
#                 FieldElem | RecurrenceCoeffs


def _contains_x(node: Node) -> bool:
    return isinstance(node, VarX) or any(_contains_x(k) for k in _children(node))


class _Evaluator:
    def __init__(self, env: Env):
        self.env = env

    # series context ------------------------------------------------------

    def series(self, node: Node, p: int) -> Series:
        v = self.value(node, p)
        if isinstance(v, cfrac.JFraction):
            v = cfrac.jfrac_to_series(v, p)
        elif isinstance(v, cfrac.SFraction):
            v = cfrac.sfrac_to_series(v, p)
        elif isinstance(v, FieldElem):
            v = Series.constant(v, p)
        if not isinstance(v, Series):
            raise TypeErrorValue(
                f"expected a series, got {_kind_name(v)}", node.start, node.end
            )
        if v.prec < p:
            raise EngineError(
                f"internal precision shortfall: have {v.prec}, need {p}"
            )
        return v.truncate(p) if v.prec > p else v

    def scalar(self, node: Node) -> FieldElem:
        if _contains_x(node):
            raise TypeErrorValue(
                "expected a scalar (no x allowed here)", node.start, node.end
            )
        v = self.value(node, 1)
        if isinstance(v, Series):
            return v.coeffs[0]
        if isinstance(v, FieldElem):
            return v
        raise TypeErrorValue(
            f"expected a scalar, got {_kind_name(v)}", node.start, node.end
        )

    def integer(self, node: Node) -> int:
        v = self.scalar(node)
        try:
            q = v.as_fraction()
        except ValueError:
            raise TypeErrorValue("expected an integer", node.start, node.end)
        if q.denominator != 1:
            raise TypeErrorValue("expected an integer", node.start, node.end)
        return int(q)

    def count(self, node: Node) -> int:
        n = self.integer(node)
        if n < 1:
            raise TypeErrorValue(
                f"expected a count of at least 1, got {n}", node.start, node.end
            )
        return n

    def rational(self, node: Node) -> Fraction:
        v = self.scalar(node)
        try:
            return v.as_fraction()
        except ValueError:
            raise TypeErrorValue(
                "expected a rational constant", node.start, node.end
            )

    def triangle(self, node: Node, p: int) -> triangles.Triangle:
        v = self.value(node, p)
        if not isinstance(v, triangles.Triangle):
            raise TypeErrorValue(
                f"expected a triangle, got {_kind_name(v)}", node.start, node.end
            )
        return v

    def name(self, node: Node) -> str:
        if not isinstance(node, Name):
            raise TypeErrorValue("expected a name here", node.start, node.end)
        return node.ident

    def list_items(self, node: Node) -> tuple:
        if not isinstance(node, ListLit):
            raise TypeErrorValue("expected a list here", node.start, node.end)
        return node.items

    def scalar_list(self, node: Node) -> list:
        return [self.scalar(item) for item in self.list_items(node)]

    # generic -------------------------------------------------------------

    def value(self, node: Node, p: int) -> Value:
        if isinstance(node, Num):
            return Series.constant(node.value, p)
        if isinstance(node, VarX):
            return Series.x(p)
        if isinstance(node, ParamR):
            from .ratfun import R

            return Series.constant(R, p)
        if isinstance(node, Name):
            raise TypeErrorValue(
                f"unknown identifier {node.ident!r}", node.start, node.end
            )
        if isinstance(node, ListLit):
            raise TypeErrorValue(
                "a list is not a value by itself", node.start, node.end
            )
        if isinstance(node, Pow):
            if abs(node.exponent) > MAX_INT_EXPONENT:
                raise TypeErrorValue(
                    f"integer exponents are capped at {MAX_INT_EXPONENT}",
                    node.start,
                    node.end,
                )
            base = self.series(node.base, p)
            return base ** node.exponent
        if isinstance(node, Bin):
            a = self.series(node.left, p)
            b = self.series(node.right, p)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if b.prec and b.coeffs[0].is_zero() and not _contains_x(node.right):
                raise ZeroDivisionError(
                    f"scalar division by zero (divisor {pretty(node.right)})"
                )
            return a / b
        if isinstance(node, Call):
            handler = _BUILTINS.get(node.name)
            if handler is None:
                raise TypeErrorValue(
                    f"unknown function {node.name!r}", node.start, node.end
                )
            return handler(self, node, p)
        raise TypeErrorValue("cannot evaluate this node", node.start, node.end)


def _kind_name(v: Value) -> str:
    return {
        Series: "series",
        triangles.Triangle: "triangle",
        triangles.SquareMatrix: "matrix",
        triangles.RecurrenceCoeffs: "recurrence",
        cfrac.JFraction: "jfrac",
        cfrac.SFraction: "sfrac",
        FieldElem: "fieldelem",
    }.get(type(v), type(v).__name__)


# -- builtins ----------------------------------------------------------------


def _need(node: Call, n: int, *, at_least: bool = False):
    ok = len(node.args) >= n if at_least else len(node.args) == n
    if not ok:
        word = "at least " if at_least else ""
        raise ArityError(
            f"{node.name} expects {word}{n} argument(s), got {len(node.args)}",
            node.start,
            node.end,
        )


def _series_op(fn, extra_prec: int = 0):
    def handler(ev: _Evaluator, node: Call, p: int):
        _need(node, 1)
        return fn(ev.series(node.args[0], p + extra_prec))

    return handler


def _b_pipeline(ev, node, p):
    _need(node, 1)
    return transforms.pipeline_P(ev.series(node.args[0], p + 1))


def _b_partial(ev, node, p):
    _need(node, 1)
    return transforms.partial_P(ev.series(node.args[0], p + 1))


def _b_reverse_p(ev, node, p):
    _need(node, 1)
    return transforms.reverse_P(ev.series(node.args[0], p))


def _b_invert(ev, node, p):
    _need(node, 2)
    return transforms.invert_transform(
        ev.series(node.args[0], p), ev.scalar(node.args[1])
    )


def _b_binom(ev, node, p):
    _need(node, 1)
    return transforms.binomial_transform(ev.series(node.args[0], p), "forward")


def _b_ibinom(ev, node, p):
    _need(node, 1)
    return transforms.binomial_transform(ev.series(node.args[0], p), "inverse")


def _b_powq(ev, node, p):
    _need(node, 2)
    f = ev.series(node.args[0], p)
    return f.pow_rational(ev.rational(node.args[1]))


def _b_cosh(ev, node, p):
    _need(node, 1)
    f = ev.series(node.args[0], p)
    return (f.exp() + (-f).exp()) / 2


def _b_sinh(ev, node, p):
    _need(node, 1)
    f = ev.series(node.args[0], p)
    return (f.exp() - (-f).exp()) / 2


def _b_jfrac(ev, node, p):
    _need(node, 2)
    return cfrac.JFraction(
        ev.scalar_list(node.args[0]), ev.scalar_list(node.args[1])
    )


def _b_sfrac(ev, node, p):
    _need(node, 1)
    return cfrac.SFraction(ev.scalar_list(node.args[0]))


def _b_tojfrac(ev, node, p):
    _need(node, 1)
    return cfrac.series_to_jfrac(ev.series(node.args[0], ev.env.order))


def _b_tosfrac(ev, node, p):
    _need(node, 1)
    return cfrac.series_to_sfrac(ev.series(node.args[0], ev.env.order))


def _b_contract(ev, node, p):
    _need(node, 1)
    v = ev.value(node.args[0], p)
    if not isinstance(v, cfrac.SFraction):
        raise TypeErrorValue(
            "contract expects a Stieltjes fraction", node.start, node.end
        )
    return cfrac.contract_s_to_j(v)


def _b_tinv(ev, node, p):
    _need(node, 4)
    return cfrac.t_inverse(
        ev.scalar(node.args[0]),
        ev.scalar(node.args[1]),
        ev.scalar(node.args[2]),
        ev.count(node.args[3]),
    )


def _b_tfwd(ev, node, p):
    _need(node, 1)
    v = ev.value(node.args[0], p)
    if not isinstance(v, cfrac.JFraction):
        raise TypeErrorValue(
            "tfwd expects a Jacobi fraction", node.start, node.end
        )
    return cfrac.t_forward_image(v)


def _b_deleham(ev, node, p):
    _need(node, 3)
    return cfrac.deleham(
        ev.scalar_list(node.args[0]),
        ev.scalar_list(node.args[1]),
        ev.count(node.args[2]),
    )


def _b_deleham1(ev, node, p):
    _need(node, 3)
    return cfrac.deleham_delta1(
        ev.scalar_list(node.args[0]),
        ev.scalar_list(node.args[1]),
        ev.count(node.args[2]),
    )


def _b_triangle(ev, node, p):
    if len(node.args) not in (2, 3):
        raise ArityError(
            f"triangle expects 2 or 3 arguments, got {len(node.args)}",
            node.start,
            node.end,
        )
    rows = ev.count(node.args[1])
    mode = "ogf"
    if len(node.args) == 3:
        mode = ev.name(node.args[2])
        if mode not in ("ogf", "egf"):
            raise TypeErrorValue(
                "triangle mode must be ogf or egf",
                node.args[2].start,
                node.args[2].end,
            )
    gf = ev.series(node.args[0], rows)
    return triangles.triangle_from_gf(gf, rows, mode)


def _b_reverse(ev, node, p):
    _need(node, 1)
    return triangles.reversal(ev.triangle(node.args[0], p))


def _b_matmul(ev, node, p):
    _need(node, 2)
    return triangles.matmul(
        ev.triangle(node.args[0], p), ev.triangle(node.args[1], p)
    )


def _b_inv(ev, node, p):
    _need(node, 1)
    return triangles.tri_inverse(ev.triangle(node.args[0], p))


def _b_bmat(ev, node, p):
    _need(node, 1)
    return triangles.binomial_matrix(ev.count(node.args[0]))


def _riordan(kind):
    def handler(ev: _Evaluator, node: Call, p: int):
        _need(node, 3)
        rows = ev.count(node.args[2])
        need = max(rows, 2)
        g = ev.series(node.args[0], need)
        f = ev.series(node.args[1], need)
        return triangles.riordan_to_triangle(
            triangles.RiordanArray(g, f, kind), rows
        )

    return handler


def _b_rapply(ev, node, p):
    _need(node, 3)
    g = ev.series(node.args[0], p)
    f = ev.series(node.args[1], p)
    h = ev.series(node.args[2], p)
    return triangles.riordan_apply(triangles.RiordanArray(g, f, "ordinary"), h)


def _b_prodmat(ev, node, p):
    _need(node, 3)
    size = ev.count(node.args[2])
    g = ev.series(node.args[0], size + 2)
    f = ev.series(node.args[1], size + 2)
    return triangles.production_matrix(
        triangles.RiordanArray(g, f, "exponential"), size
    )


def _b_recurrence(ev, node, p):
    _need(node, 1)
    v = ev.value(node.args[0], p)
    if not isinstance(v, triangles.SquareMatrix):
        raise TypeErrorValue(
            "recurrence expects a production matrix", node.start, node.end
        )
    return triangles.recurrence_from_production(v)


def _b_orthopoly(ev, node, p):
    _need(node, 2)
    v = ev.value(node.args[0], p)
    if isinstance(v, triangles.SquareMatrix):
        v = triangles.recurrence_from_production(v)
    if not isinstance(v, triangles.RecurrenceCoeffs):
        raise TypeErrorValue(
            "orthopoly expects a production matrix or recurrence",
            node.start,
            node.end,
        )
    return triangles.orthopoly_triangle(v, ev.count(node.args[1]))


def _b_oracle(ev, node, p):
    _need(node, 3)
    return triangles.oracle(
        ev.name(node.args[0]),
        ev.integer(node.args[1]),
        ev.integer(node.args[2]),
    )


def _b_oracletri(ev, node, p):
    _need(node, 2)
    return triangles.oracle_triangle(
        ev.name(node.args[0]), ev.count(node.args[1])
    )


def _b_matrix(ev, node, p):
    _need(node, 1)
    rows = [ev.scalar_list(item) for item in ev.list_items(node.args[0])]
    if not rows:
        raise TypeErrorValue(
            "a matrix needs at least one row", node.args[0].start, node.args[0].end
        )
    return triangles.SquareMatrix(rows)


def _b_matvec(ev, node, p):
    _need(node, 2)
    m = ev.value(node.args[0], p)
    if not isinstance(m, triangles.SquareMatrix):
        raise TypeErrorValue("matvec expects a matrix", node.start, node.end)
    vec = ev.scalar_list(node.args[1])
    return Series(m.apply(vec))


def _b_integ(ev, node, p):
    _need(node, 1)
    return ev.series(node.args[0], max(p - 1, 0)).integrate()


_BUILTINS = {
    "P": _b_pipeline,
    "partialP": _b_partial,
    "reverseP": _b_reverse_p,
    "sumudu": _series_op(transforms.sumudu),
    "isumudu": _series_op(transforms.inverse_sumudu),
    "invert": _b_invert,
    "binom": _b_binom,
    "ibinom": _b_ibinom,
    "revert": _series_op(Series.revert),
    "gfrev": _series_op(Series.gf_revert),
    "logd": _series_op(Series.log_derivative, extra_prec=1),
    "diff": _series_op(Series.derivative, extra_prec=1),
    "integ": _b_integ,
    "log": _series_op(Series.log),
    "exp": _series_op(Series.exp),
    "powq": _b_powq,
    "cosh": _b_cosh,
    "sinh": _b_sinh,
    "jfrac": _b_jfrac,
    "sfrac": _b_sfrac,
    "tojfrac": _b_tojfrac,
    "tosfrac": _b_tosfrac,
    "contract": _b_contract,
    "deleham": _b_deleham,
    "deleham1": _b_deleham1,
    "tinv": _b_tinv,
    "tfwd": _b_tfwd,
    "triangle": _b_triangle,
    "reverse": _b_reverse,
    "matmul": _b_matmul,
    "inv": _b_inv,
    "Bmat": _b_bmat,
    "riordan": _riordan("ordinary"),
    "eriordan": _riordan("exponential"),
    "rapply": _b_rapply,
    "prodmat": _b_prodmat,
    "recurrence": _b_recurrence,
    "orthopoly": _b_orthopoly,
    "oracle": _b_oracle,
    "oracletri": _b_oracletri,
    "matrix": _b_matrix,
    "matvec": _b_matvec,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def evaluate(ast: Node, env: Env) -> Value:
    """Evaluate to an exact Value; series results carry env.order terms."""
    ev = _Evaluator(env)
    value = ev.value(ast, env.order)
    if isinstance(value, Series) and value.prec > env.order:
        value = value.truncate(env.order)
    if env.r_value is not None:
        value = substitute_value(value, env.r_value)
    return value


def evaluate_text(text: str, env: Env) -> Value:
    return evaluate(parse(text), env)


def substitute_value(value: Value, r_value: Fraction) -> Value:
    """Specialize the parameter r in a finished value, exactly."""
    if isinstance(value, (Series, triangles.Triangle, triangles.SquareMatrix)):
        return value.substitute(r_value)
    if isinstance(value, FieldElem):
        return value.substitute(r_value)
    if isinstance(value, cfrac.JFraction):
        return cfrac.JFraction(
            [v.substitute(r_value) for v in value.b],
            [v.substitute(r_value) for v in value.lam],
        )
    if isinstance(value, cfrac.SFraction):
        return cfrac.SFraction([v.substitute(r_value) for v in value.s])
    if isinstance(value, triangles.RecurrenceCoeffs):
        return triangles.RecurrenceCoeffs(
            [v.substitute(r_value) for v in value.alpha],
            [v.substitute(r_value) for v in value.beta],
        )
    raise TypeErrorValue(f"cannot specialize {_kind_name(value)}")
