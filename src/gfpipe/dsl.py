"""Expression language over the engine.

Grammar (whitespace-insensitive, left-associative, standard precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' int)?
    atom   := int | '(' expr ')' | ident '(' args ')' | ident | '[' args ']'

Two names have a value: ``x``, the series variable, and ``r``, the
parameter; neither starts a call.  Any other bare identifier is only
meaningful as an argument (triangle modes, oracle names).

Evaluation is demand-driven: every builtin knows how much precision it
needs from its children to deliver the requested order, so a top-level
series result carries exactly ``order`` exact coefficients no matter how
many precision-losing steps the expression chains together.  Arithmetic
with no x and no call under it is an element of Q(r), not a series: one
method, ``_Evaluator.term``, evaluates numbers, names and operators for
whole expressions and scalar arguments alike.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub, truediv
from typing import Optional

from . import cfrac, transforms, triangles
from .errors import ArityError, ParseError, TypeErrorValue
from .formats import CONVERSIONS, kind_name, substitute_value
from .ratfun import R, FieldElem, fe
from .record import Record
from .series import Series

MAX_INT_EXPONENT = 64
# Parsing and evaluation recurse once per level, so nesting is capped well
# inside the interpreter's recursion limit: brackets (parentheses, lists,
# argument lists) at MAX_NESTING, the syntax tree (where each operator of a
# chain such as 1+x+x^2 adds a level) at MAX_DEPTH.
MAX_NESTING = 100
MAX_DEPTH = 250
_VALUE_NAMES = ("x", "r")  # read by the parser and _name; term gives their values


# -- AST --------------------------------------------------------------------


class Node(Record):
    """A syntax-tree node.  ``start`` and ``end`` are its span in the
    source text; == and hash ignore them."""

    __slots__ = ("start", "end")
    _uncompared = ("start", "end")


class Num(Node):
    __slots__ = ("value",)


class Name(Node):
    """A bare identifier: ``x`` or ``r`` as a value, any other as an
    argument that a builtin reads by name."""

    __slots__ = ("ident",)


class Bin(Node):
    __slots__ = ("op", "left", "right")


class Pow(Node):
    __slots__ = ("base", "exponent")


class Call(Node):
    __slots__ = ("name", "args")


class ListLit(Node):
    __slots__ = ("items",)


# -- tokenizer and parser ----------------------------------------------------

_SYMBOLS = "+-*/^()[],"
# the binary operators: precedence (parser, pretty) and function (evaluator)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_OPS = {"+": add, "-": sub, "*": mul, "/": truediv}
_DIGITS = "0123456789"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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
        if ch.isspace():
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent with one precedence-climbing loop, ``expr``.  A
    parenthesised expression is the node inside, its span widened in place
    to the brackets before any other node holds it."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def expect(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2]
            )
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r} after expression", tok[2])
        # a tree deeper than MAX_DEPTH has more nodes, each with its own token
        if len(self.tokens) > MAX_DEPTH:
            _check_depth(node)
        return node

    def nest(self, start: int):
        """Step into the bracket opened at ``start``; see MAX_NESTING."""
        self.pos += 1
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"brackets nested more than {MAX_NESTING} deep", start)

    def integer(self, tok) -> int:
        """The value of an int token; one longer than int() converts is
        reported at its offset."""
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(
                f"integer literal too long ({len(tok[1])} digits)", tok[2]
            ) from None

    def expr(self, floor: int = 1) -> Node:
        """A factor, atom ('^' int)?, then each operator of _PREC at least
        ``floor`` with a right operand one level up: left-associative."""
        tokens = self.tokens
        node = self.atom()
        if tokens[self.pos][0] == "^":
            self.pos += 1
            tok = self.expect("int")
            node = Pow(node.start, tok[2] + len(tok[1]), node, self.integer(tok))
        while True:
            op = tokens[self.pos][0]
            prec = _PREC.get(op, 0)
            if prec < floor:
                return node
            self.pos += 1
            right = self.expr(prec + 1)
            node = Bin(node.start, right.end, op, node, right)

    def atom(self) -> Node:
        tok = self.tokens[self.pos]
        kind, textv, start = tok
        if kind == "int":
            self.pos += 1
            return Num(start, start + len(textv), self.integer(tok))
        if kind == "ident":
            self.pos += 1
            if self.tokens[self.pos][0] == "(" and textv not in _VALUE_NAMES:
                args = self.args(start, ")")
                return Call(start, self.close(")"), textv, args)
            return Name(start, start + len(textv), textv)
        if kind == "(":
            self.nest(start)
            node = self.expr()
            object.__setattr__(node, "start", start)
            object.__setattr__(node, "end", self.close(")"))
            return node
        if kind == "[":
            items = self.args(start, "]")
            return ListLit(start, self.close("]"), items)
        raise ParseError(
            f"expected a value, found {textv or 'end of input'!r}", start
        )

    def close(self, closer: str) -> int:
        """Step out at ``closer``; the bracket's end."""
        end = self.expect(closer)[2] + 1
        self.nesting -= 1
        return end

    def args(self, start: int, closer: str) -> tuple:
        """The items in the bracket opened at ``start``, up to ``closer``."""
        self.nest(start)
        items = []
        if self.tokens[self.pos][0] != closer:
            items.append(self.expr())
            while self.tokens[self.pos][0] == ",":
                self.pos += 1
                items.append(self.expr())
        return tuple(items)


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
        f"expression nested more than {MAX_DEPTH} levels deep", level[0].start
    )


def parse(text: str) -> Node:
    return _Parser(text).parse()


# -- pretty printer -----------------------------------------------------------


def pretty(node: Node) -> str:
    return _pp(node, 0)


def _pp(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, ListLit):
        return "[" + ",".join(_pp(i, 0) for i in node.items) + "]"
    if isinstance(node, Call):
        return node.name + "(" + ",".join(_pp(a, 0) for a in node.args) + ")"
    if isinstance(node, Pow):  # ^ does not chain: a Pow base keeps its brackets
        out = f"{_pp(node.base, 4)}^{node.exponent}"
        return f"({out})" if parent_prec > 3 else out
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


class Env(Record):
    """Per-invocation evaluation settings."""

    __slots__ = ("order", "r_value")

    def __init__(self, order: int = 8, r_value: Optional[Fraction] = None):
        if order < 1:
            raise ValueError("order must be at least 1")
        super().__init__(order, r_value)


Value = object  # Series | Triangle | JFraction | SFraction | SquareMatrix |
#                 FieldElem | RecurrenceCoeffs


def _contains_x(node: Node) -> bool:
    if isinstance(node, Name):
        return node.ident == "x"
    return any(_contains_x(k) for k in _children(node))


class _Evaluator:
    def __init__(self, env: Env):
        self.env = env

    # reads of one kind -------------------------------------------------

    def of(self, cls: type, node: Node, p: int) -> Value:
        """The value of ``node`` as a ``cls``, converted through
        formats.CONVERSIONS when it stands for one."""
        v = self.value(node, p)
        if isinstance(v, cls):
            return v
        convert = CONVERSIONS.get((type(v), cls))
        if convert is None:
            raise TypeErrorValue(
                f"expected a {kind_name(cls)}, got {kind_name(v)}",
                node.start,
                node.end,
            )
        return convert(v, p)

    def series(self, node: Node, p: int) -> Series:
        v = self.of(Series, node, p)
        if v.prec < p:
            raise TypeErrorValue(
                f"{pretty(node)} has {v.prec} coefficient(s), {p} needed",
                node.start,
                node.end,
            )
        return v.truncate(p) if v.prec > p else v

    def scalar(self, node: Node) -> FieldElem:
        """The element of Q(r) an x-free ``node`` stands for: a call's
        ``value(node, 1)``, or else its ``term``, read at its constant
        term when a call under it makes it a series."""
        if _contains_x(node):
            raise TypeErrorValue(
                "expected a scalar (no x allowed here)", node.start, node.end
            )
        v = self.value(node, 1) if node.__class__ is Call else self.term(node, 1)
        if isinstance(v, Series):
            return v.coeffs[0]
        if isinstance(v, FieldElem):
            return v
        raise TypeErrorValue(
            f"expected a scalar, got {kind_name(v)}", node.start, node.end
        )

    # generic -------------------------------------------------------------

    def value(self, node: Node, p: int) -> Value:
        if node.__class__ is Call:
            handler = _BUILTINS.get(node.name)
            if handler is None:
                raise TypeErrorValue(
                    f"unknown function {node.name!r}", node.start, node.end
                )
            return handler(self, node, p)
        v = self.term(node, p)
        return Series.constant(v, p) if v.__class__ is FieldElem else v

    def term(self, node: Node, p: int):
        """The arithmetic of a node: its element of Q(r) when no x and no
        call is under it, else its series at precision ``p``.  A call
        operand is read through ``series``.  A zero divisor in Q(r) is
        reported at every precision, 0 included; a series divisor read at
        precision 0 has no known constant term, and the quotient is the
        empty series."""
        cls = node.__class__
        if cls is Num:
            return fe(node.value)
        if cls is Name:
            if node.ident == "r":
                return R
            if node.ident == "x":
                return Series.x(p)
            raise TypeErrorValue(
                f"unknown identifier {node.ident!r}", node.start, node.end
            )
        if cls is Pow:
            if abs(node.exponent) > MAX_INT_EXPONENT:
                raise TypeErrorValue(
                    f"integer exponents are capped at {MAX_INT_EXPONENT}",
                    node.start,
                    node.end,
                )
            return self.term(node.base, p) ** node.exponent
        if cls is Bin:
            a, b = self.term(node.left, p), self.term(node.right, p)
            if node.op == "/" and (b.__class__ is FieldElem or b.prec):
                b0 = b if b.__class__ is FieldElem else b.coeffs[0]
                if b0.is_zero() and not _contains_x(node.right):
                    raise ZeroDivisionError(
                        f"scalar division by zero (divisor {pretty(node.right)})"
                    )
            return _OPS[node.op](a, b)
        if cls is Call:
            return self.series(node, p)
        if cls is ListLit:
            raise TypeErrorValue(
                "a list is not a value by itself", node.start, node.end
            )
        raise TypeErrorValue("cannot evaluate this node", node.start, node.end)


# -- builtins ----------------------------------------------------------------
#
# Every builtin is one row of _BUILTINS: the engine function and one reader
# per argument.  A reader ``read(ev, arg, p)`` returns the value of the
# argument node ``arg`` at precision ``p``, or raises its diagnostic.
# Arguments are read left to right, except that a series sized by the count
# (_Sized) is read after all the others, so the first fault found is the
# one reported.


def _ser(ev, arg, p):
    return ev.series(arg, p)


def _ser_up(ev, arg, p):
    """One more order, for builtins that lose one."""
    return ev.series(arg, p + 1)


def _ser_down(ev, arg, p):
    """One order less, for integration, which gains one."""
    return ev.series(arg, max(p - 1, 0))


def _ser_rev(ev, arg, p):
    """One order less from order 3 on, for reverseP, which integrates; the
    checks of F(0) = 1 and of an inner revert need orders 1 and 2 whole."""
    return ev.series(arg, p if p <= 2 else p - 1)


def _ser_order(ev, arg, p):
    """The top-level order, whatever the caller asks for."""
    return ev.series(arg, ev.env.order)


class _Sized:
    """A series at precision ``rule(count)``, read after the other arguments."""

    def __init__(self, rule):
        self.rule = rule


def _scalar(ev, arg, p):
    return ev.scalar(arg)


def _rational(ev, arg, p, what="a rational constant"):
    v = ev.scalar(arg)
    try:
        return v.as_fraction()
    except ValueError:
        raise TypeErrorValue(f"expected {what}", arg.start, arg.end)


def _integer(ev, arg, p):
    q = _rational(ev, arg, p, "an integer")
    if q.denominator != 1:
        raise TypeErrorValue("expected an integer", arg.start, arg.end)
    return int(q)


def _count(ev, arg, p):
    n = _integer(ev, arg, p)
    if n < 1:
        raise TypeErrorValue(
            f"expected a count of at least 1, got {n}", arg.start, arg.end
        )
    return n


def _name(ev, arg, p):
    if not isinstance(arg, Name) or arg.ident in _VALUE_NAMES:
        raise TypeErrorValue("expected a name here", arg.start, arg.end)
    return arg.ident


def _mode(ev, arg, p):
    mode = _name(ev, arg, p)
    if mode not in ("ogf", "egf"):
        raise TypeErrorValue("triangle mode must be ogf or egf", arg.start, arg.end)
    return mode


def _items(arg):
    if not isinstance(arg, ListLit):
        raise TypeErrorValue("expected a list here", arg.start, arg.end)
    return arg.items


def _scalars(ev, arg, p):
    return [ev.scalar(item) for item in _items(arg)]


def _rows(ev, arg, p):
    rows = [_scalars(ev, row, p) for row in _items(arg)]
    if not rows:
        raise TypeErrorValue("a matrix needs at least one row", arg.start, arg.end)
    return rows


def _of(cls):
    """A value of class ``cls``, or one that stands for it."""

    def read(ev, arg, p):
        return ev.of(cls, arg, p)

    return read


def _builtin(fn, *readers, optional=0):
    """The handler that checks the arity, reads the arguments and applies
    ``fn``; the last ``optional`` arguments may be left to fn's defaults."""
    most = len(readers)
    least = most - optional

    def handler(ev: _Evaluator, node: Call, p: int):
        k = len(node.args)
        if not least <= k <= most:
            want = f"{least} or {most} arguments" if optional else f"{most} argument(s)"
            raise ArityError(
                f"{node.name} expects {want}, got {k}", node.start, node.end
            )
        args = [
            None if isinstance(read, _Sized) else read(ev, arg, p)
            for read, arg in zip(readers, node.args)
        ]
        for i, read in enumerate(readers[:k]):
            if isinstance(read, _Sized):
                n = args[readers.index(_count)]
                args[i] = ev.series(node.args[i], read.rule(n))
        return fn(*args)

    return handler


_BUILTINS = {
    "P": _builtin(transforms.pipeline_P, _ser_up),
    "partialP": _builtin(transforms.partial_P, _ser_up),
    "reverseP": _builtin(transforms.reverse_P, _ser_rev),
    "sumudu": _builtin(transforms.sumudu, _ser),
    "isumudu": _builtin(transforms.inverse_sumudu, _ser),
    "invert": _builtin(transforms.invert_transform, _ser, _scalar),
    "binom": _builtin(transforms.binomial_transform, _ser),
    "ibinom": _builtin(lambda f: transforms.binomial_transform(f, inverse=True), _ser),
    "revert": _builtin(Series.revert, _ser),
    "gfrev": _builtin(Series.gf_revert, _ser),
    "logd": _builtin(Series.log_derivative, _ser_up),
    "diff": _builtin(Series.derivative, _ser_up),
    "integ": _builtin(Series.integrate, _ser_down),
    "log": _builtin(Series.log, _ser),
    "exp": _builtin(Series.exp, _ser),
    "powq": _builtin(Series.pow_rational, _ser, _rational),
    # one exp each: exp(-f) = 1/exp(f)
    "cosh": _builtin(lambda f: ((e := f.exp()) + 1 / e) / 2, _ser),
    "sinh": _builtin(lambda f: ((e := f.exp()) - 1 / e) / 2, _ser),
    "jfrac": _builtin(cfrac.JFraction, _scalars, _scalars),
    "sfrac": _builtin(cfrac.SFraction, _scalars),
    "tojfrac": _builtin(cfrac.series_to_jfrac, _ser_order),
    "tosfrac": _builtin(cfrac.series_to_sfrac, _ser_order),
    "contract": _builtin(cfrac.contract_s_to_j, _of(cfrac.SFraction)),
    "deleham": _builtin(cfrac.deleham, _scalars, _scalars, _count),
    "deleham1": _builtin(cfrac.deleham_delta1, _scalars, _scalars, _count),
    "tinv": _builtin(cfrac.t_inverse, _scalar, _scalar, _scalar, _count),
    "tfwd": _builtin(cfrac.t_forward_image, _of(cfrac.JFraction)),
    "triangle": _builtin(  # the egf reading of a gf is its Sumudu transform
        lambda gf, n, mode="ogf": triangles.triangle_from_gf(
            transforms.sumudu(gf) if mode == "egf" else gf, n),
        _Sized(lambda n: n), _count, _mode, optional=1,
    ),
    "reverse": _builtin(triangles.reversal, _of(triangles.Triangle)),
    "matmul": _builtin(
        triangles.matmul, _of(triangles.Triangle), _of(triangles.Triangle)
    ),
    "inv": _builtin(triangles.tri_inverse, _of(triangles.Triangle)),
    "Bmat": _builtin(triangles.binomial_matrix, _count),
    "riordan": _builtin(
        lambda g, f, n: triangles.riordan_to_triangle(triangles.RiordanArray(g, f), n),
        _Sized(lambda n: max(n, 2)), _Sized(lambda n: max(n, 2)), _count,
    ),
    "eriordan": _builtin(
        lambda g, f, n: triangles.riordan_to_triangle(
            triangles.RiordanArray(g, f), n, exponential=True
        ),
        _Sized(lambda n: max(n, 2)), _Sized(lambda n: max(n, 2)), _count,
    ),
    "rapply": _builtin(
        lambda g, f, h: triangles.riordan_apply(triangles.RiordanArray(g, f), h),
        _ser, _ser, _ser,
    ),
    "prodmat": _builtin(
        lambda g, f, n: triangles.production_matrix(triangles.RiordanArray(g, f), n),
        _Sized(lambda n: n + 2), _Sized(lambda n: n + 2), _count,
    ),
    "recurrence": _builtin(
        triangles.recurrence_from_production, _of(triangles.SquareMatrix)
    ),
    "orthopoly": _builtin(
        triangles.orthopoly_triangle, _of(triangles.RecurrenceCoeffs), _count
    ),
    "oracle": _builtin(triangles.oracle, _name, _integer, _integer),
    "oracletri": _builtin(triangles.oracle_triangle, _name, _count),
    "matrix": _builtin(triangles.SquareMatrix, _rows),
    "matvec": _builtin(
        lambda m, vec: Series(m.apply(vec)),
        _of(triangles.SquareMatrix), _scalars,
    ),
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
