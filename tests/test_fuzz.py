"""Grammar fuzzer: random calls of ``cli_main`` over README's grammar.

Every builtin is called with arguments of the right sorts and, now and
then, with one argument of a wrong sort or one argument too many or too
few; lists, names, nesting at the MAX_NESTING / MAX_DEPTH limits, every
format and ``--set`` values are mixed in.  Whatever the input, the call
must end in exit code 0, 1 or 2, never in a traceback, and a nonzero
exit must print ``error:`` on stderr.

Nothing bounds the cost of a call yet, so every count, integer argument,
order and row count stays at 6 or below: those positions draw only from
small literals or from wrong sorts that fail before any work is done.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gfpipe.cli import cli_main
from gfpipe.dsl import BUILTIN_NAMES, MAX_DEPTH, MAX_INT_EXPONENT, MAX_NESTING

# sort of each argument, sort of the result; "count" and "int" positions
# size the work, so they never receive a generated expression
SIGNATURES = {
    "P": (("series",), "series"),
    "partialP": (("series",), "series"),
    "reverseP": (("series",), "series"),
    "sumudu": (("series",), "series"),
    "isumudu": (("series",), "series"),
    "invert": (("series", "scalar"), "series"),
    "binom": (("series",), "series"),
    "ibinom": (("series",), "series"),
    "revert": (("series",), "series"),
    "gfrev": (("series",), "series"),
    "logd": (("series",), "series"),
    "diff": (("series",), "series"),
    "integ": (("series",), "series"),
    "log": (("series",), "series"),
    "exp": (("series",), "series"),
    "powq": (("series", "scalar"), "series"),
    "cosh": (("series",), "series"),
    "sinh": (("series",), "series"),
    "jfrac": (("list", "list"), "jfrac"),
    "sfrac": (("list",), "sfrac"),
    "tojfrac": (("series",), "jfrac"),
    "tosfrac": (("series",), "sfrac"),
    "contract": (("sfrac",), "jfrac"),
    "deleham": (("list", "list", "count"), "triangle"),
    "deleham1": (("list", "list", "count"), "triangle"),
    "tinv": (("scalar", "scalar", "scalar", "count"), "jfrac"),
    "tfwd": (("jfrac",), "jfrac"),
    "triangle": (("series", "count", "mode"), "triangle"),
    "reverse": (("triangle",), "triangle"),
    "matmul": (("triangle", "triangle"), "triangle"),
    "inv": (("triangle",), "triangle"),
    "Bmat": (("count",), "triangle"),
    "riordan": (("series", "series", "count"), "triangle"),
    "eriordan": (("series", "series", "count"), "triangle"),
    "rapply": (("series", "series", "series"), "series"),
    "prodmat": (("series", "series", "count"), "matrix"),
    "recurrence": (("matrix",), "recurrence"),
    "orthopoly": (("recurrence", "count"), "triangle"),
    "oracle": (("name", "int", "int"), "scalar"),
    "oracletri": (("name", "count"), "triangle"),
    "matrix": (("rows",), "matrix"),
    "matvec": (("matrix", "list"), "series"),
}

# sorts a builtin result may fill, besides its own
STANDS_FOR = {
    "series": ("series", "scalar", "jfrac", "sfrac"),
    "recurrence": ("recurrence", "matrix"),
}

SIZED = ("count", "int")
# invalid sizes and wrong sorts for a sized position fail before any work
BAD_SIZE = st.sampled_from(
    ["0", "0-1", "1/2", "r", "x", "[1]", "ogf", "Bmat(2)", "1/(1-x)",
     "jfrac([1],[1])", "matrix([[1]])"])
GOOD_SIZE = st.sampled_from(["1", "2", "3", "4", "6"])
# series that meet the usual preconditions (f(0) = 1, or f(0) = 0 and
# f'(0) != 0), so that calls get past them
GOOD = st.sampled_from(
    ["1/(1-x)", "1/(1-x^2)", "1/(1-r*x)", "x/(1-x)", "x+r*x^2", "exp(x)-1",
     "1/(1+r*(1-exp(x)))", "(1+(r-1)*x)/((1-x)*(1+r*x))"])
NAMES = st.sampled_from(
    ["N1", "N2", "N3", "E1", "E2", "E3", "stirling2", "A019538", "A086810",
     "A028246ext", "A130850", "A090582signed", "galton", "A096078",
     "etude2_seq", "nope"])
MODES = st.sampled_from(["ogf", "egf", "ogf", "egf", "foo"])
DIGITS = st.sampled_from([str(d) for d in range(7)])
EXPONENTS = st.sampled_from(["0", "1", "2", "3", "6", str(MAX_INT_EXPONENT + 1)])
SORTS = ("series", "scalar", "jfrac", "sfrac", "triangle", "matrix",
         "recurrence", "list", "rows", "name", "mode", "count")


def once_in(draw, n):
    """True about once in n draws (Hypothesis favours the ends of a range,
    so the rare case is the middle value)."""
    return draw(st.integers(0, n - 1)) == n // 2


def makers(sort):
    return [name for name, (_, out) in SIGNATURES.items()
            if out in STANDS_FOR.get(sort, (sort,))]


@st.composite
def call(draw, name, depth):
    sorts, _ = SIGNATURES[name]
    args = [draw(expr(s, depth - 1)) for s in sorts]
    if once_in(draw, 20):
        args.pop(draw(st.integers(0, len(args) - 1)))
    elif once_in(draw, 20):
        args.append(draw(expr(draw(st.sampled_from(SORTS)), 0)))
    return f"{name}({','.join(args)})"


@st.composite
def expr(draw, sort, depth):
    if sort in SIZED:
        return draw(BAD_SIZE if once_in(draw, 10) else GOOD_SIZE)
    if once_in(draw, 20):
        sort = draw(st.sampled_from(SORTS[:-1]))
    if sort == "name":
        return draw(NAMES)
    if sort == "mode":
        return draw(MODES)
    if sort in ("list", "rows"):
        item = "list" if sort == "rows" else "scalar"
        items = draw(st.lists(expr(item, max(depth - 1, 0)),
                              min_size=0 if once_in(draw, 10) else 1, max_size=6))
        return "[" + ",".join(items) + "]"
    choice = draw(st.integers(0, 6 if depth > 0 else 1))
    if sort in ("series", "scalar") and choice == 0:
        atoms = ["r"] if sort == "scalar" else ["x", "r"]
        return draw(st.one_of(DIGITS, st.sampled_from(atoms)))
    if sort in ("series", "scalar") and choice == 1:
        return draw(GOOD) if sort == "series" else draw(DIGITS)
    if sort in ("series", "scalar") and choice == 2:
        left, right = draw(expr(sort, depth - 1)), draw(expr(sort, depth - 1))
        return f"{left}{draw(st.sampled_from('+-*/'))}{right}"
    if sort in ("series", "scalar") and choice == 3:
        return f"({draw(expr(sort, depth - 1))})^{draw(EXPONENTS)}"
    names = makers(sort)
    if depth == 0:  # the cheapest maker of the sort
        return {"series": "x", "scalar": "1", "jfrac": "jfrac([1],[1])",
                "sfrac": "sfrac([1])", "triangle": "Bmat(2)",
                "matrix": "matrix([[1]])",
                "recurrence": "matrix([[1]])"}[sort]
    return draw(call(draw(st.sampled_from(names)), depth))


@st.composite
def deep(draw):
    """An expression at the nesting and depth limits, give or take one."""
    k = draw(st.sampled_from([-1, 0, 1]))
    shape = draw(st.integers(0, 2))
    if shape == 0:
        wrap = draw(st.sampled_from(["", "exp", "sumudu", "diff", "binom"]))
        n = MAX_NESTING + k
        return f"{wrap}(" * n + draw(expr("series", 1)) + ")" * n
    if shape == 1:
        n = MAX_NESTING + k - 1
        return "sfrac(" + "[" * n + "1" + "]" * n + ")"
    return "+".join(draw(st.sampled_from(["x", "r", "1"]))
                    for _ in range(MAX_DEPTH + 1 + k))


@st.composite
def mutated(draw, text):
    """``text`` with one bracket dropped or one non-digit character added;
    neither can join two digits into a larger count."""
    brackets = [i for i, ch in enumerate(text) if ch in "()[]"]
    if brackets and draw(st.booleans()):
        i = draw(st.sampled_from(brackets))
        return text[:i] + text[i + 1:]
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from("()[],+-*/^xr $")) + text[i:]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["eval", "eval", "eval", "triangle", "fixtures"]))
    fmt = ["--format", draw(st.sampled_from(["table", "csv", "json"] * 3 + ["xml"]))]
    if command == "fixtures":
        what = draw(st.sampled_from([
            ["--list"], ["--run", "fubini-pipeline"], ["--run", "nope"],
            ["--run", "a019538", "galton"], ["--run", "--set", "r=2"]]))
        return ["fixtures", *what, *fmt]
    sort = "series"
    if command == "eval" and once_in(draw, 2):
        sort = draw(st.sampled_from(SORTS))
    text = draw(deep() if once_in(draw, 10) else expr(sort, 3))
    if once_in(draw, 20):
        text = draw(mutated(text))
    size = draw(st.sampled_from(["1", "2", "3", "4", "5", "6"] * 3 + ["0"]))
    if command == "eval":
        argv = ["eval", text, "--order", size]
    else:
        argv = ["triangle", text, "--rows", size, "--mode", draw(MODES)]
    set_r = draw(st.sampled_from(
        [[]] * 6 + [["--set", "r=2"], ["--set", "r=1/2"], ["--set", "r=0"],
                    ["--set", "r=-1"], ["--set", "r=1/0"], ["--set", "s=1"]]))
    return argv + set_r + fmt


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_builtin_has_a_signature():
    assert set(SIGNATURES) == set(BUILTIN_NAMES)


@given(argvs())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_call_ends_in_an_exit_code_and_a_diagnostic(argv):
    code, out, err = outcome(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code:
        assert "error:" in err, argv
