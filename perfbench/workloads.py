"""Seeded request lists for the three benchmark workloads.

A request is a gfpipe command line (the arguments after the program name)
together with how its output is checked: the value kind, the output format,
the expected exit code, and a function that computes the reference value
independently of the engine (see ``reference``).

Each family gets a fixed number of requests whose orders (or row counts)
form an even grid over the family's range; where a family has parameters,
they take turns along the sorted orders, so every seed pairs the same
order with the same parameter.  Output formats are used equally often.
The seed decides which request gets which format, arranges the numeric
entries of continued fractions and two-sequence triangles (each value
again used equally often), picks which fixtures the CLI workload uses
(evenly spread over the fixture list, a fixed quarter of them through
``fixtures --run``) and its invalid inputs (each class equally often), and
sets the order in which requests are sent.  Seeds therefore change the
inputs but hardly the amount of work, which keeps the run-to-run spread of
the timings small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import reference as ref

FORMATS = ("table", "csv", "json")

SEC3 = "(1+(r-1)*x)/((1-x)*(1+r*x))"
BELL = "1/(1+r*(1-exp(x)))"


@dataclass
class Request:
    family: str
    argv: list
    kind: str = "series"          # value kind printed on success
    fmt: str = "table"
    code: int = 0                 # expected exit code
    expect: Optional[Callable] = field(default=None, repr=False)
    prefix: bool = False          # expected lists are prefixes
    fixture: Optional[str] = None  # fixtures --run <ID>


def grid(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """count integers spread evenly over lo..hi, in a seeded order."""
    out = [lo + i * (hi - lo + 1) // count for i in range(count)]
    rng.shuffle(out)
    return out


def balanced(rng: random.Random, items, count: int) -> list:
    """count items, each of ``items`` used equally often (to within one)."""
    out = [items[i % len(items)] for i in range(count)]
    rng.shuffle(out)
    return out


def _eval(family, expr, order, fmt, kind="series", expect=None, **kw) -> Request:
    argv = ["eval", expr, "--order", str(order), "--format", fmt]
    return Request(family, argv, kind, fmt, expect=expect, **kw)


def _qtext(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"


def _qlist(vals) -> str:
    """A list literal of nonnegative rationals."""
    return "[" + ",".join(_qtext(Fraction(v)) for v in vals) + "]"


# -- qr_series ----------------------------------------------------------------------


def qr_series(rng: random.Random, per_family: int, scale: float) -> list:
    def orders(lo, hi):
        return grid(rng, lo, max(lo, int(hi * scale)), per_family)

    reqs = []

    def add(family, lo, hi, build):
        formats = balanced(rng, FORMATS, per_family)
        for n, fmt in zip(orders(lo, hi), formats):
            reqs.append(build(family, n, fmt))

    add("sumudu_P", 10, 20, lambda f, n, fmt: _eval(
        f, f"sumudu(P({SEC3}))", n, fmt, expect=lambda: ref.genbell_series(n)))
    add("gfrev", 10, 24, lambda f, n, fmt: _eval(
        f, "gfrev(1/(1+(r+1)*x+r*x^2))", n, fmt, expect=lambda: ref.narayana_series(n)))
    add("powq", 10, 24, lambda f, n, fmt: _eval(
        f, "powq(1+r*(1-exp(2*x)),0-1/2)", n, fmt, expect=lambda: ref.galton_series(n)))
    add("binom", 10, 24, lambda f, n, fmt: _eval(
        f, "binom(1/(1-r*x-x^2))", n, fmt, expect=lambda: ref.binom_series(n)))
    add("reverseP", 10, 20, lambda f, n, fmt: _eval(
        f, f"reverseP({BELL})", n, fmt, expect=lambda: ref.reverse_p_bell_series(n)))
    add("triangle_egf", 8, 20, lambda f, n, fmt: _eval(
        f, f"triangle({BELL},{n},egf)", 4, fmt, "triangle",
        expect=lambda: ref.a019538_triangle(n)))
    add("prodmat", 6, 12, lambda f, n, fmt: _eval(
        f, f"prodmat({BELL},(exp(x)-1)/(1+r*(1-exp(x))),{n})", 4, fmt, "matrix",
        expect=lambda: ref.ordered_bell_prodmat(n)))
    add("eriordan", 8, 16, lambda f, n, fmt: _eval(
        f, f"eriordan({BELL},(exp(x)-1)/(1+r*(1-exp(x))),{n})", 4, fmt, "triangle",
        expect=lambda: ref.bell_eriordan(n)))
    return reqs


# -- q_fractions ----------------------------------------------------------------------

_BELL_PARAMS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2))
_SMALL = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2))
_ALGEBRA = ("inv_b2", "b2", "inv_b", "riordan", "inv_riordan", "riordan_b")


def _bell_family(c: Fraction) -> str:
    t = _qtext(c)
    return f"sumudu(P((1+({t}-1)*x)/((1-x)*(1+{t}*x))))"


def q_fractions(rng: random.Random, per_family: int, scale: float) -> list:
    def family(lo, hi, params=(None,)):
        """(order, format, parameter) triples of one family.  The parameters
        take turns along the sorted orders, so each order gets the same
        parameter whatever the seed and seeds do not change the work."""
        orders = sorted(grid(rng, lo, max(lo, int(hi * scale)), per_family))
        return [(n, fmt, params[i % len(params)])
                for i, (n, fmt) in enumerate(zip(orders, balanced(rng, FORMATS, per_family)))]

    def entries(count):
        return balanced(rng, _SMALL, count)

    reqs = []
    for n, fmt, c in family(12, 22, _BELL_PARAMS):
        reqs.append(_eval("tojfrac", f"tojfrac({_bell_family(c)})", n, fmt, "jfrac",
                          expect=lambda c=c, n=n: ref.bell_jfrac(c, n)))
    for n, fmt, c in family(12, 22, _BELL_PARAMS):
        reqs.append(_eval("tosfrac", f"tosfrac({_bell_family(c)})", n, fmt, "sfrac",
                          expect=lambda c=c, n=n: ref.bell_sfrac(c, n)))
    for n, fmt, _ in family(14, 28):
        b, lam = entries(n // 2 + 1), entries((n - 1) // 2 + 1)
        reqs.append(_eval(
            "jfrac_eval", f"jfrac({_qlist(b)},{_qlist(lam)})*1", n, fmt,
            expect=lambda b=b, lam=lam, n=n: ref.ring_values(ref.jfrac_tableau(b, lam, n))))
    for n, fmt, _ in family(12, 24):
        s = entries(n - 1)
        reqs.append(_eval(
            "sfrac_eval", f"sfrac({_qlist(s)})*1", n, fmt,
            expect=lambda s=s, n=n: ref.ring_values(ref.sfrac_tableau(s, n))))
    for n, fmt, _ in family(14, 26):
        s = entries(n)
        reqs.append(_eval(
            "contract", f"contract(sfrac({_qlist(s)}))*1", n, fmt,
            expect=lambda s=s, n=n: ref.ring_values(ref.sfrac_tableau(s, n))))
    for n, fmt, _ in family(14, 28):
        a, b, c = entries(3)
        bs = [a + k * b for k in range(n)]
        lams = [c * k * k for k in range(1, n + 1)]
        reqs.append(_eval(
            "tinv", f"tinv({_qtext(a)},{_qtext(b)},{_qtext(c)},{n})*1", n, fmt,
            expect=lambda bs=bs, lams=lams, n=n: ref.ring_values(ref.jfrac_tableau(bs, lams, n))))
    for n, fmt, one in family(8, 16, (False, True)):
        rs = balanced(rng, range(4), n + one)
        ss = balanced(rng, range(4), n + one)
        name = "deleham1" if one else "deleham"
        build = ref.deleham1_triangle if one else ref.deleham_triangle
        reqs.append(_eval(
            "deleham", f"{name}({_qlist(rs)},{_qlist(ss)},{n})", 4, fmt, "triangle",
            expect=lambda rs=rs, ss=ss, n=n, build=build: build(rs, ss, n)))
    for i, (n, fmt, op) in enumerate(family(18, 28, _ALGEBRA)):
        c = _SMALL[i % len(_SMALL)]
        riordan = f"riordan(1/(1-{_qtext(c)}*x),x/(1-{_qtext(c)}*x),{n})"
        expr, base = {
            "inv_b2": (f"inv(matmul(Bmat({n}),Bmat({n})))", Fraction(-2)),
            "b2": (f"matmul(Bmat({n}),Bmat({n}))", Fraction(2)),
            "inv_b": (f"inv(Bmat({n}))", Fraction(-1)),
            "riordan": (riordan, c),
            "inv_riordan": (f"inv({riordan})", -c),
            "riordan_b": (f"matmul({riordan},Bmat({n}))", c + 1),
        }[op]
        reqs.append(_eval(
            "triangle_algebra", expr, 4, fmt, "triangle",
            expect=lambda n=n, base=base: ref.binomial_power_triangle(n, base)))
    return reqs


# -- cli_roundtrip ----------------------------------------------------------------------

# kind printed by a build whose outermost call is one of these; else a series
_HEAD_KINDS = {"jfrac": "jfrac", "contract": "jfrac", "tinv": "jfrac", "tfwd": "jfrac",
               "tojfrac": "jfrac", "sfrac": "sfrac", "tosfrac": "sfrac"}


def _head(build: str) -> Optional[str]:
    """Name of the call that spans the whole expression, if there is one."""
    name, paren, _ = build.partition("(")
    if not paren or not name.isidentifier():
        return None
    depth = 0
    for i, ch in enumerate(build):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and ch == ")":
            return name if i == len(build) - 1 else None
    return None


def _lit(v) -> tuple:
    if isinstance(v, int):
        return ref.const(v)
    if isinstance(v, str):
        return ref.const(Fraction(v))
    return ref.ptrim(int(c) for c in v)


def fixture_value(fx):
    """A fixture's transcribed table in the reference shape."""
    if fx.kind in ("series", "sfrac"):
        return [_lit(v) for v in fx.expected]
    if fx.kind == "jfrac":
        b, lam = fx.expected
        return [_lit(v) for v in b], [_lit(v) for v in lam]
    return [[_lit(v) for v in row] for row in fx.expected]


def fixture_order(fx) -> int:
    if fx.order is not None:
        return fx.order
    if fx.kind == "series":
        return len(fx.expected)
    return max(len(fx.expected), 4)


def usable_fixtures(fixtures) -> list:
    """Fixtures whose build prints a value of the fixture's own kind."""
    return [fx for fx in fixtures
            if fx.kind not in ("series", "jfrac", "sfrac")
            or _HEAD_KINDS.get(_head(fx.build), "series") == fx.kind]


# invalid inputs from the documented error classes; {k} is chosen by the seed
_INVALID = (
    ("parse", 2, "sumudu(P(1/(1-{k}*x^2))", None),
    ("parse", 2, "1/(1-{k}*x))", None),
    ("parse", 2, "1/(1-x^^{k})", None),
    ("parse", 2, "1/(1-{k}*x)$", None),
    ("arity", 2, "sumudu(1/(1-x),{k})", None),
    ("arity", 2, "tinv(1,2,{k})", None),
    ("arity", 2, "powq(1+{k}*x)", None),
    ("unknown", 2, "sumud(1/(1-{k}*x))", None),
    ("unknown", 2, "Exp({k}*x)", None),
    ("pole", 1, "1/(1-x/(r-{k}))", "r={k}"),
    ("pole", 1, "x/({k}-r)", "r={k}"),
    ("nonreversible", 1, "revert({k}+x)", None),
    ("nonreversible", 1, "gfrev(x^{k})", None),
    ("nonreversible", 1, "revert(x^{k1})", None),
    ("singular", 1, "inv(triangle(x/(1-x),{k1},ogf))", None),
    ("singular", 1, "inv(matmul(Bmat({k1}),triangle(x^2,{k1},ogf)))", None),
)


def cli_roundtrip(rng: random.Random, count: int, fixtures) -> list:
    fixtures = usable_fixtures(fixtures)
    n_invalid = max(1, count // 10)
    n_valid = count - n_invalid
    # fixtures spread evenly over the list from a seeded start, a quarter of
    # them run through ``fixtures --run``: seeds change which fixtures, not the mix
    start = rng.randrange(len(fixtures))
    picked = [fixtures[(start + i * len(fixtures) // n_valid) % len(fixtures)]
              for i in range(n_valid)]
    runs = set(rng.sample(range(n_valid), n_valid // 4))
    formats = balanced(rng, FORMATS, count)
    reqs = []
    for cls, code, template, set_r in balanced(rng, _INVALID, n_invalid):
        k = rng.randint(2, 5)
        expr = template.format(k=k, k1=k + 1)
        fmt = formats.pop()
        argv = ["eval", expr, "--format", fmt]
        if set_r:
            argv += ["--set", set_r.format(k=k)]
        reqs.append(Request(f"invalid_{cls}", argv, "error", fmt, code))
    for i, fx in enumerate(picked):
        fmt = formats.pop()
        if i in runs:
            argv = ["fixtures", "--run", fx.id, "--format", fmt]
            reqs.append(Request("fixtures_run", argv, "report", fmt, fixture=fx.id))
            continue
        argv = ["eval", fx.build, "--order", str(fixture_order(fx)), "--format", fmt]
        if fx.set_r is not None:
            argv += ["--set", f"r={fx.set_r}"]
        reqs.append(Request("fixture_eval", argv, fx.kind, fmt,
                            expect=lambda fx=fx: fixture_value(fx), prefix=fx.prefix))
    return reqs


def build(workload: str, seed: int, quick: bool = False, fixtures=()) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "qr_series":
        reqs = qr_series(rng, 4 if quick else 15, 0.6 if quick else 1.0)
    elif workload == "q_fractions":
        reqs = q_fractions(rng, 4 if quick else 26, 0.6 if quick else 1.0)
    elif workload == "cli_roundtrip":
        reqs = cli_roundtrip(rng, 20 if quick else 100, fixtures)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


WORKLOADS = ("qr_series", "q_fractions", "cli_roundtrip")
