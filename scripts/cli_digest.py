#!/usr/bin/env python3
"""Print a digest of the CLI's behaviour on a fixed corpus, one line per call.

Each line holds, separated by tabs: the exit code, the first 16 hex digits
of the SHA-256 of stdout, stderr with its backslashes, newlines and tabs
escaped, and the argv as JSON.  The corpus is every golden fixture build
in table, csv and json (at the order the fixture runner uses, with the
fixture's r), ``fixtures --list`` and ``fixtures --run`` in each format,
one input per documented error class, and the cases of names and
triangle modes.  All calls run through ``cli_main`` in one process, with
no randomness, so two checkouts that behave alike print identical
digests:

    PYTHONPATH=old/src python scripts/cli_digest.py > old.txt
    PYTHONPATH=new/src python scripts/cli_digest.py > new.txt
    diff old.txt new.txt

The script reads nothing of gfpipe but ``cli_main`` and the fixture rows,
so it runs on an older checkout's src too.
"""

import contextlib
import hashlib
import io
import json

from gfpipe.cli import cli_main
from gfpipe.fixtures import all_fixtures

FORMATS = ("table", "csv", "json")

EDGE_CASES = [
    # one input per documented error class
    ["eval", "1+*2"],                              # parse
    ["eval", "exp(x,x)"],                          # arity
    ["eval", "y"],                                 # unknown name
    ["eval", "foo(x)"],                            # unknown function
    ["eval", "1/(1-x/r)", "--set", "r=0"],         # pole
    ["eval", "revert(1+x)"],                       # non-reversible
    ["eval", "inv(triangle(x,3))"],                # singular
    ["eval", "x^" + "9" * 5000],                   # overlong literal
    ["eval", "\u00b2+x"],                          # non-ASCII digit
    ["eval", "x", "--order", "0"],                 # --order 0
    ["fixtures", "--run", "nope"],                 # unknown fixture id
    # x and r are the two names with a value
    ["eval", "x"],
    ["eval", "r"],
    ["eval", "r*x-x*r+x^2/(1-r)"],
    ["eval", "xr"],
    ["eval", "x(1)"],
    ["eval", "r(2)"],
    ["eval", "exp(x(1))"],
    ["eval", "triangle(1/(1-x),3,x)"],
    ["eval", "oracle(r,1,1)"],
    ["eval", "oracle(N1,r,1)"],
    ["eval", "invert(1/(1-r),x)"],
    ["eval", "powq(1-4*x,r)"],
    # triangle modes and the binomial pair
    ["eval", "triangle(1/(1-x*(1+r)),4)"],
    ["eval", "triangle(1/(1-x*(1+r)),4,ogf)"],
    ["eval", "triangle(1/(1+r*(1-exp(x))),5,egf)"],
    ["eval", "triangle(1/(1-x),3,foo)"],
    ["triangle", "1/(1+r*(1-exp(x)))", "--rows", "5", "--mode", "egf"],
    # a usage error: a triangle's entries hold no r, so only eval has --set
    ["triangle", "exp(r*x)", "--rows", "4", "--mode", "egf", "--set", "r=2"],
    ["eval", "triangle(exp(r*x),4,egf)", "--set", "r=2"],
    ["triangle", "1/(1-x/r)", "--rows", "3"],
    ["eval", "binom(1/(1-r*x))"],
    ["eval", "ibinom(1/(1-r*x))"],
    ["eval", "binom(ibinom(x))", "--format", "json"],
    # continued fractions with rational-constant weights, and one with r
    ["eval", "jfrac([(1/2),(2/3),(0-1/5),7,0,(3/8)],[(3/4),(1/6),2,(0-5/9),(1/7)])*1",
     "--order", "12"],
    ["eval", "sfrac([1,(1/2),0,3])*1", "--order", "10"],
    ["eval", "contract(sfrac([(1/3),2,(0-1/2),(5/7),1,(2/9)]))*1", "--order", "12"],
    ["eval", "tinv((1/3),2,(5/2),10)*1", "--order", "20"],
    ["eval", "jfrac([1,r,(1/2)],[(1/3),r+1])*1", "--order", "10"],
    # triangles on the integer route and at its boundary: a non-unit
    # diagonal, a rational factor, an exponential array, a single row
    ["eval", "inv(triangle(1/(1-x-2*r*x),5,ogf))"],
    ["eval", "matmul(Bmat(6),riordan(1/(1-(1/2)*x),x/(1-(1/2)*x),6))"],
    ["eval", "eriordan(1/(1-x),x/(1-x),6)"],
    ["eval", "inv(Bmat(1))"],
    # the evaluator's arithmetic at its boundaries: a call under an
    # operator, a zero divisor in Q(r) and in a series, precision 0
    ["eval", "oracle(N1,3,1)+1", "--order", "3"],
    ["eval", "x*oracle(N1,3,1)", "--order", "3"],
    ["eval", "sumudu(3)*x", "--order", "3"],
    ["eval", "(r-1)^0", "--order", "3"],
    ["eval", "x/(r-r)"],
    ["eval", "1/(sumudu(1)-1)"],
    ["eval", "(1/0)^2"],
    ["eval", "contract(1+1)"],
    ["eval", "integ(2*r)", "--order", "1"],
    ["eval", "tinv(oracle(N1,2,1)*r,1,1,3)"],
    # a divisor read at precision 0: a zero in Q(r) is reported, a series
    # divisor (a call under it) gives the empty quotient
    ["eval", "integ(1/0)", "--order", "1"],
    ["eval", "integ(1/(r-r))", "--order", "1"],
    ["eval", "integ(1/(sumudu(1)-1))", "--order", "1"],
    # the fixture list in the formats besides the table
    ["fixtures", "--list", "--format", "csv"],
    ["fixtures", "--list", "--format", "json"],
]


def fixture_order(fx) -> int:
    """The order the fixture runner evaluates ``fx`` at, as
    gfpipe.fixtures.fixture_order gives it."""
    if fx.order is not None:
        return fx.order
    if fx.kind == "series":
        return len(fx.expected)
    return max(len(fx.expected) if fx.kind != "fieldelem" else 0, 4)


def fixture_argv(fx, fmt: str) -> list:
    argv = ["eval", fx.build, "--order", str(fixture_order(fx)), "--format", fmt]
    if fx.set_r is not None:
        argv += ["--set", f"r={fx.set_r}"]
    return argv


def corpus() -> list:
    calls = [fixture_argv(fx, fmt) for fx in all_fixtures() for fmt in FORMATS]
    calls.append(["fixtures", "--list"])
    calls += [["fixtures", "--run", "--format", fmt] for fmt in FORMATS]
    return calls + EDGE_CASES


def digest_line(argv) -> str:
    """The digest of one ``cli_main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    escaped = err.getvalue()
    for ch, esc in (("\\", "\\\\"), ("\n", "\\n"), ("\t", "\\t")):
        escaped = escaped.replace(ch, esc)
    return "\t".join([str(code), sha, escaped, json.dumps(argv)])


def main() -> None:
    for argv in corpus():
        print(digest_line(argv))


if __name__ == "__main__":
    main()
