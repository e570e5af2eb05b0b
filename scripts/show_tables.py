#!/usr/bin/env python3
"""Print a tour of the classical tables the engine reproduces.

Each block evaluates one expression exactly over Q(r) and renders it in
table form; pass --format csv/json to change the rendering.
"""

import argparse

from gfpipe.dsl import Env, evaluate_text
from gfpipe.formats import format_value

TOUR = [
    ("ordered set partitions (Fubini), pipeline image of 1/(1-x^2)",
     "sumudu(P(1/(1-x^2)))", 10),
    ("generalized ordered Bell polynomials",
     "sumudu(P((1+(r-1)*x)/((1-x)*(1+r*x))))", 7),
    ("Narayana triangle (A001263)",
     "triangle(gfrev(1/(1+(r+1)*x+r*x^2)),7,ogf)", 7),
    ("Eulerian triangle (A008292)",
     "deleham1([0,1,0,2,0,3,0],[1,0,2,0,3,0,4],7)", 7),
    ("set compositions k!S(n,k) (A019538)",
     "triangle(1/(1+r*(1-exp(x))),7,egf)", 7),
    ("stellahedra h-polynomials (A046802)",
     "triangle(tinv(r+1,r+1,r,4),7,ogf)", 7),
    ("Galton triangle (A211402)",
     "triangle(powq(1+r*(1-exp(2*x)),0-1/2),8,egf)", 8),
    ("Jacobi fraction of the Fubini numbers",
     "tojfrac(sumudu(P(1/(1-x^2))))", 9),
    ("production matrix of the ordered-Bell moment array",
     "prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),6)", 8),
    ("monic orthogonal polynomials for those moments",
     "orthopoly(prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),6),5)",
     8),
]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--format", choices=("table", "csv", "json"),
                    default="table")
    args = ap.parse_args(argv)
    for title, expr, order in TOUR:
        print(f"== {title}")
        print(f"   {expr}")
        value = evaluate_text(expr, Env(order=order))
        print(format_value(value, args.format))
        print()


if __name__ == "__main__":
    main()
