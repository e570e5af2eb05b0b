#!/usr/bin/env python3
"""Time the headline expressions of ROADMAP.md at the given orders.

Each cell is the median of three ``evaluate_text`` runs in this process,
in ms; the output is one Markdown table row per expression:

    PYTHONPATH=src python3 scripts/headline.py          # orders 32 48 64
    PYTHONPATH=src python3 scripts/headline.py 8 16

To compare two checkouts, run it on each back to back: the host's speed
drifts, so only rows measured in one session compare.
"""

import argparse
import statistics
import time

from gfpipe.dsl import Env, evaluate_text

EXPRESSIONS = (
    "sumudu(P(1/(1-x^2)))",
    "sumudu(P((1+(r-1)*x)/((1-x)*(1+r*x))))",
    "tojfrac(sumudu(P((1+(r-1)*x)/((1-x)*(1+r*x)))))",
    "gfrev(1/(1+(r+1)*x+r*x^2))",
    "powq(1+r*(1-exp(2*x)),0-1/2)",
    "binom(1/(1-r*x-(r-1)*x^2))",
    "tinv(1,r+1,r,64)*1",
    "tinv(1,2,(1/2),64)*1",
    "inv(riordan(1/(1-x-x^2),x/(1-x),64))",
)


def median_ms(expr: str, order: int, runs: int = 3) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        evaluate_text(expr, Env(order=order))
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="time the ROADMAP headline expressions")
    ap.add_argument("orders", nargs="*", type=int, default=[32, 48, 64])
    args = ap.parse_args(argv)
    if any(n < 1 for n in args.orders):
        ap.error("orders must be at least 1")
    print("| expression | " + " | ".join(f"order {n}" for n in args.orders) + " |")
    print("|---|" + "---|" * len(args.orders))
    for expr in EXPRESSIONS:
        cells = [f"{median_ms(expr, n):,.0f}" for n in args.orders]
        print(f"| `{expr}` | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
