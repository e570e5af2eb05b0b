#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and test a claim.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload q_fractions \\
        --seed 1 --pairs 10 [--seconds 30] [--out rows.json]

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` started in the root of one checkout, with
PYTHONDONTWRITEBYTECODE=1; pair i runs the parent first when i is odd and
the change first when i is even.  The last line of each run, its JSON
result, becomes one row.  For each end-to-end metric of the change's
BENCHMARK.json the summary prints each side's median and quartiles, the
number of pairs the change wins, and whether a gain may be claimed
(``perfbench/README.md``, *Making a claim*): the change wins at least 9
of every 10 pairs, and its median is better than the parent's by more
than the parent's interquartile range.  ``--out`` writes the rows and the summary as JSON,
the raw material of a ``BENCH_<pr>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one benchmark run in the checkout at root."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"benchmark failed in {root} (exit {p.returncode}):\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()}}


def quartiles(values) -> tuple:
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(rows, end_to_end) -> dict:
    """Per metric: each side's quartiles, the change's wins over the pairs
    and whether the claim rule holds.  rows are dicts with ``pair``,
    ``side`` and ``metrics``; end_to_end is BENCHMARK.json's list."""
    by_pair = {}
    for row in rows:
        by_pair.setdefault(row["pair"], {})[row["side"]] = row["metrics"]
    pairs = [p for _, p in sorted(by_pair.items()) if all(s in p for s in SIDES)]
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        sides = {}
        for side in SIDES:
            q1, med, q3 = quartiles([p[side][name] for p in pairs])
            sides[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in pairs)
        gain = sign * (sides["parent"]["median"] - sides["change"]["median"])
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {
            **sides,
            "pairs": len(pairs),
            "change_wins": wins,
            "median_change_rel": sides["change"]["median"] / sides["parent"]["median"] - 1,
            "claim_holds": 10 * wins >= 9 * len(pairs) and gain > iqr,
        }
    return out


def report(summary) -> str:
    lines = []
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        lines.append(
            f"{name:<12} parent {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}]  "
            f"change {c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]  "
            f"{s['median_change_rel']:+.1%}  wins {s['change_wins']}/{s['pairs']}  "
            f"claim {'holds' if s['claim_holds'] else 'does not hold'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", help="write the rows and the summary here as JSON")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent_dir, "change": args.change_dir}
    rows = []
    for pair in range(1, args.pairs + 1):
        for side in (SIDES if pair % 2 else SIDES[::-1]):
            row = {"pair": pair, "side": side,
                   **run_once(roots[side], args.workload, args.seed, args.seconds)}
            rows.append(row)
            print(f"pair {pair} {side}: " + " ".join(
                f"{k} {v:.5g}" for k, v in row["metrics"].items())
                + f" failed {row['failed']}/{row['attempted']}", flush=True)
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        summary = summarize(rows, json.load(fh)["end_to_end"])
    print(report(summary))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "rows": rows, "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
