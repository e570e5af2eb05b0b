import importlib.util
import pathlib

from pytest import approx

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score", "unit": "count", "better": "higher", "bound": 0.25},
]
PARENT = [0.50, 0.52, 0.49, 0.51, 0.50, 0.53, 0.50, 0.51, 0.52, 0.50]


def rows(parent, change, score=(1.0, 1.0)):
    """Canned rows in run order: pair i holds parent[i] and change[i], the
    parent first in odd pairs; every row scores score[0] on the parent's
    side and score[1] on the change's."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change), 1):
        sides = (("parent", p, score[0]), ("change", c, score[1]))
        for side, v, s in sides[:: 1 if i % 2 else -1]:
            out.append({"pair": i, "side": side, "correct": True, "attempted": 10,
                        "failed": 0, "metrics": {"total_s": v, "score": s}})
    return out


def test_a_clear_gain_meets_the_claim_rule():
    change = [0.40, 0.41, 0.42, 0.40, 0.39, 0.41, 0.40, 0.53, 0.41, 0.40]
    summary = bench_pairs.summarize(rows(PARENT, change), END_TO_END)
    s = summary["total_s"]
    assert s["pairs"] == 10 and s["change_wins"] == 9
    assert s["parent"] == {"median": approx(0.505), "q1": approx(0.50), "q3": approx(0.5175)}
    assert s["change"]["median"] == approx(0.405)
    assert s["median_change_rel"] == approx(0.405 / 0.505 - 1)
    assert s["claim_holds"]
    # equal values win no pair
    assert summary["score"]["change_wins"] == 0 and not summary["score"]["claim_holds"]
    first = bench_pairs.report(summary).splitlines()[0]
    assert first.startswith("total_s") and first.endswith("wins 9/10  claim holds")


def test_eight_wins_of_ten_do_not_make_a_claim():
    change = [0.40, 0.41, 0.42, 0.40, 0.39, 0.54, 0.40, 0.53, 0.41, 0.40]
    s = bench_pairs.summarize(rows(PARENT, change), END_TO_END)["total_s"]
    assert s["change_wins"] == 8 and not s["claim_holds"]


def test_a_gain_inside_the_parents_spread_does_not_make_a_claim():
    # wins every pair, but the median gap 0.01 is below the parent IQR 0.0175
    change = [v - 0.01 for v in PARENT]
    s = bench_pairs.summarize(rows(PARENT, change), END_TO_END)["total_s"]
    assert s["change_wins"] == 10 and not s["claim_holds"]


def test_higher_is_better_and_unpaired_rows_are_left_out():
    canned = rows(PARENT, [v / 2 for v in PARENT], score=(10.0, 20.0))
    canned.append({"pair": 11, "side": "parent", "correct": True, "attempted": 10,
                   "failed": 0, "metrics": {"total_s": 9.0, "score": 99.0}})
    summary = bench_pairs.summarize(canned, END_TO_END)
    assert summary["score"]["pairs"] == 10 and summary["score"]["change_wins"] == 10
    assert summary["score"]["claim_holds"]
    assert summary["total_s"]["parent"]["median"] == approx(0.505)
