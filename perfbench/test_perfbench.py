"""Tests of the benchmark itself:  python3 -m pytest -q perfbench

They run the benchmark in quick mode, so they check plumbing and
correctness, never speed.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gfpipe import triangles  # noqa: E402
from gfpipe.dsl import Env, evaluate_text  # noqa: E402
from gfpipe.fixtures import all_fixtures  # noqa: E402
from gfpipe.formats import format_value  # noqa: E402


def bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                       capture_output=True, text=True, cwd=cwd, timeout=170)
    return p


def result(*args):
    p = bench(*args)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


# -- references -------------------------------------------------------------------


def _oracle_poly(name, n):
    return ref.ptrim(triangles.oracle(name, n, k).as_fraction() for k in range(n + 1))


@pytest.mark.parametrize("name, series, scale", [
    ("A019538", ref.genbell_series, False),
    ("N3", ref.narayana_series, False),
    ("galton", ref.galton_series, True),
])
def test_closed_forms_match_the_package_oracles(name, series, scale):
    from math import factorial

    got = series(12)
    for n in range(12):
        want = _oracle_poly(name, n)
        if scale:
            want = ref.ptrim(c / factorial(n) for c in want)
        assert got[n] == want


def test_prodmat_closed_form_matches_its_fixture():
    fx = {f.id: f for f in all_fixtures()}["prodmat-ordered-bell"]
    assert ref.ordered_bell_prodmat(6) == workloads.fixture_value(fx)


def test_bell_fractions_match_their_fixtures():
    fx = {f.id: f for f in all_fixtures()}
    b, lam = ref.bell_jfrac(Fraction(1), 9)
    assert (b, lam) == workloads.fixture_value(fx["fubini-jfrac"])
    assert ref.bell_sfrac(Fraction(1), 9) == workloads.fixture_value(fx["fubini-sfrac"])


def test_tableaux_match_fixture_fractions():
    fx = {f.id: f for f in all_fixtures()}
    want = workloads.fixture_value(fx["fubini-jfrac-eval"])
    got = ref.ring_values(ref.jfrac_tableau([1, 4, 7, 10, 13], [2, 8, 18, 32], 9))
    assert got == want
    s = [1, 2, 2, 4, 3, 6, 4, 8]
    assert ref.ring_values(ref.sfrac_tableau(s, 9)) == want
    assert ref.deleham_triangle([0, 2, 0, 4, 0, 6, 0], [1, 2, 3, 4, 5, 6, 7], 8) == \
        workloads.fixture_value(fx["galton-deleham"])
    assert ref.deleham1_triangle([0, 1, 0, 2, 0, 3, 0], [1, 0, 2, 0, 3, 0, 4], 7) == \
        workloads.fixture_value(fx["eulerian3-deleham1"])


@pytest.mark.parametrize("expr, kind, order", [
    ("(1+(r-1)*x)/((1-x)*(1+r*x))", "series", 6),
    ("(1+r*x/3)/(1-x/2)", "series", 5),
    ("triangle(1/(1+r*(1-exp(x))),5,egf)", "triangle", 5),
    ("prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),3)", "matrix", 3),
    ("tojfrac(sumudu(P(1/(1-x^2))))", "jfrac", 9),
    ("tosfrac(sumudu(P(1/(1-3*x^2))))", "sfrac", 7),
])
@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_output_parser_reads_every_format_alike(expr, kind, order, fmt):
    value = evaluate_text(expr, Env(order=order))
    parsed = ref.parse_output(kind, fmt, format_value(value, fmt) + "\n")
    assert parsed == ref.parse_output(kind, "json", format_value(value, "json"))


def test_parse_coeff():
    assert ref.parse_coeff("4r^2 + 8r - 3") == (-3, 8, 4)
    assert ref.parse_coeff("-r") == (0, -1)
    assert ref.parse_coeff("(r + 1)/2") == (Fraction(1, 2), Fraction(1, 2))
    assert ref.parse_coeff("0") == ()
    with pytest.raises(ValueError):
        ref.parse_coeff("1/(r + 1)")


# -- workloads ----------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_seeded_and_large_enough(name):
    fixtures = all_fixtures()
    a = workloads.build(name, 1, fixtures=fixtures)
    b = workloads.build(name, 1, fixtures=fixtures)
    c = workloads.build(name, 2, fixtures=fixtures)
    assert [r.argv for r in a] == [r.argv for r in b]
    assert [r.argv for r in a] != [r.argv for r in c]
    assert len(a) >= 100


@pytest.mark.parametrize("name", ["qr_series", "q_fractions"])
def test_seeds_change_formats_and_order_but_not_the_sizes(name):
    def sizes(seed):
        return sorted((r.family, r.argv[r.argv.index("--order") + 1], r.argv[1].split("(")[0])
                      for r in workloads.build(name, seed))

    assert sizes(1) == sizes(2)


def test_cli_workload_has_ten_percent_invalid_inputs():
    reqs = workloads.build("cli_roundtrip", 3, fixtures=all_fixtures())
    invalid = [r for r in reqs if r.family.startswith("invalid_")]
    assert len(invalid) == len(reqs) // 10
    assert {r.code for r in invalid} <= {1, 2}


# -- the command ------------------------------------------------------------------------


def test_scaling_cancels_host_speed_and_keeps_program_speed():
    lat, cal = [10.0, 40.0] * 10, [run.REFERENCE_CALIBRATION_MS] * 20
    # the host at half speed from the middle on: requests and calibration slow alike
    slow = [t * (2 if i >= 10 else 1) for i, t in enumerate(lat)]
    slow_cal = [c * (2 if i >= 10 else 1) for i, c in enumerate(cal)]
    assert run.scaled(lat, cal) == pytest.approx(lat)
    assert run.scaled(slow, slow_cal)[:6] == pytest.approx(lat[:6])
    assert run.scaled(slow, slow_cal)[-6:] == pytest.approx(lat[-6:])
    # a slower program at the same host speed shows in full
    assert run.scaled([3 * t for t in lat], cal) == pytest.approx([3 * t for t in lat])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench("--workload", "qr_series", "--quick", cwd=tmp_path)
    assert p.returncode != 0
    assert "correct" not in p.stdout


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_quick_run_is_correct_and_prints_every_metric(name):
    res = result("--workload", name, "--quick", "--seconds", "1")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {"setup_s", "total_s", "req_p50_ms", "req_p90_ms",
                                   "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


# each layer a workload exercises must record a nonzero count or time
EXERCISED = {
    "qr_series": (
        "ratfun.field_ops", "ratfun.pgcd_calls", "series.mul_calls", "series.revert_calls",
        "series.compose_calls", "series.explog_ms", "transforms.pipeline_calls",
        "triangles.prodmat_ms", "triangles.riordan_ms", "triangles.from_gf_ms",
        "dsl.ast_nodes", "dsl.dup_subtrees", "formats.out_bytes", "cli.main_ms",
        "growth.revert_ops_exp", "growth.compose_ops_exp",
    ),
    "q_fractions": (
        "ratfun.field_ops", "cfrac.eval_calls", "cfrac.expand_calls", "cfrac.divide_calls",
        "series.divide_calls", "triangles.matmul_ms", "triangles.inverse_ms",
        "triangles.riordan_ms", "dsl.ast_nodes", "formats.out_bytes",
        "growth.cfrac_eval_ops_exp", "growth.cfrac_expand_ops_exp",
    ),
    "cli_roundtrip": (
        "ratfun.field_ops", "series.mul_calls", "cfrac.eval_calls", "dsl.ast_nodes",
        "formats.out_bytes", "fixtures.run_ms", "cli.interp_ms", "cli.import_ms",
        "cli.main_ms",
    ),
}

EXACT = (
    "ratfun.field_ops", "ratfun.normalize_calls", "ratfun.pgcd_calls", "series.mul_calls",
    "series.divide_calls", "series.compose_calls", "series.revert_calls",
    "transforms.pipeline_calls", "cfrac.eval_calls", "cfrac.expand_calls",
    "cfrac.divide_calls", "dsl.ast_nodes", "dsl.dup_subtrees", "formats.out_bytes",
)


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_runs_count_exactly_and_cover_their_layers(name):
    first = result("--workload", name, "--quick", "--trace", "1", "--seed", "5")
    second = result("--workload", name, "--quick", "--trace", "1", "--seed", "5")
    assert first["correct"] and second["correct"]
    m1 = {k: v["value"] for k, v in first["metrics"].items()}
    m2 = {k: v["value"] for k, v in second["metrics"].items()}
    assert set(m1) == _per_layer_names()
    for key in EXERCISED[name]:
        assert m1[key] > 0, key
    for key in EXACT:
        assert m1[key] == m2[key], key
    if name == "q_fractions":
        assert m1["ratfun.const_op_frac"] > 0.9
    if name == "qr_series":
        assert m1["cfrac.eval_calls"] == 0
        assert m1["ratfun.const_op_frac"] < 0.5
