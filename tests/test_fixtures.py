import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gfpipe
from gfpipe.fixtures import (
    _load,
    all_fixtures,
    decode_expected,
    render_report,
    run_fixture,
    run_fixtures,
)
from gfpipe.series import Series


def test_every_fixture_passes():
    failures = [c for c in run_fixtures() if not c.passed]
    assert not failures, "\n".join(f"{c.id}: {c.detail}" for c in failures)


def test_inventory_coverage():
    ids = {fx.id for fx in all_fixtures()}
    required = {
        "narayana1-gf", "narayana2-gf", "narayana3-gf", "eulerian1-egf",
        "eulerian2-egf", "eulerian3-egf", "a046802", "a248727",
        "fubini-pipeline", "nonelementary-pipeline", "mixed-parity-pipeline",
        "sech-shift-seq", "sech-preimage-chain", "shifted-fubini-jfrac",
        "a019538", "a019538-8rows", "a086810-deleham", "a130850-signed",
        "a028246-signed", "a090582-signed-jfrac", "a060693-deleham",
        "a028246-extended", "a100754-variant", "fine-row-sums",
        "prodmat-ordered-bell", "genbell-r2", "a151575", "etude2-triangle",
        "etude2-r1", "etude2-r3", "etude2-invert-r1", "etude2-invert-r2",
        "etude2-invert-r3", "galton", "galton-reversion", "prodmat-galton",
        "etude3-series", "etude3-r1", "etude3-ibinom-r1", "p5-walk-image",
        "a211608", "andre-signed", "a096078", "prodmat-etude3",
        "a176230-moments",
    }
    missing = required - ids
    assert not missing, f"missing fixtures: {sorted(missing)}"
    # at least 25 distinct triangle displays reproduced
    assert sum(1 for fx in all_fixtures() if fx.kind == "triangle") >= 25


def test_none_filter_runs_everything():
    assert len(run_fixtures(None)) == len(all_fixtures())


def test_empty_filter_is_a_vacuous_pass():
    assert run_fixtures([]) == ()
    assert render_report(()).endswith("0/0 fixtures passed")


def test_filtering():
    [case] = run_fixtures(["fubini-pipeline"])
    assert case.id == "fubini-pipeline" and case.passed


def test_unknown_id_raises():
    with pytest.raises(ValueError):
        run_fixtures(["does-not-exist"])


def test_failure_reports_first_difference():
    fx = next(f for f in all_fixtures() if f.id == "fubini-pipeline")
    bad = fx.replace(expected=[1, 1, 3, 14])
    result = run_fixture(bad)
    assert not result.passed
    assert "entry[3]" in result.detail and "13" in result.detail


def test_report_renders_in_three_formats():
    cases = run_fixtures(["fubini-pipeline", "a019538"])
    table = render_report(cases, "table")
    assert table.splitlines()[0].startswith("PASS")
    csv_text = render_report(cases, "csv")
    assert csv_text.splitlines()[0].startswith("fubini-pipeline,PASS")
    blob = json.loads(render_report(cases, "json"))
    assert blob["kind"] == "report" and len(blob["cases"]) == 2
    assert blob["summary"] == "2/2 fixtures passed"


def test_csv_report_doubles_quotes_in_a_detail():
    bad = run_fixture(all_fixtures()[0].replace(build="x'"))
    assert not bad.passed and '"' in bad.detail
    first = render_report((bad,), "csv").splitlines()[0]
    assert next(csv.reader([first])) == [bad.id, "FAIL", bad.detail]


ROW = {"id": "one", "kind": "series", "build": "1", "expected": [1], "source": "one"}


@pytest.mark.parametrize("row,message", [
    ({**ROW, "sorce": "typo"}, "fixture 'one': .*'sorce'"),
    ({k: v for k, v in ROW.items() if k != "source"}, "fixture 'one': .*'source'"),
    ({k: v for k, v in ROW.items() if k != "id"}, "fixture None: .*'id'"),
])
def test_load_names_the_fixture_of_a_bad_row(row, message):
    assert list(_load(json.dumps([ROW]))) == ["one"]
    with pytest.raises(ValueError, match=message):
        _load(json.dumps([ROW, row]))


def test_duplicate_id_check_survives_optimize_flag():
    src = str(Path(gfpipe.__file__).resolve().parent.parent)
    code = (
        "import json\n"
        "from gfpipe.fixtures import _load\n"
        f"row = {ROW!r}\n"
        "try:\n"
        "    print(len(_load(json.dumps([row, row]))))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "duplicate fixture id 'one'"


def test_expected_data_decodes_for_all():
    for fx in all_fixtures():
        decode_expected(fx)


def test_a_string_entry_decodes_to_its_constant():
    # expected data may write a rational constant as "p/q"
    fx = _fixture("fubini-pipeline").replace(
        id="adhoc", kind="series", build="(1-x/2)/(1-x)", expected=[1, "1/2", "1/2"])
    assert decode_expected(fx) == Series([1, Fraction(1, 2), Fraction(1, 2)])
    assert run_fixture(fx).passed
    result = run_fixture(fx.replace(expected=[1, "1/2", "-1/2"]))
    assert result.detail == "entry[2]: got 1/2, expected -1/2"


def _fixture(fid):
    return next(f for f in all_fixtures() if f.id == fid)


def _mutated(expected, path):
    """A deep copy of the literal data with the entry at ``path`` raised by 1."""
    if not path:
        return (expected + 1 if isinstance(expected, int)
                else [expected[0] + 1, *expected[1:]])
    out = list(expected)
    out[path[0]] = _mutated(out[path[0]], path[1:])
    return type(expected)(out)


@pytest.mark.parametrize("fid,path,label", [
    ("narayana1-gf", (4, 2), "entry[4][2]"),
    ("prodmat-ordered-bell", (2, 1), "entry[2][1]"),
    ("fubini-jfrac", (1, 2), "lambda[2]"),
    ("genbell-contract", (0, 1), "b[1]"),   # a prefix fixture
    ("fubini-sfrac", (5,), "entry[5]"),
    ("genbell-sfrac", (3,), "entry[3]"),
])
def test_failure_names_the_first_differing_index(fid, path, label):
    fx = _fixture(fid)
    assert run_fixture(fx).passed
    result = run_fixture(fx.replace(expected=_mutated(fx.expected, path)))
    assert not result.passed
    assert result.detail.startswith(label + ": got ")


def test_prefix_fixture_reports_a_short_result():
    fx = _fixture("fubini-contract")
    b, lam = fx.expected
    result = run_fixture(fx.replace(expected=(b, lam + [50, 72, 98, 128, 162])))
    assert not result.passed
    assert result.detail == "lambda: only 4 of 9 entries"


ORDERED_BELL_PRODMAT = "prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),3)"
ORDERED_BELL_RECURRENCE = f"recurrence({ORDERED_BELL_PRODMAT})"


@pytest.mark.parametrize("kind,build,expected,detail", [
    ("fieldelem", "oracle(N1,5,2)", 20, ""),
    ("fieldelem", "oracle(N1,5,2)", 21, "entry: got 20, expected 21"),
    ("recurrence", ORDERED_BELL_RECURRENCE,
     ([[0, 1], [1, 3], [2, 5]], [[0, 1, 1], [0, 4, 4]]), ""),
    ("recurrence", ORDERED_BELL_RECURRENCE,
     ([[0, 1], [1, 3], [2, 5]], [[0, 1, 1], [0, 4, 5]]),
     "beta[1]: got 4r^2 + 4r, expected 5r^2 + 4r"),
    ("recurrence", ORDERED_BELL_RECURRENCE,
     ([[0, 1], [1, 3]], [[0, 1, 1]]), "alpha: length 3 != 2"),
    # a value stands for the kind it converts to, as in an argument
    ("recurrence", ORDERED_BELL_PRODMAT,
     ([[0, 1], [1, 3], [2, 5]], [[0, 1, 1], [0, 4, 4]]), ""),
    ("series", "oracle(N1,5,2)", [20, 0, 0], ""),
    ("series", "Bmat(2)", [1, 1], "kind mismatch: got triangle"),
    ("recurrence", "jfrac([1],[1])", ([1], []), "kind mismatch: got jfrac"),
])
def test_every_kind_runs_as_a_fixture(kind, build, expected, detail):
    fx = _fixture("fubini-pipeline").replace(id="adhoc", kind=kind,
                                             build=build, expected=expected)
    assert fx.order is None
    result = run_fixture(fx)
    assert (result.passed, result.detail) == (not detail, detail)
