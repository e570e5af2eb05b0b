import csv
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import gfpipe
from gfpipe.cli import cli_main
from gfpipe.fixtures import all_fixtures


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_fubini(self, capsys):
        code, out, err = run(capsys, "eval", "sumudu(P(1/(1-x^2)))",
                             "--order", "8")
        assert code == 0
        assert out.strip() == "1, 1, 3, 13, 75, 541, 4683, 47293"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "x", "--order", "3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "kind": "series", "order": 3, "entries": [["0"], ["1"], ["0"]]}

    def test_set_r(self, capsys):
        code, out, _ = run(capsys, "eval", "sumudu(P((1+(r-1)*x)/((1-x)*(1+r*x))))",
                           "--order", "6", "--set", "r=2")
        assert code == 0
        assert out.strip() == "1, 2, 10, 74, 730, 9002"

    @pytest.mark.parametrize("value", ["1e100000", "1E5"])
    def test_set_refuses_an_exponent(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "eval", "r", "--set", f"r={value}")
        assert exc.value.code == 2
        assert "expected r=p/q" in capsys.readouterr().err

    @pytest.mark.parametrize("value,shown", [("0.5", "1/2"), ("-3/4", "-3/4")])
    def test_set_reads_a_decimal_or_a_fraction(self, capsys, value, shown):
        code, out, _ = run(capsys, "eval", "r", "--order", "1", "--set", f"r={value}")
        assert (code, out.strip()) == (0, shown)

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "1/(1-x")
        assert code == 2
        assert "offset" in err or "^" in err

    def test_math_error_exit_1(self, capsys):
        code, out, err = run(capsys, "eval", "log(x)")
        assert code == 1
        assert "error" in err

    def test_pole_exit_1(self, capsys):
        code, out, err = run(capsys, "eval", "1/(1-r*x)", "--order", "3",
                             "--set", "r=0")
        assert code == 0
        code, out, err = run(capsys, "eval", "powq(1+r*x,0-1)", "--order", "2",
                             "--set", "r=1")
        assert code == 0 or code == 1

    def test_division_pole_detected(self, capsys):
        # (r-1) in a denominator of the final value, specialized at r=1
        code, out, err = run(capsys, "eval", "(1/(r-1))*x", "--order", "2",
                             "--set", "r=1")
        assert code == 1
        assert "vanishes" in err

    @pytest.mark.parametrize("expr,order,cause", [
        ("revert(x+x^2)", "1", "reversion needs at least two known coefficients"),
        ("revert(x^2)", "8", "reversion needs a nonzero linear coefficient"),
    ])
    def test_reversion_diagnostic_names_the_cause(self, capsys, expr, order, cause):
        code, out, err = run(capsys, "eval", expr, "--order", order)
        assert code == 1
        assert out == ""
        assert err == f"error: {cause}\n"


class TestCounts:
    @pytest.mark.parametrize("expr", [
        "deleham1([1],[1],0-5)", "deleham([1],[1],0)", "deleham1([1],[1],0)",
        "tinv(1,1,1,0-1)", "tinv(1,1,1,0)", "Bmat(0-1)",
        "triangle(1/(1-x),0-2,ogf)", "oracletri(N1,0)", "riordan(1/(1-x),x,0)",
        "prodmat(exp(x),x,0)", "orthopoly(prodmat(exp(x),x,3),0)"])
    def test_count_below_one_exit_2(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr, "--order", "3")
        assert code == 2 and out == ""
        assert "count of at least 1" in err and "offset" in err

    @pytest.mark.parametrize("expr", [
        "deleham([1],[1],1)", "deleham1([1],[1],1)", "tinv(1,1,1,1)", "Bmat(1)",
        "triangle(1/(1-x),1,ogf)", "oracletri(N1,1)", "matrix([[1]])"])
    def test_count_one_accepted(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr, "--order", "3")
        assert code == 0 and err == ""

    def test_empty_matrix_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "matrix([])")
        assert code == 2 and out == ""
        assert "at least one row" in err and "offset 7" in err


# a series whose J-fraction has the quadratic pattern tfwd needs
A086810 = "sumudu(P((1-(r+1)*x)/((1-x)*(1-r*x))))"


class TestRobustness:
    def test_deep_nesting_is_a_parse_error(self, capsys):
        expr = "(" * 3000 + "x" + ")" * 3000
        code, out, err = run(capsys, "eval", expr)
        assert code == 2 and out == ""
        assert "nested more than" in err and "^" in err
        assert "Traceback" not in err

    def test_long_chain_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "+".join(["x"] * 3000))
        assert code == 2 and "nested more than" in err

    @pytest.mark.parametrize("expr,offset", [("9" * 5000, 0), ("x^" + "9" * 5000, 2)])
    def test_overlong_integer_literal_is_a_parse_error(self, capsys, expr, offset):
        code, out, err = run(capsys, "eval", expr)
        assert code == 2 and out == ""
        assert err.splitlines()[1:] == [
            " " * offset + "^",
            f"error: integer literal too long (5000 digits) (at offset {offset})",
        ]

    @pytest.mark.parametrize("expr,offset", [("²", 0), ("x^²", 2), ("١+x", 0)])
    def test_integer_literals_are_ascii_digits(self, capsys, expr, offset):
        code, out, err = run(capsys, "eval", expr)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            expr,
            " " * offset + "^",
            f"error: unexpected character {expr[offset]!r} (at offset {offset})",
        ]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_coefficients_past_the_str_digit_limit_print_exactly(self, capsys, fmt):
        # 2^(64*299) has 5,761 digits, past CPython's 4,300-digit limit on str(int)
        code, out, err = run(capsys, "eval", "1/(1-2^64*x)", "--order", "300",
                             "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            texts = [c for [c] in json.loads(out)["entries"]]
        else:
            texts = out.strip().split(", " if fmt == "table" else ",")
        assert [int(Decimal(c)) for c in texts] == [2 ** (64 * n) for n in range(300)]

    @pytest.mark.parametrize("expr,order,cause", [
        ("sumudu(matvec(matrix([[1]]),[1]))", "4",
         "matvec(matrix([[1]]),[1]) has 1 coefficient(s), 4 needed (at offset 7)"),
        ("1+matvec(matrix([[1,0],[1,1]]),[1,2])", "8",
         "matvec(matrix([[1,0],[1,1]]),[1,2]) has 2 coefficient(s), 8 needed (at offset 2)"),
    ])
    def test_short_series_names_its_expression(self, capsys, expr, order, cause):
        code, out, err = run(capsys, "eval", expr, "--order", order)
        assert (code, out, err) == (2, "", f"error: {cause}\n")

    @pytest.mark.parametrize("expr", ["powq(1+x,1/0)", "1/0", "x/(r-r)"])
    def test_scalar_division_by_zero(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr, "--order", "3")
        assert code == 1 and out == ""
        assert "scalar division by zero" in err

    @pytest.mark.parametrize("expr,divisor", [("integ(1/0)", "0"),
                                              ("integ(1/(r-r))", "r-r")])
    def test_scalar_zero_divisor_is_reported_at_precision_0(self, capsys, expr, divisor):
        # integ reads its argument one order less, so at --order 1 at 0
        code, out, err = run(capsys, "eval", expr, "--order", "1")
        assert (code, out, err) == (
            1, "", f"error: scalar division by zero (divisor {divisor})\n")

    def test_series_divisor_at_precision_0_gives_the_empty_quotient(self, capsys):
        # a call under the divisor: nothing of it is known at precision 0
        code, out, err = run(capsys, "eval", "integ(1/(sumudu(1)-1))", "--order", "1")
        assert (code, out.strip(), err) == (0, "0", "")

    @pytest.mark.parametrize("expr,order,printed", [
        ("diff(tojfrac(exp(x)))", "4", "1, 1, 1/2, 1/6"),
        ("P(tojfrac(1+x^2*exp(x)))", "5", "1, 1, 2, 15/4, 259/36"),
        ("triangle(tojfrac(exp(x)),6,egf)", "3",
         "\n".join(", ".join(["1"] + [" 0"] * n) for n in range(6))),
        ("integ(tojfrac(exp(x)))", "1", "0"),  # the empty fraction
        (f"triangle(tfwd(tojfrac({A086810})),3,ogf)", "9", "1\n0,  -1\n0,  -1,  2"),
        (f"integ(tfwd(tojfrac({A086810})))", "4", "0, 1, -r/2, (2r^2 - r)/3"),
    ])
    def test_an_expansion_is_read_at_the_precision_asked(self, capsys, expr, order, printed):
        # diff and P read one order more, triangle its count, integ one less;
        # never below the order, since tfwd takes the fraction whole
        code, out, err = run(capsys, "eval", expr, "--order", order)
        assert (code, out.strip(), err) == (0, printed, "")

    def test_tfwd_names_the_weight_off_the_quadratic_pattern(self, capsys):
        code, out, err = run(capsys, "eval", "tfwd(jfrac([1,2,3],[1,5]))")
        assert (code, out, err) == (1, "", "error: weight 2 is 5, expected 4\n")

    def test_series_division_keeps_its_message(self, capsys):
        code, out, err = run(capsys, "eval", "1/x", "--order", "3")
        assert code == 1
        assert "unit constant term" in err

    @pytest.mark.parametrize("expr", ["sfrac([])*1", "tosfrac(1+0*x)*1"])
    def test_empty_sfrac_at_order_2(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr, "--order", "2")
        assert (code, out.strip(), err) == (0, "1, 0", "")


class TestTriangle:
    def test_a019538(self, capsys):
        code, out, _ = run(capsys, "triangle", "1/(1+r*(1-exp(x)))",
                           "--rows", "5", "--mode", "egf")
        assert code == 0
        assert out.splitlines()[-1].split(",") [0].strip() == "0"
        assert "36" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "triangle", "1/(1-x*(1+r))",
                           "--rows", "3", "--format", "csv")
        assert code == 0
        assert out == "1\n1,1\n1,2,1\n\n"

    def test_set_is_not_an_option(self, capsys):
        # the entries of a triangle hold no r, so there is nothing to set
        with pytest.raises(SystemExit) as exc:
            run(capsys, "triangle", "1/(1+r*(1-exp(x)))", "--rows", "4",
                "--mode", "egf", "--set", "r=1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --set r=1" in capsys.readouterr().err

    def test_mode_guard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "triangle", "x", "--rows", "3", "--mode", "bad")
        assert exc.value.code == 2

    @pytest.mark.parametrize("expr,kind", [
        ("Bmat(3)", "triangle"), ("matrix([[1]])", "matrix")])
    def test_non_series_exit_2(self, capsys, expr, kind):
        code, out, err = run(capsys, "triangle", expr, "--rows", "3")
        assert (code, out) == (2, "")
        assert err == f"error: expected a series, got {kind} (at offset 0)\n"

    @pytest.mark.parametrize("expr,csv", [
        ("tinv(r+1,r+1,r,4)", "1\n1,1\n1,3,1\n\n"),
        ("sfrac([1,r,2])", "1\n1,0\n1,1,0\n\n"),
        ("tojfrac(1/(1-x-x^2))", "1\n1,0\n2,0,0\n\n"),
        ("oracle(N1,2,1)", "1\n0,0\n0,0,0\n\n"),
    ])
    def test_fractions_and_scalars_expand(self, capsys, expr, csv):
        code, out, err = run(capsys, "triangle", expr, "--rows", "3",
                             "--format", "csv")
        assert (code, out, err) == (0, csv, "")


# the triangle subcommand is the triangle builtin: same outcome, byte for
# byte; eval's --set leaves the builtin's entries as they are, since they hold no r
@pytest.mark.parametrize("expr,rows,mode", [
    ("1/(1+r*(1-exp(x)))", 5, "egf"),
    ("1/(1-x*(1+r))", 4, "ogf"),
    ("exp(r*x)", 4, "egf"),
    ("tinv(r+1,r+1,r,4)", 5, "ogf"),
    ("tojfrac(1/(1-x-r*x^2))", 5, "ogf"),
    ("1/(1-x/r)", 3, "ogf"),          # not polynomial in r: exit 1
])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("set_r", [(), ("--set", "r=2"), ("--set", "r=1/2")])
def test_triangle_subcommand_is_the_builtin(capsys, expr, rows, mode, fmt, set_r):
    sub = run(capsys, "triangle", expr, "--rows", str(rows), "--mode", mode,
              "--format", fmt)
    builtin = run(capsys, "eval", f"triangle({expr},{rows},{mode})",
                  "--order", str(rows), "--format", fmt, *set_r)
    assert sub == builtin
    assert sub[0] == (1 if expr == "1/(1-x/r)" else 0)


class TestFixturesCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--list")
        assert code == 0
        assert "fubini-pipeline" in out
        assert out == "".join(f"{fx.id}\t{fx.source}\n" for fx in all_fixtures())

    def test_list_csv_quotes_every_source(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--list", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 2 for row in rows)
        assert rows == [[fx.id, fx.source] for fx in all_fixtures()]
        assert any("," in fx.source for fx in all_fixtures())

    def test_list_json_is_one_line_in_file_order(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--list", "--format", "json")
        assert code == 0 and out.count("\n") == 1
        assert [e["id"] for e in json.loads(out)] == [fx.id for fx in all_fixtures()]

    def test_run_selected(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--run", "fubini-pipeline",
                           "a019538")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS") and lines[1].startswith("PASS")
        assert "2/2" in lines[-1]

    def test_run_all_passes(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--run")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_id(self, capsys):
        # a usage error, as README says: exit 2 with the usage line
        with pytest.raises(SystemExit) as exc:
            run(capsys, "fixtures", "--run", "fubini-pipeline", "nope")
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "usage: gfpipe fixtures" in err and "unknown fixture ids: nope" in err

    def test_exit_1_error_fails_only_its_case(self, capsys, monkeypatch):
        from gfpipe import fixtures

        bad = fixtures.all_fixtures()[0].replace(id="bad", build="matrix([[1,2]])")
        monkeypatch.setitem(fixtures._by_id(), "bad", bad)
        code, out, err = run(capsys, "fixtures", "--run", "fubini-pipeline",
                             "bad", "a019538")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "PASS  fubini-pipeline", "FAIL  bad  (error: matrix must be square)",
            "PASS  a019538", "2/3 fixtures passed"]

    def test_a_fault_in_the_fixture_data_is_no_usage_error(self, capsys, monkeypatch):
        # raised outside the build's evaluation: exit 1, not the usage error
        # of an unknown id
        from gfpipe import fixtures

        bad = fixtures.all_fixtures()[0].replace(id="bad", set_r="r=2")
        monkeypatch.setitem(fixtures._by_id(), "bad", bad)
        code, out, err = run(capsys, "fixtures", "--run", "bad")
        assert (code, out, err) == (
            1, "", "error: Invalid literal for Fraction: 'r=2'\n")

    def test_set_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fixtures", "--run", "--set", "r=2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --set r=2" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["eval"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,command,message", [
    (["eval", "x", "--order", "0"], "eval", "--order must be at least 1"),
    (["triangle", "1/(1-x)", "--rows", "0"], "triangle", "--rows must be at least 1"),
    (["fixtures", "--run", "nope"], "fixtures", "unknown fixture ids: nope"),
])
def test_own_usage_errors_print_the_subcommand_usage(capsys, argv, command, message):
    # as argparse's own errors do, e.g. for ``fixtures --format xml``
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: gfpipe {command} [-h]")
    assert err.endswith(f"\ngfpipe {command}: error: {message}\n")


# one process, one parser: every kind of call, with a usage error in between
MIXED_CALLS = [
    ("eval", "sumudu(P(1/(1-x^2)))", "--order", "6"),
    ("eval", "tojfrac(sumudu(P((1+(r-1)*x)/((1-x)*(1+r*x)))))", "--order", "7",
     "--format", "csv"),
    ("eval", "sfrac([r,1,r+1])", "--order", "5", "--format", "json", "--set", "r=2"),
    ("eval", "1/(1-r*x)", "--order", "4", "--set", "r=1/3"),
    ("eval",),
    ("triangle", "1/(1+r*(1-exp(x)))", "--rows", "4", "--mode", "egf"),
    ("eval", "tosfrac(1+x^3)", "--order", "5", "--format", "json"),
    ("fixtures", "--run", "fubini-pipeline", "--format", "json"),
    ("eval", "x", "--order", "0"),
    ("triangle", "1/(1-x-r*x)", "--rows", "3", "--format", "csv"),
    ("eval", "x+", "--format", "table"),
]


def outcome(capsys, argv):
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_a_fresh_one(capsys):
    from gfpipe import cli

    cli._build_parser.cache_clear()
    reused = [outcome(capsys, argv) for argv in MIXED_CALLS]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in MIXED_CALLS:
        cli._build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 1, 0, 2, 0, 2]


def test_startup_imports_no_dataclasses():
    """A CLI call imports neither ``dataclasses`` nor the ``inspect`` it
    pulls in, and finds the golden data beside the fixtures module."""
    pkg = Path(gfpipe.__file__).resolve().parent
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gfpipe.triangles\n"
        "alone = 'gfpipe.transforms' not in sys.modules\n"
        "import gfpipe.cli, gfpipe.fixtures\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "print(gfpipe.fixtures._DATA)\n"
        "print(alone)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    imported, data, alone = out.stdout.splitlines()
    assert alone == "True"  # triangles does not import transforms
    assert "gfpipe.fixtures" in imported.split()
    assert not {"dataclasses", "inspect"} & set(imported.split())
    assert Path(data) == pkg / "fixtures.json" and Path(data).is_file()
    pyproject = (pkg.parent.parent / "pyproject.toml").read_text()
    assert '[tool.setuptools.package-data]\ngfpipe = ["fixtures.json"]' in pyproject


def test_closed_stdout_ends_without_a_traceback():
    """A reader that leaves early (``gfpipe ... | head -c 20``) ends the
    CLI with exit 1 and nothing on stderr.  The output, over 1 MB, is far
    larger than a pipe's buffer, so the CLI is still writing when the
    pipe closes."""
    pkg = Path(gfpipe.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gfpipe.cli", "eval", "1/(1-2*x)", "--order", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(20) == b"1, 2, 4, 8, 16, 32, "
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    return [line.split() for line in block.splitlines() if line.startswith("gfpipe ")]


@pytest.mark.parametrize("command", ["eval", "triangle", "fixtures"])
def test_readme_synopsis_names_every_option(capsys, command):
    """The options of README's ``gfpipe <command>`` line are those of the
    command's usage, so the synopsis cannot drift from the parser."""
    [words] = [w for w in readme_cli_lines() if w[1] == command]
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    options = re.compile(r"--[a-z][a-z-]*")
    assert set(options.findall(" ".join(words))) == set(options.findall(usage))
