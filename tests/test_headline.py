import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "headline.py"


def test_headline_table_at_order_4(capsys):
    spec = importlib.util.spec_from_file_location("headline", SCRIPT)
    headline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(headline)
    headline.main(["4"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| expression | order 4 |", "|---|---|"]
    assert len(lines) == 2 + len(headline.EXPRESSIONS) == 11
    for line, expr in zip(lines[2:], headline.EXPRESSIONS):
        assert line.startswith(f"| `{expr}` | ") and line.endswith(" |")
