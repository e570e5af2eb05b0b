import hashlib
import importlib.util
import pathlib

from gfpipe.fixtures import all_fixtures, fixture_order

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"


def load():
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    return cli_digest


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_one_line_per_call_for_each_exit_code():
    digest_line = load().digest_line
    assert digest_line(["eval", "1/(1-x)", "--order", "3"]) == \
        f'0\t{sha("1, 1, 1" + chr(10))}\t\t["eval", "1/(1-x)", "--order", "3"]'
    assert digest_line(["eval", "revert(1+x)"]) == (
        f'1\t{sha("")}\terror: reversion needs constant term 0\\n'
        '\t["eval", "revert(1+x)"]')
    assert digest_line(["eval", "x(1)"]) == (
        f"2\t{sha('')}\tx(1)\\n ^\\nerror: unexpected '(' after expression"
        ' (at offset 1)\\n\t["eval", "x(1)"]')


def test_corpus_holds_every_fixture_build_at_its_order():
    cli_digest = load()
    corpus = cli_digest.corpus()
    for fx in all_fixtures():
        assert cli_digest.fixture_order(fx) == fixture_order(fx), fx.id
        for fmt in cli_digest.FORMATS:
            assert cli_digest.fixture_argv(fx, fmt) in corpus, fx.id
