import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "show_tables.py"

FUBINI = {
    "table": "1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261",
    "csv": "1,1,3,13,75,541,4683,47293,545835,7087261",
    "json": '{"kind":"series","order":10,"entries":[["1"],["1"],["3"],["13"],'
            '["75"],["541"],["4683"],["47293"],["545835"],["7087261"]]}',
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_tour_prints_every_block(capsys, fmt):
    spec = importlib.util.spec_from_file_location("show_tables", SCRIPT)
    show_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(show_tables)
    show_tables.main(["--format", fmt])
    blocks = capsys.readouterr().out.split("== ")[1:]
    assert len(blocks) == len(show_tables.TOUR) == 10
    for block, (title, expr, _) in zip(blocks, show_tables.TOUR):
        head, source, *body = block.rstrip("\n").split("\n")
        assert (head, source) == (title, f"   {expr}")
        assert body and all(body)
        if fmt == "json":
            assert len(body) == 1 and json.loads(body[0])["kind"]
    assert blocks[0].split("\n")[2] == FUBINI[fmt]
