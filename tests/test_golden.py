"""The canonical reports, byte for byte, against committed golden copies.

`tests/data/catalog-seed7.json` is the output of
`blockfusion catalog --run-all --seed 7`, and each `<name>-seed7.json` next
to a scenario file `<name>.json` is the output of
`blockfusion verify --seed 7 <name>.json`.  A refactor that keeps every
verdict, witness count and invariant leaves them unchanged; regenerate one
only for a change that means to alter the report, and say why.
"""
from pathlib import Path

import pytest

from blockfusion import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "catalog-seed7.json"


def test_catalog_report_matches_golden_file(tmp_path):
    out = tmp_path / "catalog.json"
    assert cli.main(["catalog", "--run-all", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


# F21 over C7 at p = 2, block 0: a non-split block whose local quotient is
# GF(8); S4 over A4 at p = 2 with P trivial: a local block with two simple
# components, of which the point hits one
@pytest.mark.parametrize("name", ["f21-c7-p2-block0", "s4-a4-p2-trivial-p"])
def test_verify_report_matches_golden_file(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert cli.main(["verify", "--seed", "7", str(DATA / f"{name}.json"),
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}-seed7.json").read_bytes()
