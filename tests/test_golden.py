"""The catalog report, byte for byte, against a committed golden copy.

`tests/data/catalog-seed7.json` is the output of
`blockfusion catalog --run-all --seed 7`.  A refactor that keeps every
verdict, witness count and invariant leaves it unchanged; regenerate it
only for a change that means to alter the report, and say why.
"""
from pathlib import Path

from blockfusion import cli

GOLDEN = Path(__file__).parent / "data" / "catalog-seed7.json"


def test_catalog_report_matches_golden_file(tmp_path):
    out = tmp_path / "catalog.json"
    assert cli.main(["catalog", "--run-all", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
