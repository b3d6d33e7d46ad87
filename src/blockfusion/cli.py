"""Command-line driver for the verification workbench.

Each subcommand takes a scenario file (JSON) and runs the pipeline up to
the named stage; `verify` runs it in full, `verify-morita` checks a pair
file, and `catalog` lists or runs the built-in scenarios.
"""

import argparse
import json
import sys

from . import workbench as wb


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in reports")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--cap-order", type=int,
                        default=wb.DEFAULT_CAP_ORDER,
                        help="refuse groups larger than this")
    common.add_argument("--out", default=None,
                        help="write output here instead of stdout")
    return common


def _load(path: str) -> dict:
    with open(path, "rb") as fh:
        return json.load(fh)


def _write(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def main(argv=None) -> int:
    common = _common()
    ap = argparse.ArgumentParser(prog="blockfusion")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("blocks", "points", "fusion", "clifford", "verify"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("scenario", help="scenario JSON file")
    mp = sub.add_parser("verify-morita", parents=[common])
    mp.add_argument("pair", help="pair JSON file")
    cp = sub.add_parser("catalog", parents=[common])
    cp.add_argument("--run-all", action="store_true",
                    help="run every built-in scenario and pair")
    args = ap.parse_args(argv)

    if args.cmd in wb.STAGE_OF_COMMAND:
        s = wb.scenario_from_dict(_load(args.scenario))
        report = wb.run_scenario(s, seed=args.seed, cap_order=args.cap_order,
                                 through=wb.STAGE_OF_COMMAND[args.cmd])
        _write(wb.emit(report, args.format), args.out)
        return 0 if report.passed() else 1
    if args.cmd == "verify-morita":
        ms = wb.morita_from_dict(_load(args.pair))
        report = wb.verify_morita(ms, seed=args.seed,
                                  cap_order=args.cap_order)
        _write(wb.emit(report, args.format), args.out)
        return 0 if report.passed() else 1
    # the remaining subcommand is catalog
    if args.run_all:
        reports = wb.run_catalog(seed=args.seed, cap_order=args.cap_order)
        _write(wb.emit_many(reports, args.format), args.out)
        return 0 if all(r.passed() for r in reports) else 1
    names = [s.name for s in wb.catalog()]
    names += [ms.name for ms in wb.morita_catalog()]
    if args.format == "json":
        payload = {"schema": wb.SCHEMA_VERSION, "catalog": names}
        _write((json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode(), args.out)
    else:
        _write(("\n".join(names) + "\n").encode(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
