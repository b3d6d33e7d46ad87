"""One benchmark worker: a fresh process that builds a workload's inputs,
then runs its passes in a closed loop (one client, calls in sequence)
and checks every report against the committed reference invariants.

Protocol on stdout: the line ``ready`` once the inputs of the first pass
are built (the launcher times set-up up to it), then one JSON line with
the per-pass measurements.  Run by `run.py`, with ``src`` on PYTHONPATH.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import inputs
from blockfusion import workbench as wb

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKS_PER_CALL = {"scenario": 8, "pair": 4}
SPANS_DIR = ".perfbench"  # traced runs write their spans here


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def call(kind, arg):
    """One pipeline call with the program's default settings: the workload
    seed shapes the inputs only."""
    if kind == "scenario":
        return wb.run_scenario(arg)
    return wb.verify_morita(arg)


def judge(kind, report, reference) -> tuple:
    """(checks attempted, checks not passed) for one call.  A report whose
    invariants differ from the reference fails all of its checks; a call
    that raised fails as many checks as the call would have made."""
    if report is None:
        n = CHECKS_PER_CALL[kind]
        return n, n
    got = json.loads(wb.emit(report))["invariants"]
    if got != reference.get(report.scenario):
        print(f"invariants of {report.scenario} differ from the reference: "
              f"{got} != {reference.get(report.scenario)}", file=sys.stderr)
        return len(report.checks), len(report.checks)
    bad = [c for c in report.checks if c.status != "pass"]
    for c in bad:
        print(f"{report.scenario}: check {c.name} is {c.status}: "
              f"{c.witness}", file=sys.stderr)
    return len(report.checks), len(bad)


def run_pass(calls, reference, tracing=None) -> dict:
    """Time one pass of calls (inside `tracing` when given, a Tracer), then
    judge its reports outside the timed and traced region."""
    reports = []
    with tracing or contextlib.nullcontext():
        ru0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        for kind, arg in calls:
            try:
                reports.append(call(kind, arg))
            except Exception:  # counted as failed checks, the run goes on
                traceback.print_exc()
                reports.append(None)
        t1, ru1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    attempted = failed = 0
    stages = {}
    for (kind, _), report in zip(calls, reports):
        a, f = judge(kind, report, reference)
        attempted, failed = attempted + a, failed + f
        for c in report.checks if report is not None else ():
            stages[c.name] = stages.get(c.name, 0) + c.millis / 1000
    return {"wall_s": t1 - t0,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime
                      + ru1.ru_stime - ru0.ru_stime),
            "attempted": attempted, "failed": failed, "stages": stages}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    calls, sigmas = inputs.make_pass(args.workload, args.seed, 0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import tracer  # not needed for set-up, so not charged to it

    reference = load_reference()
    tr = tracer.Tracer()
    spans = {}
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) > 0
        gc.collect()
        rec = run_pass(calls, reference, tr if traced else None)
        if traced:
            sp = tr.spans()
            tr.clear()
            rec["trace"] = tracer.summarize(sp)
            rec["trace"]["normalizer_candidates"] = tracer.count_under(
                sp, "algebra.Algebra.is_unit_element",
                "fusion.fusion_F_normalizer")
            spans.update({f"pass{len(passes)}.{k}": v for k, v in sp.items()})
        rec.update(traced=traced, sigmas=sigmas)
        passes.append(rec)
        elapsed = time.perf_counter() - start
        need_traced = args.trace and not any(p["traced"] for p in passes)
        if not need_traced and elapsed + rec["wall_s"] > args.seconds:
            break
        calls, sigmas = inputs.make_pass(args.workload, args.seed,
                                         len(passes))

    if spans:
        os.makedirs(SPANS_DIR, exist_ok=True)
        np.savez_compressed(os.path.join(
            SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.npz"), **spans)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"passes": passes, "peak_rss_mb": rss,
                      "numpy": np.__version__,
                      "python": sys.version.split()[0]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
