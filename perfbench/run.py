"""blockfusion benchmark: times the verification pipeline end to end and,
in a separate traced run, charges the time to the package's layers.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload sc2-pair --seed 1 --seconds 50 --trace 0

Each run launches fresh worker processes (`worker.py`) with ``src`` on
PYTHONPATH: a few that only build the inputs, to time set-up, then one
that runs the workload's passes for about `--seconds` seconds.  The last
line of stdout is one JSON object with keys `correct`, `attempted`,
`failed` and `metrics`; the metrics are the `end_to_end` ones declared in
BENCHMARK.json with ``--trace 0`` and the `per_layer` ones with
``--trace 1``.  The exit code is 0 only when every check passed and every
report's invariants equal `reference.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join("src", "blockfusion", "__init__.py")
# worker launches that only build their inputs, timed for setup_s along
# with the measuring worker's launch
SETUP_ONLY_BEFORE, SETUP_ONLY_AFTER = 2, 2
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# metric names that are not "<module>.<function>" of the recorded span
SPAN_ALIASES = {
    "algebra.is_unit_element": "algebra.Algebra.is_unit_element",
    "algebra.inverse_element": "algebra.Algebra.inverse_element",
    "algebra.simple_components": "algebra.Algebra.simple_components",
}


def git_rev() -> str | None:
    """HEAD of the checkout, or None outside a git checkout.  Git looks
    no further up than the current directory."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), nproc)))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def launch(cmd, env):
    """Start a worker; return it and the seconds until it said ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not get ready")
    return proc, setup


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def end_to_end(result, setups, pass_ratio) -> dict:
    passes = result["passes"]
    return {"wall_s": median_of(passes, lambda p: p["wall_s"]),
            "setup_s": statistics.median(setups),
            "cpu_s": median_of(passes, lambda p: p["cpu_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "check_pass_ratio": pass_ratio}


def layer_metric(name, traced, untraced):
    """One per-layer metric, as the median over the passes it is read from:
    stage times from the untraced passes (the program's own Check.millis),
    everything else from the traced passes."""
    if name.startswith("workbench.stage.") and name.endswith("_s"):
        stage = name[len("workbench.stage."):-2]
        return median_of(untraced, lambda p: p["stages"].get(stage, 0.0))
    if name == "trace.overhead_s":
        return (median_of(traced, lambda p: p["wall_s"])
                - median_of(untraced, lambda p: p["wall_s"]))
    if name == "trace.coverage":
        return median_of(traced, lambda p: p["trace"]["root_s"] / p["wall_s"])
    if name == "fusion.normalizer_candidates":
        return median_of(traced, lambda p: p["trace"]["normalizer_candidates"])
    if name == "algebra.unit_hit_ratio":
        def ratio(p):
            row = p["trace"]["per_name"]["algebra.Algebra.is_unit_element"]
            return row["aux"] / row["calls"] if row["calls"] else 0.0
        return median_of(traced, ratio)
    layer, _, field = name.partition(".")
    if field == "self_s":
        return median_of(traced, lambda p: p["trace"]["layer_self_s"][layer])
    span, _, field = name.rpartition(".")
    span = SPAN_ALIASES.get(span, span)
    key = {"calls": "calls", "s": "s", "cells": "aux"}[field]
    return median_of(traced, lambda p: p["trace"]["per_name"][span][key])


def per_layer(result, names) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    return {n: layer_metric(n, traced, untraced) for n in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(PACKAGE):
        print(f"{PACKAGE} not found: run from the root of a blockfusion "
              "checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]

    def setup_only():
        proc, setup = launch(cmd + ["--setup-only"], env)
        finish(proc)
        return setup

    try:
        # set-up samples before and after the measuring worker, so that
        # their median spans the run rather than one moment of it
        setups = [setup_only() for _ in range(SETUP_ONLY_BEFORE)]
        proc, setup = launch(cmd, env)
        setups.append(setup)
        result = json.loads(finish(proc).strip().splitlines()[-1])
        setups += [setup_only() for _ in range(SETUP_ONLY_AFTER)]
    except RuntimeError as ex:
        print(f"benchmark run failed: {ex}", file=sys.stderr)
        return 1

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values = per_layer(result, [m["name"] for m in declared])
    else:
        values = end_to_end(result, setups, 1 - failed / attempted)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print("env " + json.dumps({
        "git_rev": git_rev(), "nproc": nproc, "python": result["python"],
        "numpy": result["numpy"],
        **{var: env[var] for var in THREAD_VARS}}))
    print("inputs " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "sigmas": [p["sigmas"] for p in passes],
        "traced": [p["traced"] for p in passes]}))
    print(f"{args.workload}: {len(passes)} passes of "
          + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
          + f" s, {attempted} checks attempted, {failed} not passed; "
          + "set-up " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows.append(("check_fail_ratio", failed / attempted, "ratio"))
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.6g} {unit}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
