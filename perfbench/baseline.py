"""Measure a baseline: every workload on several seeds untraced, plus one
traced run each, summarised as medians, quartiles and spreads.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Run from the root of a checkout.  The spread of a metric is the distance
between its first and third quartile over the seeds, as a share of its
median; the benchmark is steady when every end-to-end spread is below a
third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
# Which end-to-end metric each per-layer metric should move, and where.
PREDICTIONS = [
    (["workbench.stage.<stage>_s"], ["wall_s"],
     "the workload that runs that stage"),
    (["workbench.resolve_scenario.calls", "fusion.fusion_report.calls"],
     ["wall_s"], "sc2-pair and small-catalog"),
    (["gfp.self_s", "gfp.rref.calls", "gfp.rref.cells", "gfp.solve.calls",
      "gfp.nullspace.calls"], ["wall_s", "cpu_s"],
     "mostly sc2-pair"),
    (["algebra.is_unit_element.calls", "algebra.unit_hit_ratio",
      "algebra.inverse_element.calls", "algebra.find_unit_in_space.s",
      "fusion.fusion_F_normalizer.s", "fusion.normalizer_candidates",
      "graded.homogeneous_unit.s"], ["wall_s", "peak_rss_mb"],
     "sc2-pair; no change on small-catalog"),
    (["algebra.span_algebra.s", "algebra.quotient_algebra.s",
      "graded.graded_from_chunks.s", "graded.graded_radical_quotient.s",
      "clifford.build_E.s", "clifford.build_F.s", "clifford.psi_iso.s",
      "clifford.residuals_match.s", "blocks.GroupAlgebra.mul.calls",
      "permgroups.GroupTable.identity.calls"], ["wall_s"],
     "small-catalog; little on sc2-pair"),
    (["algebra.simple_components.s", "algebra.find_submodule.calls",
      "polys.factor.calls", "permgroups.p_subgroups.s",
      "permgroups.enumerate_group.calls", "blocks.defect_pointed_groups.s",
      "blocks.points_at.calls", "blocks.blocks.s"], ["wall_s"],
     "small-catalog; little on sc2-pair, where P is given explicitly"),
    (["fusion.fusion_F_direct.s", "fusion.theta_check.s",
      "graded.factor_sets_equivalent.s", "graded.graded_iso_search.s"],
     ["wall_s"], "both; small today, watched so that work moved here "
                 "shows"),
    (["<layer>.self_s", "trace.overhead_s", "trace.coverage"], [],
     "interpretation only"),
]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{proc.stderr}")
    env = json.loads(lines[0].removeprefix("env "))
    return env, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    steady = True
    for w in workloads:
        runs = []
        for seed in SEEDS:
            env, res = run(w, seed, spec["run_seconds"], 0)
            runs.append(res["metrics"])
            print(w, seed, " ".join(
                f"{k}={v['value']:.4g} {v['unit']}"
                for k, v in res["metrics"].items()),
                f"check_fail_ratio={res['failed'] / res['attempted']:.4g} "
                "ratio", flush=True)
        e2e = {}
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            e2e[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
            if spread >= bound / 3:
                steady = False
                print(f"  {w} {name}: spread {spread:.4f} is not below "
                      f"a third of its bound {bound}", flush=True)
        entry = {"why": next(x["why"] for x in spec["workloads"]
                             if x["name"] == w),
                 "end_to_end": e2e}
        _, res = run(w, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        out["workloads"][w] = entry
    out["env"] = env
    out["predictions"] = [{"per_layer": m, "moves": e, "where": where}
                          for m, e, where in PREDICTIONS]
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
