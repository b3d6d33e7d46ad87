"""Seeded benchmark inputs: catalog entries relabelled by random point
permutations.

Each pass of a workload draws one permutation sigma of the points per
catalog scenario and conjugates the scenario by it (gens_G, gens_H and
explicit P / Q).  A Morita pair is conjugated by the sigma of its
scenario, and an explicit identification pi becomes sigma pi sigma^-1.
The invariants of every report do not depend on the labelling, so the
committed reference holds for every seed, while a cache kept across
calls never sees the same input twice.
"""

import random

from blockfusion import permgroups as pg
from blockfusion import workbench as wb

# Scenarios of the `small-catalog` workload, in `run_catalog` order.
SMALL = ("SC0-C2-over-C2", "SC1-S3-over-C3", "SC3-S3-classical",
         "SC4-D8-in-S4-classical")
SC2 = "SC2-S4-over-A4"

# workload -> (scenarios run through run_scenario, pairs run through
# verify_morita), each in call order
WORKLOADS = {
    "sc2-pair": ((), (SC2 + "-identity",)),
    "small-catalog": (SMALL, tuple(n + "-identity" for n in SMALL)
                      + ("SC1-relabeled",)),
}


def _conj(sigma, cycles: str, degree: int) -> str:
    return pg.format_cycles(pg.pconj(sigma, pg.parse_cycles(cycles, degree)))


def relabel_scenario(s: wb.Scenario, sigma) -> wb.Scenario:
    """The scenario conjugated by the point permutation sigma."""
    d = s.to_dict()
    for key in ("gens_G", "gens_H", "P", "Q"):
        if isinstance(d.get(key), list):
            d[key] = [_conj(sigma, c, s.degree) for c in d[key]]
    return wb.scenario_from_dict(d)


def relabel_pair(ms: wb.MoritaScenario, sigma) -> wb.MoritaScenario:
    """The pair with both sides conjugated by sigma and its
    identification pi replaced by sigma pi sigma^-1."""
    d = ms.to_dict()
    d["left"] = relabel_scenario(ms.left, sigma).to_dict()
    d["right"] = relabel_scenario(ms.right, sigma).to_dict()
    if ms.identification != "identity":
        d["identification"] = _conj(sigma, ms.identification,
                                    ms.left.degree)
    return wb.morita_from_dict(d)


def make_pass(workload: str, seed: int, pass_no: int):
    """The calls of one pass: a list of (kind, input) with kind
    "scenario" or "pair", plus the permutation drawn for each scenario."""
    scen_names, pair_names = WORKLOADS[workload]
    scenarios = {s.name: s for s in wb.catalog()}
    pairs = {ms.name: ms for ms in wb.morita_catalog()}
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    sigmas = {}
    for ms_name in scen_names + pair_names:
        base = pairs[ms_name].left.name if ms_name in pairs else ms_name
        if base not in sigmas:
            points = list(range(scenarios[base].degree))
            rng.shuffle(points)
            sigmas[base] = tuple(points)
    calls = [("scenario", relabel_scenario(scenarios[n], sigmas[n]))
             for n in scen_names]
    calls += [("pair", relabel_pair(pairs[n], sigmas[pairs[n].left.name]))
              for n in pair_names]
    return calls, {name: list(s) for name, s in sigmas.items()}
