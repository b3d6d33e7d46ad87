"""Scenario ingestion, the built-in catalog, end-to-end verification runs,
Morita-pair checks, and deterministic report emission.

A scenario names a group G with a normal subgroup H, a prime p, an
H-block, and a p-subgroup P; running it drives the whole pipeline: block
arithmetic, the graded extension, pointed groups, the Brauer map, the two
fusion groups with their comparison isomorphism, the two Clifford
extensions with theirs, and the residual comparisons.  Every check
records a witness: for a pass, the dimensions, orders, idempotents and
maps the stage found; for a fail, the error; otherwise the reason.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra as al
from . import blocks as bl
from . import clifford as cl
from . import fusion as fu
from . import gfp
from . import permgroups as pg

SCHEMA_VERSION = 1
DEFAULT_CAP_ORDER = 5000

_SCENARIO_FIELDS = {"schema", "name", "p", "degree", "gens_G", "gens_H",
                    "block", "P", "Q"}
_PAIR_FIELDS = {"schema", "name", "left", "right", "identification",
                "bimodule"}


# -- scenario ingestion ----------------------------------------------------------


@dataclass
class Scenario:
    name: str
    p: int
    degree: int
    gens_g: list  # generators of G, cycle strings
    gens_h: list  # generators of H, cycle strings
    block: object = "principal"  # index into the invariant blocks, or "principal"
    subgroup: object = "defect"  # generators of P, or "defect"
    q: list | None = None  # optional generators of a smaller Q

    def to_dict(self) -> dict:
        d = {"schema": SCHEMA_VERSION, "name": self.name, "p": self.p,
             "degree": self.degree, "gens_G": list(self.gens_g),
             "gens_H": list(self.gens_h), "block": self.block,
             "P": self.subgroup}
        if self.q is not None:
            d["Q"] = list(self.q)
        return d


def scenario_from_dict(d: dict) -> Scenario:
    unknown = set(d) - _SCENARIO_FIELDS
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    if d.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {d['schema']}")
    for key in ("name", "p", "degree", "gens_G", "gens_H"):
        if key not in d:
            raise ValueError(f"scenario is missing {key!r}")
    # JSON integers only: a bool, a float or a numeric string is refused
    block = d.get("block", "principal")
    if not (block == "principal" or type(block) is int):
        raise ValueError(f"block selector must be an index or 'principal', got {block!r}")
    sel = d.get("P", "defect")
    if not (sel == "defect" or isinstance(sel, list)):
        raise ValueError("P selector must be generators or 'defect'")
    for key in ("p", "degree"):
        if type(d[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {d[key]!r}")
    p, degree = d["p"], d["degree"]
    gfp.FieldSpec(p)  # raises ValueError naming p
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    for key, gens in (("gens_G", d["gens_G"]), ("gens_H", d["gens_H"]),
                      ("P", [] if sel == "defect" else sel), ("Q", d.get("Q") or [])):
        _check_generators(key, gens, degree)
    return Scenario(name=d["name"], p=p, degree=degree,
                    gens_g=list(d["gens_G"]), gens_h=list(d["gens_H"]),
                    block=block, subgroup=sel, q=d.get("Q"))


def _check_generators(key: str, gens, degree: int) -> None:
    """Parse each generator of one field at the stated degree; a bad one
    raises ValueError naming the field."""
    if not isinstance(gens, list):
        raise ValueError(f"{key} must be a list of cycle strings")
    for g in gens:
        if not isinstance(g, str):
            raise ValueError(f"{key}: generator {g!r} is not a cycle string")
        try:
            pg.parse_cycles(g, degree)
        except ValueError as ex:
            raise ValueError(f"{key}: {ex}") from None


@dataclass
class MoritaScenario:
    name: str
    left: Scenario
    right: Scenario
    identification: object = "identity"  # or a relabeling permutation (cycles)
    bimodule: str = "identity"

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "name": self.name,
                "left": self.left.to_dict(), "right": self.right.to_dict(),
                "identification": self.identification,
                "bimodule": self.bimodule}


def morita_from_dict(d: dict) -> MoritaScenario:
    unknown = set(d) - _PAIR_FIELDS
    if unknown:
        raise ValueError(f"unknown pair fields: {sorted(unknown)}")
    if d.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {d['schema']}")
    if d.get("bimodule", "identity") != "identity":
        raise ValueError("only identity bimodule descriptors are supported")
    for key in ("name", "left", "right"):
        if key not in d:
            raise ValueError(f"pair is missing {key!r}")
    left = scenario_from_dict(d["left"])
    ident = d.get("identification", "identity")
    if ident != "identity":
        _check_generators("identification", [ident], left.degree)
    return MoritaScenario(
        name=d["name"], left=left, right=scenario_from_dict(d["right"]),
        identification=ident, bimodule=d.get("bimodule", "identity"))


# -- reports ---------------------------------------------------------------------


@dataclass
class Check:
    name: str
    status: str  # pass | fail | inconclusive
    millis: int
    witness: dict | None = None


@dataclass
class Report:
    scenario: str = ""
    seed: int = 0
    checks: list = field(default_factory=list)
    invariants: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def emit(report: Report, fmt: str = "json") -> bytes:
    """Deterministic serialization.  The canonical JSON form zeroes the
    timing fields so that repeated runs with one seed are byte-identical;
    measured times stay available on the Report and in the text table."""
    if fmt == "json":
        d = {"schema": SCHEMA_VERSION, "scenario": report.scenario,
             "seed": report.seed,
             "checks": [{"name": c.name, "status": c.status, "millis": 0,
                         **({"witness": c.witness} if c.witness else {})}
                        for c in report.checks],
             "invariants": report.invariants}
        return (json.dumps(d, sort_keys=True, separators=(",", ":")) +
                "\n").encode()
    if fmt == "text":
        lines = [f"scenario: {report.scenario} (seed {report.seed})"]
        for c in report.checks:
            lines.append(f"  {c.name:<24} {c.status:<12} {c.millis} ms")
        for k in sorted(report.invariants):
            lines.append(f"  {k} = {report.invariants[k]}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


# -- scenario resolution ---------------------------------------------------------


def _parse_group(gens, degree: int, cap: int):
    perms = tuple(pg.parse_cycles(s, degree) for s in gens)
    if not perms:
        perms = (pg.identity_perm(degree),)
    return pg.enumerate_group(perms, degree, cap=cap)


@dataclass
class Resolved:
    g: pg.PermGroup
    h: pg.PermGroup
    kg: bl.GroupAlgebra
    all_blocks: list
    invariant: list
    b: np.ndarray
    ext: bl.BlockExtension


def resolve_scenario(s: Scenario, cap_order: int = DEFAULT_CAP_ORDER) -> Resolved:
    g = _parse_group(s.gens_g, s.degree, cap_order)
    h = _parse_group(s.gens_h, s.degree, cap_order)
    if not h.is_normal_in(g):
        raise ValueError("H is not normal in G")
    kg = bl.GroupAlgebra(g, s.p)
    blist = bl.blocks(kg, h)
    inv = bl.invariant_blocks(kg, h)
    if s.block == "principal":
        cands = [b for b in inv if bl.is_principal_block(kg, b)]
        if len(cands) != 1:
            raise ValueError("principal block selector did not resolve")
        b = cands[0]
    else:
        if not 0 <= int(s.block) < len(inv):
            raise ValueError("block index out of range")
        b = inv[int(s.block)]
    ext = bl.block_extension(kg, h, b)
    return Resolved(g=g, h=h, kg=kg, all_blocks=blist, invariant=inv, b=b,
                    ext=ext)


def resolve_subgroup(r: Resolved, s: Scenario, cap_order: int):
    """The pointed p-subgroup: explicit generators, or a defect group."""
    return _local_point(r, s.subgroup, s.degree, cap_order)


def _local_point(r: Resolved, sel, degree: int, cap_order: int,
                 name: str = "P"):
    """The local pointed group that a P or Q selector names."""
    if sel == "defect":
        found = bl.defect_pointed_groups(r.kg, r.h, r.b, r.g,
                                         subgroup_cap=cap_order)
        if not found:
            raise ValueError("no defect pointed group found")
        # the largest order, then the least element tuple, then the first
        # local point
        return found[0]
    P = _parse_group(sel, degree, cap_order)
    if not P.is_subgroup_of(r.g):
        raise ValueError(f"{name} is not a subgroup of G")
    if not pg._is_p_power(P.order, r.kg.p):
        raise ValueError(f"{name} is not a p-group")
    data = bl.points_at(r.kg, r.h, r.b, P)
    locals_ = [pt for pt in data.points if pt.local]
    if not locals_:
        raise ValueError("no local point at the requested subgroup")
    return data, locals_[0]


class Pipeline:
    """The stage results of one scenario, each computed on first use and
    kept for the life of the pipeline.  A result at a subgroup is keyed by
    its ordered element tuple, one at a local pointed group `at` =
    (data, point) by that tuple and the point index, so a kept value is
    the value the call would compute."""

    def __init__(self, scenario: Scenario, cap_order: int = DEFAULT_CAP_ORDER):
        self.scenario = scenario
        self.cap_order = cap_order
        self._memo = {}

    def _once(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def _at(self, kind: str, at, fn):
        return self._once((kind, at[0].P.elements, at[1].index), fn)

    def resolved(self) -> Resolved:
        return self._once("resolved", lambda: resolve_scenario(
            self.scenario, self.cap_order))

    def points(self, P: pg.PermGroup) -> bl.PointedGroupData:
        r = self.resolved()
        return self._once(("points", P.elements),
                          lambda: bl.points_at(r.kg, r.h, r.b, P))

    def pointed(self, at_q: bool = False) -> tuple:
        """(data, point) at P, or at Q when asked and the scenario has one."""
        s = self.scenario
        at_q = at_q and s.q is not None
        at = self._once(("pointed", at_q), lambda: _local_point(
            self.resolved(), s.q if at_q else s.subgroup, s.degree,
            self.cap_order, "Q" if at_q else "P"))
        self._memo.setdefault(("points", at[0].P.elements), at[0])
        return at

    def fusion(self, at) -> tuple:
        """`fusion_report` at the local pointed group: (cd, E, F, Theta)."""
        r = self.resolved()
        return self._at("fusion", at, lambda: fu.fusion_report(
            r.ext, *at, r.g))

    def clifford_f(self, at) -> cl.CliffordExtensionData:
        """The corner-side Clifford extension F."""
        cd, _, fg, _ = self.fusion(at)
        return self._at("F", at, lambda: cl.build_F(
            self.resolved().ext, at[0], cd, fg))

    def residual_f(self, at) -> cl.CliffordExtensionData:
        return self._at("residual-F", at,
                        lambda: cl.residual(self.clifford_f(at)))

    def local_idempotent(self, at) -> np.ndarray:
        """b_delta, which both the local block and the local extension read."""
        return self._at("b-delta", at, lambda: bl.local_block_idempotent(
            self.resolved().kg, *at))

    def local_block(self, at) -> bl.LocalBlockData:
        return self._at("local", at, lambda: bl.local_block_from(
            self.resolved().kg, *at, self.local_idempotent(at)))

    def local_extension(self, at) -> bl.BlockExtension:
        """k[N_G(Q_delta)] b_delta, N_G(Q_delta) from the fusion stage; a
        pair report needs b_delta only, not the local block's structure."""
        r = self.resolved()
        return self._at("local-ext", at, lambda: bl.extended_brauer_extension(
            r.kg, r.h, *at, self.fusion(at)[1].stabilizer,
            self.local_idempotent(at))[1])


# -- the verification pipeline ---------------------------------------------------

_STAGES = ("blocks", "extension", "points", "brauer", "fusion", "clifford",
           "residuals", "local-residual")
_PAIR_STAGES = ("identification", "fusion-iso", "residual-equivalence",
                "local-algebra-dims")

# how far down the pipeline each CLI subcommand runs
STAGE_OF_COMMAND = {
    "blocks": "extension",
    "points": "brauer",
    "fusion": "fusion",
    "clifford": "local-residual",
    "verify": "local-residual",
}


def _run_stages(report: Report, names, witnesses) -> Report:
    """Record one check per stage name.  `witnesses` is a generator that
    does the work of each stage in turn and then yields its witness.  A
    stage that raises is recorded as "fail", or as "inconclusive" when a
    bounded search ran out, and the stages after it are skipped.  Within
    one report, algebras of equal content share their derived invariants
    (`algebra.shared_invariants`)."""
    with al.shared_invariants():
        for k, name in enumerate(names):
            t0 = time.perf_counter()
            try:
                status, witness = "pass", next(witnesses)
            except (al.Inconclusive, al.MeataxeBudgetExceeded) as ex:
                status, witness = "inconclusive", {"reason": str(ex)}
            except Exception as ex:  # recorded, later stages skipped
                status, witness = "fail", {"error": str(ex)}
            ms = int((time.perf_counter() - t0) * 1000)
            report.checks.append(Check(name, status, ms, witness))
            if status != "pass":
                report.checks += [Check(n, "inconclusive", 0,
                                        {"reason": "skipped"})
                                  for n in names[k + 1:]]
                break
    return report


def _ints(v) -> list:
    return [int(x) for x in np.asarray(v).ravel()]


def run_scenario(s: Scenario, seed: int = 0,
                 cap_order: int = DEFAULT_CAP_ORDER,
                 through: str = "local-residual") -> Report:
    """Execute the pipeline on one scenario, recording a witnessed check
    per stage; a failing stage is recorded and the rest are skipped."""
    return _run_scenario(Pipeline(s, cap_order), seed, through)


def _run_scenario(pipe: Pipeline, seed: int,
                  through: str = "local-residual") -> Report:
    report = Report(scenario=pipe.scenario.name, seed=seed)
    return _run_stages(report, _STAGES[:_STAGES.index(through) + 1],
                       _scenario_stages(pipe, report.invariants))


def _scenario_stages(pipe: Pipeline, inv: dict):
    """The stages of `_STAGES`, each yielding its witness."""
    r = pipe.resolved()
    kg, bs = r.kg, np.array(r.all_blocks)
    diag = np.eye(len(bs), dtype=np.int64)[:, :, None]
    al.verify((kg.mul(bs[:, None], bs) == diag * bs[:, None]).all(),
              "the blocks are not orthogonal idempotents")
    # commuting with the generators of H is commuting with kH
    hv = np.array([kg.vec_of(h) for h in r.h.generators])[:, None]
    al.verify((kg.mul(hv, bs) == kg.mul(bs, hv)).all(),
              "a block idempotent is not central in kH")
    al.verify((bs.sum(axis=0) % kg.p == kg.unit).all(),
              "the block idempotents do not sum to 1")
    dims = sorted(bl.block_ideal_dim(kg, r.h, x) for x in r.all_blocks)
    inv.update(block_dims=dims, n_blocks=len(bs),
               n_invariant_blocks=len(r.invariant))
    yield {"block_dims": dims, "chosen_block": _ints(r.b)}

    ext = r.ext
    inv.update(A_dim=int(ext.dim), quotient_order=int(ext.quot.order))
    yield {"A_dim": int(ext.dim),
           "component_dim": int((ext.degrees == 0).sum()),
           "quotient_order": int(ext.quot.order)}

    at = pipe.pointed()
    data, pt = at
    inv.update(P_order=int(data.P.order), n_points=len(data.points),
               n_local_points=sum(1 for q in data.points if q.local))
    yield {"P_order": int(data.P.order), "n_points": len(data.points),
           "idempotent": _ints(pt.idem), "local": bool(pt.local)}

    bl.verify_brauer_hom(kg, r.h, r.b, data.P, data.br)
    tgt = data.br.target
    yield {"fixed_dim": int(data.span.alg.dim),
           "brauer_dim": int(tgt.alg.dim) if tgt is not None else 0}

    _, e_data, fg, theta = pipe.fusion(at)
    inv.update({"|E|": int(e_data.quot.order), "|F|": int(fg.order)})
    yield {"|E|": int(e_data.quot.order), "|F|": int(fg.order),
           "pair_degrees": sorted(int(g) for _, g in fg.pairs)}

    ecd, fcd = cl.build_E(ext, data, pt, e_data), pipe.clifford_f(at)
    psi = cl.psi_iso(ext, pt, ecd, fcd, theta)
    inv["clifford_dim"] = int(ecd.dim)
    yield {"end_dim": int(ecd.dim), "corner_dim": int(fcd.graded.alg.dim),
           "psi": [_ints(row) for row in psi]}

    re, rf = cl.residual(ecd), pipe.residual_f(at)
    al.verify(cl.residuals_match(re, rf, group_map=theta.degree_map),
              "residual extensions are not equivalent")
    inv["residual_dim"] = int(re.graded.alg.dim)
    yield {"degree_map": theta.degree_map,
           "residual_dims": [int(re.graded.alg.dim), int(rf.graded.alg.dim)]}

    lbd = pipe.local_block(at)
    al.verify(cl.residuals_match(
        re, cl.local_residual(ext, data, pt, e_data, lbd)),
        "residual does not match the local construction")
    yield {"local_block_dim": int(lbd.block_span.alg.dim),
           "simple_dim": int(lbd.component.component_dim)}


# -- Morita pairs ----------------------------------------------------------------


def _relabeled(perm, elements) -> tuple:
    return tuple(pg.pconj(perm, x) for x in elements)


def _transport_vec(kg_l: bl.GroupAlgebra, kg_r: bl.GroupAlgebra, perm, v):
    out = np.zeros(kg_r.n, dtype=np.int64)
    for k, g in enumerate(kg_l.grp.elements):
        out[kg_r.index(pg.pconj(perm, g))] = v[k]
    return out


def verify_morita(ms: MoritaScenario, seed: int = 0,
                  cap_order: int = DEFAULT_CAP_ORDER) -> Report:
    """Check the conclusions of a supplied graded equivalence: matching
    fusion groups at corresponding local pointed subgroups, equivalent
    residual extensions, and matching graded local algebra dimensions."""
    left = Pipeline(ms.left, cap_order)
    right = left if ms.right == ms.left else Pipeline(ms.right, cap_order)
    return _verify_morita(ms, seed, left, right)


def _verify_morita(ms: MoritaScenario, seed: int, left: Pipeline,
                   right: Pipeline) -> Report:
    report = Report(scenario=ms.name, seed=seed)
    return _run_stages(report, _PAIR_STAGES,
                       _pair_stages(ms, left, right, report.invariants))


def _pair_stages(ms: MoritaScenario, left: Pipeline, right: Pipeline,
                 inv: dict):
    """The stages of `_PAIR_STAGES`, each yielding its witness."""
    if ms.identification == "identity":
        perm = pg.identity_perm(ms.left.degree)
    else:
        perm = pg.parse_cycles(ms.identification, ms.left.degree)
    rl, rr = left.resolved(), right.resolved()
    al.verify(sorted(_relabeled(perm, rl.g.elements)) == sorted(rr.g.elements),
              "identification does not map G onto G'")
    al.verify(sorted(_relabeled(perm, rl.h.elements)) == sorted(rr.h.elements),
              "identification does not map H onto H'")
    al.verify((_transport_vec(rl.kg, rr.kg, perm, rl.b) == rr.b).all(),
              "identification does not carry b to b'")
    # the pointed subgroup on the left; its image on the right lists the
    # relabeled elements in the left's order
    at_l = left.pointed(at_q=True)
    q = at_l[0].P
    data_r = right.points(pg.PermGroup(q.degree, _relabeled(perm, q.generators),
                                       _relabeled(perm, q.elements)))
    it = _transport_vec(rl.kg, rr.kg, perm, at_l[1].idem)
    matches = [x for x in data_r.points if al.same_point(
        data_r.span.alg, data_r.span.coords(it), data_r.span.coords(x.idem))]
    al.verify(len(matches) == 1,
              "identification does not map the point to a point")
    al.verify(matches[0].local, "transported point is not local")
    at_r = (data_r, matches[0])
    yield {"relabeling": list(perm), "Q_order": int(q.order)}

    fg_l, fg_r = left.fusion(at_l)[2], right.fusion(at_r)[2]
    al.verify(fg_l.order == fg_r.order, "fusion groups differ in order")
    # transport each pair (phi, gbar) through the relabeling; phi, a
    # permutation of positions in the element list, stays as it is
    quot_l, quot_r = rl.ext.quot, rr.ext.quot
    pair_map = [fg_r.pairs.index(
        (phi, quot_r.omega_of(pg.pconj(perm, quot_l.reps[gbar]))))
        for phi, gbar in fg_l.pairs]
    al.verify(sorted(pair_map) == list(range(fg_r.order)),
              "the pair map is not a bijection of F onto F'")
    al.verify(pg.is_table_hom(pair_map, fg_l.table, fg_r.table),
              "the pair map does not respect the multiplication tables")
    inv["|F|"] = int(fg_l.order)
    yield {"|F|": int(fg_l.order), "pair_map": pair_map}

    rf_l, rf_r = left.residual_f(at_l), right.residual_f(at_r)
    al.verify(cl.residuals_match(rf_l, rf_r, group_map=pair_map),
              "residual extensions are not equivalent")
    yield {"residual_dims": [int(rf_l.graded.alg.dim),
                             int(rf_r.graded.alg.dim)]}

    dims = [[int((lext.degrees == d).sum()) for d in range(lext.quot.order)]
            for lext in (left.local_extension(at_l),
                         right.local_extension(at_r))]
    al.verify(dims[0] == dims[1], "graded local algebras differ in dimension")
    inv["local_degree_dims"] = dims[0]
    yield {"per_degree_dims": dims[0]}


# -- the built-in catalog --------------------------------------------------------


def catalog() -> list:
    """The built-in scenarios, smallest first."""
    sc0 = Scenario(name="SC0-C2-over-C2", p=2, degree=2,
                   gens_g=["(0 1)"], gens_h=["(0 1)"])
    sc1 = Scenario(name="SC1-S3-over-C3", p=3, degree=3,
                   gens_g=["(0 1)", "(0 1 2)"], gens_h=["(0 1 2)"])
    sc2 = Scenario(name="SC2-S4-over-A4", p=2, degree=4,
                   gens_g=["(0 1)", "(0 1 2 3)"],
                   gens_h=["(0 1 2)", "(1 2 3)"],
                   subgroup=["(0 1)(2 3)", "(0 2)(1 3)"],
                   q=["(0 1)(2 3)"])
    sc3 = Scenario(name="SC3-S3-classical", p=3, degree=3,
                   gens_g=["(0 1)", "(0 1 2)"], gens_h=["(0 1)", "(0 1 2)"])
    # the dihedral group of order 8 in its degree-4 representation: the
    # nonabelian-P entry, sized so the homogeneous unit scan stays exhaustive
    sc4 = Scenario(name="SC4-D8-in-S4-classical", p=2, degree=4,
                   gens_g=["(0 1 2 3)", "(0 2)"],
                   gens_h=["(0 1 2 3)", "(0 2)"])
    return [sc0, sc1, sc2, sc3, sc4]


def morita_catalog() -> list:
    """Identity pairs for every scenario, plus relabeling-transport
    pairs for the two mixed-quotient entries."""
    out = [MoritaScenario(name=s.name + "-identity", left=s, right=s)
           for s in catalog()]
    by_name = {s.name: s for s in catalog()}
    sc1 = by_name["SC1-S3-over-C3"]
    out.append(MoritaScenario(name="SC1-relabeled", left=sc1, right=sc1,
                              identification="(0 1 2)"))
    sc2 = by_name["SC2-S4-over-A4"]
    sc2r = Scenario(name="SC2-relabeled-right", p=2, degree=4,
                    gens_g=["(0 1)", "(0 1 2 3)"],
                    gens_h=["(0 1 2)", "(1 2 3)"],
                    subgroup=["(0 1)(2 3)", "(0 2)(1 3)"],
                    q=["(0 2)(1 3)"])
    out.append(MoritaScenario(name="SC2-relabeled", left=sc2, right=sc2r,
                              identification="(1 2)"))
    return out


def run_catalog(seed: int = 0, cap_order: int = DEFAULT_CAP_ORDER) -> list:
    """Every built-in scenario, then every pair, with one Pipeline per
    distinct scenario."""
    pipes = {}

    def pipe(s):
        return pipes.setdefault(repr(s), Pipeline(s, cap_order))

    reports = [_run_scenario(pipe(s), seed) for s in catalog()]
    return reports + [_verify_morita(ms, seed, pipe(ms.left), pipe(ms.right))
                      for ms in morita_catalog()]


def emit_many(reports: list, fmt: str = "json") -> bytes:
    if fmt == "json":
        payload = {"schema": SCHEMA_VERSION,
                   "reports": [json.loads(emit(r).decode())
                               for r in reports]}
        return (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()
    if fmt == "text":
        return b"".join(emit(r, "text") for r in reports)
    raise ValueError(f"unknown format {fmt!r}")
