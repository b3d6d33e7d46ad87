import collections
import itertools
import json
import os
import subprocess
import sys
import textwrap

import pytest

from blockfusion import algebra as al
from blockfusion import blocks as bl
from blockfusion import cli
from blockfusion import clifford as cl
from blockfusion import fusion as fu
from blockfusion import graded as gr
from blockfusion import workbench as wb


def test_scenario_roundtrip():
    s = wb.catalog()[1]
    assert wb.scenario_from_dict(s.to_dict()) == s


def test_unknown_scenario_fields_rejected():
    d = wb.catalog()[0].to_dict()
    d["extra"] = 1
    with pytest.raises(ValueError, match="unknown"):
        wb.scenario_from_dict(d)


def test_future_schema_rejected():
    d = wb.catalog()[0].to_dict()
    d["schema"] = 2
    with pytest.raises(ValueError, match="schema"):
        wb.scenario_from_dict(d)


def test_missing_field_rejected():
    d = wb.catalog()[0].to_dict()
    del d["gens_H"]
    with pytest.raises(ValueError, match="gens_H"):
        wb.scenario_from_dict(d)


BAD_FIELDS = [("p", 4, "p must be a prime"), ("p", 1, "p must be a prime"),
              ("p", 0, "p must be a prime"), ("degree", 0, "degree must be"),
              # JSON integers only: int() would run 3.9 as GF(3)
              ("p", 3.9, "p must be an integer"), ("p", "3", "p must be an integer"),
              ("p", True, "p must be an integer"),
              ("degree", 3.5, "degree must be an integer"),
              ("degree", "3", "degree must be an integer"),
              ("block", True, "block selector must be an index"),
              ("block", 0.0, "block selector must be an index")]


@pytest.mark.parametrize("key, value, message", BAD_FIELDS)
def test_bad_field_rejected_at_ingestion(key, value, message):
    d = wb.catalog()[0].to_dict()
    d[key] = value
    with pytest.raises(ValueError, match=message):
        wb.scenario_from_dict(d)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("key, value, message", BAD_FIELDS)
def test_bad_field_rejected_in_a_pair(side, key, value, message):
    d = wb.morita_catalog()[0].to_dict()
    d[side][key] = value
    with pytest.raises(ValueError, match=message):
        wb.morita_from_dict(d)


def _with_generator(d, key, gen):
    """A copy of a scenario dict whose field `key` carries one more generator."""
    d = dict(d)
    gens = d.get(key)
    d[key] = (gens if isinstance(gens, list) else []) + [gen]
    return d


# SC2 (S4 over A4) has degree 4 and an explicit P and Q; (0 5) names point 5
BAD_GENERATORS = [(key, gen) for key in ("gens_G", "gens_H", "P", "Q")
                  for gen in ("(0 5)", "(0 1)(1 2)", "0 1", 7)]


@pytest.mark.parametrize("key, gen", BAD_GENERATORS)
def test_bad_generator_rejected_at_ingestion(key, gen):
    d = wb.catalog()[2].to_dict()
    assert d["degree"] == 4 and isinstance(d["P"], list) and d["Q"]
    with pytest.raises(ValueError, match=f"^{key}: "):
        wb.scenario_from_dict(_with_generator(d, key, gen))


def test_out_of_degree_generator_rejected_at_degree_three():
    d = dict(wb.catalog()[1].to_dict(), gens_G=["(0 5)"])
    assert d["degree"] == 3
    with pytest.raises(ValueError, match="gens_G: point 5 out of range for degree 3"):
        wb.scenario_from_dict(d)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("key", ["gens_G", "gens_H", "P", "Q"])
def test_bad_generator_rejected_in_a_pair(side, key):
    d = next(m for m in wb.morita_catalog()
             if m.name == "SC2-S4-over-A4-identity").to_dict()
    d[side] = _with_generator(d[side], key, "(0 5)")
    with pytest.raises(ValueError, match=f"^{key}: point 5 out of range"):
        wb.morita_from_dict(d)


@pytest.mark.parametrize("key", ["name", "left", "right"])
def test_missing_pair_field_rejected(key):
    d = wb.morita_catalog()[1].to_dict()
    del d[key]
    with pytest.raises(ValueError, match=f"pair is missing '{key}'"):
        wb.morita_from_dict(d)


# the left scenario of SC1-relabeled has degree 3
@pytest.mark.parametrize("ident, message", [
    (5, "identification: generator 5 is not a cycle string"),
    ("(0 7)", "identification: point 7 out of range for degree 3"),
    ("0 1", "identification: bad cycle notation")])
def test_bad_identification_rejected_in_a_pair(ident, message):
    d = next(m for m in wb.morita_catalog()
             if m.name == "SC1-relabeled").to_dict()
    assert wb.morita_from_dict(d).identification == "(0 1 2)"
    d["identification"] = ident
    with pytest.raises(ValueError, match=f"^{message}"):
        wb.morita_from_dict(d)


# an explicit P (or Q) that is not a p-subgroup of G fails the points stage
# (identification for a pair) before B^P is built, with what is wrong
NOT_P_SUBGROUPS = [("SC2-S4-over-A4", "P", "(0 1 2)", "P is not a p-group"),
                   ("SC1-S3-over-C3", "P", "(0 1)", "P is not a p-group"),
                   ("SC4-D8-in-S4-classical", "P", "(0 1)",
                    "P is not a subgroup of G"),
                   ("SC2-S4-over-A4", "Q", "(0 1 2)", "Q is not a p-group"),
                   ("SC4-D8-in-S4-classical", "Q", "(0 1)",
                    "Q is not a subgroup of G")]


@pytest.mark.parametrize("name, key, gen, message", NOT_P_SUBGROUPS)
def test_explicit_subgroup_must_be_a_p_subgroup_of_G(monkeypatch, name, key,
                                                    gen, message):
    monkeypatch.setattr(bl, "points_at", None)  # never reached
    d = dict(next(s for s in wb.catalog() if s.name == name).to_dict(),
             **{key: [gen]})
    s = wb.scenario_from_dict(d)
    if key == "P":
        check = wb.run_scenario(s).checks[2]
    else:
        check = wb.verify_morita(wb.MoritaScenario("pair", s, s)).checks[0]
    assert (check.status, check.witness) == ("fail", {"error": message})


def test_catalog_shape():
    cat = wb.catalog()
    assert len(cat) == 5
    assert len({s.name for s in cat}) == 5
    pairs = wb.morita_catalog()
    assert len(pairs) == 7  # one identity pair per scenario + two relabelings


def test_trivial_scenario_runs_clean():
    r = wb.run_scenario(wb.catalog()[0])
    assert r.passed()
    assert r.invariants["|E|"] == 1
    assert r.invariants["|F|"] == 1


def test_mixed_quotient_scenario_invariants():
    r = wb.run_scenario(wb.catalog()[1])
    assert r.passed()
    assert r.invariants["|E|"] == 2
    assert r.invariants["|F|"] == 2
    assert r.invariants["quotient_order"] == 2
    # every pass carries a witness
    assert all(c.witness is not None for c in r.checks)


def test_classical_scenario_has_trivial_degrees():
    r = wb.run_scenario(wb.catalog()[3])
    assert r.passed()
    assert r.invariants["quotient_order"] == 1
    fusion = next(c for c in r.checks if c.name == "fusion")
    assert fusion.witness["pair_degrees"] == [0, 0]


# non-split residual 1-components: GF(8) under C3 by Frobenius for F21
# over C7, GF(4) under C2 for S3 over C3
NON_SPLIT = {
    f"F21-over-C7-block-{b}": wb.Scenario(
        name=f"F21-over-C7-block-{b}", p=2, degree=7,
        gens_g=["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"],
        gens_h=["(0 1 2 3 4 5 6)"], block=b)
    for b in (0, 1, 2)
}
NON_SPLIT["S3-over-C3-block-0"] = wb.Scenario(
    name="S3-over-C3-block-0", p=2, degree=3, gens_g=["(0 1)", "(0 1 2)"],
    gens_h=["(0 1 2)"], block=0)


@pytest.mark.parametrize("name", sorted(NON_SPLIT))
def test_non_split_blocks_pass_every_stage(name):
    r = wb.run_scenario(NON_SPLIT[name])
    assert len(r.checks) == 8
    assert r.passed(), [(c.name, c.status, c.witness) for c in r.checks]


def test_failed_stage_skips_the_rest():
    s = wb.Scenario(name="bad", p=3, degree=3,
                    gens_g=["(0 1)", "(0 1 2)"], gens_h=["(0 1 2)"],
                    block=7)
    r = wb.run_scenario(s)
    assert r.checks[0].status == "fail"
    assert "out of range" in r.checks[0].witness["error"]
    assert all(c.status == "inconclusive" for c in r.checks[1:])


def test_partial_pipeline_stops_at_requested_stage():
    r = wb.run_scenario(wb.catalog()[1], through="brauer")
    assert [c.name for c in r.checks] == \
        ["blocks", "extension", "points", "brauer"]
    assert r.passed()


def test_emit_empty_report_is_versioned_json():
    d = json.loads(wb.emit(wb.Report()).decode())
    assert d["schema"] == wb.SCHEMA_VERSION
    assert d["checks"] == []


def test_emit_parse_roundtrip():
    # the canonical form is sorted, compact JSON: parsing and dumping it
    # again gives the same bytes
    r = wb.run_scenario(wb.catalog()[0])
    out = wb.emit(r)
    again = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    assert (again + "\n").encode() == out


def test_emit_text_format():
    r = wb.run_scenario(wb.catalog()[0])
    text = wb.emit(r, "text").decode()
    assert "blocks" in text and "pass" in text
    with pytest.raises(ValueError, match="format"):
        wb.emit(r, "yaml")


def test_identity_morita_pair_passes():
    ms = wb.morita_catalog()[1]  # identity pair on the S3/C3 scenario
    r = wb.verify_morita(ms)
    assert r.passed()
    assert r.invariants["|F|"] == 2


def test_relabeled_morita_pair_passes():
    ms = next(m for m in wb.morita_catalog() if m.name == "SC1-relabeled")
    r = wb.verify_morita(ms)
    assert r.passed()


def test_pair_schema_rejects_unknown_bimodule():
    d = wb.morita_catalog()[0].to_dict()
    d["bimodule"] = "custom"
    with pytest.raises(ValueError, match="bimodule"):
        wb.morita_from_dict(d)


def test_cli_stage_commands(tmp_path):
    sc = tmp_path / "sc1.json"
    sc.write_text(json.dumps(wb.catalog()[1].to_dict()))
    out = tmp_path / "report.json"
    assert cli.main(["fusion", str(sc), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["invariants"]["|E|"] == 2
    assert [c["name"] for c in d["checks"]][-1] == "fusion"


def test_cli_seed_recorded_and_deterministic(tmp_path):
    sc = tmp_path / "sc1.json"
    sc.write_text(json.dumps(wb.catalog()[1].to_dict()))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["verify", str(sc), "--seed", "7", "--out", str(a)]) == 0
    assert cli.main(["verify", str(sc), "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["seed"] == 7


def test_cli_catalog_listing(capsys):
    assert cli.main(["catalog"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert "SC1-S3-over-C3" in d["catalog"]


def test_cli_rejects_oversized_groups(tmp_path):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(wb.catalog()[1].to_dict()))
    out = tmp_path / "r.json"
    assert cli.main(["blocks", str(sc), "--cap-order", "2",
                     "--out", str(out)]) == 1
    d = json.loads(out.read_text())
    assert d["checks"][0]["status"] == "fail"


def test_cli_verify_morita(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(wb.morita_catalog()[1].to_dict()))
    assert cli.main(["verify-morita", str(pair), "--format", "text"]) == 0


def test_pair_checks_survive_python_O():
    # python -O strips assert statements; the pair checks must still run
    script = textwrap.dedent("""
        import json, sys
        from blockfusion import workbench as wb
        by_name = {s.name: s for s in wb.catalog()}
        ms = wb.MoritaScenario(name="SC1-vs-SC3",
                               left=by_name["SC1-S3-over-C3"],
                               right=by_name["SC3-S3-classical"])
        print("optimize", sys.flags.optimize)
        r = wb.verify_morita(ms)
        print(json.dumps([[c.name, c.status, c.witness] for c in r.checks]))
    """)
    src = os.path.dirname(os.path.dirname(wb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    optimize, checks = proc.stdout.splitlines()
    assert optimize == "optimize 1"
    assert json.loads(checks) == [
        ["identification", "fail",
         {"error": "identification does not map H onto H'"}],
        ["fusion-iso", "inconclusive", {"reason": "skipped"}],
        ["residual-equivalence", "inconclusive", {"reason": "skipped"}],
        ["local-algebra-dims", "inconclusive", {"reason": "skipped"}]]


@pytest.mark.parametrize("exc", [al.Inconclusive, al.MeataxeBudgetExceeded])
def test_exhausted_search_is_inconclusive_not_fail(monkeypatch, exc):
    def out_of_budget(ext, cd):
        raise exc("search budget of 7 candidates exhausted")

    monkeypatch.setattr(fu, "fusion_F_normalizer", out_of_budget)
    r = wb.run_scenario(wb.catalog()[1])
    got = [(c.name, c.status) for c in r.checks]
    assert got == [("blocks", "pass"), ("extension", "pass"),
                   ("points", "pass"), ("brauer", "pass"),
                   ("fusion", "inconclusive"), ("clifford", "inconclusive"),
                   ("residuals", "inconclusive"),
                   ("local-residual", "inconclusive")]
    assert r.checks[4].witness == {
        "reason": "search budget of 7 candidates exhausted"}
    assert all(c.witness == {"reason": "skipped"} for c in r.checks[5:])
    assert not r.passed()


def test_a_cochain_search_past_its_cap_is_inconclusive(monkeypatch):
    # SC1's residual 1-components are GF(3): two units on one generator of
    # C2 already exceed a cap of 1, and no other search stands in for it
    monkeypatch.setattr(gr, "COCHAIN_CAP", 1)
    r = wb.run_scenario(wb.catalog()[1])
    got = [(c.name, c.status) for c in r.checks]
    assert got[:6] == [(name, "pass") for name in wb._STAGES[:6]]
    assert got[6:] == [("residuals", "inconclusive"),
                       ("local-residual", "inconclusive")]
    assert r.checks[6].witness == {"reason": "cochain search exceeds cap"}


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of the pipeline's costly stages."""
    counts = collections.Counter()
    for mod, name in ((wb, "resolve_scenario"), (fu, "fusion_report"),
                      (cl, "build_F"), (bl, "local_block_data"),
                      (bl, "local_block_from"), (bl, "local_block_idempotent"),
                      (bl, "extended_brauer_extension"), (bl, "points_at"),
                      (bl, "pointed_group_contains"), (bl, "blocks")):
        def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return counts


# the calls of the costly stages in a pair report of one scenario: a pair
# compares the dimensions of the local extension, which needs the local
# block idempotent b_delta but not the structure of B(Q) b_delta
STAGE_FUNCTIONS = {"resolve_scenario": 1, "fusion_report": 1, "build_F": 1,
                   "local_block_data": 0, "local_block_from": 0,
                   "local_block_idempotent": 1, "extended_brauer_extension": 1}


@pytest.mark.parametrize("name", ["SC1-S3-over-C3-identity",
                                  "SC2-S4-over-A4-identity",
                                  "SC4-D8-in-S4-classical-identity",
                                  "SC1-relabeled"])
def test_pair_of_one_scenario_computes_it_once(calls, name):
    ms = next(m for m in wb.morita_catalog() if m.name == name)
    assert wb.verify_morita(ms).passed()
    assert {f: calls[f] for f in STAGE_FUNCTIONS} == STAGE_FUNCTIONS


def test_pair_of_two_scenarios_computes_each_once(calls):
    ms = next(m for m in wb.morita_catalog() if m.name == "SC2-relabeled")
    assert wb.verify_morita(ms).passed()
    assert {f: calls[f] for f in STAGE_FUNCTIONS} == {
        f: 2 * n for f, n in STAGE_FUNCTIONS.items()}


def test_catalog_shares_one_pipeline_per_scenario(calls):
    reports = wb.run_catalog()
    assert all(r.passed() for r in reports)
    # 6 distinct scenarios; SC2 is run at P and its pairs at Q
    assert calls["resolve_scenario"] == 6
    assert calls["fusion_report"] == 7
    # once per pipeline and local pointed group that a pair compares
    assert calls["extended_brauer_extension"] == 6
    # b_delta once per pipeline and local pointed group, read by the local
    # block of each scenario report and by the local extension of each pair
    assert calls["local_block_idempotent"] == 7
    assert calls["local_block_from"] == 5 and calls["local_block_data"] == 0
    # once per subgroup a defect search visits or a scenario or pair names;
    # the defect searches visit only the subgroups of the largest order
    assert calls["points_at"] == 7
    assert calls["pointed_group_contains"] == 0


@pytest.mark.parametrize("s", wb.catalog(), ids=lambda s: s.name)
def test_resolving_a_scenario_builds_its_blocks_once(calls, s):
    # the invariant blocks come from the G-orbit sums, not from the blocks
    r = wb.resolve_scenario(s)
    assert calls["blocks"] == 1 and r.invariant


def record_radicals(monkeypatch, per_report=None):
    """The content (p, sc, unit) of every algebra whose radical is derived.
    Given a list `per_report`, each is also appended to it as (report,
    content), the report numbered by the `_run_stages` call it falls in."""
    seen = []
    orig = al._radical
    numbers, current = itertools.count(), [None]

    def recording(a, *args):
        seen.append((a.p, a.sc.tobytes(), a.unit.tobytes()))
        if per_report is not None:
            per_report.append((current[0], seen[-1]))
        return orig(a, *args)

    def numbered(*args, _real=wb._run_stages):
        current[0] = next(numbers)
        return _real(*args)

    monkeypatch.setattr(al, "_radical", recording)
    monkeypatch.setattr(wb, "_run_stages", numbered)
    return seen


def test_each_algebra_derives_its_radical_once_per_report(monkeypatch):
    # the E side, the F side and the local residual build algebras equal
    # to ones already built (B^P, the residual 1-components): inside one
    # report they share the invariants the first one derived
    derived = []
    record_radicals(monkeypatch, derived)
    assert all(r.passed() for r in wb.run_catalog(seed=7))
    assert derived and all(report is not None for report, _ in derived)
    assert len(set(derived)) == len(derived)


def test_no_pipeline_path_runs_the_dense_associativity_check(monkeypatch):
    # the graded kernel and Passman's identities certify every graded
    # algebra the pipeline builds; no Algebra runs its dense check
    def refuse(self):
        raise AssertionError("dense associativity check on the pipeline path")

    monkeypatch.setattr(al.Algebra, "_check_axioms", refuse)
    assert all(r.passed() for r in wb.run_catalog(seed=7))
    data = os.path.join(os.path.dirname(__file__), "data", "s5-a5-p3.json")
    with open(data) as fh:
        s5 = wb.scenario_from_dict(json.load(fh))
    assert wb.run_scenario(s5, seed=7).passed()


def test_defect_search_stops_at_the_largest_order(calls):
    # S4 over A4 at p = 2: the first dihedral Sylow subgroup holds a local
    # point, so neither its two conjugates nor a smaller 2-subgroup is
    # visited, and no containment is tested
    s = wb.Scenario(name="S4-A4", p=2, degree=4, gens_g=["(0 1)", "(0 1 2 3)"],
                    gens_h=["(0 1 2)", "(1 2 3)"])
    r = wb.run_scenario(s, through="points")
    assert r.passed() and r.invariants["P_order"] == 8
    assert calls["points_at"] == 1
    assert calls["pointed_group_contains"] == 0


def test_a_second_call_recomputes(monkeypatch):
    seen = record_radicals(monkeypatch)
    s = wb.catalog()[1]
    ms = wb.MoritaScenario(name="pair", left=s, right=s)
    first = wb.emit(wb.run_scenario(s))
    n = len(seen)
    assert n
    assert wb.emit(wb.run_scenario(s)) == first
    assert len(seen) == 2 * n
    # a pair call is a call of its own: it shares nothing with the ones before
    assert wb.verify_morita(ms).passed()
    assert set(seen[2 * n:]) <= set(seen[:n]) and len(seen) > 2 * n
