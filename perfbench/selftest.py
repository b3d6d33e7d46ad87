"""Self-tests of the benchmark: the seeded input generator, the reference
gate, the tracer, and the command's output contract.  Run from the root
of a checkout (takes about two minutes):

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from blockfusion import algebra as al  # noqa: E402
from blockfusion import fusion as fu  # noqa: E402
from blockfusion import permgroups as pg  # noqa: E402
from blockfusion import workbench as wb  # noqa: E402


def _dicts(calls):
    return [arg.to_dict() for _, arg in calls]


def test_inputs_follow_the_seed():
    calls, sigmas = inputs.make_pass("small-catalog", 1, 0)
    again, sigmas_again = inputs.make_pass("small-catalog", 1, 0)
    other, sigmas_other = inputs.make_pass("small-catalog", 2, 0)
    assert _dicts(calls) == _dicts(again) and sigmas == sigmas_again
    assert sigmas != sigmas_other
    assert sorted(sigmas) == sorted(inputs.SMALL)


def test_pair_identification_is_conjugated():
    calls, sigmas = inputs.make_pass("small-catalog", 3, 0)
    pair = next(arg for _, arg in calls if arg.name == "SC1-relabeled")
    sigma = tuple(sigmas["SC1-S3-over-C3"])
    pi = pg.parse_cycles("(0 1 2)", 3)
    assert pair.identification == pg.format_cycles(pg.pconj(sigma, pi))
    scen = next(arg for _, arg in calls if arg.name == "SC1-S3-over-C3")
    assert pair.left.to_dict() == scen.to_dict()


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_entries_give_the_reference_invariants(seed):
    reference = worker.load_reference()
    for workload in inputs.WORKLOADS:
        calls, _ = inputs.make_pass(workload, seed, 0)
        rec = worker.run_pass(calls, reference)
        assert rec["attempted"] == sum(
            worker.CHECKS_PER_CALL[kind] for kind, _ in calls)
        assert rec["failed"] == 0, workload


def test_gate_fails_every_check_of_a_report_with_other_invariants():
    s = wb.catalog()[0]
    report = wb.run_scenario(s)
    reference = worker.load_reference()
    assert worker.judge("scenario", report, reference) == (8, 0)
    wrong = dict(reference, **{s.name: {**reference[s.name], "A_dim": 99}})
    assert worker.judge("scenario", report, wrong) == (8, 8)
    assert worker.judge("pair", None, reference) == (4, 4)


def _traced(kind, arg):
    tr = tracer.Tracer()
    with tr:
        report = worker.call(kind, arg)
    return report, tr.spans()


def test_tracer_sees_the_call_from_fusion_to_find_unit_in_space():
    calls, _ = inputs.make_pass("small-catalog", 1, 0)
    kind, sc1 = next(c for c in calls if c[1].name == "SC1-S3-over-C3")
    _, sp = _traced(kind, sc1)
    names = list(sp["names"])
    mine = sp["span_name"] == names.index("algebra.find_unit_in_space")
    parents = sp["names"][sp["span_name"][sp["parent"][mine]]]
    assert mine.any()
    assert any(p.startswith("fusion.") for p in parents)


def test_traced_reports_equal_untraced_ones():
    calls, _ = inputs.make_pass("small-catalog", 5, 0)
    for kind, arg in calls:
        if arg.name in ("SC1-S3-over-C3", "SC1-relabeled"):
            plain = worker.call(kind, arg)
            traced, _ = _traced(kind, arg)
            assert wb.emit(plain) == wb.emit(traced)


def test_algebra_work_called_from_clifford_is_charged_to_algebra():
    calls, _ = inputs.make_pass("small-catalog", 1, 0)
    kind, sc1 = next(c for c in calls if c[1].name == "SC1-S3-over-C3")
    _, sp = _traced(kind, sc1)
    names = list(sp["names"])
    dur = sp["end"] - sp["start"]
    mul = np.flatnonzero(
        sp["span_name"] == names.index("algebra.Algebra.mul"))
    parent_name = sp["names"][sp["span_name"][sp["parent"][mul]]]
    from_clifford = mul[np.char.startswith(parent_name, "clifford.")]
    assert len(from_clifford)
    out = tracer.summarize(sp)
    mul_self = out["per_name"]["algebra.Algebra.mul"]["self_s"]
    assert 0 < mul_self <= out["layer_self_s"]["algebra"]
    # each clifford caller's own time leaves out the mul calls it made
    for caller in set(parent_name[np.char.startswith(parent_name,
                                                     "clifford.")]):
        inside = from_clifford[sp["names"][sp["span_name"][
            sp["parent"][from_clifford]]] == caller]
        row = out["per_name"][caller]
        assert row["self_s"] <= row["s"] - dur[inside].sum() + 1e-9


def test_tracer_wraps_methods_and_restores_everything():
    identity = pg.GroupTable.__dict__["identity"]
    is_unit = al.Algebra.is_unit_element
    init = al.Algebra.__init__
    tr = tracer.Tracer()
    with tr:
        assert fu.find_unit_in_space is al.find_unit_in_space
        assert hasattr(fu.find_unit_in_space, "__wrapped__")
        assert al.Algebra.is_unit_element is not is_unit
        assert al.Algebra.__init__ is not init
        assert al.SpanAlgebra.coords.__wrapped__ is not None
        assert pg.GroupTable.__dict__["identity"] is not identity
        assert isinstance(pg.GroupTable.__dict__["identity"], property)
    assert not hasattr(fu.find_unit_in_space, "__wrapped__")
    assert al.Algebra.is_unit_element is is_unit
    assert al.Algebra.__init__ is init
    assert not hasattr(al.SpanAlgebra.coords, "__wrapped__")
    assert pg.GroupTable.__dict__["identity"] is identity


def test_self_time_and_recursion():
    # f [0, 10] calls g [1, 4] (which calls f [2, 3]) and h [5, 7]
    sp = {"names": np.array(["gfp.f", "polys.g", "polys.h"]),
          "span_name": np.array([0, 1, 0, 2]),
          "parent": np.array([-1, 0, 1, 0]),
          "start": np.array([0.0, 1.0, 2.0, 5.0]),
          "end": np.array([10.0, 4.0, 3.0, 7.0]),
          "aux": np.zeros(4, dtype=np.int64)}
    out = tracer.summarize(sp)
    f, g = out["per_name"]["gfp.f"], out["per_name"]["polys.g"]
    assert (f["calls"], f["s"], f["self_s"]) == (2, 10.0, 6.0)
    assert (g["calls"], g["s"], g["self_s"]) == (1, 3.0, 2.0)
    assert out["layer_self_s"]["polys"] == 4.0
    assert out["root_s"] == 10.0
    assert tracer.count_under(sp, "gfp.f", "polys.g") == 1


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-catalog",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
