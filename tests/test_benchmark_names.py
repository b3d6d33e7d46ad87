"""The per-layer metrics of BENCHMARK.json name spans of the blockfusion
layers; a deleted or renamed function must show here, not only in a
traced benchmark run.  Reads BENCHMARK.json and perfbench/run.py."""
import importlib
import importlib.util
import inspect
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def benchmarked_spans() -> set:
    """The span names `perfbench/run.py` reads for the per-layer metrics,
    recorded by asking it for every metric of one fake pass."""
    run = load_run()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    read = set()

    class Spans(dict):
        def __missing__(self, span):
            read.add(span)
            return {"calls": 1, "s": 0.0, "aux": 0}

    class Zeros(dict):
        def __missing__(self, key):
            return 0.0

    fake = {"traced": True, "wall_s": 1.0, "stages": {},
            "trace": {"per_name": Spans(), "layer_self_s": Zeros(),
                      "root_s": 1.0, "normalizer_candidates": 0}}
    run.per_layer({"passes": [fake, dict(fake, traced=False)]}, names)
    return read


def resolve(span: str):
    """The public function, method or property getter of blockfusion
    that a span "<layer>.<function>" or "<layer>.<Class>.<method>" names."""
    layer, *path = span.split(".")
    assert not any(part.startswith("_") for part in path), span
    obj = importlib.import_module(f"blockfusion.{layer}")
    for part in path:
        assert hasattr(obj, part), f"{span}: blockfusion.{layer} has no {part}"
        obj = inspect.getattr_static(obj, part)
    obj = obj.fget if isinstance(obj, property) else obj
    assert inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj), span
    assert obj.__module__ == f"blockfusion.{layer}", span
    return obj


def test_every_benchmarked_span_is_a_public_function():
    spans = benchmarked_spans()
    assert "graded.graded_iso_search" in spans
    assert "algebra.Algebra.is_unit_element" in spans  # through SPAN_ALIASES
    for span in sorted(spans):
        resolve(span)
