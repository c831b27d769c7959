import json
import runpy

from tests import ROOT


def test_tracing_entry_points_resolve():
    # The benchmark's tracer wraps these names by lookup; a rename in src
    # would otherwise surface only as a failed traced run.
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    for owner, attr, span, _ in tracing["ENTRY_POINTS"]:
        assert callable(getattr(owner, attr, None)), (span, attr)


def test_layers_map_names_the_benchmark_per_layer_metrics():
    # perfbench/run.py refuses to run when these differ; catch it without a run.
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
