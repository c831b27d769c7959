import json
import re
import runpy

from lexjoin import access, hardness, index_io, storage
from tests import ROOT


def test_tracing_entry_points_resolve():
    # The benchmark's tracer wraps these names by lookup; a rename in src
    # would otherwise surface only as a failed traced run.
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    for owner, attr, span, _ in tracing["ENTRY_POINTS"]:
        assert callable(getattr(owner, attr, None)), (span, attr)
    # The set-up entry points are storage.gc_paused wrappers, which must keep
    # the name and docstring of the function they wrap.
    for fn in (storage.load, access.build_index, index_io.load_index):
        assert fn.__name__ == fn.__wrapped__.__name__ and fn.__doc__ == fn.__wrapped__.__doc__
        assert fn.__doc__ and "cyclic GC paused" in fn.__doc__, fn.__name__
    assert hardness.build_index is access.build_index


def test_traced_build_records_its_join():
    # perfbench/layers.json maps wcoj.generic_join_s to setup_s through the spans of
    # access.generic_join; a build that joined under another name would read 0.
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    q, order = hardness.star_query(3)
    arms = {f"R{i}": (["int", "int"], [(x, z) for x in range(i + 1) for z in range(3)]) for i in (1, 2, 3)}
    db = storage.build_database(arms)
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        ix = access.build_index(q, order, db)
    finally:
        tracer.uninstall()
    join = tracer.totals()[("", "wcoj.generic_join")]
    assert join.calls == ix.stats["multiatom_joins"] == 1
    assert join.work == ix.stats["bag_rows"][-1] == 2 * 3 * 4 * 3


def test_layers_map_names_the_benchmark_per_layer_metrics():
    # perfbench/run.py refuses to run when these differ; catch it without a run.
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])


def test_readme_names_the_current_index_format():
    # The README's "magic `LJDAn`" is the format load accepts; any other LJDA
    # it names is an earlier format, one that must be rebuilt.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    current = index_io.MAGIC.decode()
    assert re.findall(r"magic `(LJDA\d+)`", readme) == [current]
    version = int(current[4:])
    assert all(int(d) <= version for d in re.findall(r"LJDA(\d+)", readme))
