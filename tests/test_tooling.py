import runpy

from tests import ROOT


def test_tracing_entry_points_resolve():
    # The benchmark's tracer wraps these names by lookup; a rename in src
    # would otherwise surface only as a failed traced run.
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    for owner, attr, span, _ in tracing["ENTRY_POINTS"]:
        assert callable(getattr(owner, attr, None)), (span, attr)
