import subprocess
import sys

import pytest

from tests import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
