import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH, for subprocesses."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
