"""Let the CLI subprocesses that tests start import the in-tree package.

pytest's `pythonpath = ["src"]` setting puts src/ on this process's
sys.path only; criterion 10 runs `python -m vlbb84.cli` as a child
process, which finds the package through PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    parts = [SRC, os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in parts if p)
