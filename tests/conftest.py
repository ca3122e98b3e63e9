"""Let the CLI subprocesses started by the tests import ./src too.

`pythonpath` in pyproject.toml covers the test process only; child
processes read PYTHONPATH.
"""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
