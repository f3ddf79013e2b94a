"""The tests import arguesia from this checkout's ``src`` (``pythonpath`` in
pyproject.toml); the interpreters they start find it there too."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
