"""Put `src/` on PYTHONPATH for the interpreters the CLI tests start, as
`pythonpath` in pyproject.toml does for this process, so the suite runs
from a checkout without installing the package."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
