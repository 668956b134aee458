"""Let CLI subprocesses started by the tests import the checkout's src/.

pytest's own imports already find src/ through `pythonpath` in
pyproject.toml; a child interpreter only sees PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)
