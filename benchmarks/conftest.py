"""Make the test oracles (``tests/oracles``) importable from the benchmarks."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
