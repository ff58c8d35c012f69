"""Make the benchmark's modules and the program importable.

Run from the root of a checkout:  python -m pytest perfbench/tests
"""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
