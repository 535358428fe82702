"""Time one set-up in a fresh interpreter: import plauscalc, generate inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SCALE
Prints one JSON object: the set-up time and the sha256 of the inputs.
"""

import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import plauscalc  # noqa: E402,F401
import gen  # noqa: E402

raw = gen.generate(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
setup_s = time.perf_counter() - t0
print(f'{{"setup_s": {setup_s!r}, "inputs_sha256": "{gen.digest(raw)}"}}')
