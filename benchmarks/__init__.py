"""The normlab benchmark: end-to-end metrics per workload and a traced per-layer run.

Run from the root of a checkout:

    python3 -m benchmarks.run --workload trend-n16 --seed 1 --seconds 25 --trace 0

The program under test is always the checkout's own ``src/normlab``; a
copy installed elsewhere is never used.  See ``benchmarks/NOTES.md``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROGRAM = SRC / "normlab"
WORK = ROOT / ".bench_out"

# thread settings every benchmark process runs with
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class MissingProgramError(RuntimeError):
    """The checkout has no ``src/normlab`` to benchmark."""


def import_normlab():
    """Import ``normlab`` from this checkout's ``src``, never from elsewhere."""
    if not (PROGRAM / "__init__.py").is_file():
        raise MissingProgramError(f"no normlab package at {PROGRAM}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    normlab = importlib.import_module("normlab")
    if Path(normlab.__file__).resolve().parent != PROGRAM.resolve():
        raise MissingProgramError(f"normlab was imported from {normlab.__file__}, not {SRC}")
    return normlab
