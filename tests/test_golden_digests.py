"""The exact/, sigma/, net/ and cheap csv/ digests of ``tools/digests.py``
keep their bits.

``tests/golden_digests.txt`` holds them with the numpy and BLAS build they
were made on.  Bits depend on the BLAS kernels and on numpy's SIMD loops,
so the tool runs OpenBLAS's Haswell kernels and numpy's X86_V3 loops, which
every CPU with AVX2 and FMA3 can run, whatever core it is.  The test skips
only on a CPU without those, or on another numpy or OpenBLAS build, naming
both builds.  After an intended change of these outputs, regenerate the file
as the tool's docstring says; its diff then shows which outputs moved.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BUILD = "# made on "


def test_exact_sigma_net_and_csv_digests_keep_their_bits():
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2, else numpy 1
    if not (umath.__cpu_features__.get("AVX2") and umath.__cpu_features__.get("FMA3")):
        pytest.skip("the Haswell kernels and the X86_V3 loops need a CPU with AVX2 and FMA3")
    levels = list(umath.__cpu_dispatch__)  # in ascending order
    if "X86_V3" not in levels:
        pytest.skip(f"numpy {np.__version__} has no X86_V3 level to dispatch at; its levels: {levels}")
    want = (ROOT / "tests" / "golden_digests.txt").read_text(encoding="utf-8").splitlines()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digests.py"), "--golden"],
        env={
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": " ".join(levels[levels.index("X86_V3") + 1:]),
        },
        capture_output=True,
        text=True,
        check=True,
    )
    got = proc.stdout.splitlines()
    made = next(line for line in want if line.startswith(BUILD))[len(BUILD):]
    here = next(line for line in got if line.startswith(BUILD))[len(BUILD):]
    if made != here:
        pytest.skip(f"the golden digests were made on {made}; this is {here}")
    moved = [w.split()[0] for w, g in zip(want, got) if w != g]
    assert not moved, f"{len(moved)} digests moved, the first: {moved[:5]}"
    assert len(got) == len(want)
