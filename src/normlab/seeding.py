"""Deterministic 64-bit seed derivation.

Trial seeds are derived from a master seed by an avalanche-quality mixing
function (the SplitMix64 finalizer), so that each trial's randomness is a
pure function of (master_seed, trial_index) and independent of execution
order or thread count.  A distortion sweep splits its randomness in two:
the sign matrix is per trial (``trial_seeds_for_xi``), and the probe
directions are per family and sweep (``sweep_probe_seed``), one set that
every trial of the sweep measures its own matrix with.
"""

from __future__ import annotations

import struct

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the stream of a sweep's probe seed: the bit pattern of a quiet NaN, which
# is the float_key of no xi that a trial runs at (an xi must be finite)
_PROBE_STREAM = 0x7FF8_0000_0000_0001


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Derive the seed for stream ``index`` from ``master``.

    Computes mix64(master + (index+1) * golden_gamma).  The finalizer is a
    bijection and the gamma is odd, so the map is injective in ``index``
    for a fixed master.
    """
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    return _mix64((master + ((index + 1) * _GOLDEN)) & _MASK)


def float_key(x: float) -> int:
    """The IEEE-754 bit pattern of ``x``, for mixing reals into seeds."""
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def trial_seeds_for_xi(master_seed: int, xi: float, trials: int) -> list[int]:
    """Per-(xi, trial) seeds, independent of sweep order or duplication."""
    xi_seed = derive_seed(master_seed, float_key(xi))
    return [derive_seed(xi_seed, t) for t in range(trials)]


def sweep_probe_seed(master_seed: int) -> int:
    """The probe seed that every trial of a sweep under ``master_seed`` shares.

    Its stream is the stream of no xi in ``trial_seeds_for_xi``.
    """
    return derive_seed(master_seed, _PROBE_STREAM)
