"""Random sign matrices and exhaustive sign enumeration.

Sign matrices are n x N arrays over {-1, +1}, stored bit-packed
(bit 1 -> +1, bit 0 -> -1).  Exhaustive enumeration tables list the 2^n
sign vectors in reflected Gray-code order, so consecutive vectors differ
in a single coordinate.  Since ||sum eps_i w_i|| is invariant under eps -> -eps, the
heavy kernels enumerate one representative per antipodal pair (the last
coordinate pinned to +1) and weight each value twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionMismatchError

# default cap on n for exact 2^n enumeration: sign tables, the exact-norm
# kernel and the ``max_enum_n`` of configs
ENUMERATION_CAP = 22

# default cap on the dual-cube dimension m of an exact l1 weak variance
# (2^(m-1) dual vertices): the ``max_dual_vertices_m`` of configs
VERTEX_ENUM_CAP = 20

# default cap on n*N entries of a sampled matrix (~8 MiB packed)
SAMPLE_ENTRY_CAP = 1 << 26


@dataclass(frozen=True)
class SeedRecord:
    """Where a sampled matrix came from: master seed and trial index."""

    seed: int
    trial_index: int | None = None


class SignMatrix:
    """Immutable n x N matrix of +-1 entries, bit-packed."""

    __slots__ = ("n", "N", "_packed", "seed_record", "_dense")

    def __init__(self, packed: np.ndarray, n: int, N: int, seed_record: SeedRecord | None):
        self.n = int(n)
        self.N = int(N)
        self._packed = packed
        self.seed_record = seed_record
        self._dense = None

    @classmethod
    def from_dense(cls, entries) -> "SignMatrix":
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatchError("sign matrix must be 2-d with positive shape")
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("sign matrix entries must all be -1 or +1")
        bits = (arr > 0).astype(np.uint8)
        packed = np.packbits(bits.reshape(-1))
        packed.setflags(write=False)
        return cls(packed, arr.shape[0], arr.shape[1], None)

    def dense(self) -> np.ndarray:
        """The matrix as float64 +-1 entries (cached, read-only)."""
        if self._dense is None:
            bits = np.unpackbits(self._packed, count=self.n * self.N)
            d = bits.reshape(self.n, self.N).astype(np.float64) * 2.0 - 1.0
            d.setflags(write=False)
            self._dense = d
        return self._dense

    @property
    def xi(self) -> float:
        """Oversampling ratio N/n - 1."""
        return self.N / self.n - 1.0

    @staticmethod
    def columns_for_xi(n: int, xi: float) -> int:
        """N = round((1+xi) n): the columns of an n-row matrix at oversampling ratio xi."""
        return int(round((1.0 + xi) * n))

    def __eq__(self, other):
        if not isinstance(other, SignMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.N == other.N
            and np.array_equal(self._packed, other._packed)
        )


def sample_sign_matrix(
    n: int,
    N: int,
    seed: int,
    *,
    trial_index: int | None = None,
) -> SignMatrix:
    """Draw an n x N matrix of i.i.d. uniform signs from a PCG64 stream.

    Deterministic: the same (n, N, seed) yields the identical matrix.
    """
    if n < 1 or N < 1:
        raise ValueError(f"matrix dimensions must be positive, got n={n}, N={N}")
    if n * N > SAMPLE_ENTRY_CAP:
        raise CapacityError(f"n*N = {n * N} exceeds the entry cap {SAMPLE_ENTRY_CAP}")
    rng = np.random.default_rng(np.uint64(seed))
    bits = rng.integers(0, 2, size=n * N, dtype=np.uint8)
    packed = np.packbits(bits)
    packed.setflags(write=False)
    return SignMatrix(packed, n, N, SeedRecord(seed=seed, trial_index=trial_index))


def enumeration_matrix(n: int, cap: int = ENUMERATION_CAP) -> SignMatrix:
    """The full 2^n enumeration as a SignMatrix (columns in Gray order)."""
    if n > cap:
        raise CapacityError(f"enumeration matrix for n={n} exceeds cap n <= {cap}")
    cols = gray_sign_block(n, 0, 1 << n).T
    return SignMatrix.from_dense(cols.astype(np.int8))


def gray_sign_block(n: int, start: int, count: int) -> np.ndarray:
    """Rows ``start .. start+count`` of the Gray-ordered sign table, +-1 float64.

    Row t is the sign vector of Gray code t ^ (t >> 1); bit i set -> +1.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    gray = idx ^ (idx >> np.uint64(1))
    shifts = np.arange(n, dtype=np.uint64)
    bits = (gray[:, None] >> shifts[None, :]) & np.uint64(1)
    return bits.astype(np.float64) * 2.0 - 1.0


def half_enumeration_size(n: int) -> int:
    """Number of antipodal-pair representatives: 2^(n-1) (1 for n = 1)."""
    return 1 << (n - 1) if n > 1 else 1


@lru_cache(maxsize=8)
def _cached_half_block(n: int) -> np.ndarray:
    out = half_gray_sign_block(n, 0, half_enumeration_size(n), _nocache=True)
    out.setflags(write=False)
    return out


def half_gray_sign_block(n: int, start: int, count: int, _nocache: bool = False) -> np.ndarray:
    """Representatives of the +-pairs: last coordinate pinned +1, Gray order.

    The full sign table is recovered as this block union its negation, so
    averages of sign-symmetric quantities over it equal full averages.
    Blocks for small n are cached (they are reused across trials).
    """
    if n == 1:
        return np.ones((count, 1))
    if not _nocache and n <= 16 and start == 0 and count == half_enumeration_size(n):
        return _cached_half_block(n)
    block = np.empty((count, n))
    block[:, : n - 1] = gray_sign_block(n - 1, start, count)
    block[:, n - 1] = 1.0
    return block

