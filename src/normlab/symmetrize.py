"""The exact sign-averaged norm and its empirical N-sample counterpart.

The exact unconditional norm of x is the average of ||sum_i eps_i x_i v_i||
over all 2^n sign patterns.  The empirical norm replaces the average by N
sampled sign columns.  With a matrix that enumerates every sign vector
exactly once, the two coincide: that identity is the cornerstone oracle
for everything downstream.

Enumeration kernel: one representative per antipodal pair (values repeat
under eps -> -eps, so the last sign is pinned to +1), split
meet-in-the-middle (Horowitz & Sahni 1974).  A low table walks
a = min(n-1, 8) signs in Gray order together with the pinned one; a high
table walks the other b = n-1-a signs.  For each functional row r_k of the
norm (coordinates for lp, functionals for polytope) the low and high sums
L_k = low @ (x*r_k)_low and H_k = high @ (x*r_k)_high are small products,
made for a block of points in one stacked matmul, and pattern (j, i) has
signed sum H_k[j] + L_k[i].  That outer sum is itself a GEMM with inner
dimension 2, [H_k, 1] @ [1; L_k], exact bit for bit.  It is written into
buffers that belong to one kernel call, so concurrent calls share nothing.
A tile holds whole points by all their patterns, about 2^15 signed sums
per functional row and 2^20 over all rows (a point with more patterns
than that spans several tiles); the rows are combined in place, numpy's
pairwise sum reduces each point's values contiguously, the tiles of one
point are combined with exact compensated summation (math.fsum), and a
call divides all its sums at once.  For n <= 9 the high half is empty and
the low table is the whole half enumeration.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionMismatchError, NonFiniteInputError
from .signs import SignMatrix, gray_sign_block, half_enumeration_size, half_gray_sign_block
from .spaces import NormSpec, VectorFamily, validate_family

# default cap on n for exact 2^n enumeration (configurable per call)
DEFAULT_MAX_ENUM_N = 22

# split enumeration: sign bits of the low half, signed sums per row block
# of a combine tile and in all K row blocks, points per chunk with an empty
# high half
_LOW_BITS = 8
_TILE = 1 << 15
_BUFFER = 1 << 20
_PROBE_CHUNK = 2048


@dataclass(frozen=True)
class NormInstance:
    """The map x -> average of ||sum eps_i x_i v_i|| over all sign patterns."""

    family: VectorFamily

    def __post_init__(self):
        validate_family(self.family)

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def space(self) -> NormSpec:
        return self.family.space


@dataclass(frozen=True)
class EmpiricalNormInstance:
    """The random norm x -> (1/N) sum_j ||sum_i eps_ij x_i v_i||."""

    family: VectorFamily
    signs: SignMatrix

    def __post_init__(self):
        if self.signs.n != self.family.n:
            raise DimensionMismatchError(
                f"sign matrix has n={self.signs.n} rows but the family has "
                f"n={self.family.n} vectors",
                expected=self.family.n,
                got=self.signs.n,
            )

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def N(self) -> int:
        return self.signs.N

    @property
    def xi(self) -> float:
        return self.signs.xi


def _functional_rows(family: VectorFamily) -> tuple[np.ndarray, str, float | None]:
    """Rows r_k with ||u(eps)|| = combine_k <eps, x*r_k>, plus the combine mode.

    lp spaces use the coordinate rows of V directly; polytope spaces use
    the images of V under the stored functionals (max-abs combine).
    """
    space = family.space
    V = family.columns
    if space.kind == "polytope":
        return space.functionals @ V, "maxabs", None
    p = space.p
    if p is None:
        return V, "maxabs", None
    if p == 1.0:
        return V, "sumabs", None
    if p == 2.0:
        return V, "sumsq", None
    return V, "p", p


def _combine_blocks(T: np.ndarray, mode: str, p: float | None) -> np.ndarray:
    """Norm values from the stacked per-row signed sums T (K, ...).

    Works in place: T is consumed and overwritten.
    """
    if mode != "p":
        (np.square if mode == "sumsq" else np.abs)(T, out=T)
        out = T[0]
        for t in T[1:]:
            (np.maximum if mode == "maxabs" else np.add)(out, t, out=out)
        return np.sqrt(out, out=out) if mode == "sumsq" else out
    # general finite p with overflow-safe scaling
    A = np.abs(T, out=T)
    s = A.max(axis=0)
    safe = np.where(s > 0.0, s, 1.0)
    out = safe * ((A / safe) ** p).sum(axis=0) ** (1.0 / p)
    return np.where(s > 0.0, out, 0.0)


def _check_points(n: int, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(
            f"points have shape {X.shape}, expected (*, {n})", expected=n
        )
    if not np.isfinite(X).all():
        raise NonFiniteInputError("points contain non-finite entries")
    return X


def _enum_guard(n: int, max_n: int) -> None:
    if n > max_n:
        raise CapacityError(
            f"exact enumeration needs 2^{n} sign patterns; cap is n <= {max_n}"
        )


@lru_cache(maxsize=8)
def _high_table(b: int) -> np.ndarray:
    """All 2^b sign patterns of the high half, Gray order (cached, read-only)."""
    table = gray_sign_block(b, 0, 1 << b)
    table.setflags(write=False)
    return table


def _two_rows(Y: np.ndarray, axis: int) -> np.ndarray:
    """Y with a lone row along ``axis`` repeated once.

    numpy multiplies by a one-row or one-column operand on its matrix-vector
    BLAS path, which rounds differently from the matrix-matrix path of larger
    batches; padding keeps every point's value independent of its batch.
    """
    return Y if Y.shape[axis] > 1 else np.concatenate([Y, Y], axis=axis)


def _low_sums(R: np.ndarray, X: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Signed sums (K, 2^(n-1), P) of the points X (P, n) when the high half
    is empty: block k is low @ (X * r_k)^T."""
    return low @ (X * R[:, None, :]).transpose(0, 2, 1)


def _value_tiles(
    R: np.ndarray, mode: str, p: float | None, X: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Norm values of the points X (P, n) at every antipodal representative.

    Yields (ps, tile): tile (m, patterns) holds the values of the points
    ps..ps+m at a run of their patterns.  The tiles of one chunk of points
    come one after another and cover each pattern exactly once; a tile is
    overwritten by the next one.  A small product that a tile makes with
    several points takes at least two rows (``_two_rows``), and with at most
    one point per tile each point is its own one-row stack item, so a point's
    values do not depend on its batch.

    With an empty high half (n <= 9) a chunk is 2048 points and its one tile
    is the combined ``_low_sums``; a one-point chunk is computed twice over,
    so its tile has a second row that repeats the first.  Otherwise each of
    the K row blocks of a tile holds about t = min(_TILE, _BUFFER // K)
    signed sums: min(P, t // 2^(n-1)) whole points by all their patterns, or
    one point by all its patterns or a power of two of whole high rows, so a
    point with more than t patterns spans several tiles.  H_k and L_k are
    made for a block of c points at once: the points of one tile, or with at
    most one point per tile about t / (8 (2^a + 2^b)) points, so that their
    buffers hold a quarter of a tile.  Pattern (j, i) of row k has signed sum
    [H_k[j], 1] @ [1; L_k[i]], exactly H_k[j] + L_k[i]: one k=2 GEMM per row
    and point writes the outer sum into buffers of this call.  They hold at
    most about max(_BUFFER, 256 K) + 2 K c (2^a + 2^b) doubles.
    """
    n = X.shape[1]
    a = min(n - 1, _LOW_BITS)
    # low walks signs b..n-2 with sign n-1 pinned +1, high signs 0..b-1
    low, high = half_gray_sign_block(a + 1, 0, 1 << a), _high_table(n - 1 - a)
    K, b = R.shape[0], high.shape[1]
    if not b:
        for ps in range(0, X.shape[0], _PROBE_CHUNK):
            Xc = _two_rows(X[ps : ps + _PROBE_CHUNK], 0)
            vals = _combine_blocks(_low_sums(R, Xc, low), mode, p)
            yield ps, vals.T
        return
    hi, lo = high.shape[0], low.shape[0]
    tile = min(_TILE, _BUFFER // K)  # signed sums per row block
    fit = tile // (hi * lo)  # whole points per tile
    per = max(1, min(X.shape[0], fit))  # points per tile
    # points per block of small products, their buffers a quarter of a tile
    c = per if fit > 1 else max(1, min(X.shape[0], tile // (8 * (hi + lo))))
    rows = min(hi, 1 << max(0, (tile // lo).bit_length() - 1))  # divides hi
    HA = np.ones((K, c, hi, 2))  # [H_k, 1] per point
    LA = np.ones((K, c, 2, lo))  # [1; L_k] per point
    T = np.empty((K, per, rows, lo))
    for ps in range(0, X.shape[0], c):
        Xc = X[ps : ps + c]
        m = Xc.shape[0]
        Y = (_two_rows(Xc, 0)[None] if fit > 1 else Xc[:, None]) * R[:, None, None, :]
        HA[:, :m, :, 0] = (Y[..., :b] @ high.T).reshape(K, -1, hi)[:, :m]
        LA[:, :m, 1] = (Y[..., b:] @ low.T).reshape(K, -1, lo)[:, :m]
        for i in range(0, m, per):
            e = min(m, i + per)
            for j in range(0, hi, rows):
                sums = np.matmul(HA[:, i:e, j : j + rows], LA[:, i:e], out=T[:, : e - i])
                yield ps + i, _combine_blocks(sums, mode, p).reshape(e - i, -1)


def iter_exact_value_blocks(
    family: VectorFamily, x, max_n: int = DEFAULT_MAX_ENUM_N
) -> Iterator[np.ndarray]:
    """Blocks of ||sum eps_i x_i v_i|| over the antipodal representatives.

    Each full-enumeration value appears exactly once here (with its pair
    weight 2 implied); concatenated blocks cover all 2^(n-1) patterns.
    """
    _enum_guard(family.n, max_n)
    R, mode, p = _functional_rows(family)
    for _, tile in _value_tiles(R, mode, p, _check_points(family.n, x)[:1]):
        yield tile[0].copy()  # the next tile overwrites this one


def exact_unconditional_norm(
    inst: NormInstance, x, max_n: int = DEFAULT_MAX_ENUM_N
) -> float:
    """Average of ||sum eps_i x_i v_i|| over all 2^n sign patterns, exactly.

    The batched kernel on a batch of one point, so the two agree bit for bit.
    """
    return float(exact_unconditional_norm_many(inst, _check_points(inst.n, x)[:1], max_n)[0])


def exact_unconditional_norm_many(
    inst: NormInstance, X, max_n: int = DEFAULT_MAX_ENUM_N
) -> np.ndarray:
    """Vectorized exact norm over the rows of X (shape (P, n)).

    numpy sums each tile's values per point; a point that spans several
    tiles is reduced across them by exact fsum.
    """
    n = inst.n
    _enum_guard(n, max_n)
    X = _check_points(n, X)
    R, mode, p = _functional_rows(inst.family)
    P = X.shape[0]
    # each tile's sums in turn, a padded copy of a lone point summed as in a batch
    parts = [tile.sum(axis=1)[: P - ps] for ps, tile in _value_tiles(R, mode, p, X)]
    sums = np.concatenate([np.zeros(0), *parts])
    if sums.size > P:
        # a point's tiles come one after another: exact fsum across them
        sums = np.array([math.fsum(s) for s in sums.reshape(P, -1).tolist()])
    return sums / half_enumeration_size(n)


def _empirical_many(R: np.ndarray, mode: str, p: float | None, E: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(1/N) sum_j ||column_j|| for each row of X (P, n).

    Points go in chunks whose (c, K, N) block of signed sums stays near
    _TILE elements.  Each point's block is its own (K, n) @ (n, N) product
    and its column norms are summed by exact fsum, so a point's value does
    not depend on the rest of its batch.
    """
    K, N = R.shape[0], E.shape[1]
    c = max(1, _TILE // (K * N))
    out = np.empty(X.shape[0])
    for ps in range(0, X.shape[0], c):
        T = (X[ps : ps + c, None, :] * R) @ E
        vals = _combine_blocks(T.transpose(1, 0, 2), mode, p)
        out[ps : ps + c] = [math.fsum(v) for v in vals.tolist()]
    return out / N


def empirical_norm(inst: EmpiricalNormInstance, x) -> float:
    """(1/N) sum_j ||sum_i eps_ij x_i v_i||: the batched kernel on a batch of one."""
    X = _check_points(inst.n, x)[:1]
    R, mode, p = _functional_rows(inst.family)
    return float(_empirical_many(R, mode, p, inst.signs.dense(), X)[0])


def batch_empirical_norm(inst: EmpiricalNormInstance, xs) -> np.ndarray:
    """Vectorized form of ``empirical_norm``: identical values elementwise."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros(0)
    X = _check_points(inst.n, xs)
    R, mode, p = _functional_rows(inst.family)
    return _empirical_many(R, mode, p, inst.signs.dense(), X)
