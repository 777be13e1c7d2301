"""The exact sign-averaged norm and its empirical N-sample counterpart.

The exact unconditional norm of x is the average of ||sum_i eps_i x_i v_i||
over all 2^n sign patterns.  The empirical norm replaces the average by N
sampled sign columns.  With a matrix that enumerates every sign vector
exactly once, the two coincide: that identity is the cornerstone oracle
for everything downstream.

Prepared kernel: ``NormKernel`` holds what depends only on the family.
Only ``NormInstance`` and ``EmpiricalNormInstance`` build one, once per
instance.  A ``NormInstance`` also carries its run's caps (``max_n`` for
the exact norm, ``vertex_cap`` for the l1 weak variance).  Every layer
that evaluates a family's norm (the exact norm and its value blocks, the
weak variance, the exact distribution, nets and distortion) takes the
instance and reads its kernel and caps there, and no cap travels beside
it.  For each functional row phi_k of the space (``NormSpec.functionals``:
the coordinates for lp) ||sum eps_i x_i v_i|| = combine_k <eps, x*r_k>
with r_k = phi_k V, combined by the space's ``mode`` (``spaces._combine``),
so the kernel keeps the rows r_k, the mode, the divisor 2^(n-1) and, for
n <= 9, the whole half enumeration with the points per product.  Nothing
here looks at the kind of space; the exact and empirical norms read the
kernel's fields, and so does the batched weak variance
(``weakvar.weak_variances``).

Enumeration: one representative per antipodal pair (values repeat under
eps -> -eps, so the last sign is pinned to +1), split meet-in-the-middle
(Horowitz & Sahni 1974).  A low table walks a = min(n-1, 8) signs in Gray
order together with the pinned one; a high table walks the other
b = n-1-a signs.  The low and high sums L_k = low @ (x*r_k)_low and
H_k = high @ (x*r_k)_high are small products, made for a block of points
in one stacked matmul, and pattern (j, i) has signed sum H_k[j] + L_k[i],
itself a GEMM with inner dimension 2, exact bit for bit.  One loop runs
over tiles of about 2^15 signed sums per functional row: per tile one GEMM
into a buffer of the kernel call (concurrent calls share nothing), the rows
combined in place (a max by halving, ceil(log2 K) passes with the bits of a
running max), and one pairwise sum per point; the tiles of one point are
combined with exact compensated summation (math.fsum).  For n <= 9 the
high half is empty: the kernel's low table is the whole half enumeration,
and a chunk of points is one product, one combine and one sum.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionMismatchError, NonFiniteInputError
from .signs import (
    ENUMERATION_CAP,
    VERTEX_ENUM_CAP,
    SignMatrix,
    gray_sign_block,
    half_enumeration_size,
    half_gray_sign_block,
)
from .spaces import NormSpec, VectorFamily, _combine, _halves, validate_family

# split enumeration: sign bits of the low half, signed sums per row block
# of a combine tile and in all K row blocks; points per block of a large
# product
_LOW_BITS = 8
_TILE = 1 << 15
_BUFFER = 1 << 20
_GEMM_BLOCK = 64


class NormKernel:
    """The norm of one family, prepared once: rows, combine mode and tables.

    ``rows`` (K, n) are the functional rows r_k with ||u(eps)|| =
    combine_k <eps, x*r_k>: the images of V under the space's functionals,
    the coordinate rows of V for lp.  ``mode`` and ``p`` are the space's
    combine (``NormSpec.mode``).  For n <= 9, ``low`` is the whole half
    enumeration and ``chunk`` the points per product; for larger n both are
    None and each call fetches its split tables.  The state is read-only,
    and every call makes its own buffers.
    """

    def __init__(self, family: VectorFamily):
        space = self.space = family.space
        V = self.columns = family.columns
        self.n = family.n
        self.rows = space.functionals @ V  # exact for the coordinate rows
        self.rows.setflags(write=False)
        self.mode, self.p = space.mode, space.p
        self.divisor = half_enumeration_size(self.n)
        self.low = self.chunk = None
        if self.n <= _LOW_BITS + 1:
            self.low = half_gray_sign_block(self.n, 0, self.divisor)
            # at most _BUFFER signed sums, whole blocks of _GEMM_BLOCK points
            # past that many, at least two (a lone point is padded to two)
            chunk = max(2, _BUFFER // (self.rows.shape[0] * self.divisor))
            self.chunk = chunk - (chunk % _GEMM_BLOCK if chunk > _GEMM_BLOCK else 0)

    def exact(self, X: np.ndarray) -> np.ndarray:
        """Exact norms of the checked rows of X (P, n)."""
        P = X.shape[0]
        if self.low is not None:
            # only the last chunk is padded: its extra rows end the list
            parts = [
                self._low_values(X[ps : ps + self.chunk]).T.sum(axis=1)
                for ps in range(0, P, self.chunk)
            ]
            sums = parts[0] if len(parts) == 1 else np.concatenate([np.zeros(0), *parts])
            return sums[:P] / self.divisor
        return self._split_sums(X) / self.divisor

    def _low_values(self, X: np.ndarray) -> np.ndarray:
        """Values (2^(n-1), m) at every pattern of the points X padded by
        ``_gemm_rows`` (n <= 9): block k of the product is low @ (X * r_k)^T.

        The products are formed as (K, n, m) with the points along the last
        axis, which numpy multiplies several times faster than (K, m, n);
        each GEMM gets its operand in the other order and gives the same bits.
        """
        T = self.low @ (self.rows[:, :, None] * np.ascontiguousarray(_gemm_rows(X).T))
        return _combine(T, self.mode, self.p)

    def value_tiles(self, X: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """(ps, tile) pairs: tile (m, patterns) holds the values of the points
        ps..ps+m at a run of their antipodal representatives, and the tiles of
        a chunk of points cover each pattern once.  For n <= 9 a tile is a
        padded chunk of ``chunk`` points, so a last one may have more rows than
        points; otherwise the tiles are copies of those ``_split_sums`` sums.
        """
        if self.low is not None:
            c = self.chunk
            return [(ps, self._low_values(X[ps : ps + c]).T) for ps in range(0, X.shape[0], c)]
        tiles = []
        self._split_sums(X, tiles)
        return tiles

    def _split_sums(self, X: np.ndarray, tiles: list | None = None) -> np.ndarray:
        """Sum of the values of each point of X (P, n) over its patterns (n >= 10).

        Each of the K row blocks of a tile holds about t = min(_TILE,
        _BUFFER // K) signed sums: min(P, t // 2^(n-1)) whole points by all
        their patterns, or one point by a power of two of whole high rows, so a
        point with more than t patterns spans several tiles.  H_k and L_k are
        made for a block of c points: the points of one tile, or with at most
        one per tile about t / (8 (2^a + 2^b)) points.  Products of several
        points are padded (``_gemm_rows``), one point is its own stack item,
        so a point's values do not depend on its batch.  Per tile, one stacked
        k=2 GEMM writes each signed sum [H_k[j], 1] @ [1; L_k[i]] (exactly
        H_k[j] + L_k[i]) into a buffer of this call, ``_combine``
        combines the rows in place through views made once per call, and one
        reduce sums each point's values contiguously into ``sums`` (a short
        last tile also sums stale rows, which are dropped).  A point's tiles
        are combined by exact fsum.  The buffers hold at most about
        max(_BUFFER, 256 K) + 2 K c (2^a + 2^b) doubles.  If ``tiles`` is a
        list, each tile's values are appended to it as (first point, copy).
        """
        n, R, mode, p, P = self.n, self.rows, self.mode, self.p, X.shape[0]
        # low walks signs b..n-2 with sign n-1 pinned +1, high signs 0..b-1
        low = half_gray_sign_block(_LOW_BITS + 1, 0, 1 << _LOW_BITS)
        high = _high_table(n - 1 - _LOW_BITS)
        K, b = R.shape[0], high.shape[1]
        hi, lo = high.shape[0], low.shape[0]
        tile = min(_TILE, _BUFFER // K)  # signed sums per row block
        fit = tile // (hi * lo)  # whole points per tile
        per = max(1, min(P, fit))  # points per tile
        # points per block of small products, their buffers a quarter of a tile
        c = per if fit > 1 else max(1, min(P, tile // (8 * (hi + lo))))
        rows = min(hi, 1 << max(0, (tile // lo).bit_length() - 1))  # divides hi
        HA = np.ones((K, c, hi, 2))  # [H_k, 1] per point
        LA = np.ones((K, c, 2, lo))  # [1; L_k] per point
        T = np.empty((K, per, rows, lo))
        flat = T.reshape(K, per, -1)  # the tile with each point's values in one row
        halves = _halves(flat)
        sums = np.empty((-(-P // per) * (hi // rows), per))  # one row per tile
        t = 0
        for ps in range(0, P, c):
            Xc = X[ps : ps + c]
            m = Xc.shape[0]
            Y = (_gemm_rows(Xc)[None] if fit > 1 else Xc[:, None]) * R[:, None, None, :]
            HA[:, :m, :, 0] = (Y[..., :b] @ high.T).reshape(K, -1, hi)[:, :m]
            LA[:, :m, 1] = (Y[..., b:] @ low.T).reshape(K, -1, lo)[:, :m]
            for i in range(0, m, per):
                for j in range(0, hi, rows):
                    np.matmul(HA[:, i : i + per, j : j + rows], LA[:, i : i + per], out=T)
                    vals = _combine(flat, mode, p, halves)
                    np.add.reduce(vals, axis=1, out=sums[t])
                    t += 1
                    if tiles is not None:
                        tiles.append((ps + i, vals[: m - i].copy()))
        sums = sums.reshape(-1)[: P * (hi // rows)]
        if hi > rows:
            # a point's tiles come one after another: exact fsum across them
            sums = np.array([math.fsum(s) for s in sums.reshape(P, hi // rows).tolist()])
        return sums

    def empirical(self, E: np.ndarray, X: np.ndarray) -> np.ndarray:
        """(1/N) sum_j ||column_j|| for each row of X (P, n), sign columns E.

        Points go in chunks whose (c, K, N) block of signed sums stays near
        _TILE elements.  Each point's block is its own (K, n) @ (n, N) product
        and its column norms are summed by exact fsum, so a point's value does
        not depend on the rest of its batch.
        """
        K, N = self.rows.shape[0], E.shape[1]
        c = max(1, _TILE // (K * N))
        out = np.empty(X.shape[0])
        for ps in range(0, X.shape[0], c):
            T = (X[ps : ps + c, None, :] * self.rows) @ E
            vals = _combine(T.transpose(1, 0, 2), self.mode, self.p)
            out[ps : ps + c] = [math.fsum(v) for v in vals.tolist()]
        return out / N


@dataclass(frozen=True, eq=False)
class NormInstance:
    """The map x -> average of ||sum eps_i x_i v_i|| over all sign patterns.

    ``max_n`` caps the exact enumeration: the exact norm raises
    CapacityError past it, so an instance that never enumerates may be
    wider.  ``vertex_cap`` is the widest l1 space whose weak variance is
    exact (``weakvar.weak_variances``).  Two instances are equal only if
    they are the same object.  ``sphere_bank`` keeps the sphere samples
    of ``distortion.sphere_sample``, so that they die with the instance.
    """

    family: VectorFamily
    max_n: int = ENUMERATION_CAP
    vertex_cap: int = VERTEX_ENUM_CAP
    kernel: NormKernel = field(init=False, repr=False)
    _bank: list = field(init=False, repr=False, default_factory=lambda: [None, None])
    _bank_lock: threading.Lock = field(init=False, repr=False, default_factory=threading.Lock)

    def __post_init__(self):
        validate_family(self.family)
        object.__setattr__(self, "kernel", NormKernel(self.family))

    def sphere_bank(self, count: int, seed: int, draw):
        """The sphere samples of ``(count, seed)``: ``draw()``, kept until
        another ``(count, seed)`` is asked for.

        The slot holds one entry and serves ``distortion.sphere_sample``
        only.  Callers of one ``(count, seed)`` share the array, so it must
        be read-only.  The lock is held while drawing: concurrent callers
        draw once, and every other caller waits.  It is not reentrant, so
        ``draw`` must not ask for a bank.
        """
        with self._bank_lock:
            if self._bank[0] != (count, seed):
                self._bank[:] = [(count, seed), draw()]
            return self._bank[1]

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
    kernel: NormKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.signs.n != self.family.n:
            raise DimensionMismatchError(
                f"sign matrix has n={self.signs.n} rows but the family has "
                f"n={self.family.n} vectors",
                expected=self.family.n,
                got=self.signs.n,
            )
        object.__setattr__(self, "kernel", NormKernel(self.family))

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def N(self) -> int:
        return self.signs.N

    @property
    def xi(self) -> float:
        return self.signs.xi


def _check_points(n: int, X, one: bool = False) -> np.ndarray:
    """X (P, n), a vector as one row; with ``one``, exactly one point."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(
            f"points have shape {X.shape}, expected (*, {n})", expected=n
        )
    if one and X.shape[0] != 1:
        raise DimensionMismatchError(f"expected one point, got {len(X)}", expected=1, got=len(X))
    if not np.isfinite(X).all():
        raise NonFiniteInputError("points contain non-finite entries")
    return X


def _enum_guard(inst: NormInstance) -> None:
    if inst.n > inst.max_n:
        raise CapacityError(f"exact enumeration needs 2^{inst.n} sign patterns; cap is n <= {inst.max_n}")


@lru_cache(maxsize=8)
def _high_table(b: int) -> np.ndarray:
    """All 2^b sign patterns of the high half, Gray order (cached, read-only)."""
    table = gray_sign_block(b, 0, 1 << b)
    table.setflags(write=False)
    return table


def _gemm_rows(Y: np.ndarray) -> np.ndarray:
    """Y padded with copies of its last row: a lone row to two rows, and
    more than ``_GEMM_BLOCK`` rows to whole blocks of ``_GEMM_BLOCK``.

    numpy multiplies by a one-row operand on its matrix-vector BLAS path,
    which rounds differently from the matrix-matrix path of larger batches.
    And once a product is large, OpenBLAS rounds the rows of a partial block
    of its kernel differently from those of whole blocks (seen at n = 5..9
    from 193 points on with OpenBLAS 0.3.31 on Haswell kernels).  Padding
    keeps every point's value independent of its batch.
    """
    m = Y.shape[0]
    pad = 1 if m == 1 else -m % _GEMM_BLOCK if m > _GEMM_BLOCK else 0
    return np.concatenate([Y, np.repeat(Y[-1:], pad, axis=0)]) if pad else Y


def iter_exact_value_blocks(inst: NormInstance, x) -> Iterator[np.ndarray]:
    """Blocks of ||sum eps_i x_i v_i|| over the antipodal representatives,
    within the instance's ``max_n``.

    Each full-enumeration value appears exactly once here (with its pair
    weight 2 implied); concatenated blocks cover all 2^(n-1) patterns.
    """
    _enum_guard(inst)
    for _, tile in inst.kernel.value_tiles(_check_points(inst.n, x, one=True)):
        yield tile[0]


def exact_unconditional_norm(inst: NormInstance, x) -> float:
    """Average of ||sum eps_i x_i v_i|| over all 2^n sign patterns, exactly.

    The batched kernel on a batch of one point, so the two agree bit for bit.
    """
    return float(exact_unconditional_norm_many(inst, _check_points(inst.n, x, one=True))[0])


def exact_unconditional_norm_many(inst: NormInstance, X) -> np.ndarray:
    """Vectorized exact norm over the rows of X (shape (P, n)), within the
    instance's ``max_n``."""
    _enum_guard(inst)
    return inst.kernel.exact(_check_points(inst.n, X))


def empirical_norm(inst: EmpiricalNormInstance, x) -> float:
    """(1/N) sum_j ||sum_i eps_ij x_i v_i||: the batched kernel on a batch of one."""
    return float(inst.kernel.empirical(inst.signs.dense(), _check_points(inst.n, x, one=True))[0])


def batch_empirical_norm(inst: EmpiricalNormInstance, xs) -> np.ndarray:
    """Vectorized form of ``empirical_norm``: identical values elementwise."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros(0)
    return inst.kernel.empirical(inst.signs.dense(), _check_points(inst.n, xs))
