"""The exact sign-averaged norm and its empirical N-sample counterpart.

The exact unconditional norm of x is the average of ||sum_i eps_i x_i v_i||
over all 2^n sign patterns.  The empirical norm replaces the average by N
sampled sign columns.  With a matrix that enumerates every sign vector
exactly once, the two coincide: that identity is the cornerstone oracle
for everything downstream.

Enumeration kernel: one representative per antipodal pair (values repeat
under eps -> -eps, so the last sign is pinned to +1), split
meet-in-the-middle (Horowitz & Sahni 1974).  A low table walks a = min(n-1, 8)
signs in Gray order together with the pinned one; a high table walks the
other b = n-1-a signs.  For each functional row r_k of the norm
(coordinates for lp, functionals for polytope) the low and high sums
L_k = low @ (x*r_k)_low and H_k = high @ (x*r_k)_high are small GEMMs, and
pattern (j, i) has signed sum H_k[j] + L_k[i]: one addition per pattern
and row instead of an n-term dot product.  Norm values are combined in
cache-sized tiles; tile sums are combined with exact compensated
summation (math.fsum).  For n <= 9 the high half is empty and the low
table is the whole half enumeration.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionMismatchError, NonFiniteInputError
from .signs import SignMatrix, gray_sign_block, half_enumeration_size, half_gray_sign_block
from .spaces import NormSpec, VectorFamily, validate_family

# default cap on n for exact 2^n enumeration (configurable per call)
DEFAULT_MAX_ENUM_N = 22

# split enumeration: sign bits of the low half, elements of one combine
# tile, points per chunk with an empty and with a nonempty high half
_LOW_BITS = 8
_TILE = 1 << 15
_PROBE_CHUNK = 2048
_TILE_POINTS = 64


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


def _combine_blocks(parts: Iterable[np.ndarray], mode: str, p: float | None) -> np.ndarray:
    """Norm values from per-row signed-sum blocks (each (c, P)).

    Works in place: the blocks are consumed and overwritten.
    """
    if mode != "p":
        parts = iter(parts)
        elementwise = np.square if mode == "sumsq" else np.abs
        out = next(parts)
        elementwise(out, out=out)
        for T in parts:
            elementwise(T, out=T)
            if mode == "maxabs":
                np.maximum(out, T, out=out)
            else:
                out += T
        return np.sqrt(out) if mode == "sumsq" else out
    # general finite p with overflow-safe scaling
    A = np.abs(np.stack(list(parts)))
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


def _split_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (low, high) tables: low (2^a, a+1) walks signs b..n-2 with sign
    n-1 pinned +1 (the half table of a+1 signs), high (2^b, b) signs 0..b-1."""
    a = min(n - 1, _LOW_BITS)
    return half_gray_sign_block(a + 1, 0, 1 << a), _high_table(n - 1 - a)


def _value_tiles(
    R: np.ndarray, mode: str, p: float | None, X: np.ndarray, tables: tuple[np.ndarray, np.ndarray]
) -> Iterator[np.ndarray]:
    """Norm values at every antipodal representative, for the points X (P, n).

    Tiles have shape (rows * 2^a, P); together they cover all 2^(n-1)
    patterns.  Pattern (j, i) has signed sums L_k[i] + H_k[j].
    """
    low, high = tables
    b = high.shape[1]
    Ys = (X * R[:, None, :]).transpose(0, 2, 1)  # Ys[k] = (X * r_k)^T, shape (n, P)
    Ls = [low @ Y[b:] for Y in Ys]
    Hs = [high @ Y[:b] for Y in Ys] if b else []
    rows = max(1, _TILE // Ls[0].size)
    for j in range(0, high.shape[0], rows):
        # with an empty high half the low sums are the signed sums
        parts = (L + H[j : j + rows, None] for L, H in zip(Ls, Hs)) if b else Ls
        vals = _combine_blocks(parts, mode, p)
        yield vals.reshape(-1, X.shape[0])


def iter_exact_value_blocks(
    family: VectorFamily, x, max_n: int = DEFAULT_MAX_ENUM_N
) -> Iterator[np.ndarray]:
    """Blocks of ||sum eps_i x_i v_i|| over the antipodal representatives.

    Each full-enumeration value appears exactly once here (with its pair
    weight 2 implied); concatenated blocks cover all 2^(n-1) patterns.
    """
    _enum_guard(family.n, max_n)
    R, mode, p = _functional_rows(family)
    X = _check_points(family.n, x)[:1]
    for vals in _value_tiles(R, mode, p, X, _split_tables(family.n)):
        yield vals[:, 0]


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

    Points go in chunks small enough for a tile to stay in cache (2048 and
    one tile per chunk when the high half is empty).  Compensated
    accumulation: numpy sums within tiles, exact fsum across tiles.
    """
    n = inst.n
    _enum_guard(n, max_n)
    X = _check_points(n, X)
    P = X.shape[0]
    R, mode, p = _functional_rows(inst.family)
    total = half_enumeration_size(n)
    tables = _split_tables(n)
    chunk = _TILE_POINTS if tables[1].shape[1] else _PROBE_CHUNK
    out = np.empty(P)
    for ps in range(0, P, chunk):
        tiles = _value_tiles(R, mode, p, X[ps : ps + chunk], tables)
        sums = np.array([vals.sum(axis=0) for vals in tiles])
        if len(sums) == 1:
            out[ps : ps + chunk] = sums[0] / total
        else:
            # exact compensated reduction across tiles
            out[ps : ps + chunk] = [math.fsum(s) / total for s in sums.T.tolist()]
    return out


def _empirical_one(R: np.ndarray, mode: str, p: float | None, E: np.ndarray, x: np.ndarray) -> float:
    """(1/N) sum_j ||column_j|| for a single coefficient vector x."""
    T = (x[None, :] * R) @ E  # (K, N)
    vals = _combine_blocks([T[k] for k in range(T.shape[0])], mode, p)
    return math.fsum(map(float, vals)) / E.shape[1]


def empirical_norm(inst: EmpiricalNormInstance, x) -> float:
    """(1/N) sum_j ||sum_i eps_ij x_i v_i||."""
    x = _check_points(inst.n, x)[0]
    R, mode, p = _functional_rows(inst.family)
    return _empirical_one(R, mode, p, inst.signs.dense(), x)


def batch_empirical_norm(inst: EmpiricalNormInstance, xs) -> np.ndarray:
    """Vectorized form of ``empirical_norm``: identical values elementwise.

    Evaluates each point through the same kernel as the scalar call, so
    the outputs match scalar calls bit for bit.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros(0)
    X = _check_points(inst.n, xs)
    R, mode, p = _functional_rows(inst.family)
    E = inst.signs.dense()
    return np.array([_empirical_one(R, mode, p, E, x) for x in X])
