"""Weak variance of a weighted family and Khinchin-type bounds.

The weak variance of w_1..w_n is the supremum over dual unit-ball
functionals phi of sqrt(sum_i phi(w_i)^2).  ``weak_variances`` computes it
for a batch of points from a ``NormInstance``: its prepared kernel and its
``vertex_cap``.  It is the one place that picks the method, by the space's
combine mode (``NormSpec.mode``).  Where the dual ball is a polytope (l_inf,
l1 up to the instance's vertex cap, polytope spaces) it is the exact
maximum over the extreme points: one scan of GEMMs of squares over all
points and a block of extreme points at a time.  For l2 it is the largest
singular value.  Otherwise it is a sampled lower bound, flagged
``lower_bound_only`` and never silently wrong.  ``sigma`` is its batch of
one point, and raises CapacityError on an l1 space past the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .signs import half_enumeration_size, half_gray_sign_block
from .spaces import NormSpec, VectorFamily, lp_space, norming_functionals
from .symmetrize import _BUFFER, _GEMM_BLOCK, NormInstance, NormKernel, _check_points
from .symmetrize import _gemm_rows, exact_unconditional_norm

# optimal constant in the L1 Khinchin inequality (Szarek)
KHINCHIN_CONSTANT = math.sqrt(2.0)

# dual-cube vertices per block of the extreme-point scan
_VERTEX_BLOCK = 1 << 14

# the sampled lower bound scans this many seeded directions
_LOWER_BOUND_SAMPLES = 256
_LOWER_BOUND_SEED = 0


def largest_singular_value(W: np.ndarray) -> tuple[float, np.ndarray]:
    """(s_max, left singular vector) of W from the thin LAPACK SVD, at
    every size: an exact factorization, so s_max / sqrt(N) bounds the
    scalar kappa_max from above."""
    W = np.asarray(W, dtype=np.float64)
    U, s, _ = np.linalg.svd(W, full_matrices=False)
    return float(s[0]), U[:, 0]


@dataclass(frozen=True)
class SigmaResult:
    """Weak variance value with method tag and a norming certificate.

    ``certificate`` is the maximizing dual functional when the maximum is
    attained over a finite scanned set (or the spectral left vector); it
    satisfies ||phi||* <= 1 and sum_i <phi, x_i v_i>^2 = value^2.  When
    ``lower_bound_only`` is set the value is an honest lower bound, not an
    exact supremum.
    """

    value: float
    method: str
    certificate: np.ndarray | None = None
    lower_bound_only: bool = False


def weak_variances(
    inst: NormInstance, X, *, lower_bound_beyond_cap: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Weak variance at each row x of X (P, n): the values (P,), the
    certificates (P, m), the ``lower_bound_only`` flags (P,) and the method.

    A point's value, certificate and flag do not depend on its batch.
    l_inf, polytopes and l1 up to the instance's ``vertex_cap`` dual-cube
    dimensions: the extreme-point scan.  l2: the top singular pair of
    V diag(x), one stacked SVD.  Beyond the cap l1 raises CapacityError, or
    with ``lower_bound_beyond_cap`` gets, like any other p, the sampled
    lower bound, point by point.
    """
    kernel, vertex_cap = inst.kernel, inst.vertex_cap
    X = _check_points(kernel.n, X)
    V, P, mode = kernel.columns, X.shape[0], kernel.mode
    m = V.shape[0]
    flags = np.zeros(P, dtype=bool)  # the exact methods
    if mode == "maxabs" or (mode == "sumabs" and m <= vertex_cap):
        method = "extreme-point-scan" if mode == "maxabs" else "vertex-enumeration"
        return (*_extreme_point_scan(kernel, X), flags, method)
    if mode == "sumsq":
        U, s, _ = np.linalg.svd(V[None] * X[:, None, :], full_matrices=False)
        return s[:, 0], U[:, :, 0], flags, "spectral"
    if mode == "sumabs" and not lower_bound_beyond_cap:
        raise CapacityError(f"l1 weak variance needs 2^{m} dual vertices; cap is m <= {vertex_cap}")
    pairs = [_sampled_lower_bound(kernel.space, V * x) for x in X]
    values = np.array([value for value, _ in pairs])
    certificates = np.array([cert for _, cert in pairs]).reshape(P, m)  # (0, m) when empty
    return values, certificates, ~flags, "sampled-lower-bound"


def _extreme_point_scan(kernel: NormKernel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max_l ||phi_l V diag(x)||_2 and the first maximizing phi_l at each row
    x of X, over the dual ball's extreme points up to sign: the space's
    functional rows (a max: the unit vectors for l_inf) or the half sign
    table of the m-cube (l1) in blocks of ``_VERTEX_BLOCK``.  Per block, one GEMM of
    squares square(Phi V) @ square(X).T, both operands padded by ``_gemm_rows``,
    the points in chunks of whole ``_GEMM_BLOCK``s that keep it near
    ``_BUFFER`` doubles; blocks merge by a strict >.  Neither blocks nor
    chunks depend on the batch."""
    P, m = X.shape[0], kernel.columns.shape[0]
    if kernel.mode == "maxabs":
        blocks = [kernel.space.functionals]
    else:
        total = half_enumeration_size(m)
        starts = range(0, total, _VERTEX_BLOCK)
        blocks = (half_gray_sign_block(m, s, min(_VERTEX_BLOCK, total - s)) for s in starts)
    best, certificates = np.full(P, -1.0), np.zeros((P, m))
    for Phi in blocks:
        R = np.square(_gemm_rows(Phi @ kernel.columns))
        c = max(_GEMM_BLOCK, _BUFFER // R.shape[0] // _GEMM_BLOCK * _GEMM_BLOCK)
        for ps in range(0, P, c):
            Xc = X[ps : ps + c]
            S = (R @ np.square(_gemm_rows(Xc)).T)[: Phi.shape[0], : Xc.shape[0]]
            k = S.argmax(axis=0)
            s = S[k, np.arange(Xc.shape[0])]
            won = np.flatnonzero(s > best[ps : ps + c])
            best[ps + won], certificates[ps + won] = s[won], Phi[k[won]]
    return np.sqrt(best), certificates


def _sampled_lower_bound(space: NormSpec, W: np.ndarray) -> tuple[float, np.ndarray]:
    # no finite extreme-point description: scan the norming functionals of
    # the nonzero columns, the spectral direction and seeded directions, one
    # product per direction (a GEMM could move bits)
    rng = np.random.default_rng(np.uint64(_LOWER_BOUND_SEED))
    _, u = largest_singular_value(W)
    D = np.column_stack([W, u, rng.standard_normal((_LOWER_BOUND_SAMPLES, W.shape[0])).T])
    Phi = np.ascontiguousarray(norming_functionals(space, D[:, np.any(D, axis=0)]).T)
    vals = [float(np.square(phi @ W).sum()) for phi in Phi]
    k = int(np.argmax(vals))
    return math.sqrt(max(vals[k], 0.0)), Phi[k]


def sigma(inst: NormInstance, x) -> SigmaResult:
    """Weak variance of the weighted family (x_1 v_1, ..., x_n v_n):
    ``weak_variances`` on a batch of one point, so the two agree bit for bit.
    ``x`` is one point, a vector or a single row.
    """
    values, certificates, flags, method = weak_variances(inst, _check_points(inst.n, x, one=True))
    return SigmaResult(float(values[0]), method, certificates[0], bool(flags[0]))


@dataclass(frozen=True)
class KhinchinBounds:
    """lower = |y|_2 / sqrt(2) <= exact = E|sum eps_i y_i| <= upper = |y|_2."""

    lower: float
    exact: float
    upper: float


def khinchin_bounds(y) -> KhinchinBounds:
    """Exact Rademacher average of a scalar form with its classical sandwich.

    The average E|sum eps_i y_i| is the exact unconditional norm at y of n
    unit vectors in the one-dimensional space lp_space(1, 1).
    """
    y = np.asarray(y, dtype=np.float64)
    ones = VectorFamily(space=lp_space(1, 1), columns=np.ones((1, y.shape[0])))
    exact = exact_unconditional_norm(NormInstance(family=ones), y)
    l2 = float(np.linalg.norm(y))
    return KhinchinBounds(lower=l2 / KHINCHIN_CONSTANT, exact=exact, upper=l2)


@dataclass(frozen=True)
class VarianceRatio:
    """sigma(x) against the exact sign-averaged norm of the same x."""

    sigma: SigmaResult
    unconditional_norm: float
    ratio: float
    lower_bound_only: bool


def variance_norm_ratio(inst: NormInstance, x) -> VarianceRatio:
    """Both sides of the weak-variance bound sigma(x) <= sqrt(2) |||x|||,
    within the instance's caps.

    The caller asserts ratio <= sqrt(2) (+ float slack); when sigma is
    only a lower bound the inequality still must hold for it.
    """
    sr = sigma(inst, x)
    tn = exact_unconditional_norm(inst, x)
    ratio = sr.value / tn if tn > 0.0 else 0.0
    return VarianceRatio(
        sigma=sr, unconditional_norm=tn, ratio=ratio, lower_bound_only=sr.lower_bound_only
    )
