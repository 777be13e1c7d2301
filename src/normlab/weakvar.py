"""Weak variance of a weighted family and Khinchin-type bounds.

The weak variance of w_1..w_n is the supremum over dual unit-ball
functionals phi of sqrt(sum_i phi(w_i)^2).  Over our space menu it is an
exact maximum over a finite certificate set (dual vertices / extreme
points) or the largest singular value (euclidean case).  Where no finite
exact description exists the result is flagged ``lower_bound_only`` and
never silently wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .signs import half_enumeration_size, half_gray_sign_block
from .spaces import NormSpec, VectorFamily, lp_space, norming_functional
from .symmetrize import (
    DEFAULT_MAX_ENUM_N,
    NormInstance,
    exact_unconditional_norm,
)

# optimal constant in the L1 Khinchin inequality (Szarek)
KHINCHIN_CONSTANT = math.sqrt(2.0)

# vertex enumeration refuses exactness beyond this dual-cube dimension
VERTEX_ENUM_CAP = 20

_POWER_TOL = 1e-10
_POWER_MAXITER = 20000
_SVD_CUTOFF = 128


def largest_singular_value(W: np.ndarray, tol: float = _POWER_TOL) -> tuple[float, np.ndarray]:
    """(s_max, left singular vector) of W.

    Exact LAPACK factorization at small sizes; deterministic power
    iteration on the smaller Gram matrix above the cutoff (all-ones start,
    relative tolerance ``tol`` on the Rayleigh quotient).
    """
    W = np.asarray(W, dtype=np.float64)
    m, n = W.shape
    if min(m, n) <= _SVD_CUTOFF:
        U, s, _ = np.linalg.svd(W, full_matrices=False)
        return float(s[0]), U[:, 0]
    if m <= n:
        G = W @ W.T
        side = "left"
    else:
        G = W.T @ W
        side = "right"
    v = np.ones(G.shape[0]) / math.sqrt(G.shape[0])
    lam = 0.0
    for _ in range(_POWER_MAXITER):
        w = G @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, np.zeros(m)
        v = w / nw
        lam_new = float(v @ (G @ v))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    s = math.sqrt(max(lam, 0.0))
    if side == "left":
        u = v
    else:
        u = W @ v
        nu = float(np.linalg.norm(u))
        u = u / nu if nu > 0.0 else np.zeros(m)
    return s, u


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


def _weighted_columns(family: VectorFamily, x: np.ndarray) -> np.ndarray:
    return family.columns * np.asarray(x, dtype=np.float64)[None, :]


def _sigma_l1(W: np.ndarray, cap: int) -> SigmaResult:
    m = W.shape[0]
    if m > cap:
        raise CapacityError(
            f"l1 weak variance needs 2^{m} dual vertices; exact enumeration capped "
            f"at m <= {cap}"
        )
    G = W @ W.T
    best = -1.0
    best_vertex = None
    total = half_enumeration_size(m)
    block = 1 << 14
    for start in range(0, total, block):
        count = min(block, total - start)
        B = half_gray_sign_block(m, start, count)
        vals = np.einsum("ij,jk,ik->i", B, G, B)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_vertex = B[k].copy()
    return SigmaResult(
        value=math.sqrt(max(best, 0.0)),
        method="vertex-enumeration",
        certificate=best_vertex,
    )


def _sigma_scan(points: np.ndarray, W: np.ndarray, method: str) -> SigmaResult:
    vals = np.square(points @ W).sum(axis=1)
    k = int(np.argmax(vals))
    return SigmaResult(
        value=math.sqrt(max(float(vals[k]), 0.0)),
        method=method,
        certificate=points[k].copy(),
    )


def _sigma_smooth_lp(space: NormSpec, W: np.ndarray, samples: int, seed: int) -> SigmaResult:
    # no finite extreme-point description: scan norming functionals of
    # sampled directions (plus the column directions and the spectral one)
    m = W.shape[0]
    rng = np.random.default_rng(np.uint64(seed))
    dirs = [W[:, i] for i in range(W.shape[1]) if np.any(W[:, i])]
    _, u = largest_singular_value(W)
    dirs.append(u)
    dirs.extend(rng.standard_normal((samples, m)))
    best = -1.0
    best_phi = None
    for d in dirs:
        if not np.any(d):
            continue
        phi = norming_functional(space, d)
        val = float(np.square(phi @ W).sum())
        if val > best:
            best = val
            best_phi = phi
    return SigmaResult(
        value=math.sqrt(max(best, 0.0)),
        method="extreme-point-scan",
        certificate=best_phi,
        lower_bound_only=True,
    )


def sigma(
    family: VectorFamily,
    x,
    *,
    vertex_cap: int = VERTEX_ENUM_CAP,
    lower_bound_samples: int = 256,
    seed: int = 0,
    lower_bound_beyond_cap: bool = False,
) -> SigmaResult:
    """Weak variance of the weighted family (x_1 v_1, ..., x_n v_n).

    Exact for l2 (spectral), l_inf and polytope (extreme-point scan), and
    l1 up to ``vertex_cap`` dual-cube dimensions; other lp values get an
    honest sampled lower bound flagged ``lower_bound_only``.  Beyond the
    cap l1 raises CapacityError, or with ``lower_bound_beyond_cap`` gets
    that sampled lower bound too.
    """
    x = np.asarray(x, dtype=np.float64)
    W = _weighted_columns(family, x)
    space = family.space
    if space.kind == "polytope":
        return _sigma_scan(space.functionals, W, "extreme-point-scan")
    p = space.p
    if p is None:
        vals = np.square(W).sum(axis=1)
        k = int(np.argmax(vals))
        cert = np.zeros(space.dim)
        cert[k] = 1.0
        return SigmaResult(
            value=math.sqrt(max(float(vals[k]), 0.0)),
            method="extreme-point-scan",
            certificate=cert,
        )
    if p == 2.0:
        s, u = largest_singular_value(W)
        return SigmaResult(value=s, method="spectral", certificate=u)
    if p == 1.0 and (space.dim <= vertex_cap or not lower_bound_beyond_cap):
        return _sigma_l1(W, vertex_cap)
    return _sigma_smooth_lp(space, W, lower_bound_samples, seed)


def sigma_many_sup_norm(family: VectorFamily, X: np.ndarray) -> np.ndarray:
    """Vectorized exact weak variance for sup-norm spaces (rows of X).

    sigma(x) = max_k ||x . V[k,:]||_2; used by the distortion sphere split
    where per-point calls would dominate.
    """
    V2 = np.square(family.columns)  # (m, n)
    vals = V2 @ np.square(np.asarray(X, dtype=np.float64)).T  # (m, P)
    return np.sqrt(vals.max(axis=0))


@dataclass(frozen=True)
class KhinchinBounds:
    """lower = |y|_2 / sqrt(2) <= exact = E|sum eps_i y_i| <= upper = |y|_2."""

    lower: float
    exact: float
    upper: float


def khinchin_bounds(y, max_n: int = DEFAULT_MAX_ENUM_N) -> KhinchinBounds:
    """Exact Rademacher average of a scalar form with its classical sandwich.

    The average E|sum eps_i y_i| is the exact unconditional norm at y of n
    unit vectors in the one-dimensional space lp_space(1, 1).
    """
    y = np.asarray(y, dtype=np.float64)
    ones = VectorFamily(space=lp_space(1, 1), columns=np.ones((1, y.shape[0])))
    exact = exact_unconditional_norm(NormInstance(family=ones), y, max_n=max_n)
    l2 = float(np.linalg.norm(y))
    return KhinchinBounds(lower=l2 / KHINCHIN_CONSTANT, exact=exact, upper=l2)


@dataclass(frozen=True)
class VarianceRatio:
    """sigma(x) against the exact sign-averaged norm of the same x."""

    sigma: SigmaResult
    unconditional_norm: float
    ratio: float
    lower_bound_only: bool


def variance_norm_ratio(
    inst: NormInstance, x, max_n: int = DEFAULT_MAX_ENUM_N, **sigma_kwargs
) -> VarianceRatio:
    """Both sides of the weak-variance bound sigma(x) <= sqrt(2) |||x|||.

    The caller asserts ratio <= sqrt(2) (+ float slack); when sigma is
    only a lower bound the inequality still must hold for it.
    """
    sr = sigma(inst.family, x, **sigma_kwargs)
    tn = exact_unconditional_norm(inst, x, max_n=max_n)
    ratio = sr.value / tn if tn > 0.0 else 0.0
    return VarianceRatio(
        sigma=sr, unconditional_norm=tn, ratio=ratio, lower_bound_only=sr.lower_bound_only
    )
