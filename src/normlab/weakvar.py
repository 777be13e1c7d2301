"""Weak variance of a weighted family and Khinchin-type bounds.

The weak variance of w_1..w_n is the supremum over dual unit-ball
functionals phi of sqrt(sum_i phi(w_i)^2).  ``weak_variances`` computes it
for a batch of points of one family from its prepared norm kernel, and is
the one place that looks at the kind of space for it: an exact maximum
over a finite certificate set (dual vertices / extreme points) or the
largest singular value (euclidean case).  Where no finite exact
description exists the result is a sampled lower bound, flagged
``lower_bound_only`` and never silently wrong.  ``sigma`` is its batch of
one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .signs import ENUMERATION_CAP, half_enumeration_size, half_gray_sign_block
from .spaces import NormSpec, VectorFamily, lp_space, norming_functionals
from .symmetrize import _BUFFER, NormInstance, NormKernel, _gemm_rows, exact_unconditional_norm

# optimal constant in the L1 Khinchin inequality (Szarek)
KHINCHIN_CONSTANT = math.sqrt(2.0)

# vertex enumeration refuses exactness beyond this dual-cube dimension
VERTEX_ENUM_CAP = 20

# the sampled lower bound scans this many seeded directions
_LOWER_BOUND_SAMPLES = 256
_LOWER_BOUND_SEED = 0

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


def weak_variances(
    kernel: NormKernel,
    X,
    *,
    vertex_cap: int = VERTEX_ENUM_CAP,
    lower_bound_beyond_cap: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Weak variance at each row x of X (P, n): the values (P,), the
    certificates (P, m), the ``lower_bound_only`` flags (P,) and the method.

    A point's value, certificate and flag do not depend on its batch.
    l_inf: max_k ||x * V[k]||_2, one GEMM of squares with both operands
    padded by ``_gemm_rows``, certificate e_k.  Polytope: max_l
    ||F_l V diag(x)||_2 from each point's (K, m) @ (m, n) product, chunked
    by points, certificate F_l.  l2: the top singular pair of V diag(x),
    one stacked SVD.  l1 up to ``vertex_cap`` dual-cube dimensions: every
    dual vertex, point by point.  Beyond the cap l1 raises CapacityError,
    or with ``lower_bound_beyond_cap`` gets, like any other p, the sampled
    lower bound.
    """
    X = np.asarray(X, dtype=np.float64)
    V, F, P = kernel.columns, kernel.dual, X.shape[0]
    m = V.shape[0]
    flags = np.zeros(P, dtype=bool)  # the exact methods
    if F is None and kernel.mode == "maxabs":
        S = (np.square(_gemm_rows(V)) @ np.square(_gemm_rows(X)).T)[:m, :P]
        k = S.argmax(axis=0)
        return np.sqrt(S[k, np.arange(P)]), np.eye(m)[k], flags, "extreme-point-scan"
    if F is not None:
        c = max(1, _BUFFER // ((F.shape[0] + m) * V.shape[1]))
        S = np.concatenate([
            np.square(F @ (V[None] * X[ps : ps + c, None, :])).sum(axis=2)
            for ps in range(0, P, c)
        ])
        k = S.argmax(axis=1)
        return np.sqrt(S[np.arange(P), k]), F[k], flags, "extreme-point-scan"
    if kernel.mode == "sumsq":
        U, s, _ = np.linalg.svd(V[None] * X[:, None, :], full_matrices=False)
        return s[:, 0], U[:, :, 0], flags, "spectral"
    sampled = kernel.mode == "p" or (m > vertex_cap and lower_bound_beyond_cap)
    if not sampled and m > vertex_cap:
        raise CapacityError(
            f"l1 weak variance needs 2^{m} dual vertices; exact enumeration capped "
            f"at m <= {vertex_cap}"
        )
    pairs = [
        _sampled_lower_bound(kernel.space, V * x) if sampled else _dual_vertices(V * x)
        for x in X
    ]
    values = np.array([value for value, _ in pairs])
    certificates = np.array([cert for _, cert in pairs])
    method = "sampled-lower-bound" if sampled else "vertex-enumeration"
    return values, certificates, np.full(P, sampled), method


def _dual_vertices(W: np.ndarray) -> tuple[float, np.ndarray]:
    # l1: the dual ball's vertices are the sign vectors, one per +- pair
    m = W.shape[0]
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
    return math.sqrt(max(best, 0.0)), best_vertex


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


def sigma(
    family: VectorFamily,
    x,
    *,
    vertex_cap: int = VERTEX_ENUM_CAP,
    lower_bound_beyond_cap: bool = False,
) -> SigmaResult:
    """Weak variance of the weighted family (x_1 v_1, ..., x_n v_n):
    ``weak_variances`` on a batch of one point, so the two agree bit for bit.
    """
    values, certificates, flags, method = weak_variances(
        NormKernel(family),
        np.asarray(x, dtype=np.float64)[None, :],
        vertex_cap=vertex_cap,
        lower_bound_beyond_cap=lower_bound_beyond_cap,
    )
    return SigmaResult(float(values[0]), method, certificates[0], bool(flags[0]))


@dataclass(frozen=True)
class KhinchinBounds:
    """lower = |y|_2 / sqrt(2) <= exact = E|sum eps_i y_i| <= upper = |y|_2."""

    lower: float
    exact: float
    upper: float


def khinchin_bounds(y, max_n: int = ENUMERATION_CAP) -> KhinchinBounds:
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
    inst: NormInstance, x, max_n: int = ENUMERATION_CAP, **sigma_kwargs
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
