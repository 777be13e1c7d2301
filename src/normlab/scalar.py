"""The scalar case: rho_A(y) = (1/N) sum_j |<eps_j, y>| on the Euclidean sphere.

For a sign matrix A this is the empirical averaged norm with a
one-dimensional ambient space, so it doubles as a consistency oracle for
the general machinery.  kappa_min / kappa_max are the extreme values of
rho_A over the Euclidean unit sphere.  The maximum is sandwiched by the
singular-value certificate s_max(A)/sqrt(N) (Cauchy-Schwarz per column).
In general the extremes are estimated by probes plus projected
subgradient descent: the ``restarts`` lowest probes descend and the
``restarts`` highest ascend, all as one stack in lockstep, each start
with its own step size and its own stop.  At n = 2 the circle decomposes
into finitely many sign-pattern cones on which rho_A is linear, so an
exact pass over cone boundaries and interior stationary directions (plus
a dense angular grid) pins the extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_seed, trial_seeds_for_xi
from .signs import SignMatrix, sample_sign_matrix
from .stats import loglog_slope, quartiles
from .symmetrize import _empirical_many  # shared kernel keeps values bit-identical
from .weakvar import largest_singular_value

DESCENT_STEP0 = 0.1
DESCENT_STEP_MIN = 1e-6
ANGULAR_GRID = 100_000


@dataclass(frozen=True)
class ScalarTrialReport:
    n: int
    N: int
    xi: float
    seed: int | None
    kappa_min: float
    kappa_max: float
    kappa_max_certificate: float
    min_method: str
    max_method: str
    argmin: np.ndarray = field(repr=False)
    argmax: np.ndarray = field(repr=False)
    exact_pass: bool = False


def scalar_empirical_norm(A: SignMatrix, y) -> float:
    """(1/N) sum_j |sum_i eps_ij y_i|.

    Routed through the same kernel as the general empirical norm with a
    one-dimensional space and unit vectors, so the two agree exactly.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (A.n,):
        raise ValueError(f"y has shape {y.shape}, expected ({A.n},)")
    R = np.ones((1, A.n))
    return float(_empirical_many(R, "maxabs", None, A.dense(), y[None, :])[0])


def _rho_batch(E: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """rho at each row of Y (fast path for probes; no fsum)."""
    return np.abs(Y @ E).mean(axis=1)


def _descend(E: np.ndarray, y0: np.ndarray, f0, steps: int, sign):
    """Projected subgradient descent (sign=+1) or ascent (sign=-1) of rho.

    The rows of ``y0`` (values ``f0``) move in lockstep: a step is one
    subgradient product and one evaluation for the whole stack.  Each row
    keeps its own step size, halved when its candidate is rejected, and
    stops once that falls below DESCENT_STEP_MIN; a stopped row is left
    as it is, so no row's path depends on the others.  ``sign`` is one
    value or one per row.  Returns the stack and its values; a 1-d ``y0``
    is a stack of one and returns ``(y, float)``.
    """
    N = E.shape[1]
    Y = np.array(y0, dtype=np.float64, ndmin=2)
    F = np.array(f0, dtype=np.float64, ndmin=1)
    sign = np.broadcast_to(np.asarray(sign, dtype=np.float64), F.shape)
    step = np.full(F.shape, DESCENT_STEP0)
    Z = Y @ E  # the stack's column products, kept with Y
    for _ in range(steps):
        active = step >= DESCENT_STEP_MIN
        if not active.any():
            break
        C = Y - (sign * step)[:, None] * (np.sign(Z) @ E.T / N)
        # the arithmetic of np.linalg.norm(C, axis=1) and of .mean(axis=1)
        nrm = np.sqrt(np.add.reduce(C * C, axis=1))
        live = active & (nrm > 0.0)
        np.divide(C, nrm[:, None], out=C, where=live[:, None])
        ZC = C @ E
        FC = np.add.reduce(np.abs(ZC), axis=1) / N
        better = live & (sign * (FC - F) < 0.0)
        np.copyto(Y, C, where=better[:, None])
        np.copyto(Z, ZC, where=better[:, None])
        np.copyto(F, FC, where=better)
        step[active & ~better] *= 0.5
    if np.ndim(y0) == 1:
        return Y[0], float(F[0])
    return Y, F


def _exact_circle_extremes(E: np.ndarray, grid: int) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Exact min/max of rho on the circle via sign-cone geometry.

    rho is linear within each cone where all column signs are constant, so
    its minimum over the circle sits on a cone boundary (an angle
    perpendicular to some column) and its maximum either on a boundary or
    at a cone's interior stationary direction w/|w|, w = (1/N) sum s_j e_j.
    A dense angular grid is swept as well (belt and braces).
    """
    N = E.shape[1]
    bounds = set()
    for j in range(N):
        c1, c2 = E[0, j], E[1, j]
        phi = math.atan2(c1, -c2) % (2.0 * math.pi)
        bounds.add(phi)
        bounds.add((phi + math.pi) % (2.0 * math.pi))
    angles = sorted(bounds)
    cand = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    # interior stationary directions, one per cone (arc between boundaries)
    for k in range(len(angles)):
        a0 = angles[k]
        a1 = angles[(k + 1) % len(angles)] + (2.0 * math.pi if k + 1 == len(angles) else 0.0)
        mid = 0.5 * (a0 + a1)
        ymid = np.array([math.cos(mid), math.sin(mid)])
        s = np.sign(ymid @ E)
        s[s == 0.0] = 1.0
        w = E @ s / N
        nw = float(np.linalg.norm(w))
        if nw > 0.0:
            cand.append(w / nw)
    Y = np.array(cand)
    vals = _rho_batch(E, Y)
    # dense sweep
    phi = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    G = np.column_stack([np.cos(phi), np.sin(phi)])
    gvals = _rho_batch(E, G)
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    g_min = int(np.argmin(gvals))
    g_max = int(np.argmax(gvals))
    if gvals[g_min] < vals[i_min]:
        y_min, v_min = G[g_min], float(gvals[g_min])
    else:
        y_min, v_min = Y[i_min], float(vals[i_min])
    if gvals[g_max] > vals[i_max]:
        y_max, v_max = G[g_max], float(gvals[g_max])
    else:
        y_max, v_max = Y[i_max], float(vals[i_max])
    return v_min, y_min, v_max, y_max


def scalar_min_max(
    A: SignMatrix,
    probes: int = 256,
    seed: int = 0,
    *,
    descent_steps: int = 50,
    restarts: int = 3,
    angular_grid: int = ANGULAR_GRID,
) -> ScalarTrialReport:
    """Estimate the extremes of rho_A over the Euclidean unit sphere.

    Probe + descent estimates everywhere (upper bound on the true min,
    lower bound on the true max); at n = 2 the exact angular pass replaces
    them when it is sharper.  kappa_max is certified by s_max(A)/sqrt(N).
    """
    n, N = A.n, A.N
    E = A.dense()
    rng = np.random.default_rng(np.uint64(derive_seed(seed, 0)))
    Y = rng.standard_normal((max(probes, 1), n))
    Y /= np.linalg.norm(Y, axis=1)[:, None]
    vals = _rho_batch(E, Y)
    order = np.argsort(vals)

    # descend from the r lowest probes and ascend from the r highest, in one
    # stack; argmin/argmax keep the first start with the strictly best value
    r = min(max(restarts, 0), len(order))
    starts = np.concatenate([order[:r], order[::-1][:r]])
    Yd, Fd = _descend(E, Y[starts], vals[starts], descent_steps, np.repeat([1.0, -1.0], r))

    best_min, y_min = float(vals[order[0]]), Y[order[0]].copy()
    min_method = "sample-scan"
    if r and Fd[:r].min() < best_min:
        k = int(np.argmin(Fd[:r]))
        best_min, y_min, min_method = float(Fd[k]), Yd[k], "local-descent"

    best_max, y_max = float(vals[order[-1]]), Y[order[-1]].copy()
    max_method = "sample-scan"
    if r and Fd[r:].max() > best_max:
        k = r + int(np.argmax(Fd[r:]))
        best_max, y_max, max_method = float(Fd[k]), Yd[k], "local-ascent"

    exact_pass = False
    if n == 2:
        v_min, ym, v_max, yM = _exact_circle_extremes(E, angular_grid)
        exact_pass = True
        if v_min <= best_min:
            best_min, y_min, min_method = v_min, ym, "exact-angular"
        if v_max >= best_max:
            best_max, y_max, max_method = v_max, yM, "exact-angular"

    s_max, _ = largest_singular_value(E)
    return ScalarTrialReport(
        n=n,
        N=N,
        xi=A.xi,
        seed=seed,
        kappa_min=best_min,
        kappa_max=best_max,
        kappa_max_certificate=s_max / math.sqrt(N),
        min_method=min_method,
        max_method=max_method,
        argmin=y_min,
        argmax=y_max,
        exact_pass=exact_pass,
    )


@dataclass(frozen=True)
class ScalarXiSummary:
    xi: float
    n: int
    N: int
    trials: int
    outside_stated_range: bool  # the scalar bound is stated for 0 < xi < 1
    kmin_q1: float
    kmin_median: float
    kmin_q3: float
    kmax_q1: float
    kmax_median: float
    kmax_q3: float
    freq_below_tau: float | None


@dataclass(frozen=True)
class ScalarSweepResult:
    rows: list[ScalarXiSummary]
    small_xi_loglog_slope: float | None
    reports_by_xi: dict = field(repr=False, compare=False, default=None)


def scalar_xi_sweep(
    n: int,
    xi_list: list[float],
    trials: int,
    seed: int,
    *,
    probes: int = 128,
    descent_steps: int = 40,
    restarts: int = 2,
    tau: float | None = None,
    pool=None,
) -> ScalarSweepResult:
    """Quartiles of kappa_min / kappa_max per xi over independent trials.

    xi > 1 rows are flagged as extrapolation beyond the stated range of the
    scalar bound.  The log-log slope of median kappa_min vs xi over xi <= 1
    is reported against the conjectured xi^2 shape, never asserted.  Trial
    seeds derive from (seed, xi, trial index), so a ``pool`` that maps the
    trials gives the same results as running them in order.
    """
    if not xi_list:
        raise ValueError("xi_list must be nonempty")
    rows = []
    by_xi: dict[float, list[ScalarTrialReport]] = {}
    for xi in xi_list:
        N = int(round((1.0 + xi) * n))

        def one(t: int, ts: int) -> ScalarTrialReport:
            A = sample_sign_matrix(n, N, derive_seed(ts, 0), trial_index=t)
            return scalar_min_max(
                A,
                probes=probes,
                seed=derive_seed(ts, 1),
                descent_steps=descent_steps,
                restarts=restarts,
            )

        seeds = trial_seeds_for_xi(seed, xi, trials)
        mapper = map if pool is None else pool.map
        reports = list(mapper(one, range(trials), seeds))
        by_xi.setdefault(xi, reports)
        kmin = np.array([r.kappa_min for r in reports])
        kq1, kmed, kq3 = quartiles(kmin)
        Kq1, Kmed, Kq3 = quartiles([r.kappa_max for r in reports])
        rows.append(
            ScalarXiSummary(
                xi=xi,
                n=n,
                N=N,
                trials=trials,
                outside_stated_range=xi > 1.0,
                kmin_q1=kq1,
                kmin_median=kmed,
                kmin_q3=kq3,
                kmax_q1=Kq1,
                kmax_median=Kmed,
                kmax_q3=Kq3,
                freq_below_tau=(
                    float((kmin <= tau).mean()) if tau is not None else None
                ),
            )
        )
    slope = loglog_slope((r.xi, r.kmin_median) for r in rows if r.xi <= 1.0)
    return ScalarSweepResult(rows=rows, small_xi_loglog_slope=slope, reports_by_xi=by_xi)
