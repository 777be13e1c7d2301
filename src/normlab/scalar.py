"""The scalar case: rho_A(y) = (1/N) sum_j |<eps_j, y>| on the Euclidean sphere.

For a sign matrix A this is the empirical averaged norm with a
one-dimensional ambient space.  kappa_min / kappa_max are the extreme values of
rho_A over the Euclidean unit sphere.  The maximum is sandwiched by the
singular-value certificate s_max(A)/sqrt(N) (Cauchy-Schwarz per column).
In general the extremes are estimated by probes plus projected
subgradient descent: the ``restarts`` lowest probes descend and the
``restarts`` highest ascend, all as one stack moved in lockstep by the
engine that distortion shares (``stats.descend``), each start with its
own step size and its own stop.  A sweep over xi runs its trials through
the driver that distortion shares too (``stats.sweep``).  At n = 2 the
circle decomposes into finitely many sign-pattern cones on which rho_A
is linear, so an exact pass over cone boundaries and interior stationary
directions pins the extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_seed
from .signs import SignMatrix, sample_sign_matrix
from .stats import descend, loglog_slope, quartiles, sweep
from .weakvar import largest_singular_value


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


def _rho_batch(E: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """rho at each row of Y (fast path for probes; no fsum)."""
    return np.abs(Y @ E).mean(axis=1)


def _descend(E: np.ndarray, y0: np.ndarray, f0, steps: int, sign):
    """Projected subgradient descent (sign=+1) or ascent (sign=-1) of rho.

    ``stats.descend`` moves the rows of ``y0`` (values ``f0``) in lockstep
    on the Euclidean sphere.  A row's state is its column products
    ``y @ E``, which give both its value and its subgradient, so a step is
    two products for the whole stack.  Returns the stack and its values; a
    1-d ``y0`` is a stack of one and returns ``(y, float)``.
    """
    N = E.shape[1]
    Y = np.array(y0, dtype=np.float64, ndmin=2)
    # sign(Z) @ E.T sums +-1 products exactly, so any layout gives its bits
    ET = np.ascontiguousarray(E.T)

    def evaluate(C):
        Z = C @ E
        return np.add.reduce(np.abs(Z), axis=1) / N, Z

    Y, F = descend(
        Y, f0, Y @ E, steps, sign,
        subgradient=lambda Z: np.sign(Z) @ ET / N,
        # the arithmetic of np.linalg.norm(C, axis=1) and of .mean(axis=1)
        norm=lambda C: np.sqrt(np.add.reduce(C * C, axis=1)),
        evaluate=evaluate,
    )
    if np.ndim(y0) == 1:
        return Y[0], float(F[0])
    return Y, F


def _exact_circle_extremes(E: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Exact min/max of rho on the circle via sign-cone geometry.

    rho is linear within each cone where all column signs are constant, so
    its minimum over the circle sits on a cone boundary (an angle
    perpendicular to some column) and its maximum either on a boundary or
    at a cone's interior stationary direction w/|w|, w = (1/N) sum s_j e_j.
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
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    return float(vals[i_min]), Y[i_min], float(vals[i_max]), Y[i_max]


def scalar_min_max(
    A: SignMatrix,
    probes: int = 256,
    seed: int = 0,
    *,
    descent_steps: int = 50,
    restarts: int = 3,
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
        v_min, ym, v_max, yM = _exact_circle_extremes(E)
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
    is reported against the conjectured xi^2 shape, never asserted.  The
    trials run through the driver that distortion shares (``stats.sweep``),
    so a ``pool`` that maps them gives the same results as running them in
    order.
    """

    def trial(xi: float, t: int, trial_seed: int) -> ScalarTrialReport:
        A = sample_sign_matrix(
            n, SignMatrix.columns_for_xi(n, xi), derive_seed(trial_seed, 0), trial_index=t
        )
        return scalar_min_max(
            A,
            probes=probes,
            seed=derive_seed(trial_seed, 1),
            descent_steps=descent_steps,
            restarts=restarts,
        )

    by_xi = sweep(xi_list, trials, seed, trial, pool)
    rows = []
    for xi in xi_list:
        reports = by_xi[xi]
        kmin = np.array([r.kappa_min for r in reports])
        rows.append(ScalarXiSummary(
            xi, n, reports[0].N, trials,
            xi > 1.0,
            *quartiles(kmin),
            *quartiles([r.kappa_max for r in reports]),
            float((kmin <= tau).mean()) if tau is not None else None,
        ))
    slope = loglog_slope((r.xi, r.kmin_median) for r in rows if r.xi <= 1.0)
    return ScalarSweepResult(rows=rows, small_xi_loglog_slope=slope, reports_by_xi=by_xi)
