"""Desk-scale distortion experiments for the sign-sampled norm.

One trial draws a sign matrix with N = round((1+xi) n) columns, probes the
empirical norm over unit vectors of the exact averaged norm (optional net
points plus sphere samples), and refines the minimum by projected
subgradient descent on the sphere: the lowest probe is a stack of one
start for the engine that the scalar case shares (``stats.descend``),
renormalised by the exact norm.  There is no ascent and no restart, so
the harness rejects ``probes.restarts`` here.  The reported minimum is
the exact minimum over everything evaluated, hence an upper bound on the
true minimum over the sphere; the maximum likewise a lower bound on the
true maximum.  A sweep over xi runs its trials through the driver that
the scalar case shares (``stats.sweep``), then aggregates trial quartiles
and fits the small-xi log-log slope of the median minimum (reported,
never asserted); ``run_trials`` is the sweep of one xi.

The signs are per trial and the probes per family and sweep: every trial
of a sweep draws its own sign matrix from its trial seed and measures it
at the same sphere samples, drawn from the sweep's probe seed
(``seeding.sweep_probe_seed``; common random numbers).  ``sphere_sample``
keeps its result on the instance, so the family's samples are
normalised by the exact norm once per sweep, inside the first trial
that asks for them.  A lone ``run_trial`` draws its samples from its own
seed.  ``SEED_SCHEME`` names this derivation in each sweep's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nets import NetPoints, certified_sup_bound
from .seeding import derive_seed, sweep_probe_seed
from .signs import SignMatrix, sample_sign_matrix
from .spaces import norming_functionals
from .stats import descend, loglog_slope, quartiles, sweep
from .symmetrize import (
    EmpiricalNormInstance,
    NormInstance,
    NormKernel,
    batch_empirical_norm,
    exact_unconditional_norm_many,
)
from .weakvar import KHINCHIN_CONSTANT, weak_variances

# how a sweep derives its seeds: 1 drew each trial's samples from
# derive_seed(trial_seed, 1); 2 draws every trial's from the sweep's probe seed
SEED_SCHEME = 2
DEFAULT_THETA = 0.5
DEFAULT_SIGMA0 = KHINCHIN_CONSTANT * DEFAULT_THETA

UNSPECIFIED_CONSTANTS_NOTE = (
    "the isomorphism and failure-probability constants of the underlying "
    "theorem are universal but numerically unspecified; all tables here are "
    "empirical fits, not asserted values"
)


@dataclass(frozen=True)
class ProbeSpec:
    """How a trial probes the sphere: optional net, samples, descent steps."""

    samples: int = 2000
    descent_steps: int = 50
    net: NetPoints | None = None


@dataclass(frozen=True)
class UVStats:
    sigma0: float
    count_U: int
    count_V: int
    min_U: float | None
    min_V: float | None
    tentative: bool = False


@dataclass(frozen=True)
class Estimate:
    value: float
    direction: np.ndarray = field(repr=False)
    method: str  # net-scan | sample-scan | local-descent


@dataclass(frozen=True)
class DistortionReport:
    trial_seed: int
    n: int
    N: int
    xi: float
    min_estimate: Estimate
    max_estimate: Estimate
    probe_min: float
    certified_upper: float | None
    covering_status: str | None
    samples_used: int
    uv: UVStats | None


def sphere_sample(inst: NormInstance, count: int, seed: int) -> np.ndarray:
    """Gaussian directions normalized to unit exact norm; rows are points.

    The array is read-only and kept on the instance for its latest
    (count, seed) (``NormInstance.sphere_bank``): the trials of a sweep,
    which share their samples, normalise them once.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return np.zeros((0, inst.n))

    def draw() -> np.ndarray:
        rng = np.random.default_rng(np.uint64(seed))
        g = rng.standard_normal((count, inst.n))
        norms = exact_unconditional_norm_many(inst, g)
        X = g / norms[:, None]
        X.setflags(write=False)
        return X

    return inst.sphere_bank(count, seed, draw)


def _empirical_subgradients(kernel: NormKernel, E: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Subgradients of x -> (1/N) sum_j ||sum_i eps_ij x_i v_i||, one per row of X."""
    V = kernel.columns
    G = np.empty_like(X)
    for i, x in enumerate(X):
        U = (V * x[None, :]) @ E  # (m, N) column sums
        P = V.T @ norming_functionals(kernel.space, U)  # (n, N): <phi_j, v_i>
        G[i] = (E * P).mean(axis=1)
    return G


def run_trial(
    inst: NormInstance,
    xi: float | None,
    seed: int,
    probes: ProbeSpec | None = None,
    *,
    signs=None,
    sigma0: float = DEFAULT_SIGMA0,
    probe_seed: int | None = None,
) -> DistortionReport:
    """One distortion trial; deterministic given (instance, seed, probes, probe_seed).

    The sign matrix comes from ``seed`` and the sphere samples from
    ``probe_seed``, by default ``derive_seed(seed, 1)``; a sweep passes
    its probe seed to every trial.  ``signs`` may inject an explicit sign
    matrix (e.g. the full enumeration) in place of sampling; N/xi are
    then taken from it.  The
    caps are the instance's: its ``max_n`` bounds every exact norm, and an
    l1 space wider than its ``vertex_cap`` gets sampled lower bounds on
    sigma, and its U/V split is marked tentative.
    """
    probes = probes or ProbeSpec()
    n = inst.n
    if signs is None:
        if xi is None:
            raise ValueError("one of xi or signs is required")
        N = SignMatrix.columns_for_xi(n, xi)
        if N < 1:
            raise ValueError(f"N = round((1+xi) n) must be >= 1, got {N}")
        signs = sample_sign_matrix(n, N, derive_seed(seed, 0), trial_index=None)
    emp = EmpiricalNormInstance(family=inst.family, signs=signs)
    xi_actual = emp.xi

    net_pts = probes.net.points if probes.net is not None else np.zeros((0, n))
    if probe_seed is None:
        probe_seed = derive_seed(seed, 1)
    samples = sphere_sample(inst, probes.samples, probe_seed)
    X = np.vstack([net_pts, samples]) if net_pts.size else samples
    if X.shape[0] == 0:
        raise ValueError("probe set is empty: provide samples > 0 or a net")
    vals = batch_empirical_norm(emp, X)

    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    net_count = net_pts.shape[0]
    probe_min = float(vals[i_min])

    def probe_method(i: int) -> str:
        return "net-scan" if i < net_count else "sample-scan"

    min_est = Estimate(value=probe_min, direction=X[i_min].copy(), method=probe_method(i_min))
    if probes.descent_steps > 0:
        # a stack of one start, renormalised by the exact norm; a row's
        # state is the point itself
        E = signs.dense()
        start = min_est.direction[None, :]
        Y, F = descend(
            start, min_est.value, start, probes.descent_steps, 1.0,
            subgradient=lambda S: _empirical_subgradients(inst.kernel, E, S),
            norm=lambda C: exact_unconditional_norm_many(inst, C),
            evaluate=lambda C: (batch_empirical_norm(emp, C), C),
        )
        if F[0] < min_est.value:
            min_est = Estimate(value=float(F[0]), direction=Y[0], method="local-descent")
    max_est = Estimate(value=float(vals[i_max]), direction=X[i_max].copy(), method=probe_method(i_max))

    certified = None
    covering = None
    if probes.net is not None:
        bound = certified_sup_bound(emp, probes.net)
        certified = bound.value
        covering = bound.covering_status

    svals, _, lower_bound_only, _ = weak_variances(inst, X, lower_bound_beyond_cap=True)
    in_U = svals >= sigma0
    uv = UVStats(
        sigma0=float(sigma0),
        count_U=int(in_U.sum()),
        count_V=int((~in_U).sum()),
        min_U=float(vals[in_U].min()) if in_U.any() else None,
        min_V=float(vals[~in_U].min()) if (~in_U).any() else None,
        tentative=bool(lower_bound_only.any()),
    )
    return DistortionReport(
        trial_seed=seed,
        n=n,
        N=emp.N,
        xi=xi_actual,
        min_estimate=min_est,
        max_estimate=max_est,
        probe_min=probe_min,
        certified_upper=certified,
        covering_status=covering,
        samples_used=X.shape[0],
        uv=uv,
    )


@dataclass(frozen=True)
class XiSummary:
    xi: float
    n: int
    N: int
    trials: int
    min_q1: float
    min_median: float
    min_q3: float
    max_q1: float
    max_median: float
    max_q3: float


@dataclass(frozen=True)
class ConstantsProfile:
    """Empirical tables standing in for the theorem's unnamed constants."""

    rows: list[XiSummary]
    small_xi_loglog_slope: float | None
    probe_seed: int
    note: str = UNSPECIFIED_CONSTANTS_NOTE
    reports_by_xi: dict | None = field(default=None, repr=False, compare=False)


def xi_sweep(
    inst: NormInstance,
    xi_list: list[float],
    trials: int,
    seed: int,
    probes: ProbeSpec | None = None,
    *,
    sigma0: float = DEFAULT_SIGMA0,
    pool=None,
) -> ConstantsProfile:
    """Trial quartiles of min/max estimates per xi, plus the small-xi slope."""
    probe_seed = sweep_probe_seed(seed)

    def trial(xi: float, t: int, trial_seed: int) -> DistortionReport:
        return run_trial(inst, xi, trial_seed, probes, sigma0=sigma0, probe_seed=probe_seed)

    by_xi = sweep(xi_list, trials, seed, trial, pool)
    rows = []
    for xi in xi_list:
        reports = by_xi[xi]
        rows.append(XiSummary(
            xi, reports[0].n, reports[0].N, trials,
            *quartiles([r.min_estimate.value for r in reports]),
            *quartiles([r.max_estimate.value for r in reports]),
        ))
    return ConstantsProfile(
        rows=rows,
        # log-log slope of median minimum vs xi over xi < 1 (reported only)
        small_xi_loglog_slope=loglog_slope((r.xi, r.min_median) for r in rows if r.xi < 1.0),
        probe_seed=probe_seed,
        reports_by_xi=by_xi,
    )


def run_trials(
    inst: NormInstance,
    xi: float,
    trials: int,
    master_seed: int,
    probes: ProbeSpec | None = None,
    *,
    sigma0: float = DEFAULT_SIGMA0,
    pool=None,
) -> list[DistortionReport]:
    """Trials with per-trial derived signs and shared probes: ``xi_sweep`` at one xi."""
    profile = xi_sweep(inst, [xi], trials, master_seed, probes, sigma0=sigma0, pool=pool)
    return profile.reports_by_xi[xi]
