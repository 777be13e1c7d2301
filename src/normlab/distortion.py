"""Desk-scale distortion experiments for the sign-sampled norm.

One trial draws a sign matrix with N = round((1+xi) n) columns, probes the
empirical norm over unit vectors of the exact averaged norm (optional net
points plus fresh sphere samples), and refines the minimum by projected
subgradient descent on the sphere.  The reported minimum is the exact
minimum over everything evaluated, hence an upper bound on the true
minimum over the sphere; the maximum likewise a lower bound on the true
maximum.  Sweeps over xi aggregate trial quartiles and fit the small-xi
log-log slope of the median minimum (reported, never asserted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nets import NetPoints, certified_sup_bound
from .seeding import derive_seed, trial_seeds_for_xi
from .signs import sample_sign_matrix
from .spaces import VectorFamily, norming_functional
from .stats import loglog_slope, quartiles
from .symmetrize import (
    DEFAULT_MAX_ENUM_N,
    EmpiricalNormInstance,
    NormInstance,
    batch_empirical_norm,
    exact_unconditional_norm_many,
)
from .weakvar import KHINCHIN_CONSTANT, VERTEX_ENUM_CAP, sigma, sigma_many_sup_norm

DEFAULT_THETA = 0.5
DEFAULT_SIGMA0 = KHINCHIN_CONSTANT * DEFAULT_THETA

DESCENT_STEP0 = 0.1
DESCENT_STEP_MIN = 1e-6

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
class SphereSplit:
    """Classification of a unit vector by the weak-variance threshold."""

    sigma0: float
    sigma_value: float
    cls: str  # "U" if sigma >= sigma0 else "V"
    tentative: bool = False


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


def sphere_sample(
    inst: NormInstance, count: int, seed: int, max_n: int = DEFAULT_MAX_ENUM_N
) -> np.ndarray:
    """Gaussian directions normalized to unit exact norm; rows are points."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return np.zeros((0, inst.n))
    rng = np.random.default_rng(np.uint64(seed))
    g = rng.standard_normal((count, inst.n))
    norms = exact_unconditional_norm_many(inst, g, max_n=max_n)
    return g / norms[:, None]


def split_UV(family: VectorFamily, x, sigma0: float) -> SphereSplit:
    """U/V classification: boundary sigma(x) = sigma0 goes to U."""
    sr = sigma(family, x)
    cls = "U" if sr.value >= sigma0 else "V"
    return SphereSplit(
        sigma0=float(sigma0), sigma_value=sr.value, cls=cls, tentative=sr.lower_bound_only
    )


def _sigma_values(family: VectorFamily, X: np.ndarray, vertex_cap: int) -> tuple[np.ndarray, bool]:
    space = family.space
    if space.kind == "lp" and space.p is None:
        return sigma_many_sup_norm(family, X), False
    if space.kind == "lp" and space.p == 2.0:
        stack = family.columns[None, :, :] * X[:, None, :]
        svals = np.linalg.svd(stack, compute_uv=False)
        return svals[:, 0], False
    vals = np.empty(X.shape[0])
    tentative = False
    for i, x in enumerate(X):
        sr = sigma(family, x, vertex_cap=vertex_cap, lower_bound_beyond_cap=True)
        vals[i] = sr.value
        tentative = tentative or sr.lower_bound_only
    return vals, tentative


def _empirical_subgradient(
    family: VectorFamily, E: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Subgradient of x -> (1/N) sum_j ||sum_i eps_ij x_i v_i||."""
    V = family.columns
    U = (V * x[None, :]) @ E  # (m, N) column sums
    N = E.shape[1]
    Phi = np.empty_like(U)
    for j in range(N):
        Phi[:, j] = norming_functional(family.space, U[:, j])
    P = V.T @ Phi  # (n, N): <phi_j, v_i>
    return (E * P).mean(axis=1)


def _descent_min(
    inst: NormInstance,
    emp: EmpiricalNormInstance,
    x0: np.ndarray,
    f0: float,
    steps: int,
    max_n: int,
) -> tuple[np.ndarray, float]:
    """Projected subgradient descent on the exact-norm sphere.

    Candidates are renormalized by the exact norm each step; only
    improvements are kept, so the estimate can only decrease.
    """
    E = emp.signs.dense()
    x, fx = x0, f0
    step = DESCENT_STEP0
    for _ in range(steps):
        if step < DESCENT_STEP_MIN:
            break
        g = _empirical_subgradient(inst.family, E, x)
        cand = x - step * g
        nrm = float(exact_unconditional_norm_many(inst, cand[None, :], max_n=max_n)[0])
        if nrm <= 0.0:
            step *= 0.5
            continue
        cand = cand / nrm
        fc = float(batch_empirical_norm(emp, cand[None, :])[0])
        if fc < fx:
            x, fx = cand, fc
        else:
            step *= 0.5
    return x, fx


def run_trial(
    inst: NormInstance,
    xi: float | None,
    seed: int,
    probes: ProbeSpec | None = None,
    *,
    N: int | None = None,
    signs=None,
    sigma0: float = DEFAULT_SIGMA0,
    max_n: int = DEFAULT_MAX_ENUM_N,
    vertex_cap: int = VERTEX_ENUM_CAP,
) -> DistortionReport:
    """One distortion trial; deterministic given (instance, seed, probes).

    ``signs`` may inject an explicit sign matrix (e.g. the full
    enumeration) in place of sampling; N/xi are then taken from it.  An
    l1 space wider than ``vertex_cap`` gets sampled lower bounds on sigma,
    and its U/V split is marked tentative.
    """
    probes = probes or ProbeSpec()
    n = inst.n
    if signs is None:
        if N is None:
            if xi is None:
                raise ValueError("one of xi, N, or signs is required")
            N = int(round((1.0 + xi) * n))
        if N < 1:
            raise ValueError(f"N = round((1+xi) n) must be >= 1, got {N}")
        signs = sample_sign_matrix(n, N, derive_seed(seed, 0), trial_index=None)
    emp = EmpiricalNormInstance(family=inst.family, signs=signs)
    xi_actual = emp.xi

    net_pts = probes.net.points if probes.net is not None else np.zeros((0, n))
    samples = sphere_sample(inst, probes.samples, derive_seed(seed, 1), max_n=max_n)
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
        x_d, f_d = _descent_min(
            inst, emp, min_est.direction, min_est.value, probes.descent_steps, max_n
        )
        if f_d < min_est.value:
            min_est = Estimate(value=f_d, direction=x_d, method="local-descent")
    max_est = Estimate(value=float(vals[i_max]), direction=X[i_max].copy(), method=probe_method(i_max))

    certified = None
    covering = None
    if probes.net is not None:
        bound = certified_sup_bound(emp, probes.net)
        certified = bound.value
        covering = bound.covering_status

    svals, tentative = _sigma_values(inst.family, X, vertex_cap)
    in_U = svals >= sigma0
    uv = UVStats(
        sigma0=float(sigma0),
        count_U=int(in_U.sum()),
        count_V=int((~in_U).sum()),
        min_U=float(vals[in_U].min()) if in_U.any() else None,
        min_V=float(vals[~in_U].min()) if (~in_U).any() else None,
        tentative=tentative,
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
class FailureStats:
    """Empirical frequency of {min < c_target or max > C_target}."""

    n: int
    xi: float
    c_target: float
    C_target: float
    trials: int
    failures: int

    @property
    def frequency(self) -> float:
        return self.failures / self.trials


def run_trials(
    inst: NormInstance,
    xi: float,
    trials: int,
    master_seed: int,
    probes: ProbeSpec | None = None,
    *,
    sigma0: float = DEFAULT_SIGMA0,
    max_n: int = DEFAULT_MAX_ENUM_N,
    vertex_cap: int = VERTEX_ENUM_CAP,
    pool=None,
) -> list[DistortionReport]:
    """Independent trials with per-trial derived seeds (order-free)."""
    seeds = trial_seeds_for_xi(master_seed, xi, trials)

    def one(s: int) -> DistortionReport:
        return run_trial(
            inst, xi, s, probes, sigma0=sigma0, max_n=max_n, vertex_cap=vertex_cap
        )

    if pool is None:
        return [one(s) for s in seeds]
    return list(pool.map(one, seeds))


def failure_probability(
    inst: NormInstance,
    xi: float,
    trials: int,
    c_target: float,
    C_target: float,
    seed: int,
    probes: ProbeSpec | None = None,
    *,
    reports: list[DistortionReport] | None = None,
    sigma0: float = DEFAULT_SIGMA0,
    max_n: int = DEFAULT_MAX_ENUM_N,
) -> FailureStats:
    """Frequency of trials escaping the band [c_target, C_target].

    Precomputed ``reports`` (from the same seed derivation) are reused
    verbatim when supplied.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if reports is None:
        reports = run_trials(inst, xi, trials, seed, probes, sigma0=sigma0, max_n=max_n)
    failures = sum(
        1
        for r in reports
        if r.min_estimate.value < c_target or r.max_estimate.value > C_target
    )
    return FailureStats(
        n=inst.n,
        xi=xi,
        c_target=float(c_target),
        C_target=float(C_target),
        trials=len(reports),
        failures=failures,
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
    failure_rows: list[FailureStats] = field(default_factory=list)
    note: str = UNSPECIFIED_CONSTANTS_NOTE
    reports_by_xi: dict | None = field(default=None, repr=False, compare=False)


def summarize_reports(xi: float, reports: list[DistortionReport]) -> XiSummary:
    mq1, mmed, mq3 = quartiles([r.min_estimate.value for r in reports])
    Mq1, Mmed, Mq3 = quartiles([r.max_estimate.value for r in reports])
    return XiSummary(
        xi=xi,
        n=reports[0].n,
        N=reports[0].N,
        trials=len(reports),
        min_q1=mq1,
        min_median=mmed,
        min_q3=mq3,
        max_q1=Mq1,
        max_median=Mmed,
        max_q3=Mq3,
    )


def xi_sweep(
    inst: NormInstance,
    xi_list: list[float],
    trials: int,
    seed: int,
    probes: ProbeSpec | None = None,
    *,
    sigma0: float = DEFAULT_SIGMA0,
    max_n: int = DEFAULT_MAX_ENUM_N,
    vertex_cap: int = VERTEX_ENUM_CAP,
    pool=None,
) -> ConstantsProfile:
    """Trial quartiles of min/max estimates per xi, plus the small-xi slope."""
    if not xi_list:
        raise ValueError("xi_list must be nonempty")
    rows = []
    by_xi: dict[float, list[DistortionReport]] = {}
    for xi in xi_list:
        reports = run_trials(
            inst, xi, trials, seed, probes,
            sigma0=sigma0, max_n=max_n, vertex_cap=vertex_cap, pool=pool,
        )
        by_xi.setdefault(xi, reports)
        rows.append(summarize_reports(xi, reports))
    return ConstantsProfile(
        rows=rows,
        # log-log slope of median minimum vs xi over xi < 1 (reported only)
        small_xi_loglog_slope=loglog_slope((r.xi, r.min_median) for r in rows if r.xi < 1.0),
        reports_by_xi=by_xi,
    )
