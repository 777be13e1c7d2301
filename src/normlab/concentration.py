"""Exact distributions of ||sum eps_i w_i|| and concentration diagnostics.

With n enumerable, the full 2^n-atom law of the norm of a random signed
sum is computed exactly, giving the expectation, the (lower) median, the
variance, the weak variance and exact tail probabilities.  The
subgaussian tail shape is FITTED (log tail against (t/sigma)^2); the
fit's decay coefficient plays the role of the universal constant in the
concentration bound and is never asserted numerically, only its sign.
Sample means of the norm are amplified by averaging N independent copies;
their log-frequency of exceeding a fixed super-mean threshold must trend
down in N.  The exact law and the amplification check take the run's
``NormInstance`` and read its caps and its prepared kernel there: one
kernel serves the enumeration, sigma and every N-sample mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NormLabError
from .seeding import derive_seed
from .signs import half_enumeration_size, sample_sign_matrix
from .symmetrize import NormInstance, _check_points, exact_unconditional_norm, iter_exact_value_blocks
from .weakvar import SigmaResult, sigma

ATOM_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class ExactDistribution:
    """The full law of ||sum eps_i x_i v_i|| over uniform sign patterns."""

    values: np.ndarray = field(repr=False)  # sorted atom values
    probs: np.ndarray = field(repr=False)
    expectation: float
    median: float
    variance: float
    sigma: SigmaResult
    n: int

    @property
    def stddev(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def atom_count(self) -> int:
        return self.values.shape[0]


def exact_distribution(inst: NormInstance, x) -> ExactDistribution:
    """Enumerate the 2^n values, merge equal atoms, compute E/Med/Var/sigma.

    Atoms within ATOM_MERGE_TOL (absolute) are aggregated.  The median is
    the lower median: the smallest atom v with P(X <= v) >= 1/2 and
    P(X >= v) >= 1/2.  sigma is exact, a flagged lower bound (any p but 1,
    2 and inf), or a CapacityError on an l1 space wider than the instance's
    ``vertex_cap``.
    """
    x = np.asarray(x, dtype=np.float64)
    vals = np.sort(np.concatenate(list(iter_exact_value_blocks(inst, x))))
    total = half_enumeration_size(inst.n)
    cuts = np.flatnonzero(np.diff(vals) > ATOM_MERGE_TOL) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [vals.shape[0]]])
    atom_vals = np.array([vals[s:e].mean() for s, e in zip(starts, ends)])
    counts = (ends - starts).astype(np.float64)
    probs = counts / total
    expectation = math.fsum(p * v for p, v in zip(probs, atom_vals))
    variance = math.fsum(p * (v - expectation) ** 2 for p, v in zip(probs, atom_vals))
    cum = np.cumsum(probs)
    upper = 1.0 - np.concatenate([[0.0], cum[:-1]])  # P(X >= v_i)
    eligible = np.flatnonzero((cum >= 0.5 - 1e-15) & (upper >= 0.5 - 1e-15))
    median = float(atom_vals[eligible[0]])
    return ExactDistribution(
        values=atom_vals,
        probs=probs,
        expectation=expectation,
        median=median,
        variance=variance,
        sigma=sigma(inst, x),
        n=inst.n,
    )


@dataclass(frozen=True)
class TailFit:
    """Exact two-sided tails and the subgaussian fit log P ~ a - b (t/sigma)^2."""

    ts: np.ndarray
    tails: np.ndarray
    log_coeff: float | None
    decay: float | None
    skipped: bool
    skip_reason: str | None = None


def default_t_grid(dist: ExactDistribution) -> np.ndarray:
    """Ten points spanning the deviation range, from the bulk into the tail."""
    dev = np.abs(dist.values - dist.expectation)
    top = float(dev.max())
    if top <= 0.0:
        return np.array([1.0])
    return np.linspace(0.2 * top, top, 10)


def tail_check(dist: ExactDistribution, t_grid=None) -> TailFit:
    """Exact P(|X - E X| >= t) on the grid, with the subgaussian fit.

    Fitting needs at least two positive, non-identical tail values; since
    tails are non-increasing in t, a computed fit always has decay > 0.
    """
    if not dist.sigma.value > 0.0:
        raise ValueError("tail_check requires sigma > 0")
    ts = np.asarray(t_grid if t_grid is not None else default_t_grid(dist), dtype=np.float64)
    dev = np.abs(dist.values - dist.expectation)
    tails = np.array([float(dist.probs[dev >= t].sum()) for t in ts])
    pos = tails > 0.0
    if pos.sum() < 2:
        return TailFit(ts, tails, None, None, True, "fewer than two positive tail points")
    if np.ptp(tails[pos]) == 0.0:
        return TailFit(ts, tails, None, None, True, "tail constant over the grid")
    xfit = (ts[pos] / dist.sigma.value) ** 2
    yfit = np.log(tails[pos])
    slope, intercept = np.polyfit(xfit, yfit, 1)
    decay = -float(slope)
    if not decay > 0.0:
        raise NormLabError(
            f"fitted subgaussian decay {decay} is not positive; "
            "tails are non-increasing so this indicates a grid degeneracy"
        )
    return TailFit(ts, tails, float(intercept), decay, False)


@dataclass(frozen=True)
class AmplificationRow:
    N: int
    frequency: float


@dataclass(frozen=True)
class AmplificationResult:
    """Exceedance frequencies of N-sample means and the log-slope in N."""

    t: float
    trials: int
    rows: list[AmplificationRow]
    slope: float | None  # -inf sentinel when every frequency is zero


def amplification_check(
    inst: NormInstance, x, N_list: list[int], t: float, trials: int, seed: int
) -> AmplificationResult:
    """Monte Carlo frequency of {(1/N) sum_j X_j >= t} per N, plus the slope.

    Requires t above the exact expectation (the large-deviation regime),
    which is enumerated within the instance's ``max_n``.  Each trial's
    N-sample norm comes from the instance's kernel, as ``empirical_norm``
    computes it.  With at least three nonzero frequencies the fitted slope
    of log frequency against N must be negative, and is asserted.
    """
    X = _check_points(inst.n, x, one=True)
    ex = exact_unconditional_norm(inst, X)
    if not t > ex:
        raise ValueError(f"threshold t = {t} must exceed the expectation {ex}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for N in N_list:
        n_seed = derive_seed(seed, N)
        hits = 0
        for trial in range(trials):
            sm = sample_sign_matrix(inst.n, N, derive_seed(n_seed, trial))
            if inst.kernel.empirical(sm.dense(), X)[0] >= t:
                hits += 1
        rows.append(AmplificationRow(N=int(N), frequency=hits / trials))
    freqs = np.array([r.frequency for r in rows])
    Ns = np.array([r.N for r in rows], dtype=np.float64)
    nz = freqs > 0.0
    if not nz.any():
        slope = -math.inf
    elif nz.sum() < 2:
        slope = None
    else:
        slope = float(np.polyfit(Ns[nz], np.log(freqs[nz]), 1)[0])
        if nz.sum() >= 3 and not slope < 0.0:
            raise NormLabError(
                f"log-frequency slope {slope} is not negative over N = "
                f"{[int(v) for v in Ns[nz]]}"
            )
    return AmplificationResult(t=float(t), trials=trials, rows=rows, slope=slope)


@dataclass(frozen=True)
class MedianMeanGap:
    gap: float
    stddev: float
    ratio: float


def median_vs_mean(dist: ExactDistribution) -> MedianMeanGap:
    """|Med - E X| against the standard deviation (gap <= stddev always)."""
    gap = abs(dist.median - dist.expectation)
    sd = dist.stddev
    if gap > sd + 1e-12:
        raise NormLabError(
            f"|median - mean| = {gap} exceeds stddev = {sd}; "
            "this inequality holds for every distribution, so the atoms are corrupt"
        )
    return MedianMeanGap(gap=gap, stddev=sd, ratio=gap / sd if sd > 0.0 else 0.0)
