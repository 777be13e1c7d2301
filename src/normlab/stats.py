"""Code shared by the xi sweeps: the sweep driver, the descent engine,
quartiles and the log-log slope."""

from __future__ import annotations

import numpy as np

from .seeding import trial_seeds_for_xi

DESCENT_STEP0 = 0.1
DESCENT_STEP_MIN = 1e-6


def sweep(xi_list, trials: int, seed: int, trial, pool=None) -> dict:
    """The reports ``trial(xi, t, trial_seed)`` for t < trials, by xi of ``xi_list``.

    The one place where trial seeds are derived and trials mapped over a
    ``pool``.  A trial seed is a function of (seed, xi, t) alone, so a
    repeated xi runs once, and a pool gives the reports of running the
    trials in turn, in the same order.
    """
    if not xi_list:
        raise ValueError("xi_list must be nonempty")
    mapper = map if pool is None else pool.map
    by_xi = {}
    for xi in xi_list:
        if xi not in by_xi:
            seeds = trial_seeds_for_xi(seed, xi, trials)
            by_xi[xi] = list(mapper(trial, [xi] * trials, range(trials), seeds))
    return by_xi


def descend(Y0, F0, S0, steps: int, sign, *, subgradient, norm, evaluate):
    """Projected subgradient descent (sign=+1) or ascent (sign=-1) of a stack.

    The rows of ``Y0`` (values ``F0``, state ``S0``) move in lockstep, one
    call of each function per step for the whole stack: a candidate
    ``y - sign * step * subgradient(state)`` is divided by its ``norm``,
    and ``evaluate`` returns the candidates' values and states.  Each row
    keeps its own step size, halved when its candidate is rejected (not
    better, or of norm 0), and stops once that falls below
    DESCENT_STEP_MIN; a stopped row is left as it is, so no row's path
    depends on the others.  ``sign`` is one value or one per row.
    Returns new arrays: the stack and its values.
    """
    Y = np.array(Y0, dtype=np.float64, ndmin=2)
    F = np.array(F0, dtype=np.float64, ndmin=1)
    S = np.array(S0, dtype=np.float64, ndmin=2)
    sign = np.broadcast_to(np.asarray(sign, dtype=np.float64), F.shape)
    step = np.full(F.shape, DESCENT_STEP0)
    for _ in range(steps):
        active = step >= DESCENT_STEP_MIN
        if not active.any():
            break
        C = Y - (sign * step)[:, None] * subgradient(S)
        nrm = norm(C)
        live = active & (nrm > 0.0)
        # a row that is not live keeps its finite candidate; it never
        # reaches Y, S or F, since every copy below is masked by better
        np.divide(C, nrm[:, None], out=C, where=live[:, None])
        FC, SC = evaluate(C)
        better = live & (sign * (FC - F) < 0.0)
        np.copyto(Y, C, where=better[:, None])
        np.copyto(S, SC, where=better[:, None])
        np.copyto(F, FC, where=better)
        step[active & ~better] *= 0.5
    return Y, F


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values`` by numpy's linear interpolation."""
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(q1), float(med), float(q3)


def loglog_slope(points) -> float | None:
    """Least-squares slope of log y against log x over the (x, y) with y > 0.

    None when fewer than two distinct x remain.  Reported, never asserted.
    """
    pts = [(x, y) for x, y in points if y > 0.0]
    if len({x for x, _ in pts}) < 2:
        return None
    return float(np.polyfit(np.log([x for x, _ in pts]), np.log([y for _, y in pts]), 1)[0])
