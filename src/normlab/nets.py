"""Theta-nets on the unit sphere of the sign-averaged norm.

Nets are built greedily as maximal theta-separated sets: a candidate
stream (coordinate directions first, then random sphere points) is
scanned and a candidate joins the net iff its exact-norm distance to
every current net point exceeds theta.  Separation is therefore certified
by construction, and any theta-separated subset of the unit sphere obeys
the packing bound (3/theta)^n for theta <= 1.

Candidates come in batches.  After an accept a batch holds
``_CANDIDATE_BATCH`` candidates; through a run of rejects it doubles,
up to ``_MAX_BATCH``, and a larger batch ends at the stop rule at most.
The Gaussian stream and each point's exact norm do not depend on the batch,
so neither do the candidates.

Each decision asks whether some net point lies within theta.  A batch
meets the net as it was before the batch in one pass: a candidate is
first tested against its few nearest net points in the Euclidean metric,
where a hit is usually found, and only a candidate with no hit there gets
its full exact distance row.  The batch is then walked from accept to
accept: each accepted candidate meets the later candidates still far from
the net in one kernel call, and the rejects between accepts are counted
as a run.  The Euclidean order is never used as a bound, and an exact
distance has the same bits in any batch, so every decision, and hence
the net, is that of the sequential greedy rule with full distance rows.
The kernel calls of a batch hold about ``_CALL_POINTS`` points each (a
full distance row at least), which bounds their memory.

Covering of the whole sphere is heuristic in general; for n <= 3 a dense
deterministic grid pass upgrades the status to "certified-small-n" when
every grid point lies within theta of the net.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CoveringViolationError
from .seeding import derive_seed
from .symmetrize import (
    DEFAULT_MAX_ENUM_N,
    EmpiricalNormInstance,
    NormInstance,
    batch_empirical_norm,
    exact_unconditional_norm_many,
)

COVERING_CERTIFIED = "certified-small-n"
COVERING_HEURISTIC = "heuristic"

# greedy stop rule: this many consecutive rejected candidates per net point
_BUDGET_PER_POINT = 50
# candidates per batch: the smallest batch, and the cap on a batch that
# grows through a run of rejects
_CANDIDATE_BATCH = 64
_MAX_BATCH = 1024
# nearest-first check: net points per candidate tried before its full
# distance row
_NEAREST = 2
# points per exact-norm call, which bounds the memory of a call
_CALL_POINTS = 256


@dataclass(frozen=True)
class NetPoints:
    """A theta-separated set of unit vectors of the sign-averaged norm."""

    theta: float
    points: np.ndarray = field(repr=False)  # (size, n)
    separation_certified: bool
    covering_status: str
    candidate_budget: int

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class NetDecomposition:
    """x ~ sum_k a_k x^(k) with geometrically decaying coefficients."""

    coefficients: list[float]
    indices: list[int]
    points: np.ndarray = field(repr=False)
    residual_norm: float


def _far_from(
    inst: NormInstance, X: np.ndarray, base: np.ndarray, threshold: float, max_n: int
) -> np.ndarray:
    """Per row of X: is every point of ``base`` farther than ``threshold``?

    Distances are exact norms.  Each row first meets its ``_NEAREST`` base
    points nearest in the Euclidean metric, in one kernel call; a hit at or
    below ``threshold`` settles the row.  Only the rows left get their full
    distance row.  The Euclidean order only decides which distances are
    computed first; the answer is the one of the full distance row.
    """
    far = np.ones(X.shape[0], dtype=bool)
    m, n = base.shape
    k = min(_NEAREST, m)
    sq = np.square(base).sum(axis=1)
    step = _CALL_POINTS // _NEAREST  # rows per chunk, their nearest check one call
    rows = max(1, _CALL_POINTS // max(1, m))  # full distance rows per call
    for s in range(0, X.shape[0] if m else 0, step):
        B = X[s : s + step]
        # squared Euclidean distances less |x|^2, which the order ignores;
        # each argmin takes the nearest base point not yet taken
        G = B @ base.T
        G *= -2.0
        G += sq
        near = np.empty((B.shape[0], k), dtype=np.intp)
        for j in range(k):
            near[:, j] = G.argmin(axis=1)
            G[np.arange(B.shape[0]), near[:, j]] = np.inf
        d = exact_unconditional_norm_many(
            inst, (B[:, None] - base[near]).reshape(-1, n), max_n=max_n
        )
        ok = (d.reshape(-1, k) > threshold).all(axis=1)
        rest = np.flatnonzero(ok)
        for r in range(0, rest.size if k < m else 0, rows):
            idx = rest[r : r + rows]
            D = exact_unconditional_norm_many(
                inst, (B[idx, None] - base).reshape(-1, n), max_n=max_n
            )
            ok[idx] = (D.reshape(idx.size, m) > threshold).all(axis=1)
        far[s : s + ok.size] = ok
    return far


def _distances_to(inst: NormInstance, x: np.ndarray, pts: np.ndarray, max_n: int) -> np.ndarray:
    return exact_unconditional_norm_many(inst, x[None, :] - pts, max_n=max_n)


def _norms(inst: NormInstance, X: np.ndarray, max_n: int) -> np.ndarray:
    """Exact norms of the rows of X, ``_CALL_POINTS`` rows per call."""
    parts = [
        exact_unconditional_norm_many(inst, X[s : s + _CALL_POINTS], max_n=max_n)
        for s in range(0, X.shape[0], _CALL_POINTS)
    ]
    return np.concatenate([np.zeros(0), *parts])


def _sphere_batch(inst: NormInstance, count: int, rng, max_n: int) -> np.ndarray:
    g = rng.standard_normal((count, inst.n))
    return g / _norms(inst, g, max_n)[:, None]


def _coordinate_seeds(inst: NormInstance, max_n: int) -> np.ndarray:
    eye = np.eye(inst.n)
    dirs = np.vstack([eye, -eye])
    norms = exact_unconditional_norm_many(inst, dirs, max_n=max_n)
    return dirs / norms[:, None]


def _grid_directions(n: int) -> np.ndarray | None:
    """Deterministic dense direction grid used by the small-n covering pass."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        phi = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.column_stack([np.cos(phi), np.sin(phi)])
    if n == 3:
        polar = np.pi * (np.arange(48) + 0.5) / 48
        azim = 2.0 * np.pi * np.arange(96) / 96
        pp, aa = np.meshgrid(polar, azim, indexing="ij")
        dirs = np.column_stack(
            [
                (np.sin(pp) * np.cos(aa)).ravel(),
                (np.sin(pp) * np.sin(aa)).ravel(),
                np.cos(pp).ravel(),
            ]
        )
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        return np.vstack([dirs, poles])
    return None


def build_net(
    inst: NormInstance,
    theta: float,
    budget: int | None = None,
    seed: int = 0,
    *,
    max_n: int = DEFAULT_MAX_ENUM_N,
    grid_certify: bool = True,
) -> NetPoints:
    """Greedy maximal theta-separated set on the unit sphere.

    Stops once ``budget`` consecutive candidates all fall within theta of
    the net (default: 50 per current net point, re-evaluated as it grows).
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    n = inst.n
    rng = np.random.default_rng(np.uint64(derive_seed(seed, 0)))
    net = np.empty((64, n))  # the net is net[:size]; doubles when full
    size = 0
    rejects = 0
    spent = 0

    def effective_budget() -> int:
        return budget if budget is not None else _BUDGET_PER_POINT * max(1, size)

    def reject_run(count: int, stop: int) -> bool:
        # ``count`` rejects in a row; True once they reach the stop rule,
        # counting the candidates up to the one that reaches it
        nonlocal rejects, spent
        taken = min(count, max(1, stop - rejects))
        spent += taken
        rejects += taken
        return taken > 0 and rejects >= stop

    def offer_batch(cands: np.ndarray) -> None:
        # the pre-batch net in one pass, then each accept meets the later
        # candidates still far in one kernel call; the decisions are those
        # of the sequential greedy order
        nonlocal net, size, rejects, spent
        todo = np.flatnonzero(_far_from(inst, cands, net[:size], theta, max_n))
        stop = effective_budget()
        pos = 0  # the first candidate not yet decided
        while todo.size:
            j = int(todo[0])
            if reject_run(j - pos, stop):
                return
            if size == net.shape[0]:
                net = np.concatenate([net, np.empty_like(net)])
            net[size] = c = cands[j]
            size += 1
            spent += 1
            rejects = 0
            stop = effective_budget()
            pos = j + 1
            todo = todo[1:]
            if todo.size:
                todo = todo[_norms(inst, cands[todo] - c, max_n) > theta]
        reject_run(cands.shape[0] - pos, stop)

    offer_batch(_coordinate_seeds(inst, max_n))
    while (left := effective_budget() - rejects) > 0:
        # the smallest batch after an accept; through a run of rejects the
        # batch doubles, and a larger batch ends at the stop rule at most
        count = min(_MAX_BATCH, max(_CANDIDATE_BATCH, min(rejects, left)))
        offer_batch(_sphere_batch(inst, count, rng, max_n))

    status = COVERING_HEURISTIC
    if grid_certify and n <= 3:
        # grid misses are themselves theta-separated from the net, so they
        # extend the candidate stream; iterate until the grid is covered
        grid = _grid_directions(n)
        gnorms = exact_unconditional_norm_many(inst, grid, max_n=max_n)
        gpts = grid / gnorms[:, None]
        for _ in range(gpts.shape[0]):
            misses = np.flatnonzero(_far_from(inst, gpts, net[:size], theta + 1e-12, max_n))
            if misses.size == 0:
                status = COVERING_CERTIFIED
                break
            rejects = 0
            offer_batch(gpts[misses])
    points = net[:size].copy()
    points.setflags(write=False)
    return NetPoints(
        theta=float(theta),
        points=points,
        separation_certified=True,
        covering_status=status,
        candidate_budget=spent,
    )


def net_decompose(
    inst: NormInstance,
    net: NetPoints,
    x,
    K: int,
    *,
    max_n: int = DEFAULT_MAX_ENUM_N,
    unit_tol: float = 1e-7,
) -> NetDecomposition:
    """Peel x into sum_k a_k x^(k) over a 1/2-net, |a_k| <= 2^(1-k).

    Each step subtracts the nearest net point scaled by the residual's
    exact norm; with a true covering the residual contracts by >= 2 per
    step.  A step whose nearest net point is farther than theta raises
    ``CoveringViolationError`` carrying the witness direction.
    """
    x = np.asarray(x, dtype=np.float64)
    nx = float(exact_unconditional_norm_many(inst, x[None, :], max_n=max_n)[0])
    if abs(nx - 1.0) > unit_tol:
        raise ValueError(f"x must be a unit vector of the averaged norm; got |||x||| = {nx}")
    coeffs: list[float] = []
    idxs: list[int] = []
    r = x.copy()
    rnorm = nx
    for step in range(1, K + 1):
        if rnorm <= 1e-15:
            break
        unit = r / rnorm
        d = _distances_to(inst, unit, net.points, max_n)
        j = int(np.argmin(d))
        if d[j] > net.theta + 1e-12:
            raise CoveringViolationError(
                f"net does not cover direction at step {step}: nearest point at "
                f"distance {d[j]:.6g} > theta = {net.theta}",
                witness=unit,
                step=step,
                distance=float(d[j]),
            )
        coeffs.append(rnorm)
        idxs.append(j)
        r = r - rnorm * net.points[j]
        rnorm = float(exact_unconditional_norm_many(inst, r[None, :], max_n=max_n)[0])
    return NetDecomposition(
        coefficients=coeffs,
        indices=idxs,
        points=net.points[idxs] if idxs else np.zeros((0, inst.n)),
        residual_norm=rnorm,
    )


@dataclass(frozen=True)
class CertifiedBound:
    """2 * max over the net of the empirical norm; a sup bound conditional
    on the net's covering status."""

    value: float
    covering_status: str


def certified_sup_bound(emp: EmpiricalNormInstance, net: NetPoints) -> CertifiedBound:
    """Upper bound on sup of the empirical norm over the unit sphere.

    Valid whenever the net truly covers at theta = 1/2 (triangle
    inequality plus geometric peeling); the covering status rides along.
    """
    vals = batch_empirical_norm(emp, net.points)
    return CertifiedBound(value=2.0 * float(vals.max()), covering_status=net.covering_status)


# --- JSON round trip ----------------------------------------------------------

def net_to_json(net: NetPoints) -> dict:
    return {
        "theta": net.theta,
        "points": [list(map(float, p)) for p in net.points],
        "separation_certified": net.separation_certified,
        "covering_status": net.covering_status,
        "candidate_budget": net.candidate_budget,
    }


def net_from_json(doc: dict) -> NetPoints:
    pts = np.array(doc["points"], dtype=np.float64)
    pts.setflags(write=False)
    return NetPoints(
        theta=float(doc["theta"]),
        points=pts,
        separation_certified=bool(doc["separation_certified"]),
        covering_status=str(doc["covering_status"]),
        candidate_budget=int(doc["candidate_budget"]),
    )


def save_net(net: NetPoints, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_json(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_net(path) -> NetPoints:
    with open(path, encoding="utf-8") as fh:
        return net_from_json(json.load(fh))
