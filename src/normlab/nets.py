"""Theta-nets on the unit sphere of the sign-averaged norm.

Nets are built greedily as maximal theta-separated sets: a candidate
stream (coordinate directions first, then random sphere points) is
scanned and a candidate joins the net iff its exact-norm distance to
every current net point exceeds theta.  Separation is therefore certified
by construction, and any theta-separated subset of the unit sphere obeys
the packing bound (3/theta)^n for theta <= 1.

Candidates come in batches of as many points as one exact-norm call
holds, and a batch never runs past the stop rule.  The Gaussian stream
and each point's exact norm do not depend on the batch, so neither do
the candidates.

Each decision asks whether some net point lies within theta.  A batch
meets the net as it was before the batch in one pass: its candidates
meet their nearest net points in the Euclidean metric one at a time, the
j-th nearest only where the nearer ones found no hit (the first one
usually does), and only a candidate with no hit among its few nearest
gets its full exact distance row.  The batch is then walked from accept
to accept: each accepted candidate meets the later candidates still far
from the net in one kernel call, and the rejects between accepts are
counted as a run.  The Euclidean order is never used as a bound, and an
exact distance has the same bits in any batch, so every decision, and
hence the net, is that of the sequential greedy rule with full distance
rows.  A candidate batch and a run of full distance rows are sized by
signed sums, not points: about ``_CALL_SUMS`` of them, 2^(n-1) per point,
with at least ``_CALL_FLOOR`` points (a full distance row at least).  Each
is one kernel call, as is an accept's call against the later candidates;
the kernel bounds its own memory, so no call is split for it.

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
    EmpiricalNormInstance,
    NormInstance,
    batch_empirical_norm,
    exact_unconditional_norm_many,
)

COVERING_CERTIFIED = "certified-small-n"
COVERING_HEURISTIC = "heuristic"

# greedy stop rule: this many consecutive rejected candidates per net point
_BUDGET_PER_POINT = 50
# nearest-first check: net points per candidate tried, one at a time,
# before its full distance row
_NEAREST = 2
# signed sums per exact-norm call (2^(n-1) per point), at least
# _CALL_FLOOR points a call, and a candidate batch holds one call's points;
# Euclidean distances per nearest-check chunk.  Both bound the memory of a
# call
_CALL_SUMS = 1 << 14
_CALL_FLOOR = 256
_GRAM = 1 << 20
# how far from 1 the exact norm of a point that net_decompose peels may be
_UNIT_TOL = 1e-7


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


def _far_from(inst: NormInstance, X: np.ndarray, base: np.ndarray, threshold: float) -> np.ndarray:
    """Per row of X: is every point of ``base`` farther than ``threshold``?

    Distances are exact norms.  The rows meet their base points nearest in
    the Euclidean metric one at a time, up to ``_NEAREST`` of them: the j-th
    nearest is measured, in one kernel call, only for the rows that no
    nearer one settled, and a hit at or below ``threshold`` settles a row.
    Only the rows left get their full distance row.  The Euclidean order
    only decides which distances are computed first; the answer is the one
    of the full distance row.
    """
    far = np.ones(X.shape[0], dtype=bool)
    m, n = base.shape
    call = _call_points(n)
    step = max(1, min(call, _GRAM // max(1, m)))  # rows per nearest-check chunk
    rows = max(1, call // max(1, m))  # full distance rows per call
    sq = np.square(base).sum(axis=1)
    W = -2.0 * base.T
    for s in range(0, X.shape[0] if m else 0, step):
        B = X[s : s + step]
        # squared Euclidean distances less |x|^2, which the order ignores,
        # of the rows not yet settled; each argmin takes the nearest base
        # point not yet tried
        G = B @ W
        G += sq
        left = np.arange(B.shape[0])
        for _ in range(min(_NEAREST, m)):
            if not left.size:
                break
            near = G.argmin(axis=1)
            d = exact_unconditional_norm_many(inst, B[left] - base[near])
            miss = d > threshold
            left, G = left[miss], G[miss]
            G[np.arange(left.size), near[miss]] = np.inf
        ok = np.zeros(B.shape[0], dtype=bool)
        ok[left] = True
        for r in range(0, left.size if _NEAREST < m else 0, rows):
            idx = left[r : r + rows]
            D = exact_unconditional_norm_many(inst, (B[idx, None] - base).reshape(-1, n))
            ok[idx] = (D.reshape(idx.size, m) > threshold).all(axis=1)
        far[s : s + ok.size] = ok
    return far


def _call_points(n: int) -> int:
    """Points per exact-norm call: ``_CALL_SUMS`` signed sums, at least
    ``_CALL_FLOOR`` points."""
    return max(_CALL_FLOOR, _CALL_SUMS >> (n - 1))


def _unit(inst: NormInstance, X: np.ndarray) -> np.ndarray:
    """The rows of X scaled to unit exact norm, in one kernel call."""
    return X / exact_unconditional_norm_many(inst, X)[:, None]


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
        todo = np.flatnonzero(_far_from(inst, cands, net[:size], theta))
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
                todo = todo[exact_unconditional_norm_many(inst, cands[todo] - c) > theta]
        reject_run(cands.shape[0] - pos, stop)

    offer_batch(_unit(inst, np.vstack([np.eye(n), -np.eye(n)])))
    while (left := effective_budget() - rejects) > 0:
        # one exact-norm call's worth of candidates, never past the stop rule
        offer_batch(_unit(inst, rng.standard_normal((min(_call_points(n), left), n))))

    status = COVERING_HEURISTIC
    if n <= 3:
        # grid misses are themselves theta-separated from the net, so they
        # extend the candidate stream; iterate until the grid is covered.
        # A covered grid point stays covered, so each pass checks only the
        # last pass's misses, against the net points that pass added
        misses = _unit(inst, _grid_directions(n))
        seen = 0  # net[:seen] is already checked against every miss
        for _ in range(misses.shape[0]):
            misses = misses[_far_from(inst, misses, net[seen:size], theta + 1e-12)]
            if misses.shape[0] == 0:
                status = COVERING_CERTIFIED
                break
            rejects = 0
            seen = size
            offer_batch(misses)
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
) -> NetDecomposition:
    """Peel x into sum_k a_k x^(k) over a 1/2-net, |a_k| <= 2^(1-k).

    Each step subtracts the nearest net point scaled by the residual's
    exact norm; with a true covering the residual contracts by >= 2 per
    step.  A step whose nearest net point is farther than theta raises
    ``CoveringViolationError`` carrying the witness direction.
    """
    x = np.asarray(x, dtype=np.float64)
    nx = float(exact_unconditional_norm_many(inst, x[None, :])[0])
    if abs(nx - 1.0) > _UNIT_TOL:
        raise ValueError(f"x must be a unit vector of the averaged norm; got |||x||| = {nx}")
    coeffs: list[float] = []
    idxs: list[int] = []
    r = x.copy()
    rnorm = nx
    for step in range(1, K + 1):
        if rnorm <= 1e-15:
            break
        unit = r / rnorm
        d = exact_unconditional_norm_many(inst, unit[None, :] - net.points)
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
        rnorm = float(exact_unconditional_norm_many(inst, r[None, :])[0])
    return NetDecomposition(
        coefficients=coeffs,
        indices=idxs,
        points=net.points[idxs] if idxs else np.zeros((0, inst.n)),
        residual_norm=rnorm,
    )


@dataclass(frozen=True)
class CertifiedBound:
    """max over the net of the empirical norm / (1 - theta); a sup bound
    conditional on the net's covering status, None at theta = 1."""

    value: float | None
    covering_status: str


def certified_sup_bound(emp: EmpiricalNormInstance, net: NetPoints) -> CertifiedBound:
    """Upper bound on sup of the empirical norm over the unit sphere.

    If every unit vector lies within theta of the net, peeling off nearest
    net points gives sup <= max_net + theta sup, so sup <= max_net / (1 - theta)
    (2 max_net at theta = 1/2, bit for bit).  Valid whenever the net truly
    covers; the covering status rides along.  At theta = 1 the argument
    gives nothing, and the value is None.
    """
    vals = batch_empirical_norm(emp, net.points)
    value = float(vals.max()) / (1.0 - net.theta) if net.theta < 1.0 else None
    return CertifiedBound(value=value, covering_status=net.covering_status)


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
