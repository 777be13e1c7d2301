"""Concrete finite-dimensional normed spaces and vector families.

The ambient space is always R^m equipped with one norm from a closed menu:

* ``lp``       -- the p-norm for p in [1, inf]; p = inf is a distinguished
                  tag (stored as ``p=None``), never a float sentinel.
* ``polytope`` -- ||u|| = max over a finite symmetric set of functionals
                  of |<phi, u>|.  One representative per +/- pair is stored.

Every space is its functional rows r_k (``NormSpec.functionals``: the
coordinate rows for lp) and the combine of the values |<r_k, u>| into
||u|| (``NormSpec.mode``, the one map from the kind and p; ``_combine``
applies it).  Every norm on the menu comes with a norming functional (a
subgradient of the norm), which the weak-variance and descent
computations use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    ZeroVectorError,
)

ZERO_VECTOR_TOL = 1e-12


@dataclass(frozen=True)
class NormSpec:
    """A concrete normed space (R^dim, ||.||): ||u|| = combine_k |<r_k, u>|
    over its functional rows r_k.

    ``kind`` is "lp" or "polytope".  ``functionals`` holds the rows,
    read-only: the coordinate rows of R^dim for lp, one representative per
    +/- pair spanning R^dim for a polytope.  ``p`` is a float >= 1 for lp,
    None for the sup norm and for every polytope.
    """

    kind: str
    dim: int
    functionals: np.ndarray = field(repr=False)
    p: float | None = None

    @property
    def mode(self) -> str:
        """The combine of the rows' values: "maxabs" (l_inf, polytopes),
        "sumabs" (l1), "sumsq" (l2) or "p" (any other p)."""
        if self.p is None:
            return "maxabs"
        return {1.0: "sumabs", 2.0: "sumsq"}.get(self.p, "p")

    def __eq__(self, other):
        if not isinstance(other, NormSpec):
            return NotImplemented
        same = (self.kind, self.dim, self.p) == (other.kind, other.dim, other.p)
        return same and np.array_equal(self.functionals, other.functionals)

    def __hash__(self):
        return hash((self.kind, self.dim, self.p))


def lp_space(p, dim: int) -> NormSpec:
    """Construct an lp space; ``p`` may be a float >= 1, inf, or "inf"."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if isinstance(p, str) and p != "inf":
        raise ValueError(f"unrecognized p tag {p!r}")
    p = float(p)
    if not (p >= 1.0 or np.isinf(p)):
        raise ValueError(f"lp requires p >= 1 or p = inf, got {p}")
    rows = np.eye(int(dim))
    rows.setflags(write=False)
    return NormSpec(kind="lp", dim=int(dim), functionals=rows, p=None if np.isinf(p) else p)


def polytope_space(functionals) -> NormSpec:
    """Construct a polytope norm ||u|| = max |<phi_l, u>|.

    The stored set is reduced to one representative per +/- pair; the
    functionals must span R^m so the formula is a genuine norm.
    """
    phi = np.asarray(functionals, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] < 1:
        raise ValueError("functionals must be a nonempty 2-d array (rows = functionals)")
    if not np.isfinite(phi).all():
        raise NonFiniteInputError("polytope functionals contain non-finite entries")
    m = phi.shape[1]
    reps: list[np.ndarray] = []
    for row in phi:
        if not any(np.array_equal(row, r) or np.array_equal(-row, r) for r in reps):
            reps.append(row)
    reduced = np.array(reps)
    if np.linalg.matrix_rank(reduced) < m:
        raise ValueError(
            "polytope functionals do not span R^m; the induced formula is not a norm"
        )
    reduced.setflags(write=False)
    return NormSpec(kind="polytope", dim=m, functionals=reduced)


def norm_rows(space: NormSpec, U: np.ndarray) -> np.ndarray:
    """||u|| along the last axis of ``U``, vectorized, no validation: the
    combine of the functional values, their axis first."""
    return _combine(np.moveaxis(U @ space.functionals.T, -1, 0), space.mode, space.p)


def norming_functionals(space: NormSpec, U) -> np.ndarray:
    """For each column u of U (m, N), a functional phi with ||phi||* <= 1 and
    <phi, u> = ||u||, as the columns of a C-ordered (m, N) array.

    Doubles as a subgradient of the norm at each column; a zero column gets
    zero, or the first functional row for a max.  l_inf and polytopes take
    one argmax of |<r_k, u>| over the rows per column (the first on ties)
    times its sign, each column's row values a matrix-vector product.  A
    general p goes column by column: numpy's vector pow rounds unlike its
    scalar one.
    """
    U = np.asarray(U, dtype=np.float64)
    mode, F = space.mode, space.functionals
    if mode == "maxabs":
        vals = np.matmul(F, U.T[:, :, None])[..., 0]  # (N, K)
        k = np.abs(vals).argmax(axis=1)
        s = vals[np.arange(U.shape[1]), k]
        return np.ascontiguousarray((np.where(s < 0.0, -1.0, 1.0)[:, None] * F[k]).T)
    if mode == "sumabs":
        return np.sign(U)
    Ut = np.ascontiguousarray(U.T)  # each column's norm reduced as one row
    if mode == "sumsq":
        nrm = norm_rows(space, Ut)
        Phi = Ut / np.where(nrm == 0.0, 1.0, nrm)[:, None]
        Phi[nrm == 0.0] = 0.0
        return np.ascontiguousarray(Phi.T)
    p, cols = space.p, []
    for u in Ut:
        nrm = norm_rows(space, u)
        cols.append(np.sign(u) * (np.abs(u) / nrm) ** (p - 1.0) if nrm != 0.0 else np.zeros(space.dim))
    return np.stack(cols, axis=1)


def _combine(T: np.ndarray, mode: str, p: float | None, halves=None) -> np.ndarray:
    """Norm values from the functional values T (K, ...), the functional
    axis first.

    Works in place: T is consumed and overwritten.  "maxabs" folds halves of
    the rows (``halves`` or ``_halves(T)``) with the bits of a running max;
    "sumabs" and "sumsq" add the rows in order into T[:1].  A 1-d T (one
    vector) gives a 0-d value, through numpy's scalar scale and root for a
    general p.
    """
    if mode == "maxabs":
        np.abs(T, out=T)
        for a, b in _halves(T) if halves is None else halves:
            np.maximum(a, b, out=a)
        return T[0]
    if mode != "p":
        (np.square if mode == "sumsq" else np.abs)(T, out=T)
        out = T[:1]
        for t in T[1:]:
            np.add(out, t, out=out)
        return (np.sqrt(out, out=out) if mode == "sumsq" else out)[0]
    # general finite p with overflow-safe scaling
    A = np.abs(T, out=T)
    s = A.max(axis=0)
    safe = np.where(s > 0.0, s, 1.0)
    out = safe * ((A / safe) ** p).sum(axis=0) ** (1.0 / p)
    return np.where(s > 0.0, out, 0.0)


def _halves(T: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """ceil(log2 K) view pairs (a, b) of T (K, ...): np.maximum(a, b, out=a) on
    each in order folds the top k // 2 of the first k rows onto the bottom,
    an odd k keeping its middle row, and leaves the max of all rows in T[0]."""
    pairs, k = [], T.shape[0]
    while k > 1:
        h = k // 2
        pairs.append((T[:h], T[k - h : k]))
        k -= h
    return pairs


@dataclass(frozen=True, eq=False)
class VectorFamily:
    """The nonzero vectors v_1..v_n as columns of an m x n matrix.  Two
    families are equal only if they are the same object."""

    space: NormSpec
    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=np.float64)
        if cols.ndim != 2:
            raise DimensionMismatchError("columns must be a 2-d array (m x n)")
        if cols.shape[0] != self.space.dim:
            raise DimensionMismatchError(
                f"family vectors live in R^{cols.shape[0]} but the space has dim "
                f"{self.space.dim}",
                expected=self.space.dim,
                got=cols.shape[0],
            )
        if cols.shape[1] < 1:
            raise ValueError("a family needs at least one vector")
        if not np.isfinite(cols).all():
            raise NonFiniteInputError("family vectors contain non-finite entries")
        cols = cols.copy()
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    @property
    def dim(self) -> int:
        return self.columns.shape[0]


def make_family(space: NormSpec, vectors) -> VectorFamily:
    """Build and validate a family from an iterable of n vectors in R^m."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError("vectors must be a 2-d array (n rows of length m)")
    return validate_family(VectorFamily(space=space, columns=arr.T))


def validate_family(family: VectorFamily) -> VectorFamily:
    """Reject any family vector with norm <= ZERO_VECTOR_TOL."""
    norms = norm_rows(family.space, family.columns.T)
    for i, nv in enumerate(norms):
        if not nv > ZERO_VECTOR_TOL:
            raise ZeroVectorError(
                f"family vector at index {i} has norm {nv:.3e} <= {ZERO_VECTOR_TOL}",
                index=i,
            )
    return family


# --- JSON serialization ------------------------------------------------------

def space_to_json(space: NormSpec) -> dict:
    if space.kind == "polytope":
        return {
            "kind": "polytope",
            "functionals": [list(map(float, row)) for row in space.functionals],
        }
    return {"kind": "lp", "p": "inf" if space.p is None else float(space.p), "dim": space.dim}


def space_from_json(doc: dict) -> NormSpec:
    kind = doc.get("kind")
    if kind == "lp":
        return lp_space(doc["p"], doc["dim"])
    if kind == "polytope":
        return polytope_space(doc["functionals"])
    raise ValueError(f"unrecognized space kind {kind!r}")


def family_to_json(family: VectorFamily) -> dict:
    return {
        "space": space_to_json(family.space),
        "vectors": [list(map(float, family.columns[:, i])) for i in range(family.n)],
    }


def family_from_json(doc: dict) -> VectorFamily:
    return make_family(space_from_json(doc["space"]), doc["vectors"])


def save_family(family: VectorFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_json(family), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_family(path) -> VectorFamily:
    with open(path, encoding="utf-8") as fh:
        return family_from_json(json.load(fh))
