"""Concrete finite-dimensional normed spaces and vector families.

The ambient space is always R^m equipped with one norm from a closed menu:

* ``lp``       -- the p-norm for p in [1, inf]; p = inf is a distinguished
                  tag (stored as ``p=None``), never a float sentinel.
* ``polytope`` -- ||u|| = max over a finite symmetric set of functionals
                  of |<phi, u>|.  One representative per +/- pair is stored.

Every norm on the menu comes with a norming functional (a subgradient of
the norm), which the weak-variance and descent computations use.
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
    """A concrete normed space (R^dim, ||.||).

    ``kind`` is "lp" or "polytope".  For "lp", ``p`` is a float >= 1 or
    None meaning the sup norm.  For "polytope", ``functionals`` holds one
    representative per +/- pair, rows spanning R^dim.
    """

    kind: str
    dim: int
    p: float | None = None
    functionals: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other):
        if not isinstance(other, NormSpec):
            return NotImplemented
        if (self.kind, self.dim, self.p) != (other.kind, other.dim, other.p):
            return False
        if self.functionals is None or other.functionals is None:
            return self.functionals is other.functionals
        return np.array_equal(self.functionals, other.functionals)

    def __hash__(self):
        return hash((self.kind, self.dim, self.p))


def lp_space(p, dim: int) -> NormSpec:
    """Construct an lp space; ``p`` may be a float >= 1, inf, or "inf"."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if isinstance(p, str):
        if p != "inf":
            raise ValueError(f"unrecognized p tag {p!r}")
        return NormSpec(kind="lp", dim=int(dim), p=None)
    p = float(p)
    if np.isinf(p):
        return NormSpec(kind="lp", dim=int(dim), p=None)
    if not p >= 1.0:
        raise ValueError(f"lp requires p >= 1 or p = inf, got {p}")
    return NormSpec(kind="lp", dim=int(dim), p=p)


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
    """||u|| along the last axis of ``U``, vectorized, no validation."""
    if space.kind == "polytope":
        return np.abs(U @ space.functionals.T).max(axis=-1)
    p = space.p
    if p is None:
        return np.abs(U).max(axis=-1)
    if p == 1.0:
        return np.abs(U).sum(axis=-1)
    if p == 2.0:
        return np.sqrt(np.square(U).sum(axis=-1))
    # general finite p: scale by the max to avoid overflow for large p
    A = np.abs(U)
    s = A.max(axis=-1)
    safe = np.where(s > 0.0, s, 1.0)
    out = safe * ((A / safe[..., None]) ** p).sum(axis=-1) ** (1.0 / p)
    return np.where(s > 0.0, out, 0.0)


def norming_functionals(space: NormSpec, U) -> np.ndarray:
    """For each column u of U (m, N), a functional phi with ||phi||* <= 1 and
    <phi, u> = ||u||, as the columns of a C-ordered (m, N) array.

    Doubles as a subgradient of the norm at each column; a zero column gets
    zero (a coordinate functional for l_inf).  l_inf and polytopes take one
    argmax of |<phi, u>| per column (the first on ties) times a sign, each
    dual product a matrix-vector product.  A general p goes column by
    column: numpy's vector pow rounds unlike its scalar one.
    """
    U = np.asarray(U, dtype=np.float64)
    p, F = space.p, space.functionals
    if space.kind == "polytope" or p is None:
        cols = np.arange(U.shape[1])
        vals = U if F is None else np.matmul(F, U.T[:, :, None])[..., 0].T
        k = np.abs(vals).argmax(axis=0)
        s = vals[k, cols]
        if F is not None:
            return np.ascontiguousarray((np.copysign(1.0, s)[:, None] * F[k]).T)
        Phi = np.zeros_like(U)
        Phi[k, cols] = np.where(s != 0.0, np.copysign(1.0, s), 1.0)
        return Phi
    if p == 1.0:
        return np.sign(U)
    Ut = np.ascontiguousarray(U.T)  # each column's norm reduced as one row
    if p == 2.0:
        nrm = norm_rows(space, Ut)
        Phi = Ut / np.where(nrm == 0.0, 1.0, nrm)[:, None]
        Phi[nrm == 0.0] = 0.0
        return np.ascontiguousarray(Phi.T)
    cols = []
    for u in Ut:
        nrm = norm_rows(space, u)
        cols.append(np.sign(u) * (np.abs(u) / nrm) ** (p - 1.0) if nrm != 0.0 else np.zeros(space.dim))
    return np.stack(cols, axis=1)


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
