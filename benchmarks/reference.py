"""Naive reference norms and the output checks of every benchmark run.

The references sum over every sign vector directly, with no Gray order,
no blocking and no antipodal pairing, so they share no code and no
shortcut with the kernels under test.  Spaces and families are the JSON
shapes of a config (``{"kind": "lp", "p": ..., "dim": ...}`` or
``{"kind": "polytope", "functionals": [...]}``, vectors as rows).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

UNIT_RTOL = 1e-9
CERTIFICATE_SLACK = 1e-9
NET_PAIRS = 256


def space_norms(space: dict, U: np.ndarray) -> np.ndarray:
    """||u|| for each row u of ``U``."""
    if space["kind"] == "polytope":
        return np.abs(U @ np.asarray(space["functionals"], dtype=np.float64).T).max(axis=1)
    p = space["p"]
    if p == "inf" or math.isinf(float(p)):
        return np.abs(U).max(axis=1)
    return (np.abs(U) ** float(p)).sum(axis=1) ** (1.0 / float(p))


def all_signs(n: int) -> np.ndarray:
    """Every vector of {-1, +1}^n, one per row, in binary order."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return bits * 2.0 - 1.0


def exact_norm(space: dict, vectors, x) -> float:
    """The mean of ||sum_i eps_i x_i v_i|| over all 2^n sign vectors eps."""
    V = np.asarray(vectors, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    U = all_signs(V.shape[0]) @ (x[:, None] * V)
    return math.fsum(space_norms(space, U)) / U.shape[0]


def empirical_norm(space: dict, vectors, signs, x) -> float:
    """(1/N) sum_j ||sum_i eps_ij x_i v_i|| for an n x N sign matrix."""
    V = np.asarray(vectors, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    E = np.asarray(signs, dtype=np.float64)
    U = E.T @ (x[:, None] * V)
    return math.fsum(space_norms(space, U)) / U.shape[0]


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _unit(space: dict, vectors, x) -> bool:
    return abs(exact_norm(space, vectors, x) - 1.0) <= UNIT_RTOL


def check_trials(doc: dict, rows: list[dict]) -> list[bool]:
    """One verdict per distortion trial row.

    Every row needs 0 < min_estimate <= probe_min <= max_estimate and
    count_U + count_V == samples_used; the rows of trial 0 also need
    argmin and argmax at reference norm 1.
    """
    verdicts = []
    for row in rows:
        lo, probe, hi = (float(row[k]) for k in ("min_estimate", "probe_min", "max_estimate"))
        ok = 0.0 < lo <= probe <= hi
        ok = ok and int(row["count_U"]) + int(row["count_V"]) == int(row["samples_used"])
        if ok and row["trial"] == "0":
            ok = all(
                _unit(doc["space"], doc["vectors"], json.loads(row[k])) for k in ("argmin", "argmax")
            )
        verdicts.append(ok)
    return verdicts


def check_net(doc: dict, net: dict, rng: np.random.Generator) -> bool:
    """Net points have reference norm 1 and sampled pairs are theta-separated."""
    pts = np.asarray(net["points"], dtype=np.float64)
    space, V, theta = doc["space"], doc["vectors"], doc["theta"]
    if pts.ndim != 2 or pts.shape[0] == 0 or not all(_unit(space, V, p) for p in pts):
        return False
    if pts.shape[0] < 2:
        return True
    i = rng.integers(0, pts.shape[0], NET_PAIRS)
    j = (i + rng.integers(1, pts.shape[0], NET_PAIRS)) % pts.shape[0]
    return all(exact_norm(space, V, pts[a] - pts[b]) > theta for a, b in zip(i, j))


def check_scalar(rows: list[dict]) -> list[bool]:
    """One verdict per scalar trial: 0 < kappa_min <= kappa_max <= certificate."""
    verdicts = []
    for row in rows:
        lo, hi, cert = (float(row[k]) for k in ("kappa_min", "kappa_max", "certificate"))
        verdicts.append(0.0 < lo <= hi <= cert + CERTIFICATE_SLACK)
    return verdicts


def check_batch(doc: dict, out_dir: Path, rng: np.random.Generator) -> list[bool]:
    """Verdicts for the ops of one finished batch, read from its outputs."""
    exp = doc["experiment"]
    if exp in ("distortion", "xi-sweep"):
        return check_trials(doc, _rows(out_dir / "trials.csv"))
    if exp == "scalar-sweep":
        return check_scalar(_rows(out_dir / "trials.csv"))
    if exp == "net-build":
        with open(out_dir / "net.json", encoding="utf-8") as fh:
            return [check_net(doc, json.load(fh), rng)]
    raise ValueError(f"no output check for experiment {exp!r}")
