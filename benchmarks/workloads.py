"""The benchmark's workloads and the configs they feed to ``normlab``.

A run executes a sequence of batches.  Batch ``i`` of a workload is one
``harness.validate_config`` -> ``harness.run_experiment`` call on the
config ``batch_config(name, seed, i, out_dir)``, which is a pure function
of its arguments: the seed derives every family, polytope functional and
master seed, and the program receives only the finished config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DISTORTION_PROBES = {"samples": 2000, "descent_steps": 50}
# criterion 9's shape (n=20, four xi) with the probe and descent work of a
# trial raised until one trial takes about 0.4 s, so that a trial spans
# the machine's short speed changes instead of falling inside one
SCALAR_PROBES = {"samples": 4096, "descent_steps": 100, "restarts": 96}
# theta of the net builds: at 0.5 a build scans 16k to 35k candidates by
# the greedy stop rule and takes 0.5 to 1.6 s, so a run sees too few builds
# for steady quantiles; at 0.6 a build takes about 0.2 s
NET_THETA = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    # the function whose calls are the ops, as "module.function"
    op: str
    # ops in one batch (trials, or net builds)
    ops_per_batch: int
    # tail percentile reported as op_tail_ms; a run always measures at
    # least 10 / (1 - tail_pct / 100) ops so that 10 ops lie beyond it
    tail_pct: float
    # batches of the traced run, a fixed amount so its counts are exact
    trace_batches: int
    threads: int

    @property
    def min_ops(self) -> int:
        return int(round(10.0 / (1.0 - self.tail_pct / 100.0)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trend-n16",
            experiment="distortion",
            op="distortion.run_trial",
            ops_per_batch=4,
            tail_pct=60.0,
            trace_batches=4,
            threads=2,
        ),
        Workload(
            name="sweep-poly-n8",
            experiment="xi-sweep",
            op="distortion.run_trial",
            ops_per_batch=8,
            tail_pct=93.0,
            trace_batches=5,
            threads=1,
        ),
        Workload(
            name="nets-n4",
            experiment="net-build",
            op="nets.build_net",
            ops_per_batch=1,
            tail_pct=85.0,
            trace_batches=24,
            threads=1,
        ),
        Workload(
            name="scalar-n20",
            experiment="scalar-sweep",
            op="scalar.scalar_min_max",
            ops_per_batch=4,
            tail_pct=80.0,
            trace_batches=6,
            threads=1,
        ),
    )
}


def stream(seed: int, index: int, k: int) -> np.random.Generator:
    """Random stream ``k`` of batch ``index`` under ``seed``."""
    return np.random.default_rng([seed, index, k])


def _master_seed(seed: int, index: int) -> int:
    return int(stream(seed, index, 0).integers(0, 1 << 63))


def _linf_family(seed: int, index: int, n: int) -> dict:
    vectors = stream(seed, index, 1).standard_normal((n, 4))
    return {"space": {"kind": "lp", "p": "inf", "dim": 4}, "vectors": vectors.tolist()}


def _polytope_family(seed: int, index: int, n: int) -> dict:
    rng = stream(seed, index, 1)
    functionals = rng.standard_normal((6, 4))
    vectors = rng.standard_normal((n, 4))
    return {
        "space": {"kind": "polytope", "functionals": functionals.tolist()},
        "vectors": vectors.tolist(),
    }


def batch_config(name: str, seed: int, index: int, out_dir: str) -> dict:
    """The config of batch ``index`` of workload ``name`` under ``seed``."""
    w = WORKLOADS[name]
    doc = {
        "experiment": w.experiment,
        "master_seed": _master_seed(seed, index),
        "threads": w.threads,
        "output": {"dir": str(out_dir), "formats": ["json", "csv"]},
    }
    if name == "trend-n16":
        doc.update(_linf_family(seed, index, 16))
        doc.update(xi=0.5, trials=w.ops_per_batch, probes=dict(DISTORTION_PROBES))
    elif name == "sweep-poly-n8":
        doc.update(_polytope_family(seed, index, 8))
        xi_list = [0.25, 1.0, 4.0, 16.0]
        doc.update(
            xi_list=xi_list,
            trials=w.ops_per_batch // len(xi_list),
            probes=dict(DISTORTION_PROBES),
        )
    elif name == "nets-n4":
        doc.update(_linf_family(seed, index, 4))
        doc.update(theta=NET_THETA)
    elif name == "scalar-n20":
        xi_list = [0.1, 0.25, 0.5, 1.0]
        doc.update(
            n=20,
            xi_list=xi_list,
            trials=w.ops_per_batch // len(xi_list),
            probes=dict(SCALAR_PROBES),
        )
    else:
        raise KeyError(name)
    return doc
