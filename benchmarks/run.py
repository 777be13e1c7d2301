"""Run one benchmark workload and print its metrics.

    python3 -m benchmarks.run --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics: set-up time (median over
fresh processes started between the measured batches), ops per second, median and tail op latency, and peak
resident memory, measured with only the op timer installed.  ``--trace 1``
runs each of the workload's fixed trace batches twice, once with every
layer traced and once with the op timer only, and prints the per-layer
metrics and the tracing overhead (the median traced-over-plain ratio).
Each run checks the program's outputs against the naive reference and
records its provenance.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Files go under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from benchmarks import PINNED_ENV, PROGRAM, ROOT, SRC, WORK, tracing
from benchmarks.workloads import WORKLOADS, Workload

# every process of a run ends within this many seconds of its start
RUN_BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NORMLAB_THREADS"}
    env.update(PINNED_ENV)
    return env


def _worker(args: list[str], deadline: float) -> str:
    """Run one worker process from the checkout root; return its stdout."""
    cmd = [sys.executable, "-m", "benchmarks.worker", *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[:4]} passed the run's time budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {args[:4]} exited with code {proc.returncode}")
    return proc.stdout


def _record(w: Workload, seed: int, out, deadline: float, *extra: str) -> dict:
    stdout = _worker(
        ["--workload", w.name, "--seed", str(seed), "--out", str(out), *extra], deadline
    )
    record = json.loads(stdout.strip().splitlines()[-1])
    with open(out / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record


def _tail(latencies: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100.0) - 1)]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def provenance(w: Workload, seed: int, outputs: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
        "workload": w.name,
        "seed": seed,
        "threads": w.threads,
        "output_sha256": outputs,
    }


def end_to_end(w: Workload, seed: int, seconds: float, work, deadline: float) -> tuple[dict, dict]:
    rec = _record(w, seed, work / "run", deadline, "--mode", "measure", "--seconds", str(seconds))
    setups = rec["setup_s"]
    lat = rec["latencies"]
    ops = len(lat)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / rec["timed_s"], "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (_tail(lat, w.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (rec["peak_rss_kib"] / 1024.0, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes, "
        f"{min(setups):.3f} to {max(setups):.3f} s",
        "ops_per_s": f"{ops} ops in {rec['timed_s']:.2f} s timed, {rec['batches']} batches",
        "op_tail_ms": f"p{w.tail_pct:g} of {ops} ops",
    }
    for name, (value, unit) in values.items():
        print(f"  {name:<12} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<12} {rec['failed'] / rec['attempted']:>14.6g} {'ratio':<6} "
          f"{rec['failed']} of {rec['attempted']} ops")
    return rec, {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(w: Workload, seed: int, work, deadline: float) -> tuple[dict, dict]:
    traced = _record(w, seed, work / "traced", deadline, "--mode", "pairs")
    ratios = traced["overhead_ratios"]
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_frac"] = statistics.median(ratios) - 1.0
    print(f"  {len(traced['latencies'])} traced ops, {layers['bench.spans']} spans; "
          f"spans in {(work / 'traced' / 'spans.jsonl').relative_to(ROOT)}")
    print("  traced over untraced wall time of each batch: "
          + " ".join(f"{r:.3f}" for r in ratios))
    print("  share of op time by call path:  inclusive  self")
    for path, inclusive, own in traced["breakdown"]:
        print(f"    {path:<58} {inclusive:8.1%} {own:6.1%}")
    for name, value in layers.items():
        print(f"  {name:<48} {value:.6g}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    # every layer metric is printed above; the result holds the declared ones
    return traced, {
        k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layers.items() if k in declared
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (PROGRAM / "__init__.py").is_file():
        print(f"benchmark: no program to run, {PROGRAM} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"workload {w.name} ({w.experiment}, threads={w.threads}) seed {args.seed}")
    try:
        if args.trace:
            rec, metrics = per_layer(w, args.seed, work, deadline)
        else:
            rec, metrics = end_to_end(w, args.seed, args.seconds, work, deadline)
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    prov = provenance(w, args.seed, rec["outputs"])
    with open(work / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(prov, fh, indent=2, sort_keys=True)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
