"""One benchmark process: imports normlab fresh and runs batches of a workload.

    python3 -m benchmarks.worker --mode probe|measure|pairs --workload W --seed S
        --out DIR [--seconds T]

``probe`` prints the monotonic clock at the first op and exits at once:
the process that started it turns that into a set-up time.  ``measure``
runs batches with the op timer until ``--seconds`` of timed work and the
workload's minimum op count are both reached, or 1.5 times
``--seconds`` has passed, and starts the set-up probes between batches.
``pairs`` runs each of the workload's fixed trace batches twice, once with
every layer traced and once with the op timer only.  ``measure`` and
``pairs`` print one JSON object as their last line.

Only the ``validate_config`` -> ``run_experiment`` calls are timed; the
output checks and digests run between them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from benchmarks import ROOT, import_normlab, reference, tracing
from benchmarks.workloads import WORKLOADS, Workload, batch_config, stream

# set-up probes of a measuring run, spread evenly over its timed work so
# that they meet the machine's speed changes in the same share as the ops
SETUP_PROBES = 14
PROBE_TIMEOUT_S = 60.0
# a run short of its minimum op count goes on to at most this many times
# --seconds of timed work, which bounds a run's length on a slow machine
MAX_STRETCH = 1.5


def _probe(harness, w: Workload, seed: int, out: Path) -> None:
    once = threading.Lock()

    def first_op():
        once.acquire()  # an op starting on another thread waits here for the exit
        os.write(1, f"{time.monotonic()!r}\n".encode())
        os._exit(0)

    cfg = harness.validate_config(batch_config(w.name, seed, 0, out))
    with tracing.OpTimer(on_first=first_op).install(w.op):
        harness.run_experiment(cfg)
    raise SystemExit(f"{w.name}: the first batch ran no {w.op}")


def setup_time(w: Workload, seed: int, out: Path) -> float:
    """Seconds from the start of a fresh probe process to its first op."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.worker", "--mode", "probe",
         "--workload", w.name, "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return float(proc.stdout) - start


def _digests(out: Path, index: int) -> dict[str, str]:
    # report.json holds a wall time, so only the tables are compared
    return {
        f"{index:04d}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "report.json"
    }


def run_batch(harness, w: Workload, seed: int, index: int, out: Path, install) -> dict:
    """Run batch ``index`` under the wrappers ``install()`` puts in place, then check it.

    Only the ``validate_config`` -> ``run_experiment`` call is timed.
    """
    doc = batch_config(w.name, seed, index, out)
    with install():
        t0 = time.perf_counter()
        try:
            harness.run_experiment(harness.validate_config(doc))
            ran = True
        except Exception:
            traceback.print_exc()
            ran = False
        seconds = time.perf_counter() - t0
    passed, outputs = 0, {}
    if ran:
        try:
            verdicts = reference.check_batch(doc, out, stream(seed, index, 2))
            if len(verdicts) == w.ops_per_batch:
                passed = sum(verdicts)
            outputs = _digests(out, index)
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
    return {"seconds": seconds, "failed": w.ops_per_batch - passed, "outputs": outputs}


def run_batches(harness, w: Workload, seed: int, out: Path, seconds: float) -> dict:
    """Run batches with the op timer until ``seconds`` of timed work and the
    workload's minimum op count are reached, or ``MAX_STRETCH * seconds``.

    Set-up probe ``k`` runs between batches once ``k / SETUP_PROBES`` of
    ``seconds`` is done, so every probe has run before the loop ends.
    """
    timer = tracing.OpTimer()
    install = lambda: timer.install(w.op)  # noqa: E731
    batches, setups = [], []
    while True:
        timed = sum(b["seconds"] for b in batches)
        while len(setups) < SETUP_PROBES and timed >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_time(w, seed, out.parent / f"probe{len(setups)}"))
        if timed >= seconds and (len(timer.latencies) >= w.min_ops or timed >= MAX_STRETCH * seconds):
            break
        batches.append(run_batch(harness, w, seed, len(batches), out, install))
    return {
        "batches": len(batches),
        "timed_s": sum(b["seconds"] for b in batches),
        "latencies": timer.latencies,
        "setup_s": setups,
        "attempted": w.ops_per_batch * len(batches),
        "failed": sum(b["failed"] for b in batches),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": {k: v for b in batches for k, v in b["outputs"].items()},
    }


def run_pairs(harness, w: Workload, seed: int, out: Path, tracer: tracing.Tracer) -> dict:
    """Run each of the fixed trace batches twice, traced and with the op timer only.

    The two runs of a batch are adjacent in time, so their ratio of timed
    wall time is the tracing overhead with slow drifts of the machine's
    speed taken out.  Even batches run traced first, odd ones plain first.
    A batch whose traced outputs differ from its plain ones fails.
    """
    timer = tracing.OpTimer()
    plain_install = lambda: timer.install(w.op)  # noqa: E731
    ratios, failed, outputs = [], 0, {}
    for index in range(w.trace_batches):
        modes = [("traced", tracer.install), ("plain", plain_install)]
        if index % 2:
            modes.reverse()
        runs = {label: run_batch(harness, w, seed, index, out, inst) for label, inst in modes}
        traced, plain = runs["traced"], runs["plain"]
        ratios.append(traced["seconds"] / plain["seconds"])
        if traced["outputs"] != plain["outputs"]:
            failed += w.ops_per_batch
        else:
            failed += max(traced["failed"], plain["failed"])
        outputs.update(traced["outputs"])
    return {
        "batches": w.trace_batches,
        "overhead_ratios": ratios,
        "attempted": w.ops_per_batch * w.trace_batches,
        "failed": failed,
        "outputs": outputs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("probe", "measure", "pairs"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    from normlab import harness  # only importable once the checkout's src is on the path

    w = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "probe":
        _probe(harness, w, args.seed, args.out)
    if args.mode == "measure":
        record = run_batches(harness, w, args.seed, args.out, args.seconds)
    else:
        tracer = tracing.Tracer(w.op)
        record = run_pairs(harness, w, args.seed, args.out, tracer)
        tracer.dump(args.out / "spans.jsonl")
        record["layers"] = tracing.layer_metrics(tracer.spans)
        record["breakdown"] = tracing.op_breakdown(tracer.spans, w.op)
        record["latencies"] = [s[3] - s[2] for s in tracer.spans if s[1] == w.op]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    import_normlab()
    sys.exit(main())
