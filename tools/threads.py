"""Time two n = 16 exact-norm calls in flight: in two threads, and in two processes.

Run from the root of a checkout:

    python3 tools/threads.py [--rounds 9] [--points 2000]

Each round times one ``exact_unconditional_norm_many`` call on ``--points``
points of an l_inf^4 family at n = 16 (the shape of the ``trend-n16``
probes) alone, then two such calls started together in two threads of
this process, sharing one instance as two trials in flight do, then two
started together in two processes, each with its own warm instance.  A pair's
time runs from the earlier start to the later end.  The tool prints the
median of each time over the rounds and the median of each round's ratio
of pair time to lone time: 1.0 means the two calls ran as if each had a
core of its own, 2.0 that they ran one after the other.  BLAS runs with one
thread, as in the benchmark.  At most two processes run at once, and each
is joined before the next round.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import queue
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from benchmarks import PINNED_ENV  # noqa: E402

os.environ.update(PINNED_ENV)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import normlab as nl  # noqa: E402


def _problem(points: int):
    """An l_inf^4 family at n = 16 and ``points`` points, the same in every process."""
    rng = np.random.default_rng(16)
    fam = nl.make_family(nl.lp_space("inf", 4), rng.standard_normal((16, 4)))
    return nl.NormInstance(family=fam), rng.standard_normal((points, 16))


def _call(problem) -> None:
    nl.exact_unconditional_norm_many(*problem)


def _timed(problem, start, times) -> None:
    """Wait at ``start``, make one call and put its (start, end) into ``times``."""
    start.wait()
    t0 = time.perf_counter()
    _call(problem)
    times.put((t0, time.perf_counter()))


def _spawned(points: int, start, times) -> None:
    """A process's own problem and warm sign tables, then ``_timed``."""
    problem = _problem(points)
    _call(problem)
    _timed(problem, start, times)


def _pair(make_worker, target, arg, start, times) -> float:
    """Start two workers together; the span from the first start to the last end."""
    workers = [make_worker(target=target, args=(arg, start, times)) for _ in range(2)]
    for w in workers:
        w.start()
    start.wait()
    spans = [times.get() for _ in workers]  # drained before the joins
    for w in workers:
        w.join()
    return max(t1 for _, t1 in spans) - min(t0 for t0, _ in spans)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=9)
    ap.add_argument("--points", type=int, default=2000)
    args = ap.parse_args(argv)
    problem = _problem(args.points)
    _call(problem)  # warm the sign tables
    spawn = multiprocessing.get_context("spawn")
    rows = {"alone": [], "threads": [], "processes": []}
    for _ in range(args.rounds):
        t0 = time.perf_counter()
        _call(problem)
        rows["alone"].append(time.perf_counter() - t0)
        start, times = threading.Barrier(3), queue.SimpleQueue()
        rows["threads"].append(_pair(threading.Thread, _timed, problem, start, times))
        start, times = spawn.Barrier(3), spawn.SimpleQueue()
        rows["processes"].append(_pair(spawn.Process, _spawned, args.points, start, times))
    print(f"n = 16, l_inf^4, {args.points} points per call, {args.rounds} rounds")
    for name, times in rows.items():
        line = f"{name:>9}: median {statistics.median(times):.3f} s"
        if name != "alone":
            ratios = [t / a for t, a in zip(times, rows["alone"])]
            line += (
                f", pair / alone median {statistics.median(ratios):.2f}"
                f" (range {min(ratios):.2f}-{max(ratios):.2f})"
            )
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
