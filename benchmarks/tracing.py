"""Wrappers installed from outside ``normlab``: the op timer and the span tracer.

Both replace a function at every module binding it has been imported
into (``normlab.distortion.exact_unconditional_norm_many`` as well as
``normlab.symmetrize.exact_unconditional_norm_many``), so a call is seen
whichever module makes it.  Nothing under ``src/`` changes.

An untraced run installs only the op timer, on the op function.  A traced
run wraps every public function of the layer modules in a span.  Spans
stay in memory until the run ends; each records its name, start, end,
parent span, thread id and op id.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("harness", "distortion", "symmetrize", "signs", "spaces", "weakvar", "nets", "scalar")

# span names of the kernels the per-layer metrics are keyed by
ALIASES = {
    "symmetrize.exact_unconditional_norm_many": "symmetrize.exact_many",
    "symmetrize.batch_empirical_norm": "symmetrize.empirical",
    "signs.half_gray_sign_block": "signs.half_block",
    "signs.sample_sign_matrix": "signs.sample",
}

# O(1) helpers and the Gray-table builder inside signs.half_block: their
# time belongs to the span that calls them
UNWRAPPED = {"signs.half_enumeration_size", "signs.gray_sign_block"}


def layer_functions() -> dict:
    """Every public function of the layer modules, mapped to its span name."""
    funcs = {}
    for layer in LAYERS:
        mod = sys.modules[f"normlab.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or inspect.isgeneratorfunction(obj)
                or name in UNWRAPPED
            ):
                continue
            funcs[obj] = ALIASES.get(name, name)
    return funcs


def bindings(funcs) -> list[tuple[object, str, object]]:
    """(module, attribute, function) for every normlab binding of ``funcs``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "normlab" and not modname.startswith("normlab."):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in funcs:
                found.append((mod, attr, obj))
    return found


@contextmanager
def patched(wrappers: dict):
    """Install ``wrappers`` (original -> replacement) at every binding."""
    sites = bindings(wrappers)
    for mod, attr, fn in sites:
        setattr(mod, attr, wrappers[fn])
    try:
        yield
    finally:
        for mod, attr, fn in sites:
            setattr(mod, attr, fn)


def function_named(name: str):
    """The original function whose span name is ``name``."""
    for fn, span in layer_functions().items():
        if span == name:
            return fn
    raise KeyError(f"no public layer function named {name}")


class OpTimer:
    """Times each op call; the only wrapper an untraced run installs."""

    def __init__(self, on_first=None):
        self.latencies: list[float] = []
        self._on_first = on_first

    def wrap(self, fn):
        def timed(*args, **kwargs):
            if self._on_first is not None:
                self._on_first()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - t0)

        return timed

    def install(self, op_name: str):
        fn = function_named(op_name)
        return patched({fn: self.wrap(fn)})


def _n_points(result) -> int:
    return int(result.shape[0])


def _half(n: int) -> int:
    return 1 << (n - 1) if n > 1 else 1


# per-span counts taken from a call's arguments and result
_ATTRS = {
    "symmetrize.exact_many": lambda a, k, r: {"points": _n_points(r), "n": a[0].n},
    "symmetrize.empirical": lambda a, k, r: {"points": _n_points(r), "N": a[0].N},
    "signs.half_block": lambda a, k, r: {"rows": _n_points(r), "hit": not r.flags.writeable},
    "distortion.sphere_sample": lambda a, k, r: {"points": _n_points(r)},
    "nets.build_net": lambda a, k, r: {"candidates": r.candidate_budget, "size": r.size},
    "harness.write_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0] if a else k["path"])},
}


class Tracer:
    """Records one span per call of every public layer function."""

    def __init__(self, op_name: str):
        self.op_name = op_name
        # (id, name, start, end, parent, thread, op, attrs)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def wrap(self, name: str, fn):
        is_op = name == self.op_name
        attrs_of = _ATTRS.get(name)
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.op = None
            sid = next(self._ids)
            # a pool thread's outermost span belongs to the span that is
            # open on the submitting thread
            parent = stack[-1] if stack else self._root
            if parent is None:
                self._root = sid
            outer_op = local.op
            if is_op:
                local.op = next(self._ops)
                cpu0 = time.thread_time()
            stack.append(sid)
            attrs = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_op:
                    attrs = {**(attrs or {}), "cpu": time.thread_time() - cpu0}
                self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), local.op, attrs))
                local.op = outer_op
                if self._root == sid:
                    self._root = None

        return traced

    def install(self):
        return patched({fn: self.wrap(name, fn) for fn, name in layer_functions().items()})

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "op", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, *_ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of a traced run, by name."""
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for sid, name, t0, t1, *_ in spans:
        calls[name] += 1
        total[name] += t1 - t0
        own[name] += selfs[sid]

    def attr_sum(name, fn):
        return sum(fn(s[7]) for s in spans if s[1] == name and s[7] is not None)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    exact = [s for s in spans if s[1] == "symmetrize.exact_many" and s[7] is not None]
    single = [s for s in exact if s[7]["points"] == 1]
    pattern_points = sum(s[7]["points"] * _half(s[7]["n"]) for s in exact)
    column_points = attr_sum("symmetrize.empirical", lambda a: a["points"] * a["N"])
    candidates = attr_sum("nets.build_net", lambda a: a["candidates"])
    net_points = attr_sum("nets.build_net", lambda a: a["size"])
    trials = [s for s in spans if s[1] == "distortion.run_trial" and s[7] is not None]
    half_calls = calls["signs.half_block"]
    return {
        "symmetrize.exact_many.self_s": own["symmetrize.exact_many"],
        "symmetrize.exact_many.pattern_points_per_s": rate(
            pattern_points, total["symmetrize.exact_many"]
        ),
        "symmetrize.exact_many.calls": calls["symmetrize.exact_many"],
        "symmetrize.exact_many.points": sum(s[7]["points"] for s in exact),
        "symmetrize.exact_many.pattern_points": pattern_points,
        "symmetrize.exact_many.single.calls": len(single),
        "symmetrize.exact_many.single.self_s": sum(selfs[s[0]] for s in single),
        "symmetrize.empirical.calls": calls["symmetrize.empirical"],
        "symmetrize.empirical.points": attr_sum("symmetrize.empirical", lambda a: a["points"]),
        "symmetrize.empirical.column_points": column_points,
        "symmetrize.empirical.self_s": own["symmetrize.empirical"],
        "symmetrize.empirical.column_points_per_s": rate(
            column_points, total["symmetrize.empirical"]
        ),
        "signs.half_block.calls": half_calls,
        "signs.half_block.rows": attr_sum("signs.half_block", lambda a: a["rows"]),
        "signs.half_block.self_s": own["signs.half_block"],
        "signs.half_block.cache_hit_ratio": (
            attr_sum("signs.half_block", lambda a: int(a["hit"])) / half_calls if half_calls else 0.0
        ),
        "signs.sample.self_s": own["signs.sample"],
        "distortion.sphere_sample.self_s": own["distortion.sphere_sample"],
        "distortion.sphere_sample.points": attr_sum("distortion.sphere_sample", lambda a: a["points"]),
        "distortion.run_trial.self_s": own["distortion.run_trial"],
        "distortion.descent.renorms": sum(
            1 for s in single if names.get(s[4]) == "distortion.run_trial"
        ),
        "distortion.run_trial.wait_s": sum((s[3] - s[2]) - s[7]["cpu"] for s in trials),
        "spaces.norming_functional.calls": calls["spaces.norming_functional"],
        "spaces.norming_functional.self_s": own["spaces.norming_functional"],
        "weakvar.sigma.calls": calls["weakvar.sigma"],
        "weakvar.sigma.self_s": own["weakvar.sigma"],
        "weakvar.sigma_many_sup_norm.self_s": own["weakvar.sigma_many_sup_norm"],
        "weakvar.largest_singular_value.calls": calls["weakvar.largest_singular_value"],
        "weakvar.largest_singular_value.self_s": own["weakvar.largest_singular_value"],
        "nets.build_net.self_s": own["nets.build_net"],
        "nets.build_net.candidates": candidates,
        "nets.build_net.candidates_per_s": rate(candidates, total["nets.build_net"]),
        "nets.build_net.accept_ratio": net_points / candidates if candidates else 0.0,
        "scalar.scalar_min_max.self_s": own["scalar.scalar_min_max"],
        "harness.run_experiment.self_s": own["harness.run_experiment"],
        "harness.write_csv.self_s": own["harness.write_csv"],
        "harness.write_csv.bytes": attr_sum("harness.write_csv", lambda a: a["bytes"]),
        "bench.spans": len(spans),
    }


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def op_breakdown(spans, op_name: str, top: int = 12) -> list[tuple[str, float, float]]:
    """Inclusive and self time by (parent > span) path, as shares of op time.

    Only spans inside an op count; paths are sorted by inclusive share.
    """
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    op_time = sum(s[3] - s[2] for s in spans if s[1] == op_name)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    for sid, name, t0, t1, parent, _, op, _ in spans:
        if op is None:
            continue
        path = name if name == op_name else f"{names.get(parent, '-')} > {name}"
        inclusive[path] += t1 - t0
        own[path] += selfs[sid]
    if op_time <= 0:
        return []
    rows = [(p, inclusive[p] / op_time, own[p] / op_time) for p in inclusive]
    return sorted(rows, key=lambda r: -r[1])[:top]
