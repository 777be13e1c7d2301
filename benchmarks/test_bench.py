"""Tests of the benchmark itself: its reference, its generator and its wrappers."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from benchmarks import ROOT, import_normlab, reference, tracing, worker
from benchmarks.workloads import WORKLOADS, batch_config

nl = import_normlab()
harness = nl.harness

SPACES = [
    {"kind": "lp", "p": 1, "dim": 3},
    {"kind": "lp", "p": 2, "dim": 3},
    {"kind": "lp", "p": 3.5, "dim": 3},
    {"kind": "lp", "p": "inf", "dim": 3},
    {"kind": "polytope", "functionals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]},
]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s['kind']}-{s.get('p', '')}")
@pytest.mark.parametrize("n", [1, 3, 6])
def test_reference_agrees_with_the_kernels(space, n):
    rng = np.random.default_rng(n)
    vectors = rng.standard_normal((n, 3))
    family = nl.make_family(nl.space_from_json(space), vectors)
    inst = nl.NormInstance(family=family)
    signs = nl.sample_sign_matrix(n, 2 * n + 1, seed=n)
    emp = nl.EmpiricalNormInstance(family=family, signs=signs)
    for x in rng.standard_normal((4, n)):
        exact = nl.exact_unconditional_norm(inst, x)
        assert reference.exact_norm(space, vectors, x) == pytest.approx(exact, rel=1e-12)
        sampled = nl.empirical_norm(emp, x)
        ref = reference.empirical_norm(space, vectors, signs.dense(), x)
        assert ref == pytest.approx(sampled, rel=1e-12)


def test_reference_sums_every_sign_vector_once():
    S = reference.all_signs(4)
    assert S.shape == (16, 4)
    assert len({tuple(row) for row in S}) == 16


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generator_is_a_pure_function_of_the_seed(name):
    first = [batch_config(name, 11, i, "out") for i in range(3)]
    np.random.seed(0)
    np.random.standard_normal(100)
    again = [batch_config(name, 11, i, "out") for i in range(3)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps([batch_config(name, 12, i, "out") for i in range(3)])
    assert first[0]["master_seed"] != first[1]["master_seed"]
    harness.validate_config(first[0])


def _normlab_attributes() -> dict:
    return {
        f"{modname}.{attr}": obj
        for modname, mod in list(sys.modules.items())
        if modname == "normlab" or modname.startswith("normlab.")
        for attr, obj in vars(mod).items()
    }


def _changed(before: dict) -> set:
    now = _normlab_attributes()
    return {k for k in before.keys() | now.keys() if before.get(k) is not now.get(k)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_installs_only_the_op_timer(name):
    w = WORKLOADS[name]
    op = tracing.function_named(w.op)
    op_sites = {f"{m.__name__}.{a}" for m, a, _ in tracing.bindings({op: None})}
    assert len(op_sites) >= 2, "the op is bound in its module and the package"
    before = _normlab_attributes()
    with tracing.OpTimer().install(w.op):
        assert _changed(before) == op_sites
    assert _changed(before) == set()


def test_traced_trial_spans_see_every_binding(tmp_path):
    k = 5
    doc = {
        "experiment": "distortion",
        "space": {"kind": "lp", "p": "inf", "dim": 3},
        "vectors": np.random.default_rng(3).standard_normal((6, 3)).tolist(),
        "xi": 0.5,
        "trials": 2,
        "probes": {"samples": 200, "descent_steps": k},
        "master_seed": 9,
        "threads": 2,
        "output": {"dir": str(tmp_path)},
    }
    tracer = tracing.Tracer("distortion.run_trial")
    with tracer.install():
        harness.run_experiment(harness.validate_config(doc))
    spans = tracer.spans
    trials = [s for s in spans if s[1] == "distortion.run_trial"]
    assert len(trials) == 2
    for t in trials:
        children = [s for s in spans if s[4] == t[0]]
        assert sum(1 for s in children if s[1] == "distortion.sphere_sample") == 1
        single = [s for s in children if s[1] == "symmetrize.exact_many" and s[7]["points"] == 1]
        assert len(single) <= k
        assert all(s[6] == t[6] for s in children)
    names = {s[1] for s in spans}
    assert {"harness.run_experiment", "harness.write_csv", "signs.sample", "signs.half_block"} <= names
    m = tracing.layer_metrics(spans)
    assert m["distortion.sphere_sample.points"] == 400
    assert m["distortion.descent.renorms"] <= 2 * k
    assert m["harness.run_experiment.self_s"] < sum(t[3] - t[2] for t in trials)


def test_paired_trace_batches_agree_with_their_plain_runs(tmp_path):
    w = dataclasses.replace(WORKLOADS["nets-n4"], trace_batches=2)
    tracer = tracing.Tracer(w.op)
    before = _normlab_attributes()
    rec = worker.run_pairs(harness, w, 5, tmp_path, tracer)
    assert _changed(before) == set()
    assert rec["attempted"] == 2 and rec["failed"] == 0
    assert len(rec["overhead_ratios"]) == 2 and all(r > 0 for r in rec["overhead_ratios"])
    assert sum(1 for s in tracer.spans if s[1] == w.op) == 2
    assert {k.split("/")[0] for k in rec["outputs"]} == {"0000", "0001"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "a", 0.0, 10.0, None, 1, None, None),
        (2, "b", 1.0, 4.0, 1, 1, None, None),
        (3, "b", 3.0, 6.0, 1, 2, None, None),
    ]
    assert tracing.self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0}


def test_checks_reject_bad_outputs():
    row = {"trial": "1", "min_estimate": "0.5", "probe_min": "0.6", "max_estimate": "1.2",
           "count_U": "3", "count_V": "7", "samples_used": "10"}
    doc = {"space": {"kind": "lp", "p": "inf", "dim": 2}, "vectors": [[1.0, 0.0], [0.0, 1.0]]}
    assert reference.check_trials(doc, [row]) == [True]
    assert reference.check_trials(doc, [{**row, "probe_min": "0.4"}]) == [False]
    assert reference.check_trials(doc, [{**row, "count_V": "6"}]) == [False]
    unit = [1.0 / reference.exact_norm(doc["space"], doc["vectors"], [1.0, 0.0]), 0.0]
    good = {**row, "trial": "0", "argmin": json.dumps(unit), "argmax": json.dumps(unit)}
    assert reference.check_trials(doc, [good]) == [True]
    assert reference.check_trials(doc, [{**good, "argmax": "[2.0, 0.0]"}]) == [False]
    scalar = {"kappa_min": "0.2", "kappa_max": "0.9", "certificate": "0.95"}
    assert reference.check_scalar([scalar]) == [True]
    assert reference.check_scalar([{**scalar, "certificate": "0.8"}]) == [False]
    net_doc = {**doc, "theta": 0.5}
    rng = np.random.default_rng(0)
    pts = [unit, [-u for u in unit]]
    assert reference.check_net(net_doc, {"points": pts}, rng)
    assert not reference.check_net(net_doc, {"points": [unit, unit]}, rng)


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = {*tracing.layer_metrics([]), "bench.trace_overhead_frac"}
    assert set(layer) <= names
    assert all(unit == tracing.unit_of(n) for n, unit in layer.items())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.run", "--workload", "nets-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
