import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normlab as nl
from normlab.spaces import norming_functionals
from normlab.stats import DESCENT_STEP0, DESCENT_STEP_MIN

from conftest import random_family

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def inst(rng):
    return nl.NormInstance(family=random_family(nl.lp_space("inf", 4), 8, rng))


class TestSphereSample:
    def test_zero_count(self, inst):
        assert nl.sphere_sample(inst, 0, seed=1).shape == (0, 8)

    def test_unit_norm(self, inst):
        X = nl.sphere_sample(inst, 300, seed=2)
        norms = nl.exact_unconditional_norm_many(inst, X)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_n_equals_one(self, rng):
        fam = random_family(nl.lp_space(2, 3), 1, rng)
        inst1 = nl.NormInstance(family=fam)
        X = nl.sphere_sample(inst1, 50, seed=3)
        scale = nl.exact_unconditional_norm(inst1, [1.0])
        assert np.allclose(np.abs(X[:, 0]), 1.0 / scale)


class TestSplitUV:
    # a unit vector is in U when sigma(x) >= sigma0, the boundary included
    def test_zero_threshold_all_U(self, inst, rng):
        x = nl.sphere_sample(inst, 1, seed=4)[0]
        assert nl.sigma(inst, x).value >= 0.0

    def test_above_ceiling_all_V(self, inst):
        # sigma <= sqrt(2) |||x||| = sqrt(2) on the unit sphere
        for x in nl.sphere_sample(inst, 20, seed=5):
            assert nl.sigma(inst, x).value < SQRT2 + 0.01

    def test_dim1_boundary_goes_to_U(self):
        fam = nl.make_family(nl.lp_space("inf", 1), [[1.0]] * 3)
        e1 = np.array([1.0, 0.0, 0.0])
        sr = nl.sigma(nl.NormInstance(fam), e1)
        assert sr.value == pytest.approx(1.0, rel=1e-12)
        assert sr.value >= 1.0


class TestRunTrial:
    def test_determinism(self, inst):
        p = nl.ProbeSpec(samples=100, descent_steps=10)
        a = nl.run_trial(inst, xi=0.5, seed=77, probes=p)
        b = nl.run_trial(inst, xi=0.5, seed=77, probes=p)
        assert a.min_estimate.value == b.min_estimate.value
        assert a.max_estimate.value == b.max_estimate.value
        assert np.array_equal(a.min_estimate.direction, b.min_estimate.direction)
        assert a.uv == b.uv

    def test_enumeration_matrix_injection_is_exact(self, rng):
        # with v_i = e_i in the euclidean space the averaged norm has a
        # single atom, so every probe value equals 1 exactly
        fam = nl.make_family(nl.lp_space(2, 6), np.eye(6))
        inst6 = nl.NormInstance(family=fam)
        rep = nl.run_trial(
            inst6,
            xi=None,
            seed=1,
            probes=nl.ProbeSpec(samples=50, descent_steps=0),
            signs=nl.enumeration_matrix(6),
        )
        assert rep.N == 64
        assert rep.min_estimate.value == pytest.approx(1.0, abs=1e-9)
        assert rep.max_estimate.value == pytest.approx(1.0, abs=1e-9)

    def test_single_net_point_no_samples(self, inst):
        net = nl.NetPoints(
            theta=0.5,
            points=nl.sphere_sample(inst, 1, seed=8),
            separation_certified=True,
            covering_status="heuristic",
            candidate_budget=1,
        )
        rep = nl.run_trial(
            inst, xi=0.5, seed=9, probes=nl.ProbeSpec(samples=0, descent_steps=0, net=net)
        )
        assert rep.min_estimate.value == rep.max_estimate.value
        assert rep.min_estimate.method == "net-scan"
        assert rep.certified_upper == pytest.approx(2 * rep.max_estimate.value)

    def test_descent_never_increases_probe_min(self, inst):
        rep = nl.run_trial(inst, xi=0.5, seed=10, probes=nl.ProbeSpec(samples=200, descent_steps=30))
        assert rep.min_estimate.value <= rep.probe_min
        assert rep.min_estimate.value <= rep.max_estimate.value

    def test_min_is_exact_minimum_of_probe_set(self, inst):
        # self-consistency: replaying the probe evaluation reproduces probe_min
        rep = nl.run_trial(inst, xi=0.5, seed=11, probes=nl.ProbeSpec(samples=150, descent_steps=5))
        samples = nl.sphere_sample(inst, 150, seed=nl.derive_seed(11, 1))
        signs = nl.sample_sign_matrix(inst.n, rep.N, nl.derive_seed(11, 0))
        emp = nl.EmpiricalNormInstance(family=inst.family, signs=signs)
        vals = nl.batch_empirical_norm(emp, samples)
        assert rep.probe_min == vals.min()

    def test_scale_robustness(self, rng, inst):
        # v_i -> t v_i with x -> x/t leaves the probe-set min/max invariant
        # (descent steps are sized in x-coordinates, so they are excluded)
        t = 3.7
        fam2 = nl.make_family(inst.family.space, (t * inst.family.columns).T)
        inst2 = nl.NormInstance(family=fam2)
        p = nl.ProbeSpec(samples=100, descent_steps=0)
        a = nl.run_trial(inst, xi=0.5, seed=12, probes=p)
        b = nl.run_trial(inst2, xi=0.5, seed=12, probes=p)
        assert b.min_estimate.value == pytest.approx(a.min_estimate.value, rel=1e-9)
        assert b.max_estimate.value == pytest.approx(a.max_estimate.value, rel=1e-9)

    def test_uv_counts_partition_probes(self, inst):
        rep = nl.run_trial(inst, xi=0.5, seed=13, probes=nl.ProbeSpec(samples=120, descent_steps=0))
        assert rep.uv.count_U + rep.uv.count_V == rep.samples_used
        mins = [v for v in (rep.uv.min_U, rep.uv.min_V) if v is not None]
        assert min(mins) == rep.probe_min

    def test_invalid_N(self, inst):
        with pytest.raises(ValueError):
            nl.run_trial(inst, xi=-0.999, seed=1)


def reference_subgradient(kernel, E, x):
    """The subgradient of x -> (1/N) sum_j ||sum_i eps_ij x_i v_i|| at one point."""
    V = kernel.columns
    U = (V * x[None, :]) @ E  # (m, N) column sums
    P = V.T @ norming_functionals(kernel.space, U)  # (n, N): <phi_j, v_i>
    return (E * P).mean(axis=1)


def reference_descent_min(inst, emp, x0, f0, steps):
    """One start's projected subgradient descent on the exact-norm sphere,
    one point per call: the loop that the shared engine replaced."""
    E = emp.signs.dense()
    x, fx = x0, f0
    step = DESCENT_STEP0
    for _ in range(steps):
        if step < DESCENT_STEP_MIN:
            break
        cand = x - step * reference_subgradient(inst.kernel, E, x)
        nrm = float(nl.exact_unconditional_norm_many(inst, cand[None, :])[0])
        if nrm <= 0.0:
            step *= 0.5
            continue
        cand = cand / nrm
        fc = float(nl.batch_empirical_norm(emp, cand[None, :])[0])
        if fc < fx:
            x, fx = cand, fc
        else:
            step *= 0.5
    return x, fx


def _reference_space(kind, m, rng):
    if kind == "poly":
        return nl.polytope_space(np.vstack([np.eye(m), rng.standard_normal((3, m))]))
    return nl.lp_space({"l1": 1, "l2": 2, "linf": "inf", "l3": 3}[kind], m)


class TestDescentReference:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["linf", "l1", "l2", "l3", "poly"]),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(0, 24),
        st.sampled_from([1, 5, 30, 200]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example("l1", 3, 4, 20, 200, False, 1)
    @example("l3", 2, 3, 10, 200, True, 2)
    @example("linf", 3, 5, 24, 30, True, 3)
    @example("poly", 2, 4, 16, 200, False, 4)
    @example("l2", 3, 4, 12, 5, True, 5)
    def test_min_estimate_equals_the_one_point_loop(self, kind, m, n, samples, steps, with_net, seed):
        rng = np.random.default_rng(seed)
        fam = nl.make_family(_reference_space(kind, m, rng), rng.standard_normal((n, m)))
        inst = nl.NormInstance(family=fam)
        signs = nl.sample_sign_matrix(n, int(rng.integers(1, 2 * n + 2)), seed)
        net = nl.build_net(inst, 1.0, seed=seed) if with_net or samples == 0 else None
        probes = nl.ProbeSpec(samples=samples, descent_steps=0, net=net)
        scan = nl.run_trial(inst, None, seed, probes, signs=signs).min_estimate
        got = nl.run_trial(inst, None, seed, nl.ProbeSpec(samples, steps, net), signs=signs).min_estimate
        emp = nl.EmpiricalNormInstance(family=inst.family, signs=signs)
        x, fx = reference_descent_min(inst, emp, scan.direction, scan.value, steps)
        want = (fx, x, "local-descent") if fx < scan.value else (scan.value, scan.direction, scan.method)
        assert np.float64(got.value).tobytes() == np.float64(want[0]).tobytes()
        assert got.direction.tobytes() == want[1].tobytes()
        assert got.method == want[2]


class TestTrialIndependence:
    def test_order_free_seeds(self, inst):
        p = nl.ProbeSpec(samples=60, descent_steps=5)
        reports = nl.run_trials(inst, 0.5, 4, master_seed=99, probes=p)
        # rerunning any single trial in isolation, with the sweep's probe
        # seed, reproduces it bit for bit
        seeds = nl.seeding.trial_seeds_for_xi(99, 0.5, 4)
        probe_seed = nl.seeding.sweep_probe_seed(99)
        lone = nl.run_trial(nl.NormInstance(inst.family), 0.5, seeds[2], probes=p, probe_seed=probe_seed)
        assert lone.min_estimate.value == reports[2].min_estimate.value
        assert np.array_equal(lone.min_estimate.direction, reports[2].min_estimate.direction)


class TestProbeBank:
    """The trials of a sweep share one set of sphere samples."""

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_a_sweep_normalises_its_samples_once(self, inst, monkeypatch, threads):
        sizes = []
        exact_many = nl.exact_unconditional_norm_many

        def counted(inst_, X):
            sizes.append(len(X))
            if len(X) > 1:
                time.sleep(0.05)  # so that the other trials ask while the samples are computed
            return exact_many(inst_, X)

        monkeypatch.setattr(nl.distortion, "exact_unconditional_norm_many", counted)
        p = nl.ProbeSpec(samples=60, descent_steps=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                reports = nl.run_trials(inst, 0.5, 4, master_seed=5, probes=p, pool=pool)
        finally:
            sys.setswitchinterval(interval)
        # one call on the samples; the descent renormalises one point at a time
        assert sizes.count(60) == 1 and set(sizes) <= {1, 60}
        assert len({r.trial_seed for r in reports}) == 4

    def test_kept_per_instance_and_key(self, inst):
        X = nl.sphere_sample(inst, 30, seed=6)
        assert nl.sphere_sample(inst, 30, seed=6) is X and not X.flags.writeable
        assert nl.sphere_sample(inst, 30, seed=7) is not X
        # a new instance draws its own array, with the same bits
        Y = nl.sphere_sample(nl.NormInstance(inst.family), 30, seed=6)
        assert Y is not X and np.array_equal(Y, X)


class TestXiSweep:
    def test_duplicate_xi_rows_identical(self, inst):
        p = nl.ProbeSpec(samples=40, descent_steps=5)
        prof = nl.xi_sweep(inst, [1.0, 1.0], 4, seed=5, probes=p)
        assert prof.rows[0] == prof.rows[1]

    def test_note_mentions_unspecified_constants(self, inst):
        p = nl.ProbeSpec(samples=20, descent_steps=0)
        prof = nl.xi_sweep(inst, [0.5], 2, seed=5, probes=p)
        assert "unspecified" in prof.note

    def test_slope_reported_for_small_xi(self, inst):
        p = nl.ProbeSpec(samples=60, descent_steps=5)
        prof = nl.xi_sweep(inst, [0.25, 0.5], 6, seed=6, probes=p)
        assert prof.small_xi_loglog_slope is not None

    def test_quartiles_ordered(self, inst):
        p = nl.ProbeSpec(samples=40, descent_steps=0)
        prof = nl.xi_sweep(inst, [0.5, 2.0], 5, seed=7, probes=p)
        for row in prof.rows:
            assert row.min_q1 <= row.min_median <= row.min_q3
            assert row.max_q1 <= row.max_median <= row.max_q3
