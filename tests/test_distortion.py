import math

import numpy as np
import pytest

import normlab as nl

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
        assert nl.sigma(inst.family, x).value >= 0.0

    def test_above_ceiling_all_V(self, inst):
        # sigma <= sqrt(2) |||x||| = sqrt(2) on the unit sphere
        for x in nl.sphere_sample(inst, 20, seed=5):
            assert nl.sigma(inst.family, x).value < SQRT2 + 0.01

    def test_dim1_boundary_goes_to_U(self):
        fam = nl.make_family(nl.lp_space("inf", 1), [[1.0]] * 3)
        e1 = np.array([1.0, 0.0, 0.0])
        sr = nl.sigma(fam, e1)
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


class TestTrialIndependence:
    def test_order_free_seeds(self, inst):
        p = nl.ProbeSpec(samples=60, descent_steps=5)
        reports = nl.run_trials(inst, 0.5, 4, master_seed=99, probes=p)
        # rerunning any single trial in isolation reproduces it bit for bit
        seeds = nl.distortion.trial_seeds_for_xi(99, 0.5, 4)
        lone = nl.run_trial(inst, 0.5, seeds[2], probes=p)
        assert lone.min_estimate.value == reports[2].min_estimate.value
        assert np.array_equal(lone.min_estimate.direction, reports[2].min_estimate.direction)


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
