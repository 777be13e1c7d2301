import math

import numpy as np
import pytest

import normlab as nl
from normlab.seeding import derive_seed

from conftest import random_family


@pytest.fixture
def dim1_inst(dim1_double):
    return nl.NormInstance(dim1_double)


@pytest.fixture
def two_atom(dim1_inst):
    return nl.exact_distribution(dim1_inst, [1.0, 1.0])


class TestExactDistribution:
    def test_disjoint_supports_single_atom(self, rng):
        # sign flips never change coordinate magnitudes: one atom, zero variance
        fam = nl.make_family(nl.lp_space(2, 4), np.eye(4))
        x = rng.standard_normal(4)
        d = nl.exact_distribution(nl.NormInstance(fam), x)
        assert d.atom_count == 1
        assert d.variance == 0.0
        assert d.expectation == pytest.approx(np.linalg.norm(x), rel=1e-12)
        assert d.median == d.expectation

    def test_two_atom_example(self, two_atom):
        assert np.allclose(two_atom.values, [0.0, 2.0])
        assert np.allclose(two_atom.probs, [0.5, 0.5])
        assert two_atom.expectation == pytest.approx(1.0, abs=1e-15)
        assert two_atom.median == 0.0  # lower median
        assert two_atom.variance == pytest.approx(1.0, abs=1e-15)
        assert two_atom.sigma.value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(5):
            fam = random_family(nl.lp_space("inf", 3), 9, rng)
            d = nl.exact_distribution(nl.NormInstance(fam), rng.standard_normal(9))
            assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_variance_matches_two_pass(self, rng):
        fam = random_family(nl.lp_space("inf", 4), 8, rng)
        x = rng.standard_normal(8)
        d = nl.exact_distribution(nl.NormInstance(fam), x)
        again = math.fsum(p * (v - d.expectation) ** 2 for v, p in zip(d.values, d.probs))
        assert abs(d.variance - again) <= 1e-12


class TestTailCheck:
    def test_two_atom_tails(self, two_atom):
        fit = nl.tail_check(two_atom, [1.0, 1.5])
        assert fit.tails[0] == 1.0  # both atoms sit at distance 1 from the mean
        assert fit.tails[1] == 0.0
        assert fit.skipped  # single positive point: nothing to fit

    def test_single_atom_skipped(self, rng):
        fam = nl.make_family(nl.lp_space(2, 3), np.eye(3))
        d = nl.exact_distribution(nl.NormInstance(fam), rng.standard_normal(3))
        fit = nl.tail_check(d, [0.5, 1.0])
        assert fit.skipped
        assert (fit.tails == 0.0).all()

    def test_tails_non_increasing_and_decay_positive(self, rng):
        hits = 0
        for k in range(10):
            fam = random_family(nl.lp_space("inf", 4), 10, rng)
            d = nl.exact_distribution(nl.NormInstance(fam), rng.standard_normal(10))
            fit = nl.tail_check(d)
            assert (np.diff(fit.tails) <= 1e-15).all()
            if not fit.skipped:
                assert fit.decay > 0.0
                hits += 1
        assert hits >= 8  # generic instances admit a fit

    def test_zero_sigma_rejected(self):
        fam = nl.make_family(nl.lp_space(2, 2), np.eye(2))
        d = nl.exact_distribution(nl.NormInstance(fam), [1.0, 1.0])
        broken = nl.ExactDistribution(
            values=d.values,
            probs=d.probs,
            expectation=d.expectation,
            median=d.median,
            variance=d.variance,
            sigma=nl.SigmaResult(value=0.0, method="spectral"),
            n=d.n,
        )
        with pytest.raises(ValueError):
            nl.tail_check(broken)


class TestAmplification:
    def test_impossible_threshold_all_zero(self, dim1_inst):
        res = nl.amplification_check(dim1_inst, [1.0, 1.0], [2, 4], t=2.5, trials=50, seed=1)
        assert all(r.frequency == 0.0 for r in res.rows)
        assert res.slope == -math.inf

    def test_below_mean_precondition(self, dim1_inst):
        with pytest.raises(ValueError):
            nl.amplification_check(dim1_inst, [1.0, 1.0], [2], t=0.0, trials=10, seed=1)

    def test_two_atom_matches_exact_quarter(self, dim1_inst):
        # P(mean of two draws from {0, 2} >= 1.5) = P(both are 2) = 1/4
        trials = 3000
        res = nl.amplification_check(dim1_inst, [1.0, 1.0], [2], t=1.5, trials=trials, seed=2)
        p = res.rows[0].frequency
        stderr = math.sqrt(0.25 * 0.75 / trials)
        assert abs(p - 0.25) <= 3 * stderr

    def test_slope_negative_with_growing_N(self, dim1_inst):
        res = nl.amplification_check(
            dim1_inst, [1.0, 1.0], [2, 4, 8, 16], t=1.5, trials=1200, seed=3
        )
        assert res.slope < 0.0

    def test_determinism(self, dim1_inst):
        a = nl.amplification_check(dim1_inst, [1.0, 1.0], [2, 4], t=1.5, trials=200, seed=9)
        b = nl.amplification_check(dim1_inst, [1.0, 1.0], [2, 4], t=1.5, trials=200, seed=9)
        assert a.rows == b.rows

    def test_each_trial_is_the_empirical_norm(self, rng):
        # the instance's kernel decides each trial as empirical_norm does on
        # that trial's sign matrix
        fam = random_family(nl.lp_space(3, 3), 5, rng)
        x = rng.standard_normal(5)
        t = 1.05 * nl.exact_unconditional_norm(nl.NormInstance(fam), x)
        res = nl.amplification_check(nl.NormInstance(fam), x, [3, 6], t, trials=40, seed=5)
        for row in res.rows:
            signs = [nl.sample_sign_matrix(5, row.N, derive_seed(derive_seed(5, row.N), k)) for k in range(40)]
            hits = sum(nl.empirical_norm(nl.EmpiricalNormInstance(fam, s), x) >= t for s in signs)
            assert row.frequency == hits / 40


class TestMedianVsMean:
    def test_single_atom_gap_zero(self, rng):
        fam = nl.make_family(nl.lp_space(2, 3), np.eye(3))
        d = nl.exact_distribution(nl.NormInstance(fam), rng.standard_normal(3))
        g = nl.median_vs_mean(d)
        assert g.gap == 0.0
        assert g.ratio == 0.0

    def test_two_atom_equality_case(self, two_atom):
        g = nl.median_vs_mean(two_atom)
        assert g.gap == pytest.approx(1.0, abs=1e-15)
        assert g.stddev == pytest.approx(1.0, abs=1e-15)
        assert g.ratio == pytest.approx(1.0, abs=1e-12)

    def test_gap_below_stddev_random(self, rng):
        for _ in range(20):
            fam = random_family(nl.lp_space("inf", 3), 9, rng)
            d = nl.exact_distribution(nl.NormInstance(fam), rng.standard_normal(9))
            g = nl.median_vs_mean(d)
            assert g.gap <= g.stddev + 1e-12
