import math

import numpy as np
import pytest

import normlab as nl
from normlab.errors import CapacityError, NonFiniteInputError

from conftest import random_family, space_menu

SQRT2 = math.sqrt(2.0)


class TestSigma:
    def test_l2_diagonal_family(self, rng):
        # v_i = e_i: the weighted matrix is diagonal, so sigma = max |x_i|
        fam = nl.make_family(nl.lp_space(2, 4), np.eye(4))
        for _ in range(5):
            x = rng.standard_normal(4)
            r = nl.sigma(fam, x)
            assert r.method == "spectral"
            assert r.value == pytest.approx(np.abs(x).max(), rel=1e-10)

    def test_sup_norm_dim1_is_euclidean_length(self, rng):
        fam = nl.make_family(nl.lp_space("inf", 1), [[1.0]] * 5)
        x = rng.standard_normal(5)
        r = nl.sigma(fam, x)
        assert r.value == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_l1_unit_vectors(self):
        fam = nl.make_family(nl.lp_space(1, 2), [[1.0, 0.0], [0.0, 1.0]])
        r = nl.sigma(fam, [1.0, 1.0])
        assert r.method == "vertex-enumeration"
        assert r.value == pytest.approx(SQRT2, rel=1e-12)

    def test_l1_vertex_cap_refuses(self, rng):
        fam = random_family(nl.lp_space(1, 4), 3, rng)
        with pytest.raises(CapacityError):
            nl.sigma(fam, np.ones(3), vertex_cap=3)

    def test_l1_beyond_cap_lower_bound(self, rng):
        fam = random_family(nl.lp_space(1, 4), 3, rng)
        x = rng.standard_normal(3)
        lb = nl.sigma(fam, x, vertex_cap=3, lower_bound_beyond_cap=True)
        exact = nl.sigma(fam, x, lower_bound_beyond_cap=True)
        assert lb.lower_bound_only and not exact.lower_bound_only
        assert exact.method == "vertex-enumeration"
        assert 0.0 < lb.value <= exact.value * (1.0 + 1e-12)

    def test_smooth_lp_flagged_lower_bound(self, rng):
        fam = random_family(nl.lp_space(3, 3), 4, rng)
        r = nl.sigma(fam, rng.standard_normal(4))
        assert r.lower_bound_only
        assert r.value > 0.0

    @pytest.mark.parametrize("space_idx", range(4))
    def test_certificate_consistency(self, space_idx, rng):
        space = space_menu()[space_idx]
        fam = random_family(space, 6, rng)
        x = rng.standard_normal(6)
        r = nl.sigma(fam, x)
        phi = r.certificate
        assert phi is not None
        # dual-ball membership: the dual norm of phi is the support value
        dual_norm = max(
            abs(float(phi @ u)) / nl.norm_eval(space, u)
            for u in rng.standard_normal((200, space.dim))
        )
        assert dual_norm <= 1.0 + 1e-9
        W = fam.columns * x[None, :]
        assert float(np.square(phi @ W).sum()) == pytest.approx(r.value**2, rel=1e-9)

    @pytest.mark.parametrize("space_idx", [0, 1, 2, 3])
    def test_sigma_is_a_norm(self, space_idx, rng):
        space = space_menu()[space_idx]
        fam = random_family(space, 5, rng)
        for _ in range(10):
            x, y = rng.standard_normal((2, 5))
            t = float(rng.uniform(-2, 2))
            sx = nl.sigma(fam, x).value
            sy = nl.sigma(fam, y).value
            assert abs(nl.sigma(fam, t * x).value - abs(t) * sx) <= 1e-9 * max(
                1.0, abs(t) * sx
            )
            assert nl.sigma(fam, x + y).value <= sx + sy + 1e-9 * (sx + sy)

    def test_polytope_exact_scan(self, rng):
        space = nl.polytope_space(np.vstack([np.eye(2), [[1.0, 1.0]]]))
        fam = random_family(space, 4, rng)
        x = rng.standard_normal(4)
        r = nl.sigma(fam, x)
        # brute force over the closure of stored functionals
        W = fam.columns * x[None, :]
        closure = np.vstack([space.functionals, -space.functionals])
        best = max(float(np.square(phi @ W).sum()) for phi in closure)
        assert r.value == pytest.approx(math.sqrt(best), rel=1e-12)


class TestKhinchin:
    def test_ones_pair_is_extremal(self):
        kb = nl.khinchin_bounds([1.0, 1.0])
        assert kb.exact == pytest.approx(1.0, abs=1e-15)
        assert kb.lower == pytest.approx(1.0, abs=1e-12)
        # the ratio exact / |y|_2 hits the optimal constant exactly
        assert kb.exact / kb.upper == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_single_coordinate(self):
        kb = nl.khinchin_bounds([1.0, 0.0, 0.0])
        assert kb.exact == pytest.approx(1.0, abs=1e-15)
        assert kb.upper == pytest.approx(1.0, abs=1e-15)

    def test_three_four(self):
        # patterns: |7|, |-1|, |1|, |-7| -> average 4
        kb = nl.khinchin_bounds([3.0, 4.0])
        assert kb.exact == pytest.approx(4.0, abs=1e-12)
        assert kb.lower - 1e-9 <= kb.exact <= kb.upper + 1e-9

    def test_sandwich_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 13))
            y = rng.standard_normal(n)
            kb = nl.khinchin_bounds(y)
            assert kb.lower - 1e-9 <= kb.exact <= kb.upper + 1e-9

    def test_cap(self):
        with pytest.raises(CapacityError):
            nl.khinchin_bounds(np.ones(23))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_rejected(self, bad):
        # the exact kernel refuses non-finite points
        with pytest.raises(NonFiniteInputError):
            nl.khinchin_bounds([1.0, bad, 2.0])


class TestVarianceNormRatio:
    def test_dim1_family_band(self, rng):
        fam = nl.make_family(nl.lp_space("inf", 1), [[1.0]] * 6)
        inst = nl.NormInstance(family=fam)
        for _ in range(10):
            x = rng.standard_normal(6)
            r = nl.variance_norm_ratio(inst, x)
            assert 1.0 - 1e-9 <= r.ratio <= SQRT2 + 1e-9

    def test_ones_pair_ratio_is_sqrt2(self):
        fam = nl.make_family(nl.lp_space("inf", 1), [[1.0], [1.0]])
        inst = nl.NormInstance(family=fam)
        r = nl.variance_norm_ratio(inst, [1.0, 1.0])
        assert r.ratio == pytest.approx(SQRT2, abs=1e-12)

    def test_unit_vector_l2_ratio_one(self, rng):
        fam = random_family(nl.lp_space(2, 3), 5, rng)
        inst = nl.NormInstance(family=fam)
        e = np.zeros(5)
        e[2] = 1.0
        r = nl.variance_norm_ratio(inst, e)
        assert r.ratio == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("space_idx", range(4))
    def test_bound_holds_on_random_instances(self, space_idx, rng):
        space = space_menu()[space_idx]
        for _ in range(10):
            fam = random_family(space, 6, rng)
            inst = nl.NormInstance(family=fam)
            r = nl.variance_norm_ratio(inst, rng.standard_normal(6))
            assert r.ratio <= SQRT2 + 1e-9


class TestLargestSingularValue:
    def test_matches_lapack_small(self, rng):
        W = rng.standard_normal((5, 9))
        s, u = nl.largest_singular_value(W)
        assert s == pytest.approx(np.linalg.svd(W, compute_uv=False)[0], rel=1e-12)
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)

    def test_power_iteration_large(self, rng):
        W = rng.standard_normal((150, 200))
        s, u = nl.largest_singular_value(W)
        assert s == pytest.approx(np.linalg.svd(W, compute_uv=False)[0], rel=1e-8)
        # certificate identity: ||W^T u|| = s
        assert np.linalg.norm(W.T @ u) == pytest.approx(s, rel=1e-8)
