import math

import numpy as np
import pytest

import normlab as nl
from normlab.scalar import _descend, _rho_batch

SQRT2 = math.sqrt(2.0)


def _probe_stack(n, N, count, seed):
    E = nl.sample_sign_matrix(n, N, seed=seed).dense()
    Y = np.random.default_rng(seed).standard_normal((count, n))
    Y /= np.linalg.norm(Y, axis=1)[:, None]
    return E, Y, _rho_batch(E, Y)


def _steps_to_final(E, y, f, sign, budget):
    """The fewest steps after which a lone start holds its final value."""
    final = _descend(E, y, f, budget, sign)[1]
    lo, hi = 0, budget  # accepted steps move f strictly, so this is monotone
    while lo < hi:
        mid = (lo + hi) // 2
        if _descend(E, y, f, mid, sign)[1] == final:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestScalarEmpiricalNorm:
    def test_unit_vector_gives_one(self, rng):
        A = nl.sample_sign_matrix(5, 9, seed=1)
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert nl.scalar_empirical_norm(A, e1) == pytest.approx(1.0, abs=1e-15)

    def test_full_enumeration_matches_khinchin(self, rng):
        A = nl.enumeration_matrix(6)
        for _ in range(10):
            y = rng.standard_normal(6)
            kb = nl.khinchin_bounds(y)
            assert nl.scalar_empirical_norm(A, y) == pytest.approx(kb.exact, rel=1e-12)

    def test_zero(self):
        A = nl.sample_sign_matrix(4, 7, seed=2)
        assert nl.scalar_empirical_norm(A, np.zeros(4)) == 0.0

    def test_exact_consistency_with_dim1_empirical(self, rng):
        # the scalar map IS the general empirical norm over a 1-d space
        A = nl.sample_sign_matrix(6, 11, seed=3)
        fam = nl.make_family(nl.lp_space(2, 1), [[1.0]] * 6)
        emp = nl.EmpiricalNormInstance(family=fam, signs=A)
        for _ in range(20):
            y = rng.standard_normal(6)
            assert nl.scalar_empirical_norm(A, y) == nl.empirical_norm(emp, y)

    def test_dimension_mismatch(self):
        A = nl.sample_sign_matrix(4, 7, seed=2)
        with pytest.raises(ValueError):
            nl.scalar_empirical_norm(A, np.zeros(5))


class TestScalarMinMax:
    def test_n1_everything_is_one(self):
        A = nl.sample_sign_matrix(1, 6, seed=4)
        rep = nl.scalar_min_max(A, probes=16, seed=5)
        assert rep.kappa_min == pytest.approx(1.0, abs=1e-9)
        assert rep.kappa_max == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_two_by_two(self):
        # rho(y) = (|y1+y2| + |y1-y2|)/2 = max(|y1|, |y2|) on the circle
        A = nl.SignMatrix.from_dense(np.array([[1, 1], [1, -1]], dtype=np.int8))
        rep = nl.scalar_min_max(A, probes=64, seed=6)
        assert rep.exact_pass
        assert rep.kappa_min == pytest.approx(1 / SQRT2, abs=1e-6)
        assert rep.kappa_max == pytest.approx(1.0, abs=1e-6)
        assert rep.kappa_max_certificate == pytest.approx(1.0, abs=1e-9)

    def test_certificate_dominates(self, rng):
        for t in range(20):
            n = int(rng.integers(2, 8))
            N = int(rng.integers(2, 12))
            A = nl.sample_sign_matrix(n, N, seed=100 + t)
            rep = nl.scalar_min_max(A, probes=64, seed=t)
            assert rep.kappa_max <= rep.kappa_max_certificate + 1e-9
            assert rep.kappa_max <= math.sqrt(n) + 1e-9
            assert 0.0 <= rep.kappa_min <= rep.kappa_max

    def test_rank_link_at_n2(self):
        # exact pass: kappa_min > 0 iff the matrix has full rank
        full = nl.SignMatrix.from_dense(np.array([[1, 1], [1, -1]], dtype=np.int8))
        assert nl.scalar_min_max(full, probes=32, seed=1).kappa_min > 0.0
        deficient = nl.SignMatrix.from_dense(np.array([[1, -1], [1, -1]], dtype=np.int8))
        rep = nl.scalar_min_max(deficient, probes=32, seed=1)
        assert np.linalg.matrix_rank(deficient.dense()) == 1
        assert rep.kappa_min == pytest.approx(0.0, abs=1e-12)

    def test_rho_is_a_norm_when_full_rank(self, rng):
        A = nl.sample_sign_matrix(4, 9, seed=11)
        assert np.linalg.matrix_rank(A.dense()) == 4
        for _ in range(20):
            y, z = rng.standard_normal((2, 4))
            t = float(rng.uniform(-2, 2))
            ry, rz = nl.scalar_empirical_norm(A, y), nl.scalar_empirical_norm(A, z)
            assert ry > 0.0
            assert abs(nl.scalar_empirical_norm(A, t * y) - abs(t) * ry) <= 1e-9 * max(
                1.0, abs(t) * ry
            )
            assert nl.scalar_empirical_norm(A, y + z) <= ry + rz + 1e-9 * (ry + rz)

    def test_khinchin_bridge_full_enumeration(self):
        # full enumeration: rho is the exact Rademacher average, so the
        # sandwich pins kappa to [1/sqrt2, 1]
        A = nl.enumeration_matrix(4)
        rep = nl.scalar_min_max(A, probes=256, seed=7, descent_steps=60)
        assert 1 / SQRT2 - 1e-9 <= rep.kappa_min
        assert rep.kappa_max <= 1.0 + 1e-9

    def test_probe_descent_close_to_exact_at_n2(self, rng):
        for t in range(20):
            N = int(rng.integers(2, 9))
            A = nl.sample_sign_matrix(2, N, seed=200 + t)
            rep = nl.scalar_min_max(A, probes=128, seed=t, descent_steps=50)
            # the reported values come from the exact pass; rerun without it
            # by probing only, then compare
            E = A.dense()
            probes = np.random.default_rng(t).standard_normal((4096, 2))
            probes /= np.linalg.norm(probes, axis=1)[:, None]
            brute = np.abs(probes @ E).mean(axis=1)
            assert rep.kappa_min <= brute.min() + 1e-9
            assert rep.kappa_max >= brute.max() - 1e-9


class TestLockstepDescent:
    @pytest.mark.parametrize("n, N", [(1, 6), (2, 5), (6, 9), (20, 25)])
    def test_each_row_matches_a_lone_start(self, n, N):
        E, Y, vals = _probe_stack(n, N, 12, seed=300 + n)
        sign = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        Ys, Fs = _descend(E, Y, vals, 60, sign)
        assert Ys.shape == (12, n) and Fs.shape == (12,)
        for i in range(12):
            y, f = _descend(E, Y[i], float(vals[i]), 60, float(sign[i]))
            assert isinstance(f, float)
            assert abs(Fs[i] - f) <= 1e-12
            np.testing.assert_allclose(Ys[i], y, rtol=0.0, atol=1e-12)

    def test_rows_that_stop_at_different_steps_keep_their_lone_result(self):
        E, Y, vals = _probe_stack(3, 5, 6, seed=17)
        budget = 400
        finish = [_steps_to_final(E, Y[i], float(vals[i]), 1.0, budget) for i in range(6)]
        assert len(set(finish)) > 1 and max(finish) < budget
        Ys, Fs = _descend(E, Y, vals, budget, 1.0)
        for i in range(6):
            y, f = _descend(E, Y[i], float(vals[i]), budget, 1.0)
            assert Fs[i] == pytest.approx(f, abs=1e-12)
            np.testing.assert_allclose(Ys[i], y, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_and_unit_norm(self, sign):
        for seed in range(5):
            E, Y, vals = _probe_stack(8, 11, 20, seed=seed)
            Ys, Fs = _descend(E, Y, vals, 40, sign)
            assert (sign * (Fs - vals) <= 0.0).all()
            np.testing.assert_allclose(np.linalg.norm(Ys, axis=1), 1.0, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(Fs, _rho_batch(E, Ys), rtol=0.0, atol=1e-12)

    def test_inputs_are_not_modified(self):
        E, Y, vals = _probe_stack(5, 7, 4, seed=3)
        Y0, vals0 = Y.copy(), vals.copy()
        _descend(E, Y, vals, 30, 1.0)
        _descend(E, Y[0], float(vals[0]), 30, -1.0)
        assert np.array_equal(Y, Y0) and np.array_equal(vals, vals0)

    def test_zero_steps_and_empty_stack(self):
        E, Y, vals = _probe_stack(4, 6, 3, seed=5)
        Ys, Fs = _descend(E, Y, vals, 0, 1.0)
        assert np.array_equal(Ys, Y) and np.array_equal(Fs, vals)
        Ys, Fs = _descend(E, Y[:0], vals[:0], 10, np.zeros(0))
        assert Ys.shape == (0, 4) and Fs.shape == (0,)

    def test_min_max_match_the_per_start_selection(self):
        # the lockstep trial equals the old rule: descend the `restarts`
        # lowest probes and ascend the highest one by one, first strict
        # improvement wins, labels unchanged
        for t in range(6):
            A = nl.sample_sign_matrix(7, 10, seed=400 + t)
            rep = nl.scalar_min_max(A, probes=64, seed=t, descent_steps=30, restarts=4)
            E = A.dense()
            rng = np.random.default_rng(np.uint64(nl.derive_seed(t, 0)))
            Y = rng.standard_normal((64, 7))
            Y /= np.linalg.norm(Y, axis=1)[:, None]
            vals = _rho_batch(E, Y)
            order = np.argsort(vals)
            best_min, min_method = float(vals[order[0]]), "sample-scan"
            best_max, max_method = float(vals[order[-1]]), "sample-scan"
            for r in range(4):
                _, fd = _descend(E, Y[order[r]], float(vals[order[r]]), 30, 1.0)
                if fd < best_min:
                    best_min, min_method = fd, "local-descent"
                _, fa = _descend(E, Y[order[-(r + 1)]], float(vals[order[-(r + 1)]]), 30, -1.0)
                if fa > best_max:
                    best_max, max_method = fa, "local-ascent"
            assert rep.kappa_min == pytest.approx(best_min, abs=1e-12)
            assert rep.kappa_max == pytest.approx(best_max, abs=1e-12)
            assert (rep.min_method, rep.max_method) == (min_method, max_method)
            assert rep.kappa_min == pytest.approx(nl.scalar_empirical_norm(A, rep.argmin), abs=1e-12)
            assert rep.kappa_max == pytest.approx(nl.scalar_empirical_norm(A, rep.argmax), abs=1e-12)

    @pytest.mark.parametrize(
        "probes, restarts, steps", [(32, 0, 20), (32, 3, 0), (4, 10, 20), (0, 2, 20)]
    )
    def test_edge_budgets(self, probes, restarts, steps):
        A = nl.sample_sign_matrix(5, 8, seed=9)
        rep = nl.scalar_min_max(A, probes=probes, seed=2, descent_steps=steps, restarts=restarts)
        if restarts == 0 or steps == 0:
            assert (rep.min_method, rep.max_method) == ("sample-scan", "sample-scan")
        assert 0.0 < rep.kappa_min <= rep.kappa_max <= rep.kappa_max_certificate + 1e-12
        assert np.linalg.norm(rep.argmin) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rep.argmax) == pytest.approx(1.0, abs=1e-12)

    def test_n1_descent_stays_put(self):
        A = nl.sample_sign_matrix(1, 6, seed=4)
        rep = nl.scalar_min_max(A, probes=8, seed=1, descent_steps=30, restarts=8)
        assert (rep.min_method, rep.max_method) == ("sample-scan", "sample-scan")
        assert abs(rep.argmin[0]) == 1.0 and abs(rep.argmax[0]) == 1.0


class TestScalarSweep:
    def test_determinism(self):
        a = nl.scalar_xi_sweep(6, [0.5, 1.0], 5, seed=42, probes=32, descent_steps=10)
        b = nl.scalar_xi_sweep(6, [0.5, 1.0], 5, seed=42, probes=32, descent_steps=10)
        assert a.rows == b.rows

    def test_extrapolation_flag(self):
        res = nl.scalar_xi_sweep(5, [0.5, 2.0], 3, seed=1, probes=16, descent_steps=5)
        assert not res.rows[0].outside_stated_range
        assert res.rows[1].outside_stated_range

    def test_tau_frequency(self):
        res = nl.scalar_xi_sweep(5, [1.0], 8, seed=2, probes=16, descent_steps=5, tau=10.0)
        assert res.rows[0].freq_below_tau == 1.0

    def test_quartiles_ordered_and_slope_reported(self):
        res = nl.scalar_xi_sweep(8, [0.25, 0.5, 1.0], 8, seed=3, probes=32, descent_steps=10)
        for row in res.rows:
            assert row.kmin_q1 <= row.kmin_median <= row.kmin_q3
        assert res.small_xi_loglog_slope is not None

    def test_pool_gives_the_same_trials(self):
        from concurrent.futures import ThreadPoolExecutor

        kw = dict(probes=32, descent_steps=10, restarts=3)
        a = nl.scalar_xi_sweep(6, [0.5, 1.0], 5, seed=42, **kw)
        with ThreadPoolExecutor(max_workers=3) as pool:
            b = nl.scalar_xi_sweep(6, [0.5, 1.0], 5, seed=42, pool=pool, **kw)
        assert a.rows == b.rows
        for xi in (0.5, 1.0):
            for ra, rb in zip(a.reports_by_xi[xi], b.reports_by_xi[xi]):
                assert (ra.kappa_min, ra.kappa_max, ra.seed) == (rb.kappa_min, rb.kappa_max, rb.seed)

    def test_trial_seeds_are_the_shared_derivation(self):
        res = nl.scalar_xi_sweep(5, [0.5], 3, seed=8, probes=16, descent_steps=5)
        seeds = nl.seeding.trial_seeds_for_xi(8, 0.5, 3)
        assert [r.seed for r in res.reports_by_xi[0.5]] == [nl.derive_seed(s, 1) for s in seeds]
