"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with stated
runtime budgets assert them.  All seeds are fixed; statistical checks are
trend assertions over independent trials at those seeds.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

import normlab as nl
from normlab.distortion import ProbeSpec, run_trials
from normlab.errors import CoveringViolationError
from normlab.harness import run_experiment, validate_config

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(k: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {k}: FAIL ({time.perf_counter() - t0:.1f}s) - {desc}")
        raise
    print(f"\nACCEPTANCE {k}: PASS ({time.perf_counter() - t0:.1f}s) - {desc}")


def _random_space(rng, kinds=("l1", "l2", "linf"), max_m=8):
    m = int(rng.integers(1, max_m + 1))
    kind = kinds[int(rng.integers(0, len(kinds)))]
    return {"l1": nl.lp_space(1, m), "l2": nl.lp_space(2, m), "linf": nl.lp_space("inf", m)}[kind]


def _random_instance(rng, max_n=10, max_m=8, kinds=("l1", "l2", "linf")):
    space = _random_space(rng, kinds, max_m)
    n = int(rng.integers(1, max_n + 1))
    fam = nl.make_family(space, rng.standard_normal((n, space.dim)))
    return nl.NormInstance(family=fam)


def test_criterion_1_oracle_identity():
    with criterion(1, "empirical norm under full enumeration equals the exact norm"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(50):
            inst = _random_instance(rng)
            emp = nl.EmpiricalNormInstance(
                family=inst.family, signs=nl.enumeration_matrix(inst.n)
            )
            x = rng.standard_normal(inst.n)
            exact = nl.exact_unconditional_norm(inst, x)
            emp_val = nl.empirical_norm(emp, x)
            assert abs(emp_val - exact) <= 1e-9 * max(exact, 1e-300)
        assert time.perf_counter() - start < 60.0


def test_criterion_2_unconditionality_and_norm_axioms():
    with criterion(2, "exact norm is unconditional and satisfies the norm axioms"):
        rng = np.random.default_rng(202)
        fam = nl.make_family(nl.lp_space("inf", 4), rng.standard_normal((10, 4)))
        inst = nl.NormInstance(family=fam)
        pairs = rng.standard_normal((1000, 2, 10))
        ts = rng.uniform(-3.0, 3.0, size=1000)
        X, Y = pairs[:, 0, :], pairs[:, 1, :]
        nx = nl.exact_unconditional_norm_many(inst, X)
        ny = nl.exact_unconditional_norm_many(inst, Y)
        nabs = nl.exact_unconditional_norm_many(inst, np.abs(X))
        nsum = nl.exact_unconditional_norm_many(inst, X + Y)
        nscl = nl.exact_unconditional_norm_many(inst, ts[:, None] * X)
        assert (np.abs(nx - nabs) <= 1e-9 * nx).all()
        assert (nsum <= nx + ny + 1e-9 * (nx + ny)).all()
        assert (np.abs(nscl - np.abs(ts) * nx) <= 1e-9 * np.maximum(np.abs(ts) * nx, 1.0)).all()


def test_criterion_3_khinchin_sandwich():
    with criterion(3, "exact Rademacher averages sit in the optimal-constant sandwich"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            y = rng.standard_normal(n)
            kb = nl.khinchin_bounds(y)
            assert kb.lower - 1e-9 <= kb.exact <= kb.upper + 1e-9
        kb = nl.khinchin_bounds([1.0, 1.0])
        assert abs(kb.exact / kb.upper - 1.0 / SQRT2) <= 1e-12


def test_criterion_4_weak_variance_bound():
    with criterion(4, "weak variance obeys sigma <= sqrt(2) |||x||| with exact methods"):
        rng = np.random.default_rng(404)
        methods = set()
        for k in range(200):
            kind = ("l2", "linf", "l1")[k % 3]
            m = int(rng.integers(1, 13 if kind == "l1" else 9))
            space = {"l1": nl.lp_space(1, m), "l2": nl.lp_space(2, m), "linf": nl.lp_space("inf", m)}[kind]
            n = int(rng.integers(1, 11))
            fam = nl.make_family(space, rng.standard_normal((n, m)))
            inst = nl.NormInstance(family=fam)
            r = nl.variance_norm_ratio(inst, rng.standard_normal(n))
            assert not r.lower_bound_only
            assert r.ratio <= SQRT2 + 1e-9
            methods.add(r.sigma.method)
        assert methods == {"spectral", "extreme-point-scan", "vertex-enumeration"}
        # sigma is itself a norm: homogeneity and triangle inequality
        for kind in ("l2", "linf", "l1"):
            space = {"l1": nl.lp_space(1, 3), "l2": nl.lp_space(2, 3), "linf": nl.lp_space("inf", 3)}[kind]
            inst = nl.NormInstance(nl.make_family(space, rng.standard_normal((6, 3))))
            for _ in range(30):
                x, y = rng.standard_normal((2, 6))
                t = float(rng.uniform(-2.0, 2.0))
                sx, sy = nl.sigma(inst, x).value, nl.sigma(inst, y).value
                assert abs(nl.sigma(inst, t * x).value - abs(t) * sx) <= 1e-9 * max(1.0, abs(t) * sx)
                assert nl.sigma(inst, x + y).value <= sx + sy + 1e-9 * max(1.0, sx + sy)


def test_criterion_5_nets():
    with criterion(5, "nets: separation, packing bound, decomposition, small-n covering"):
        rng = np.random.default_rng(505)
        for n in range(1, 6):
            fam = nl.make_family(nl.lp_space("inf", 4), rng.standard_normal((n, 4)))
            inst = nl.NormInstance(family=fam)
            for theta in (0.5, 0.25):
                # saturated nets where covering matters; light elsewhere
                budget = None if theta == 0.5 or n <= 3 else 60
                net = nl.build_net(inst, theta, budget=budget, seed=1700 + n)
                assert net.size <= (3.0 / theta) ** n
                # exact pairwise separation
                for i in range(net.size - 1):
                    d = nl.exact_unconditional_norm_many(
                        inst, net.points[i][None, :] - net.points[i + 1 :]
                    )
                    assert (d > theta).all()
                if n <= 3:
                    assert net.covering_status == "certified-small-n"
                if theta == 0.5:
                    X = nl.sphere_sample(inst, 100, seed=1800 + n)
                    violations = 0
                    for x in X:
                        try:
                            dec = nl.net_decompose(inst, net, x, K=10)
                        except CoveringViolationError:
                            violations += 1
                            continue
                        assert dec.residual_norm <= 2.0**-10 + 1e-9
                        for k, a in enumerate(dec.coefficients, start=1):
                            assert abs(a) <= 2.0 ** (1 - k) + 1e-9
                    assert violations <= 20  # saturated nets cover essentially everywhere


def _trend_reports(n: int, trials: int, master: int) -> list:
    rng = np.random.default_rng(6000 + n)
    fam = nl.make_family(nl.lp_space("inf", 4), rng.standard_normal((n, 4)))
    inst = nl.NormInstance(family=fam)
    probes = ProbeSpec(samples=2000, descent_steps=50)
    with ThreadPoolExecutor(max_workers=2) as pool:
        return run_trials(inst, 0.5, trials, master_seed=master, probes=probes, pool=pool)


def test_criterion_6_main_theorem_trend():
    with criterion(6, "distortion trend: positive minima and improving failure rate in n"):
        start = time.perf_counter()
        stats = {}
        for n in (8, 12, 16):
            reports = _trend_reports(n, 200, master=611)
            mins = np.array([r.min_estimate.value for r in reports])
            maxs = np.array([r.max_estimate.value for r in reports])
            assert (mins > 0).mean() >= 0.95
            stats[n] = (mins, maxs)
        c_target = float(np.percentile(stats[8][0], 5.0))
        C_target = float(np.percentile(stats[8][1], 95.0))
        freq8 = float(np.mean((stats[8][0] < c_target) | (stats[8][1] > C_target)))
        freq16 = float(np.mean((stats[16][0] < c_target) | (stats[16][1] > C_target)))
        print(
            f"\n  targets ({c_target:.4f}, {C_target:.4f}): "
            f"freq@8 = {freq8:.3f}, freq@16 = {freq16:.3f}"
        )
        assert freq16 <= freq8
        assert time.perf_counter() - start < 600.0


def test_criterion_7_xi_sweep_shape():
    with criterion(7, "xi sweep: medians move monotonically within one IQR"):
        rng = np.random.default_rng(6012)
        fam = nl.make_family(nl.lp_space("inf", 4), rng.standard_normal((12, 4)))
        inst = nl.NormInstance(family=fam)
        with ThreadPoolExecutor(max_workers=2) as pool:
            profile = nl.xi_sweep(
                inst,
                [0.1, 0.25, 0.5, 1.0, 4.0, 16.0],
                200,
                seed=712,
                probes=ProbeSpec(samples=300, descent_steps=10),
                pool=pool,
            )
        rows = profile.rows
        for prev, cur in zip(rows, rows[1:]):
            assert cur.min_median >= prev.min_median - (prev.min_q3 - prev.min_q1)
            assert cur.max_median <= prev.max_median + (prev.max_q3 - prev.max_q1)
        print(f"\n  small-xi log-log slope of median min: {profile.small_xi_loglog_slope:.3f}"
              " (reported against the conjectured quadratic shape)")


def test_criterion_8_scalar_exactness_bridge():
    with criterion(8, "scalar n=2: exact angular pass, closed form, certificate"):
        rng = np.random.default_rng(808)
        for t in range(100):
            N = int(rng.integers(2, 11))
            A = nl.sample_sign_matrix(2, N, seed=8000 + t)
            rep = nl.scalar_min_max(A, probes=256, seed=t, descent_steps=50)
            assert rep.exact_pass
            assert rep.kappa_max <= rep.kappa_max_certificate + 1e-9
            # probe/descent alone must land within 1e-3 of the exact pass
            E = A.dense()
            rng_p = np.random.default_rng(nl.derive_seed(8000 + t, 9))
            Y = rng_p.standard_normal((256, 2))
            Y /= np.linalg.norm(Y, axis=1)[:, None]
            vals = np.abs(Y @ E).mean(axis=1)
            from normlab.scalar import _descend

            order = np.argsort(vals)
            best = float(vals[order[0]])
            for r in range(3):
                _, fd = _descend(E, Y[order[r]], float(vals[order[r]]), 50, +1.0)
                best = min(best, fd)
            assert abs(best - rep.kappa_min) <= 1e-3
        A = nl.SignMatrix.from_dense(np.array([[1, 1], [1, -1]], dtype=np.int8))
        rep = nl.scalar_min_max(A, probes=128, seed=5)
        assert abs(rep.kappa_min - 1.0 / SQRT2) <= 1e-6
        assert abs(rep.kappa_max - 1.0) <= 1e-6


def test_criterion_9_scalar_sweep():
    with criterion(9, "scalar sweep at n=20: positive minima and monotone medians"):
        start = time.perf_counter()
        result = nl.scalar_xi_sweep(
            20,
            [0.1, 0.25, 0.5, 1.0],
            500,
            seed=909,
            probes=64,
            descent_steps=25,
            restarts=2,
        )
        at_one = result.reports_by_xi[1.0]
        assert all(r.kappa_min > 0.0 for r in at_one)
        rows = result.rows
        for prev, cur in zip(rows, rows[1:]):
            assert cur.kmin_median >= prev.kmin_median - (prev.kmin_q3 - prev.kmin_q1)
        print(f"\n  small-xi log-log slope of median kappa_min: "
              f"{result.small_xi_loglog_slope:.3f}")
        assert time.perf_counter() - start < 300.0


def test_criterion_10_concentration_suite():
    with criterion(10, "concentration: atoms, tails, median gap, amplification"):
        rng = np.random.default_rng(1010)
        # (a) disjoint supports collapse to a single atom
        fam = nl.make_family(nl.lp_space(2, 5), np.eye(5))
        d = nl.exact_distribution(nl.NormInstance(fam), rng.standard_normal(5))
        assert d.atom_count == 1 and d.variance == 0.0
        # (b) 50 random nondegenerate instances at n=14
        for _ in range(50):
            fam = nl.make_family(nl.lp_space("inf", 4), rng.standard_normal((14, 4)))
            dist = nl.exact_distribution(nl.NormInstance(fam), rng.standard_normal(14))
            assert abs(dist.probs.sum() - 1.0) <= 1e-12
            fit = nl.tail_check(dist)
            assert (np.diff(fit.tails) <= 1e-15).all()
            assert not fit.skipped
            assert fit.decay > 0.0
            # (c) the median-expectation gap is at most one standard deviation
            gap = nl.median_vs_mean(dist)
            assert gap.gap <= gap.stddev + 1e-12
        # (d) amplification on the two-atom law
        two = nl.NormInstance(nl.make_family(nl.lp_space("inf", 1), [[1.0], [1.0]]))
        trials = 2500
        res = nl.amplification_check(two, [1.0, 1.0], [2, 4, 8, 16], t=1.5, trials=trials, seed=1011)
        stderr = math.sqrt(0.25 * 0.75 / trials)
        assert abs(res.rows[0].frequency - 0.25) <= 3.0 * stderr
        assert res.slope < 0.0


def test_criterion_11_determinism_across_threads(tmp_path):
    with criterion(11, "same seed, different --threads: byte-identical CSV"):
        fam = nl.make_family(
            nl.lp_space("inf", 3), np.random.default_rng(1111).standard_normal((8, 3))
        )
        fam_path = tmp_path / "family.json"
        nl.save_family(fam, fam_path)
        csvs = []
        for threads, tag in ((1, "a"), (4, "b")):
            doc = {
                "experiment": "distortion",
                "family_file": str(fam_path),
                "xi": 0.5,
                "trials": 8,
                "probes": {"samples": 60, "descent_steps": 10},
                "master_seed": 77,
                "threads": threads,
                "output": {"dir": str(tmp_path / tag)},
            }
            run_experiment(validate_config(doc))
            csvs.append((tmp_path / tag / "trials.csv").read_bytes())
        assert csvs[0] == csvs[1]
        sweeps = []
        for threads, tag in ((1, "sa"), (3, "sb")):
            doc = {
                "experiment": "scalar-sweep",
                "n": 6,
                "xi_list": [0.5, 1.0],
                "trials": 6,
                "probes": {"samples": 32, "descent_steps": 10},
                "master_seed": 78,
                "threads": threads,
                "output": {"dir": str(tmp_path / tag)},
            }
            run_experiment(validate_config(doc))
            sweeps.append((tmp_path / tag / "trials.csv").read_bytes())
        assert sweeps[0] == sweeps[1]
