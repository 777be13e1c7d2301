import numpy as np
import pytest

import normlab as nl
from normlab import nets
from normlab.errors import CoveringViolationError

from conftest import random_family


@pytest.fixture
def inst3(rng):
    return nl.NormInstance(family=random_family(nl.lp_space("inf", 3), 3, rng))


@pytest.fixture
def inst5(rng):
    return nl.NormInstance(family=random_family(nl.lp_space("inf", 4), 5, rng))


def pairwise_min_distance(inst, pts):
    best = np.inf
    for i in range(len(pts)):
        d = nl.exact_unconditional_norm_many(inst, pts[i][None, :] - pts[i + 1 :])
        if d.size:
            best = min(best, float(d.min()))
    return best


class TestBuildNet:
    def test_one_dimensional_sphere_has_two_points(self, rng):
        inst = nl.NormInstance(family=random_family(nl.lp_space(2, 2), 1, rng))
        net = nl.build_net(inst, 0.5, seed=3)
        assert net.size == 2
        assert net.covering_status == "certified-small-n"

    def test_points_are_unit_vectors(self, inst3):
        net = nl.build_net(inst3, 0.5, seed=1)
        norms = nl.exact_unconditional_norm_many(inst3, net.points)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_separation_exact(self, inst3):
        net = nl.build_net(inst3, 0.5, seed=1)
        assert net.separation_certified
        assert pairwise_min_distance(inst3, net.points) > 0.5

    def test_packing_bound(self, inst3):
        net = nl.build_net(inst3, 0.5, seed=1)
        assert net.size <= 6**3

    def test_small_n_grid_certification(self, inst3):
        net = nl.build_net(inst3, 0.5, seed=2)
        assert net.covering_status == "certified-small-n"

    def test_theta_out_of_range(self, inst3):
        with pytest.raises(ValueError):
            nl.build_net(inst3, 0.0, seed=1)
        with pytest.raises(ValueError):
            nl.build_net(inst3, 1.5, seed=1)

    def test_determinism(self, inst3):
        a = nl.build_net(inst3, 0.5, seed=9)
        b = nl.build_net(inst3, 0.5, seed=9)
        assert np.array_equal(a.points, b.points)


class TestNetDecompose:
    def test_net_point_terminates_immediately(self, inst3):
        net = nl.build_net(inst3, 0.5, seed=4)
        dec = nl.net_decompose(inst3, net, net.points[0], K=1)
        assert dec.coefficients == pytest.approx([1.0], abs=1e-12)
        assert dec.indices == [0]
        assert dec.residual_norm <= 1e-12

    def test_generic_residual_contracts(self, inst3, rng):
        net = nl.build_net(inst3, 0.5, seed=4)
        X = nl.sphere_sample(inst3, 20, seed=11)
        for x in X:
            dec = nl.net_decompose(inst3, net, x, K=10)
            assert dec.residual_norm <= 2**-10 + 1e-9
            for k, a in enumerate(dec.coefficients, start=1):
                assert abs(a) <= 2 ** (1 - k) + 1e-9

    def test_covering_violation_carries_witness(self, inst3):
        # a ridiculous one-point "net" cannot cover the sphere
        tiny = nl.NetPoints(
            theta=0.5,
            points=nl.build_net(inst3, 0.5, seed=4).points[:1],
            separation_certified=True,
            covering_status="heuristic",
            candidate_budget=1,
        )
        x = nl.sphere_sample(inst3, 50, seed=12)
        with pytest.raises(CoveringViolationError) as exc:
            for row in x:
                nl.net_decompose(inst3, tiny, row, K=5)
        w = exc.value.witness
        assert exc.value.distance > 0.5
        assert nl.exact_unconditional_norm(inst3, w) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_unit_input(self, inst3):
        net = nl.build_net(inst3, 0.5, seed=4)
        with pytest.raises(ValueError):
            nl.net_decompose(inst3, net, np.zeros(3), K=3)


class TestCertifiedSupBound:
    def test_definition(self, inst5):
        net = nl.build_net(inst5, 0.5, budget=100, seed=6)
        signs = nl.sample_sign_matrix(inst5.n, 8, seed=7)
        emp = nl.EmpiricalNormInstance(family=inst5.family, signs=signs)
        bound = nl.certified_sup_bound(emp, net)
        vals = nl.batch_empirical_norm(emp, net.points)
        assert bound.value == 2.0 * vals.max()
        assert bound.covering_status == net.covering_status

    def test_dominates_fresh_samples(self, inst3):
        # sampling cross-check of the sup bound (covering certified at n=3)
        net = nl.build_net(inst3, 0.5, seed=8)
        assert net.covering_status == "certified-small-n"
        signs = nl.sample_sign_matrix(inst3.n, 6, seed=9)
        emp = nl.EmpiricalNormInstance(family=inst3.family, signs=signs)
        bound = nl.certified_sup_bound(emp, net)
        X = nl.sphere_sample(inst3, 2000, seed=10)
        assert nl.batch_empirical_norm(emp, X).max() <= bound.value + 1e-9

    def test_sum_norm_identity_configuration(self, rng):
        # v_i = e_i in the sum norm with an all-plus matrix: the empirical
        # norm is x -> sum |x_i|, which equals the averaged norm, so the
        # bound dominates the sphere max of |sum x_i|
        fam = nl.make_family(nl.lp_space(1, 4), np.eye(4))
        inst = nl.NormInstance(family=fam)
        signs = nl.SignMatrix.from_dense(np.ones((4, 3), dtype=np.int8))
        emp = nl.EmpiricalNormInstance(family=fam, signs=signs)
        net = nl.build_net(inst, 0.5, budget=150, seed=13)
        bound = nl.certified_sup_bound(emp, net)
        X = nl.sphere_sample(inst, 500, seed=14)
        assert bound.value >= np.abs(X.sum(axis=1)).max() - 1e-9


def test_net_json_round_trip(inst3, tmp_path):
    net = nl.build_net(inst3, 0.25, seed=15)
    path = tmp_path / "net.json"
    nl.save_net(net, path)
    back = nl.load_net(path)
    assert back.theta == net.theta
    assert back.covering_status == net.covering_status
    assert np.array_equal(back.points, net.points)


def naive_greedy(inst, theta, budget, seed):
    """The greedy rule written plainly: each candidate's full distance row to
    the net, one candidate at a time, with the stream, budget rule and
    covering pass of build_net."""
    n = inst.n
    exact = nl.exact_unconditional_norm_many
    rng = np.random.default_rng(np.uint64(nl.derive_seed(seed, 0)))
    pts, rejects, spent = [], 0, 0

    def stop():
        return budget if budget is not None else nets._BUDGET_PER_POINT * max(1, len(pts))

    def offer(cands):
        nonlocal rejects, spent
        for c in cands:
            spent += 1
            if not pts or exact(inst, c - np.array(pts)).min() > theta:
                pts.append(c)
                rejects = 0
            else:
                rejects += 1
                if rejects >= stop():
                    return

    dirs = np.vstack([np.eye(n), -np.eye(n)])
    offer(dirs / exact(inst, dirs)[:, None])
    while rejects < stop():
        g = rng.standard_normal((nets._CANDIDATE_BATCH, n))
        offer(g / exact(inst, g)[:, None])
    status = "heuristic"
    if n <= 3:
        grid = nets._grid_directions(n)
        grid = grid / exact(inst, grid)[:, None]
        for _ in range(len(grid)):
            net = np.array(pts)
            d = exact(inst, (grid[:, None, :] - net).reshape(-1, n)).reshape(len(grid), -1)
            misses = grid[d.min(axis=1) > theta + 1e-12]
            if not len(misses):
                status = "certified-small-n"
                break
            rejects = 0
            offer(misses)
    return np.array(pts), spent, status


NAIVE_SPACES = {
    "linf": nl.lp_space("inf", 3),
    "l1": nl.lp_space(1, 3),
    "l2": nl.lp_space(2, 3),
    "l3": nl.lp_space(3, 3),
    "poly": nl.polytope_space([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, -1.0]]),
}


class TestBatchSchedule:
    @pytest.mark.parametrize(
        "space, n",
        [(nl.lp_space("inf", 4), 4), (NAIVE_SPACES["poly"], 4), (NAIVE_SPACES["poly"], 5)],
        ids=["linf4", "poly-n4", "poly-n5"],
    )
    @pytest.mark.parametrize("budget", [None, 40])
    def test_net_does_not_depend_on_the_batches(self, monkeypatch, rng, space, n, budget):
        inst = nl.NormInstance(family=random_family(space, n, rng))
        default = nl.build_net(inst, 0.6, budget=budget, seed=n)
        monkeypatch.setattr(nets, "_CANDIDATE_BATCH", 1)
        monkeypatch.setattr(nets, "_MAX_BATCH", 4096)
        net = nl.build_net(inst, 0.6, budget=budget, seed=n)
        assert np.array_equal(net.points, default.points)
        assert net.candidate_budget == default.candidate_budget
        assert net.covering_status == default.covering_status


class TestAgainstNaiveGreedy:
    @pytest.mark.parametrize(
        "n,thetas",
        [(1, (0.25, 1.0)), (2, (0.25, 0.5)), (3, (0.5, 0.6)), (4, (0.6, 1.0)), (5, (1.0,)), (6, (1.0,))],
    )
    @pytest.mark.parametrize("space", NAIVE_SPACES.values(), ids=NAIVE_SPACES.keys())
    def test_same_net(self, rng, space, n, thetas):
        inst = nl.NormInstance(family=random_family(space, n, rng))
        for theta in thetas:
            for budget in (None, 30, 1, 2):
                net = nl.build_net(inst, theta, budget=budget, seed=n)
                pts, spent, status = naive_greedy(inst, theta, budget, seed=n)
                assert np.array_equal(net.points, pts)
                assert net.candidate_budget == spent
                assert net.covering_status == status

    @pytest.mark.parametrize("budget", [None, 30])
    def test_same_net_with_unequal_column_scales(self, budget):
        n, theta = 4, 0.6
        V = np.random.default_rng(3).standard_normal((n, 3)) * np.array([1.0, 40.0, 0.02, 5.0])[:, None]
        inst = nl.NormInstance(family=nl.make_family(nl.lp_space("inf", 3), V))
        pts, spent, status = naive_greedy(inst, theta, budget, seed=n)
        # the Euclidean nearest net point is often not the nearest in the
        # norm, and the nearest-first check still answers as the full rows
        X = nl.sphere_sample(inst, 300, seed=n)
        diffs = X[:, None, :] - pts
        d = nl.exact_unconditional_norm_many(inst, diffs.reshape(-1, n)).reshape(len(X), -1)
        euclid = np.square(diffs).sum(axis=2)
        assert (d.argmin(axis=1) != euclid.argmin(axis=1)).mean() > 0.2
        far = nets._far_from(inst, X, pts, theta, nets.DEFAULT_MAX_ENUM_N)
        assert np.array_equal(far, (d > theta).all(axis=1))
        net = nl.build_net(inst, theta, budget=budget, seed=n)
        assert np.array_equal(net.points, pts)
        assert (net.candidate_budget, net.covering_status) == (spent, status)
