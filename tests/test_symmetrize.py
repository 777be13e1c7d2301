import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import normlab as nl
from normlab import symmetrize
from normlab.errors import CapacityError, DimensionMismatchError
from normlab.signs import half_enumeration_size, half_gray_sign_block

from conftest import random_family, space_menu

KERNEL_SPACES = [*space_menu(), nl.lp_space(3, 3)]


def gray_incremental_reference(family, x):
    """Independent oracle: literal Gray-code walk with one O(m) update and
    Kahan-compensated accumulation per pattern."""
    V = family.columns
    w = V * np.asarray(x, dtype=np.float64)[None, :]
    total = 0.0
    comp = 0.0
    s = None
    eps_prev = None
    for eps, flipped in nl.enumerate_signs(family.n):
        if s is None:
            s = w @ eps.astype(np.float64)
        else:
            s = s + 2.0 * eps[flipped] * w[:, flipped]
        val = nl.norm_eval(family.space, s)
        y = val - comp
        t = total + y
        comp = (t - total) - y
        total = t
        eps_prev = eps
    return total / 2**family.n


def direct_exact_norms(family, X):
    """Independent oracle: all 2^n sign vectors in binary order, no
    antipodal pairing, one exact fsum per point."""
    n = family.n
    E = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    space = family.space
    out = []
    for x in X:
        U = (E * x) @ family.columns.T  # one signed sum per row
        if space.kind == "polytope":
            vals = np.abs(U @ space.functionals.T).max(axis=1)
        elif space.p is None:
            vals = np.abs(U).max(axis=1)
        else:
            vals = (np.abs(U) ** space.p).sum(axis=1) ** (1.0 / space.p)
        out.append(math.fsum(vals) / 2**n)
    return np.array(out)


class TestSplitKernel:
    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 13])
    @pytest.mark.parametrize("space", KERNEL_SPACES, ids=["l1", "l2", "linf", "poly", "l3"])
    def test_many_matches_direct_sum(self, rng, space, n):
        inst = nl.NormInstance(family=random_family(space, n, rng))
        for P in (0, 1, 7, 300):
            X = rng.standard_normal((P, n))
            got = nl.exact_unconditional_norm_many(inst, X)
            assert got.shape == (P,)
            np.testing.assert_allclose(got, direct_exact_norms(inst.family, X), rtol=1e-12, atol=0)

    def test_chunks_and_tiles(self, rng):
        # n = 9: one tile per chunk of points, two chunks; n = 13 and 16:
        # tiles of whole points, several chunks; n = 17: a point spans
        # several tiles, reduced by fsum
        for n in (9, 13, 16, 17):
            total = half_enumeration_size(n)
            c = max(1, symmetrize._TILE // total)
            P = symmetrize._PROBE_CHUNK + 5 if n == 9 else 2 * c + 1
            inst = nl.NormInstance(family=random_family(nl.lp_space("inf", 3), n, rng))
            X = rng.standard_normal((P, n))
            got = nl.exact_unconditional_norm_many(inst, X)
            np.testing.assert_allclose(got, direct_exact_norms(inst.family, X), rtol=1e-12, atol=0)
            if n == 9:
                continue
            # weights 2^i with the top sign pinned give every pattern its own
            # positive signed sum s * (1, 3, ..., 2^n - 1) at point s * w
            w = 2.0 ** np.arange(n)
            X = np.arange(1, P + 1)[:, None] * w
            fam = nl.make_family(nl.lp_space(1, 1), np.ones((n, 1)))
            R, mode, p = symmetrize._functional_rows(fam)
            seen = [[] for _ in range(P)]
            tiles = {}  # tiles per chunk of points
            for ps, tile in symmetrize._value_tiles(R, mode, p, X):
                tiles[ps] = tiles.get(ps, 0) + 1
                for i, row in enumerate(tile):
                    seen[ps + i].append(row.copy())  # the next tile overwrites this one
            assert len(tiles) == (2 if n == 9 else 3)
            assert set(tiles.values()) == {2 if n == 17 else 1}
            for s, parts in enumerate(seen, start=1):
                vals = np.sort(np.concatenate(parts))
                assert np.array_equal(vals, s * np.arange(1.0, 2.0**n, 2.0))

    def test_wide_polytope_keeps_buffers_small(self, rng):
        # K = 600 functional rows: each row block of a tile shrinks to
        # _BUFFER // K signed sums (four tiles per point at n = 13), so the
        # call allocates a few _BUFFER doubles, not K * _TILE (150 MiB here)
        fam = random_family(nl.polytope_space(rng.standard_normal((600, 3))), 13, rng)
        inst = nl.NormInstance(family=fam)
        X = rng.standard_normal((8, 13))
        nl.exact_unconditional_norm_many(inst, X[:1])  # warm the sign tables
        tracemalloc.start()
        try:
            got = nl.exact_unconditional_norm_many(inst, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20  # bytes
        np.testing.assert_allclose(got, direct_exact_norms(fam, X), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, K", [(16, 4), (17, 4), (13, 600)])
    def test_blocks_of_lone_point_tiles(self, rng, n, K):
        # at most one point per tile (n = 17 and the wide polytope split a
        # point over several tiles): a block of points shares its small
        # products, yet each value is bit-equal to the point's own call
        space = nl.lp_space("inf", K) if K == 4 else nl.polytope_space(rng.standard_normal((K, 3)))
        inst = nl.NormInstance(family=random_family(space, n, rng))
        lo = 1 << symmetrize._LOW_BITS
        hi = half_enumeration_size(n) // lo
        tile = min(symmetrize._TILE, symmetrize._BUFFER // K)
        assert tile < 2 * hi * lo
        block = max(1, tile // (8 * (hi + lo)))
        for P in sorted({1, block, 2 * block + 1}):
            X = rng.standard_normal((P, n))
            got = nl.exact_unconditional_norm_many(inst, X)
            alone = [nl.exact_unconditional_norm_many(inst, x[None, :])[0] for x in X]
            assert got.tobytes() == np.array(alone).tobytes()
            assert got[::-1].tobytes() == nl.exact_unconditional_norm_many(inst, X[::-1]).tobytes()

    @pytest.mark.parametrize("n", [10, 13, 16])
    def test_many_is_accurate(self, rng, n):
        # against each signed sum rounded once (fsum over its terms) and an
        # fsum mean, the kernel stays within a few units of roundoff; a
        # sequential reduction down (patterns, points) tiles of 2^15 / P rows
        # errs by up to about 3e-15 here (n = 13, P = 5)
        fam = random_family(nl.lp_space("inf", 3), n, rng)
        inst = nl.NormInstance(family=fam)
        E = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        E[:, n - 1] = 1.0  # one representative per antipodal pair
        for P in (1, 5, 300):
            X = rng.standard_normal((P, n))
            got = nl.exact_unconditional_norm_many(inst, X)
            for i in sorted({0, P // 2, P - 1}):
                Y = X[i] * fam.columns  # the products the kernel sums, row by row
                terms = (E[:, None, :] * Y).reshape(-1, n).tolist()
                sums = np.array([math.fsum(t) for t in terms]).reshape(-1, len(Y))
                want = math.fsum(np.abs(sums).max(axis=1)) / 2 ** (n - 1)
                assert abs(got[i] - want) <= 4e-16 * want

    @pytest.mark.parametrize("n", [10, 16, 17])
    @pytest.mark.parametrize("p", [1, "inf"])
    def test_integer_inputs_are_exact(self, rng, n, p):
        # every partial sum is an integer below 2^53, so the kernel must
        # equal the int64 enumeration divided by 2^(n-1) bit for bit
        V = rng.integers(-5, 6, size=(3, n))
        V[0, V[0] == 0] = 1  # nonzero columns
        X = rng.integers(-5, 6, size=(4, n))
        fam = nl.make_family(nl.lp_space(p, 3), V.T.astype(np.float64))
        E = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1) * 2 - 1
        E[:, n - 1] = 1  # one representative per antipodal pair
        want = []
        for x in X:
            U = np.abs((E * x) @ V.T)
            vals = U.sum(axis=1) if p == 1 else U.max(axis=1)
            want.append(int(vals.sum()) / 2 ** (n - 1))
        got = nl.exact_unconditional_norm_many(nl.NormInstance(family=fam), X.astype(np.float64))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [13, 16])
    def test_concurrent_calls_match_serial(self, rng, n):
        # buffers belong to one kernel call, so calls on one instance from
        # several threads at once give the serial results
        inst = nl.NormInstance(family=random_family(nl.lp_space("inf", 4), n, rng))
        batches = [rng.standard_normal((int(rng.integers(1, 200)), n)) for _ in range(8)]
        serial = [nl.exact_unconditional_norm_many(inst, X) for X in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(nl.exact_unconditional_norm_many, inst, X) for X in batches]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [4, 9])
    def test_small_n_is_one_gemm_with_the_whole_half_table(self, rng, n):
        # with an empty high half the kernel does exactly the products and
        # sums of the unsplit enumeration, so the results are bit-identical
        fam = random_family(nl.lp_space("inf", 3), n, rng)
        X = rng.standard_normal((50, n))
        E = half_gray_sign_block(n, 0, half_enumeration_size(n))
        vals = np.abs(E @ (X * fam.columns[0]).T)
        for r in fam.columns[1:]:
            np.maximum(vals, np.abs(E @ (X * r).T), out=vals)
        expected = vals.sum(axis=0) / half_enumeration_size(n)
        got = nl.exact_unconditional_norm_many(nl.NormInstance(family=fam), X)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [3, 12])
    def test_single_point_equals_batch_of_one_bitwise(self, rng, n):
        for space in KERNEL_SPACES:
            inst = nl.NormInstance(family=random_family(space, n, rng))
            x = rng.standard_normal(n)
            many = nl.exact_unconditional_norm_many(inst, x[None, :])[0]
            assert nl.exact_unconditional_norm(inst, x) == many

    @pytest.mark.parametrize("n", range(1, 18))
    def test_value_does_not_depend_on_batch(self, rng, n):
        # a lone point (P = 1, the last chunk at P = 2049 for n <= 9 and at
        # P = 3 for n = 15) rounds as it does in a batch; from n = 16 on
        # every tile holds one point in any batch
        for space in KERNEL_SPACES:
            inst = nl.NormInstance(family=random_family(space, n, rng))
            for P in (1, 2, 3, 2049) if n <= 9 else (1, 2, 3):
                X = rng.standard_normal((P, n))
                many = nl.exact_unconditional_norm_many(inst, X)
                alone = [nl.exact_unconditional_norm_many(inst, x[None, :])[0] for x in X]
                assert np.array_equal(many, alone)

    def test_value_blocks_are_the_representative_values(self, rng):
        for space in KERNEL_SPACES:
            fam = random_family(space, 11, rng)
            x = rng.standard_normal(11)
            got = np.sort(np.concatenate(list(symmetrize.iter_exact_value_blocks(fam, x))))
            E = ((np.arange(2**10)[:, None] >> np.arange(10)) & 1) * 2.0 - 1.0
            E = np.hstack([E, np.ones((2**10, 1))])  # last sign pinned +1
            want = np.sort([nl.norm_eval(space, u) for u in (E * x) @ fam.columns.T])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_capacity_at_max_n(self, rng):
        inst = nl.NormInstance(family=random_family(nl.lp_space(2, 3), 10, rng))
        X = rng.standard_normal((3, 10))
        assert nl.exact_unconditional_norm_many(inst, X, max_n=10).shape == (3,)
        with pytest.raises(CapacityError):
            nl.exact_unconditional_norm_many(inst, X, max_n=9)


class TestExactNorm:
    def test_single_coordinate_gives_vector_norm(self, linf4_family):
        inst = nl.NormInstance(family=linf4_family)
        for i in range(inst.n):
            e = np.zeros(inst.n)
            e[i] = 1.0
            expected = nl.norm_eval(linf4_family.space, linf4_family.vector(i))
            assert nl.exact_unconditional_norm(inst, e) == pytest.approx(expected, rel=1e-12)

    def test_dim1_two_copies(self, dim1_double):
        # patterns give |2|, 0, 0, |-2|; average 1
        inst = nl.NormInstance(family=dim1_double)
        assert nl.exact_unconditional_norm(inst, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_unconditionality(self, rng):
        for space in space_menu():
            fam = random_family(space, 7, rng)
            inst = nl.NormInstance(family=fam)
            for _ in range(5):
                x = rng.standard_normal(7)
                a = nl.exact_unconditional_norm(inst, x)
                b = nl.exact_unconditional_norm(inst, np.abs(x))
                assert abs(a - b) <= 1e-9 * a

    def test_gray_incremental_reference_agrees(self, rng):
        for space in space_menu():
            fam = random_family(space, 6, rng)
            inst = nl.NormInstance(family=fam)
            x = rng.standard_normal(6)
            fast = nl.exact_unconditional_norm(inst, x)
            slow = gray_incremental_reference(fam, x)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_norm_axioms_random_pairs(self, rng):
        fam = random_family(nl.lp_space(1, 3), 8, rng)
        inst = nl.NormInstance(family=fam)
        for _ in range(20):
            x, y = rng.standard_normal((2, 8))
            t = float(rng.uniform(-3, 3))
            nx = nl.exact_unconditional_norm(inst, x)
            ny = nl.exact_unconditional_norm(inst, y)
            assert abs(nl.exact_unconditional_norm(inst, t * x) - abs(t) * nx) <= 1e-9 * max(
                1.0, abs(t) * nx
            )
            assert nl.exact_unconditional_norm(inst, x + y) <= nx + ny + 1e-9 * (nx + ny)

    def test_monotone_in_coordinate_magnitudes(self, rng):
        fam = random_family(nl.lp_space("inf", 3), 7, rng)
        inst = nl.NormInstance(family=fam)
        for _ in range(20):
            y = rng.standard_normal(7)
            shrink = rng.uniform(0.0, 1.0, size=7)
            x = y * shrink
            assert nl.exact_unconditional_norm(inst, x) <= nl.exact_unconditional_norm(
                inst, y
            ) + 1e-9

    def test_batch_matches_single(self, rng, l2_family):
        inst = nl.NormInstance(family=l2_family)
        X = rng.standard_normal((17, inst.n))
        many = nl.exact_unconditional_norm_many(inst, X)
        for i, x in enumerate(X):
            assert many[i] == pytest.approx(nl.exact_unconditional_norm(inst, x), rel=1e-12)

    def test_enumeration_cap(self, dim1_double):
        inst = nl.NormInstance(family=dim1_double)
        with pytest.raises(CapacityError):
            nl.exact_unconditional_norm(inst, [1.0, 1.0], max_n=1)


class TestEmpiricalNorm:
    def test_all_plus_one_matrix(self, rng, linf4_family):
        n = linf4_family.n
        signs = nl.SignMatrix.from_dense(np.ones((n, 5), dtype=np.int8))
        emp = nl.EmpiricalNormInstance(family=linf4_family, signs=signs)
        x = rng.standard_normal(n)
        expected = nl.norm_eval(linf4_family.space, linf4_family.columns @ x)
        assert nl.empirical_norm(emp, x) == pytest.approx(expected, rel=1e-12)

    def test_oracle_identity_full_enumeration(self, rng):
        # the cornerstone cross-check: enumeration matrix -> exact norm
        for space in space_menu():
            fam = random_family(space, 8, rng)
            inst = nl.NormInstance(family=fam)
            emp = nl.EmpiricalNormInstance(family=fam, signs=nl.enumeration_matrix(8))
            for _ in range(5):
                x = rng.standard_normal(8)
                a = nl.empirical_norm(emp, x)
                b = nl.exact_unconditional_norm(inst, x)
                assert abs(a - b) <= 1e-9 * b

    def test_zero_vector(self, linf4_family):
        signs = nl.sample_sign_matrix(linf4_family.n, 4, seed=0)
        emp = nl.EmpiricalNormInstance(family=linf4_family, signs=signs)
        assert nl.empirical_norm(emp, np.zeros(linf4_family.n)) == 0.0

    def test_mismatched_signs_rejected(self, linf4_family):
        signs = nl.sample_sign_matrix(linf4_family.n + 1, 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            nl.EmpiricalNormInstance(family=linf4_family, signs=signs)

    def test_empirical_norm_axioms(self, rng, linf4_family):
        signs = nl.sample_sign_matrix(linf4_family.n, 12, seed=5)
        emp = nl.EmpiricalNormInstance(family=linf4_family, signs=signs)
        for _ in range(20):
            x, y = rng.standard_normal((2, linf4_family.n))
            t = float(rng.uniform(-3, 3))
            nx, ny = nl.empirical_norm(emp, x), nl.empirical_norm(emp, y)
            assert abs(nl.empirical_norm(emp, t * x) - abs(t) * nx) <= 1e-9 * max(
                1.0, abs(t) * nx
            )
            assert nl.empirical_norm(emp, x + y) <= nx + ny + 1e-9 * (nx + ny)

    def test_xi_field(self, linf4_family):
        signs = nl.sample_sign_matrix(8, 12, seed=1)
        emp = nl.EmpiricalNormInstance(family=linf4_family, signs=signs)
        assert emp.xi == pytest.approx(0.5)
        assert emp.N == 12


class TestBatchEmpirical:
    def test_singleton_and_empty(self, rng, linf4_family):
        signs = nl.sample_sign_matrix(linf4_family.n, 6, seed=2)
        emp = nl.EmpiricalNormInstance(family=linf4_family, signs=signs)
        x = rng.standard_normal(linf4_family.n)
        assert nl.batch_empirical_norm(emp, [x]) == [nl.empirical_norm(emp, x)]
        assert nl.batch_empirical_norm(emp, np.zeros((0, linf4_family.n))).shape == (0,)

    def test_elementwise_exact_match(self, rng):
        # self-consistency oracle: the batch must reproduce scalar calls exactly
        fam = random_family(nl.lp_space(2, 3), 8, rng)
        signs = nl.sample_sign_matrix(8, 10, seed=3)
        emp = nl.EmpiricalNormInstance(family=fam, signs=signs)
        X = rng.standard_normal((100, 8))
        batch = nl.batch_empirical_norm(emp, X)
        for i, x in enumerate(X):
            assert batch[i] == nl.empirical_norm(emp, x)
