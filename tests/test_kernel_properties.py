"""Property tests of the prepared norm kernel over every kind of space.

Each batched computation must give every point the bits of its own
one-point call.  Examples are
derandomized, so a run is reproducible.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normlab as nl
from normlab import spaces, symmetrize
from normlab.spaces import norming_functionals
from normlab.weakvar import SigmaResult, sigma, weak_variances

PROPS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

KINDS = ("l1", "l2", "linf", "l3", "poly")
BATCHES = st.one_of(st.sampled_from([1, 2, 64, 65]), st.integers(193, 300))


def _space(kind, m, K, rng, integral=False):
    if kind != "poly":
        return nl.lp_space({"l1": 1, "l2": 2, "linf": "inf", "l3": 3}[kind], m)
    F = rng.integers(-2, 3, size=(K, m)) if integral else rng.standard_normal((K, m))
    return nl.polytope_space(np.vstack([np.eye(m), F]))  # spans R^m


def _family(kind, m, K, n, rng):
    return nl.make_family(_space(kind, m, K, rng), rng.standard_normal((n, m)))


@PROPS
@given(
    st.sampled_from(KINDS),
    st.integers(1, 4),
    st.integers(1, 40),
    st.integers(1, 12),
    BATCHES,
    st.integers(0, 2**32 - 1),
)
@example("poly", 4, 40, 12, 300, 1)
@example("l3", 3, 1, 9, 193, 2)
@example("linf", 4, 1, 7, 65, 3)
@example("l1", 2, 1, 10, 2, 4)
def test_batched_norms_equal_one_point_calls(kind, m, K, n, P, seed):
    rng = np.random.default_rng(seed)
    fam = _family(kind, m, K, n, rng)
    X = rng.standard_normal((P, n))
    # the one-point calls dominate at large n: check a spread of points there
    idx = range(P) if n <= 8 else sorted({0, 1, P // 2, P - 2, P - 1} & set(range(P)))
    inst = nl.NormInstance(family=fam)
    exact = nl.exact_unconditional_norm_many(inst, X)
    for i in idx:
        alone = nl.exact_unconditional_norm_many(inst, X[i : i + 1])
        assert exact[i].tobytes() == alone[0].tobytes()
    signs = nl.sample_sign_matrix(n, int(rng.integers(1, 3 * n + 2)), seed)
    emp = nl.EmpiricalNormInstance(family=fam, signs=signs)
    sampled = nl.batch_empirical_norm(emp, X)
    for i in idx:
        assert sampled[i].tobytes() == np.float64(nl.empirical_norm(emp, X[i])).tobytes()


# the split kernel (n >= 10): points per batch past a tile of points at
# n = 10 and 13, past a block of one-point tiles at n = 16 and 17
SPLIT_POINTS = {10: 129, 13: 33, 16: 21, 17: 17}
# every kind with 3 rows (a 6-row polytope), and a 40-row polytope
SPLIT_KINDS = [(kind, 3) for kind in KINDS] + [("poly", 37)]


@pytest.mark.parametrize("n", sorted(SPLIT_POINTS))
@pytest.mark.parametrize("kind, K", SPLIT_KINDS)
def test_split_norms_equal_one_point_calls(kind, K, n):
    # at n = 10 and 13 a tile holds several points and the batch's last tile
    # also runs over stale rows; at n = 17, and at n = 16 for the 40-row
    # polytope, a point spans several tiles; an empty batch has no values
    rng = np.random.default_rng(n * K)
    inst = nl.NormInstance(family=_family(kind, 3, K, n, rng))
    X = rng.standard_normal((SPLIT_POINTS[n], n))
    got = nl.exact_unconditional_norm_many(inst, X)
    alone = [nl.exact_unconditional_norm_many(inst, x[None, :])[0] for x in X]
    assert got.tobytes() == np.array(alone).tobytes()
    none = nl.exact_unconditional_norm_many(inst, X[:0])
    assert none.shape == (0,) and none.dtype == np.float64


@pytest.mark.parametrize("K", range(1, 10))
def test_halving_max_equals_running_max(K):
    # a max is exact in any order; an odd count of rows keeps its middle row
    # for the next fold
    rng = np.random.default_rng(K)
    T = rng.standard_normal((K, 4, 33))
    T[rng.random(T.shape) < 0.1] = -0.0
    T[:, 0, 0] = 1.5  # a tie across all rows
    want = np.abs(T[0])
    for t in T[1:]:
        want = np.maximum(want, np.abs(t))
    assert len(spaces._halves(T)) == math.ceil(math.log2(K))
    assert spaces._combine(T.copy(), "maxabs", None).tobytes() == want.tobytes()
    B = np.empty_like(T)
    halves = spaces._halves(B)  # views made once, as the split kernel does
    for _ in range(2):
        B[...] = T
        assert spaces._combine(B, "maxabs", None, halves).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, K", SPLIT_KINDS)
def test_value_blocks_at_n17_are_the_half_enumeration(kind, K):
    # each point spans several tiles at n = 17: the blocks hold its 2^16
    # values, and summing each block and then fsum across them gives the
    # kernel's sum bit for bit
    rng = np.random.default_rng(K)
    fam = _family(kind, 3, K, 17, rng)
    x = rng.standard_normal(17)
    inst = nl.NormInstance(family=fam)
    blocks = list(symmetrize.iter_exact_value_blocks(inst, x))
    assert len(blocks) > 1 and sum(b.size for b in blocks) == 2**16
    mean = math.fsum(b.sum() for b in blocks) / 2**16
    assert mean == nl.exact_unconditional_norm(inst, x)


@PROPS
@given(
    st.sampled_from(KINDS),
    st.integers(1, 4),
    st.integers(1, 40),
    st.integers(1, 300),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example("poly", 3, 40, 300, True, 1)
@example("linf", 4, 1, 64, True, 2)
@example("l2", 4, 1, 65, True, 3)
@example("l3", 3, 1, 65, True, 4)
def test_norming_functional_of_a_column_does_not_depend_on_its_batch(kind, m, K, N, integral, seed):
    # small integers make ties and exact zeros; some zeros are -0.0, and
    # some columns are zero
    rng = np.random.default_rng(seed)
    space = _space(kind, m, K, rng, integral)
    U = rng.integers(-2, 3, size=(m, N)).astype(float) if integral else rng.standard_normal((m, N))
    U[rng.random((m, N)) < 0.2] = -0.0
    U[:, rng.random(N) < 0.1] = 0.0
    Phi = norming_functionals(space, U)
    assert Phi.shape == U.shape and Phi.flags.c_contiguous
    for j in range(N):
        assert Phi[:, j].tobytes() == norming_functionals(space, U[:, j, None])[:, 0].tobytes()


@PROPS
@given(
    st.sampled_from(KINDS),
    st.integers(1, 4),
    st.integers(1, 40),
    st.integers(1, 12),
    BATCHES,
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example("poly", 4, 40, 12, 300, False, 1)
@example("poly", 1, 1, 1, 1, False, 2)
@example("linf", 1, 1, 9, 65, False, 3)  # one row: a matrix-vector product unless padded
@example("l1", 3, 1, 6, 65, False, 4)
@example("l1", 3, 1, 6, 65, True, 5)  # past the vertex cap: the sampled lower bound
@example("l1", 16, 1, 6, 65, False, 7)  # two vertex blocks of 2^14, two point chunks
@example("l3", 2, 1, 4, 193, False, 6)
def test_weak_variance_of_a_point_does_not_depend_on_its_batch(kind, m, K, n, P, capped, seed):
    # a sampled scan runs point by point and costs milliseconds a point:
    # a short batch there
    sampled = kind == "l3" or (kind == "l1" and capped)
    P = min(P, 4) if sampled else P
    rng = np.random.default_rng(seed)
    fam = _family(kind, m, K, n, rng)
    X = rng.standard_normal((P, n))
    X[rng.random(P) < 0.05] = 0.0
    inst = nl.NormInstance(fam, vertex_cap=m - 1 if capped else m)
    values, certs, flags, method = weak_variances(inst, X, lower_bound_beyond_cap=True)
    assert values.shape == flags.shape == (P,) and certs.shape == (P, m)
    assert list(flags) == [sampled] * P and (method == "sampled-lower-bound") == sampled
    for i in range(P):
        if capped:  # a batch of one past the l1 cap, where sigma raises
            v, c, f, meth = weak_variances(inst, X[i][None], lower_bound_beyond_cap=True)
            alone = SigmaResult(float(v[0]), meth, c[0], bool(f[0]))
        else:
            alone = sigma(inst, X[i])  # a batch of one
        assert alone.method == method and alone.lower_bound_only == flags[i]
        assert np.float64(alone.value).tobytes() == values[i].tobytes()
        assert alone.certificate.tobytes() == certs[i].tobytes()


@pytest.mark.parametrize("kind, capped", [(kind, False) for kind in KINDS] + [("l1", True)])
def test_weak_variances_of_an_empty_batch(kind, capped):
    # every path, the sampled one too, keeps the shapes of a batch of points
    m = 3
    fam = _family(kind, m, 4, 5, np.random.default_rng(0))
    inst = nl.NormInstance(fam, vertex_cap=m - 1 if capped else m)
    values, certs, flags, _ = weak_variances(inst, np.zeros((0, 5)), lower_bound_beyond_cap=True)
    assert values.shape == flags.shape == (0,) and certs.shape == (0, m)
