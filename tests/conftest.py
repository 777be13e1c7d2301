import numpy as np
import pytest

import normlab as nl
from normlab.spaces import norm_rows


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_family(space, n, rng, scale=1.0):
    """A validated family with Gaussian columns (nonzero a.s.)."""
    return nl.make_family(space, scale * rng.standard_normal((n, space.dim)))


@pytest.fixture
def linf4_family(rng):
    return random_family(nl.lp_space("inf", 4), 8, rng)


@pytest.fixture
def l2_family(rng):
    return random_family(nl.lp_space(2, 3), 6, rng)


@pytest.fixture
def dim1_double():
    """Two copies of the unit vector in a 1-d space: the two-atom workhorse."""
    return nl.make_family(nl.lp_space("inf", 1), [[1.0], [1.0]])


def norm(space, u):
    """||u|| of one vector: the norm oracle of the tests."""
    return float(norm_rows(space, np.asarray(u, dtype=np.float64)))


def enumerate_signs(n):
    """All 2^n sign vectors in Gray-code order, each with the coordinate that
    flipped from the previous one (None for the first): the enumeration
    oracle of the tests, one O(n) step per pattern."""
    eps = -np.ones(n, dtype=np.int8)  # Gray code 0 is all zero bits -> all -1
    yield eps.copy(), None
    for t in range(1, 1 << n):
        flip = (t & -t).bit_length() - 1  # trailing zeros of t
        eps[flip] = -eps[flip]
        yield eps.copy(), flip


def space_menu(m=3):
    return [
        nl.lp_space(1, m),
        nl.lp_space(2, m),
        nl.lp_space("inf", m),
        nl.polytope_space(np.vstack([np.eye(m), np.ones((1, m))])),
    ]
