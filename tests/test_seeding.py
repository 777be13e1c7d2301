import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.seeding import derive_seed, float_key


def test_deterministic():
    assert derive_seed(123, 5) == derive_seed(123, 5)


def test_injective_over_first_2_to_20_indices():
    seen = {derive_seed(99, i) for i in range(1 << 20)}
    assert len(seen) == 1 << 20


def test_distinct_masters_distinct_streams():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s, t = map(int, rng.integers(0, 1 << 63, size=2))
        if s != t:
            assert derive_seed(s, 0) != derive_seed(t, 0)


def test_adjacent_indices_differ():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        s = int(rng.integers(0, 1 << 63))
        assert derive_seed(s, 0) != derive_seed(s, 1)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


@settings(max_examples=100, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_key_round_trips_distinct_values(x):
    assert 0 <= float_key(x) < 1 << 64
    assert float_key(x) == float_key(x)


def test_float_key_separates_values():
    assert float_key(0.25) != float_key(0.5)
