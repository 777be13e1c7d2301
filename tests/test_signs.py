import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normlab as nl
from normlab.errors import CapacityError
from normlab.signs import gray_sign_block, half_enumeration_size, half_gray_sign_block

from conftest import enumerate_signs


class TestSampling:
    def test_determinism(self):
        a = nl.sample_sign_matrix(3, 5, seed=7)
        b = nl.sample_sign_matrix(3, 5, seed=7)
        assert a == b
        assert np.array_equal(a.dense(), b.dense())

    def test_different_seeds_differ(self):
        a = nl.sample_sign_matrix(8, 8, seed=1)
        b = nl.sample_sign_matrix(8, 8, seed=2)
        assert not np.array_equal(a.dense(), b.dense())

    def test_entries_are_signs(self):
        d = nl.sample_sign_matrix(6, 9, seed=3).dense()
        assert np.isin(d, (-1.0, 1.0)).all()

    def test_mean_near_zero(self):
        # CLT: 3/sqrt(n N) ~ 0.0021; 0.05 is a loose band
        d = nl.sample_sign_matrix(1000, 2000, seed=1).dense()
        assert -0.05 < d.mean() < 0.05

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            nl.sample_sign_matrix(0, 5, seed=1)

    def test_entry_cap(self):
        with pytest.raises(CapacityError):
            nl.sample_sign_matrix(1 << 14, 1 << 14, seed=1)

    def test_seed_record(self):
        sm = nl.sample_sign_matrix(2, 3, seed=11, trial_index=4)
        assert sm.seed_record == nl.SeedRecord(seed=11, trial_index=4)
        explicit = nl.SignMatrix.from_dense([[1, -1], [-1, 1]])
        assert explicit.seed_record is None

    def test_entry_frequency_over_many_matrices(self):
        # each entry is +1 with frequency 0.5 +- 5 stderr over 10^4 resamples
        trials = 10_000
        acc = np.zeros((3, 4))
        for t in range(trials):
            acc += nl.sample_sign_matrix(3, 4, seed=nl.derive_seed(5, t)).dense() > 0
        freq = acc / trials
        stderr = 0.5 / math.sqrt(trials)
        assert (np.abs(freq - 0.5) <= 5 * stderr).all()


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_all_distinct_and_gray(self, n):
        seen = set()
        prev = None
        count = 0
        for eps, flipped in enumerate_signs(n):
            assert np.isin(eps, (-1, 1)).all()
            seen.add(tuple(eps))
            if prev is None:
                assert flipped is None
            else:
                diffs = np.flatnonzero(prev != eps)
                assert len(diffs) == 1 and diffs[0] == flipped
            prev = eps
            count += 1
        assert count == 2**n
        assert len(seen) == 2**n

    def test_capacity(self):
        with pytest.raises(CapacityError):
            nl.enumeration_matrix(25)

    def test_enumeration_matrix_columns_match_stream(self):
        m = nl.enumeration_matrix(3)
        stream = np.array([e for e, _ in enumerate_signs(3)]).T
        assert np.array_equal(m.dense(), stream.astype(np.float64))

    def test_gray_block_matches_stream(self):
        block = gray_sign_block(4, 0, 16)
        stream = np.array([e for e, _ in enumerate_signs(4)], dtype=np.float64)
        assert np.array_equal(block, stream)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_half_enumeration_is_pair_representatives(self, n):
        half = half_gray_sign_block(n, 0, half_enumeration_size(n))
        full = {tuple(e) for e, _ in enumerate_signs(n)}
        reps = {tuple(r) for r in half}
        assert len(reps) == half_enumeration_size(n)
        assert reps | {tuple(-r) for r in half} == full


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
def test_pack_round_trip(n, N):
    rng = np.random.default_rng(n * 31 + N)
    dense = rng.choice([-1, 1], size=(n, N)).astype(np.int8)
    sm = nl.SignMatrix.from_dense(dense)
    assert np.array_equal(sm.dense(), dense.astype(np.float64))
    assert sm.xi == pytest.approx(N / n - 1)


def test_from_dense_rejects_non_signs():
    with pytest.raises(ValueError):
        nl.SignMatrix.from_dense([[1, 0], [1, -1]])
