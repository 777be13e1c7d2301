import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normlab as nl
from normlab.errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    ZeroVectorError,
)

from conftest import space_menu


class TestNormEval:
    def test_pythagorean(self):
        assert nl.norm_eval(nl.lp_space(2, 2), [3.0, 4.0]) == pytest.approx(5.0, abs=0)

    def test_sup_norm_max_abs(self):
        assert nl.norm_eval(nl.lp_space("inf", 3), [1.0, -2.0, 0.5]) == 2.0

    def test_polytope_two_functionals(self):
        # enumerate both functionals by hand: max(|2+3|, |2-3|) = 5
        space = nl.polytope_space([[1.0, 1.0], [1.0, -1.0]])
        assert nl.norm_eval(space, [2.0, 3.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            nl.norm_eval(nl.lp_space(2, 3), [1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            nl.norm_eval(nl.lp_space(2, 2), [np.nan, 0.0])

    def test_general_p_large_entries_no_overflow(self):
        space = nl.lp_space(40, 2)
        v = nl.norm_eval(space, [1e200, 1e200])
        assert v == pytest.approx(1e200 * 2 ** (1 / 40), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.floats(-100.0, 100.0),
)
def test_norm_axioms(space_idx, u, w, t):
    space = space_menu()[space_idx]
    u, w = np.array(u), np.array(w)
    nu, nw = nl.norm_eval(space, u), nl.norm_eval(space, w)
    assert abs(nl.norm_eval(space, t * u) - abs(t) * nu) <= 1e-9 * max(1.0, abs(t) * nu)
    assert nl.norm_eval(space, u + w) <= nu + nw + 1e-9 * max(1.0, nu + nw)


def test_smooth_lp_norming_functional():
    space = nl.lp_space(3, 4)
    u = np.array([1.0, -2.0, 0.5, 0.0])
    phi = nl.norming_functional(space, u)
    q = 3 / 2  # dual exponent
    assert np.sum(np.abs(phi) ** q) ** (1 / q) == pytest.approx(1.0, rel=1e-12)
    assert phi @ u == pytest.approx(nl.norm_eval(space, u), rel=1e-12)


class TestPolytope:
    def test_sign_pair_reduction(self):
        space = nl.polytope_space([[1.0, 0.0], [-1.0, -0.0], [0.0, 1.0]])
        assert space.functionals.shape == (2, 2)

    def test_non_spanning_rejected(self):
        with pytest.raises(ValueError):
            nl.polytope_space([[1.0, 0.0], [-1.0, 0.0]])

    def test_norm_equals_max_over_closure(self, rng):
        phis = rng.standard_normal((3, 3))
        space = nl.polytope_space(phis)
        closure = np.vstack([phis, -phis])
        for u in rng.standard_normal((10, 3)):
            assert nl.norm_eval(space, u) == pytest.approx(
                (closure @ u).max(), rel=1e-12
            )


class TestValidateFamily:
    def test_ok(self):
        fam = nl.make_family(nl.lp_space(2, 2), [[1.0, 0.0], [0.0, 1.0]])
        assert fam.n == 2

    def test_zero_vector_reports_index(self):
        with pytest.raises(ZeroVectorError) as exc:
            nl.make_family(nl.lp_space(2, 2), [[1.0, 0.0], [0.0, 0.0]])
        assert exc.value.index == 1

    def test_below_tolerance(self):
        with pytest.raises(ZeroVectorError) as exc:
            nl.make_family(nl.lp_space(1, 2), [[1e-15, 0.0], [0.0, 1.0]])
        assert exc.value.index == 0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            nl.make_family(nl.lp_space(2, 3), [[1.0, 0.0], [0.0, 1.0]])


class TestSerialization:
    @pytest.mark.parametrize("space_idx", range(4))
    def test_round_trip(self, space_idx, rng, tmp_path):
        space = space_menu()[space_idx]
        fam = nl.make_family(space, rng.standard_normal((5, 3)))
        doc = nl.family_to_json(fam)
        back = nl.family_from_json(doc)
        assert back.space == fam.space
        assert np.array_equal(back.columns, fam.columns)
        path = tmp_path / "family.json"
        nl.save_family(fam, path)
        assert np.array_equal(nl.load_family(path).columns, fam.columns)

    def test_inf_tag_is_not_a_float(self):
        doc = nl.space_to_json(nl.lp_space("inf", 2))
        assert doc["p"] == "inf"
        assert nl.space_from_json(doc).is_sup_norm

    def test_p_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            nl.lp_space(0.5, 2)
