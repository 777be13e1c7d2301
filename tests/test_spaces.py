from copy import deepcopy

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
from normlab.spaces import norm_rows, norming_functionals

from conftest import norm, space_menu


class TestNormEval:
    def test_pythagorean(self):
        assert norm(nl.lp_space(2, 2), [3.0, 4.0]) == pytest.approx(5.0, abs=0)

    def test_sup_norm_max_abs(self):
        assert norm(nl.lp_space("inf", 3), [1.0, -2.0, 0.5]) == 2.0

    def test_polytope_two_functionals(self):
        # enumerate both functionals by hand: max(|2+3|, |2-3|) = 5
        space = nl.polytope_space([[1.0, 1.0], [1.0, -1.0]])
        assert norm(space, [2.0, 3.0]) == 5.0

    def test_dimension_mismatch(self):
        # a vector of the wrong length is a structured error at the kernel
        inst = nl.NormInstance(family=nl.make_family(nl.lp_space(2, 3), np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            nl.exact_unconditional_norm(inst, [1.0, 2.0])

    def test_non_finite(self):
        inst = nl.NormInstance(family=nl.make_family(nl.lp_space(2, 2), np.eye(2)))
        with pytest.raises(NonFiniteInputError):
            nl.exact_unconditional_norm(inst, [np.nan, 0.0])

    def test_general_p_large_entries_no_overflow(self):
        space = nl.lp_space(40, 2)
        v = norm(space, [1e200, 1e200])
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
    nu, nw = norm(space, u), norm(space, w)
    assert abs(norm(space, t * u) - abs(t) * nu) <= 1e-9 * max(1.0, abs(t) * nu)
    assert norm(space, u + w) <= nu + nw + 1e-9 * max(1.0, nu + nw)


def test_smooth_lp_norming_functional():
    space = nl.lp_space(3, 4)
    u = np.array([1.0, -2.0, 0.5, 0.0])
    phi = norming_functionals(space, u[:, None])[:, 0]
    q = 3 / 2  # dual exponent
    assert np.sum(np.abs(phi) ** q) ** (1 / q) == pytest.approx(1.0, rel=1e-12)
    assert phi @ u == pytest.approx(norm(space, u), rel=1e-12)


class TestNormRows:
    """``norm_rows`` is the combine that the kernel shares, so it is checked
    against formulas that do not go through it."""

    @pytest.mark.parametrize("dim", range(1, 13))
    @pytest.mark.parametrize("p", [1, 2, 3, 4.5, "inf"])
    def test_lp_equals_numpy_norm(self, p, dim):
        U = np.random.default_rng(dim).standard_normal((40, dim))
        U[0] = 0.0
        want = np.linalg.norm(U, ord=np.inf if p == "inf" else p, axis=-1)
        np.testing.assert_allclose(norm_rows(nl.lp_space(p, dim), U), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m, K", [(1, 1), (3, 7), (5, 40)])
    def test_polytope_equals_max_over_functionals(self, rng, m, K):
        space = nl.polytope_space(np.vstack([np.eye(m), rng.standard_normal((K, m))]))
        U = rng.standard_normal((30, m))
        want = [max(abs(float(np.dot(phi, u))) for phi in space.functionals) for u in U]
        np.testing.assert_allclose(norm_rows(space, U), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("space", [*space_menu(), nl.lp_space(3, 3)], ids=str)
    def test_one_vector_gives_a_0d_value(self, space):
        assert np.ndim(norm_rows(space, np.array([1.0, -2.0, 0.5]))) == 0

    @pytest.mark.parametrize("p, mode", [(1, "sumabs"), (2, "sumsq"), (3, "p"), ("inf", "maxabs")])
    def test_lp_functionals_are_the_read_only_identity(self, p, mode):
        space = nl.lp_space(p, 4)
        assert space.mode == mode and np.array_equal(space.functionals, np.eye(4))
        with pytest.raises(ValueError):
            space.functionals[0, 0] = 2.0
        assert nl.polytope_space(np.eye(4)).mode == "maxabs"


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
            assert norm(space, u) == pytest.approx(
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
        space = nl.space_from_json(doc)
        assert space.kind == "lp" and space.p is None

    def test_p_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            nl.lp_space(0.5, 2)


class TestEqualityAndHash:
    @pytest.mark.parametrize("space_idx", range(4))
    def test_spaces_compare_and_hash_by_value(self, space_idx):
        space = space_menu()[space_idx]
        copy = deepcopy(space)
        assert space == copy and hash(space) == hash(copy)
        assert len({space, copy}) == 1

    def test_polytopes_with_other_functionals_differ(self):
        a = nl.polytope_space([[1, 0], [0, 1]])
        b = nl.polytope_space([[1, 0], [0, 1], [1, 1]])
        assert a != b and len({a, b}) == 2

    def test_families_compare_by_identity(self, rng):
        fam = nl.make_family(nl.polytope_space([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                             rng.standard_normal((4, 3)))
        assert fam == fam and fam != deepcopy(fam)
        assert {fam: 1}[fam] == 1 and len({fam, deepcopy(fam)}) == 2
