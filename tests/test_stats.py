import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from normlab.seeding import trial_seeds_for_xi
from normlab.stats import loglog_slope, quartiles, sweep


def test_quartiles_match_numpy_percentile():
    vals = np.random.default_rng(0).standard_normal(17)
    assert quartiles(vals) == tuple(float(v) for v in np.percentile(vals, [25.0, 50.0, 75.0]))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_loglog_slope_of_a_power_law():
    xs = [0.1, 0.25, 0.5, 1.0]
    assert loglog_slope((x, 3.0 * x**2) for x in xs) == pytest.approx(2.0, rel=1e-12)


def test_loglog_slope_skips_nonpositive_values_and_needs_two_x():
    assert loglog_slope([(0.5, 1.0), (0.25, 0.0)]) is None
    assert loglog_slope([(0.5, 1.0), (0.5, 2.0)]) is None
    assert loglog_slope([]) is None
    assert loglog_slope([(0.5, 0.5), (0.25, 0.25), (0.1, -1.0)]) == pytest.approx(1.0, rel=1e-12)


def test_sweep_gives_the_same_reports_in_the_same_order_with_and_without_a_pool():
    def trial(xi, t, seed):
        time.sleep(0.002 * (3 - t))  # so that a pool finishes the later trials first
        return (xi, t, seed)

    xi_list = [0.5, 1.0, 0.5]
    with ThreadPoolExecutor(max_workers=3) as pool:
        pooled = sweep(xi_list, 3, 7, trial, pool)
    assert pooled == sweep(xi_list, 3, 7, trial)
    assert list(pooled) == [0.5, 1.0]
    for xi in (0.5, 1.0):
        assert pooled[xi] == [(xi, t, s) for t, s in enumerate(trial_seeds_for_xi(7, xi, 3))]
