"""Trial summaries shared by the xi sweeps: quartiles and the log-log slope."""

from __future__ import annotations

import numpy as np


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values`` by numpy's linear interpolation."""
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(q1), float(med), float(q3)


def loglog_slope(points) -> float | None:
    """Least-squares slope of log y against log x over the (x, y) with y > 0.

    None when fewer than two distinct x remain.  Reported, never asserted.
    """
    pts = [(x, y) for x, y in points if y > 0.0]
    if len({x for x, _ in pts}) < 2:
        return None
    return float(np.polyfit(np.log([x for x, _ in pts]), np.log([y for _, y in pts]), 1)[0])
