"""Product-limit (Kaplan-Meier) estimation for either flavor of time.

The "event" flavor estimates event-time survival treating censorings as
incomplete; the "censor" flavor takes the censorings as the exact times
(``families.exact_mask``) and estimates the censoring-time distribution
the same way.  ``risk_table`` is the one risk table of the package: the
log-rank statistic and the split search read it too.

Both take the times' stable order when the caller has it: a tree node
inherits its times' order from the root (``SurvivalDataset.time_order``),
so neither sorts inside ``grow``.  Without one they sort through
``datasets.sort_order``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import sort_order
from .errors import EmptyInputError
from .families import EVENT, exact_mask


@dataclass(frozen=True)
class KMCurve:
    """Step survival curve on the grid of distinct (flavor-)event times."""

    flavor: str
    times: np.ndarray     # distinct event times, ascending
    survival: np.ndarray  # S at each grid time
    at_risk: np.ndarray
    n_events: np.ndarray
    n_total: int

    def survival_at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right")
        return 1.0 if idx == 0 else float(self.survival[idx - 1])


def risk_table(times, exact, order=None) -> tuple:
    """Distinct exact times, their counts and the numbers at risk.

    ``times`` is a float array and ``exact`` a boolean mask of the times
    that are exact.  Returns the ascending grid of distinct exact times,
    the integer count of exact times at each and the integer number of
    subjects whose time is at least it.  One sort, or the given stable
    ``order`` of the times: the exact times come out of it ascending, so
    the grid and the counts are its runs.
    """
    if order is None:
        order = sort_order(times)
    ts = times[order]
    exact_ts = ts[exact[order]]
    # run boundaries: the start of every run of equal times, then the end
    boundary = np.empty(exact_ts.size + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    np.not_equal(exact_ts[1:], exact_ts[:-1], out=boundary[1:-1])
    bounds = np.flatnonzero(boundary)
    starts = bounds[:-1]
    grid = exact_ts[starts]
    d = bounds[1:] - starts
    n_risk = times.size - np.searchsorted(ts, grid, side="left")
    return grid, d, n_risk


def km_fit(times, events, flavor: str = EVENT, order=None) -> KMCurve:
    """Product-limit curve; ``order`` is the times' stable order, if known."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise EmptyInputError("km_fit needs at least one subject")
    grid, d, at_risk = risk_table(times, exact_mask(events, flavor), order)
    surv = np.cumprod(1.0 - d / at_risk)
    return KMCurve(
        flavor=flavor,
        times=grid,
        survival=surv,
        at_risk=at_risk,
        n_events=d,
        n_total=times.size,
    )


def km_median(curve: KMCurve):
    """Smallest grid time with S(t) <= 0.5, or None when S never gets there."""
    hit = np.nonzero(curve.survival <= 0.5)[0]
    if hit.size == 0:
        return None
    return float(curve.times[hit[0]])
