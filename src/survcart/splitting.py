"""Maximally selected two-sample log-rank split search.

The split statistic is the standardized log-rank comparison of the two
sides of a candidate cutpoint.  Over the distinct event times tau_j
with d_j events, n_j subjects at risk and n_1j of them in group 1,

    LR = (O - E) / sqrt(V),   O = sum d_1j,   E = sum d_j n_1j / n_j,
    V  = sum d_j (n_1j/n_j)(1 - n_1j/n_j)(n_j - d_j)/(n_j - 1),

positive when group 1 carries more events than expected.  In "censor"
mode the censorings are the exact times (``families.exact_mask``), so
the comparison is between censoring-time distributions.  The tallies
d_j and n_j come from ``km.risk_table``.

For a continuous variable every midpoint between consecutive distinct
values is a candidate and the whole sweep is evaluated incrementally:
the numerator is the running sum of martingale residuals
d_i - H(t_i) in covariate order (H the Nelson-Aalen cumulative
hazard), and the variance reuses running at-risk counts per event
time.  One vector of those counts for the subjects already on the
left is updated subject by subject and copied out once per boundary
into a block of a fixed number of cells, where the variance terms of
the whole block are summed at once.  The sweep takes O(N * D) time and
O(block * D) memory for N subjects and D distinct event times; it never
holds an N x D table.
For a factor with more than two levels the levels are ordered by their
within-level product-limit median and the k - 1 ordered prefixes are
scanned, mirroring the continuous case.

Both searches take the variable's values grouped by the node's dataset
(``SurvivalDataset.grouping``), the same grouping the node's
instability tests used; a factor is grouped by its integer codes.

A search ranks its candidates as arrays of cutpoints, statistics and
left-side sizes and returns them as ``Candidates``, a read-only
sequence that builds each ``SplitCandidate`` only when that position
is read.  ``grow`` reads the ranking best first and stops at the first
split whose children can be fitted, so it builds about one candidate
per search instead of one per admissible boundary.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .datasets import CATEGORICAL
from .errors import EmptyGroupError
from .families import exact_mask
from .km import km_fit, km_median, risk_table

__all__ = [
    "LogrankResult",
    "SplitCandidate",
    "Candidates",
    "logrank",
    "candidate_splits",
    "best_split",
]


@dataclass(frozen=True)
class LogrankResult:
    statistic: float
    defined: bool  # False when there are no events or zero variance


@dataclass(frozen=True)
class SplitCandidate:
    """One admissible binary split, ranked by |statistic|."""

    variable: str
    kind: str
    cutpoint: object   # float threshold, or tuple of left-side levels
    mode: str
    statistic: float
    left_n: int
    right_n: int


class Candidates(Sequence):
    """The admissible splits of one search, best |statistic| first.

    Holds the ranked cutpoints, statistics and left-side sizes and
    builds the ``SplitCandidate`` at a position when it is read.
    Compares equal to a list of the same candidates in the same order.
    """

    def __init__(self, variable, kind, mode, n, cutpoints, statistics, left_n):
        self._variable = variable
        self._kind = kind
        self._mode = mode
        self._n = n  # subjects with a value: left_n + right_n
        self._cutpoints = cutpoints
        self._statistics = statistics
        self._left_n = left_n

    def __len__(self):
        return len(self._statistics)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        left_n = self._left_n[i]
        return SplitCandidate(
            variable=self._variable,
            kind=self._kind,
            cutpoint=self._cutpoints[i],
            mode=self._mode,
            statistic=self._statistics[i],
            left_n=left_n,
            right_n=self._n - left_n,
        )

    def __eq__(self, other):
        if not isinstance(other, (list, Candidates)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"Candidates({list(self)!r})"


def logrank(times, events, group) -> LogrankResult:
    """Standardized log-rank statistic; group is a boolean membership mask."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    group = np.asarray(group, dtype=bool)
    n1 = int(np.count_nonzero(group))
    if n1 == 0 or n1 == times.size:
        raise EmptyGroupError("both groups need at least one subject")
    if not events.any():
        return LogrankResult(0.0, False)
    grid, d, n_risk = risk_table(times, events)
    t1 = np.sort(times[group])
    n1_risk = t1.size - np.searchsorted(t1, grid, side="left")
    vals1, c1 = np.unique(times[group & events], return_counts=True)
    d1 = np.zeros(grid.size)
    d1[np.searchsorted(grid, vals1)] = c1
    frac = n1_risk / n_risk
    expected = d * frac
    with np.errstate(invalid="ignore", divide="ignore"):
        var_terms = np.where(
            n_risk > 1, d * frac * (1.0 - frac) * (n_risk - d) / (n_risk - 1), 0.0
        )
    variance = float(var_terms.sum())
    if variance <= 0.0:
        return LogrankResult(0.0, False)
    return LogrankResult(
        float((d1.sum() - expected.sum()) / np.sqrt(variance)), True
    )


# Cells per block of the boundary x event-time tables in the variance
# sweep: 512 KiB of float64, which stays in cache; any size gives the
# same numbers.
_BLOCK_CELLS = 1 << 16


# no admissible split: ranked (cutpoints, statistics, left sizes)
_NONE = ((), (), ())


def _continuous_candidates(times, ev, grouping, minbucket):
    """Ranked cutpoints, statistics and left sizes of the midpoints.

    ``ev`` marks the times exact for the search's mode.
    """
    n = times.size
    values, counts = grouping.distinct, grouping.counts
    if values.size < 2 or not ev.any():
        return _NONE
    bounds = np.cumsum(counts)[:-1]  # left sizes at each boundary
    admissible = np.nonzero((bounds >= minbucket) & (n - bounds >= minbucket))[0]
    if admissible.size == 0:
        return _NONE
    # bounds increase, so the admissible boundaries are one range
    first, stop = admissible[0], admissible[-1] + 1

    grid, d, n_risk = risk_table(times, ev)
    cumhaz = np.cumsum(d / n_risk)
    pos = np.searchsorted(grid, times, side="right")
    haz_at = np.concatenate(([0.0], cumhaz))[pos]
    resid = ev.astype(float) - haz_at

    order = np.argsort(grouping.inverse, kind="stable")  # covariate order
    numer = np.cumsum(resid[order])[bounds - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(n_risk > 1, d * (n_risk - d) / (n_risk - 1), 0.0)
    variance = _boundary_variances(pos[order], bounds, first, stop, a, n_risk)

    kept = np.nonzero(variance > 0.0)[0]
    g = first + kept
    stats = numer[g] / np.sqrt(variance[kept])
    cuts = 0.5 * (values[g] + values[g + 1])
    left = bounds[g]
    ranked = _tolerance_order(stats, cuts)
    return cuts[ranked].tolist(), stats[ranked].tolist(), left[ranked].tolist()


def _boundary_variances(k, bounds, first, stop, a, n_risk):
    """Log-rank variance at boundaries first .. stop - 1.

    k lists the subjects in covariate order, each as the number of event
    times it is at risk for; boundary g puts the first bounds[g] of them
    on the left.  The running at-risk counts n_left are exact integers
    (held as floats), and each boundary's terms are the same D values in
    the same order as in a full N x D table, so the sums match that
    table's bit for bit.
    """
    # the same values as floats: each boundary's divide then needs no cast
    n_risk = n_risk.astype(float)
    width = n_risk.size
    rows = max(1, _BLOCK_CELLS // width)
    starts = np.concatenate(([0], bounds))  # first subject of each value
    # subjects left of the first boundary at risk for grid[j]: count of k > j
    hist = np.bincount(k[: starts[first]], minlength=width + 1)
    n_left = np.cumsum(hist[:0:-1])[::-1].astype(float)
    # a * frac * (1.0 - frac), evaluated in place in two block buffers
    frac = np.empty((rows, width))
    terms = np.empty((rows, width))
    out = np.empty(stop - first)
    k = k.tolist()
    for g0 in range(first, stop, rows):
        g1 = min(g0 + rows, stop)
        for g in range(g0, g1):
            for k_i in k[starts[g] : starts[g + 1]]:
                n_left[:k_i] += 1.0
            np.divide(n_left, n_risk, out=frac[g - g0])
        f, t = frac[: g1 - g0], terms[: g1 - g0]
        np.multiply(a, f, out=t)
        np.subtract(1.0, f, out=f)
        np.multiply(t, f, out=t)
        t.sum(axis=1, out=out[g0 - first : g1 - first])
    return out


def _median_order(times, ev, inverse, n_groups):
    """Groups sorted by within-group product-limit median (None sorts last).

    ``ev`` marks the exact times, so each curve is of the search's mode.
    """
    keyed = []
    for idx in range(n_groups):
        mask = inverse == idx
        med = km_median(km_fit(times[mask], ev[mask]))
        keyed.append((np.inf if med is None else med, idx))
    keyed.sort()
    return [idx for _, idx in keyed]


def _categorical_candidates(times, ev, grouping, labels, minbucket):
    """Ranked prefix splits of the levels present, ordered by their medians.

    ``ev`` marks the times exact for the search's mode.  The grouping is
    by code and codes follow label order, so group indices order the
    levels present as their labels would.
    """
    n_groups = grouping.distinct.size
    if n_groups < 2:
        return _NONE
    if n_groups == 2:
        ordered = [0, 1]
    else:
        ordered = _median_order(times, ev, grouping.inverse, n_groups)
    group_labels = labels[grouping.distinct]
    on_left = np.zeros(n_groups, dtype=bool)
    cuts, stats, left = [], [], []
    for i, idx in enumerate(ordered[:-1]):
        on_left[idx] = True
        mask = on_left[grouping.inverse]
        left_n = int(np.count_nonzero(mask))
        if left_n < minbucket or times.size - left_n < minbucket:
            continue
        res = logrank(times, ev, mask)
        if not res.defined:
            continue
        cuts.append(tuple(group_labels[ordered[: i + 1]]))
        stats.append(res.statistic)
        left.append(left_n)
    # prefix order breaks ties
    ranked = _tolerance_order(np.array(stats), range(len(stats)))
    return ([cuts[i] for i in ranked], [stats[i] for i in ranked],
            [left[i] for i in ranked])


def candidate_splits(data, variable, mode, minbucket) -> Candidates:
    """All admissible splits on one variable, best |statistic| first.

    Ties go to the smaller cutpoint (earlier prefix for factors).
    Subjects missing the variable are left out of the tally.  The
    variable's values come grouped from ``data``, which keeps the
    grouping its instability test already made.  Each candidate is
    built when it is read.  ``mode`` must be "event" or "censor".
    """
    spec = data.spec_for(variable)
    grouping = data.grouping(variable)
    times = data.times[grouping.include]
    ev = exact_mask(data.events[grouping.include], mode)
    if times.size == 0:
        ranked = _NONE
    elif spec.kind == CATEGORICAL:
        ranked = _categorical_candidates(
            times, ev, grouping, data.levels[variable], minbucket
        )
    else:
        ranked = _continuous_candidates(times, ev, grouping, minbucket)
    return Candidates(variable, spec.kind, mode, times.size, *ranked)


# Exact |LR| ties are common (complementary partitions, or singletons at
# risk through every event time) while different evaluation routes can
# disagree in the last couple of ulps; a relative band makes the
# smaller-cutpoint tie-break independent of the computation path.
_TIE_RTOL = 1e-9


def _tolerance_order(stats, keys):
    """Candidate indices by |statistic| descending, ties by ascending key.

    Walking down the sorted magnitudes, a candidate joins the tie
    cluster of the one before it when their gap is within _TIE_RTOL of
    the cluster's first (largest) value; each cluster is ordered by key.
    """
    mags = np.abs(stats)
    ranked = np.argsort(-mags, kind="stable")
    out = ranked.tolist()
    if len(out) < 2:
        return out
    mags = mags[ranked]
    # the largest magnitude bounds every cluster's band, so only these
    # gaps can join two candidates; the walk visits them alone
    near = np.nonzero(mags[:-1] - mags[1:] <= _TIE_RTOL * max(1.0, mags[0]))[0]
    mags = mags.tolist()
    keys = np.asarray(keys).tolist()
    clusters = []
    i = j = 0  # the current cluster is out[i:j]
    for p in near.tolist():
        if p != j - 1:  # p is not in the current cluster: it starts one
            clusters.append((i, j))
            i, j = p, p + 1
        if mags[p] - mags[p + 1] <= _TIE_RTOL * max(1.0, mags[i]):
            j = p + 2
        else:
            clusters.append((i, j))
            i, j = p + 1, p + 2
    clusters.append((i, j))
    for i, j in clusters:
        if j - i > 1:
            out[i:j] = sorted(out[i:j], key=keys.__getitem__)
    return out


def best_split(data, variable, mode, minbucket):
    """Admissible split maximizing |LR|, or None when no candidate exists."""
    cands = candidate_splits(data, variable, mode, minbucket)
    return cands[0] if cands else None
