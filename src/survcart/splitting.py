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
values is a candidate.  The numerator at every boundary is the running
sum of martingale residuals d_i - H(t_i) in covariate order (H the
Nelson-Aalen cumulative hazard).  The variance is found in three steps,
for N subjects and D distinct event times:

* Ranking.  Prefix sums over the event times give every boundary's
  variance in O(N sqrt(D)) time and O(N + D) memory
  (``_approximate_variances``), with a rigorous bound on its distance
  from the exact sum, hence an interval for each |statistic|.  Which
  boundaries have a positive variance at all is decided exactly, in
  O(N), from the largest at-risk count on each side.
* Exact band.  Every boundary whose interval reaches a floor, the
  largest lower bound less ``_BAND_TOLS`` tie tolerances, is evaluated
  with the exact per-boundary formula (``_band_variances``) and ranked.
  Every other boundary lies below that floor, so the leading ranked
  positions are final, up to the tie cluster that a boundary below the
  floor could still join (``_certified_prefix``).
* Widening.  A read past those positions runs the search again with
  the floor at the ``want``-th largest lower bound, ``want`` at least
  doubling each time, so the band grows until the read position is
  certified.  Once ``want`` reaches the number of boundaries the band
  is every boundary, so a search widens at most log2 of that many
  times.

Every statistic comes from ``_band_variances``, so it is the same bit
for bit however wide the band that evaluated it.  ``grow`` reads about
one candidate per search, which the first band serves.

For a factor with more than two levels the levels are ordered by their
within-level product-limit median and the k - 1 ordered prefixes are
scanned, mirroring the continuous case.

Both searches take the variable's values grouped by the node's dataset
(``SurvivalDataset.grouping``), the same grouping the node's
instability tests used; a factor is grouped by its integer codes.  No
search sorts: the covariate order comes with the grouping and the time
order with the node (``SurvivalDataset.time_order``), both inherited
from the root, and the risk table, the log-rank tallies and the
per-level product-limit medians read them.

A search ranks its candidates as arrays of cutpoints, statistics and
left-side sizes and returns them as ``Candidates``, a read-only
sequence of exact length that builds each ``SplitCandidate`` only when
that position is read, and a continuous search's wider band only
when a read passes the first one.  ``grow`` reads the ranking best
first and stops at the first split whose children can be fitted, so
it builds about one candidate per search instead of one per
admissible boundary.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .datasets import CATEGORICAL, restrict_order, sort_order
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

    Holds the ranked cutpoints, statistics and left-side sizes of a
    leading run of the ranking and builds the ``SplitCandidate`` at a
    position when it is read.  A read past that run calls ``complete``,
    which returns a longer leading run and the callable that serves
    past it (None once the run is the whole ranking), until the run
    reaches the position.  Compares equal to a list of the same
    candidates in the same order.
    """

    def __init__(self, variable, kind, mode, n, ranked, size=None, complete=None):
        self._variable = variable
        self._kind = kind
        self._mode = mode
        self._n = n  # subjects with a value: left_n + right_n
        self._ranked = ranked  # (cutpoints, statistics, left sizes)
        self._size = len(ranked[1]) if size is None else size
        self._complete = complete

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError("candidate index out of range")
        while i >= len(self._ranked[1]):
            self._ranked, self._complete = self._complete()
        cutpoints, statistics, left_n = self._ranked
        return SplitCandidate(
            variable=self._variable,
            kind=self._kind,
            cutpoint=cutpoints[i],
            mode=self._mode,
            statistic=statistics[i],
            left_n=left_n[i],
            right_n=self._n - left_n[i],
        )

    def __eq__(self, other):
        if not isinstance(other, (list, Candidates)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"Candidates({list(self)!r})"


def logrank(times, events, group, order=None) -> LogrankResult:
    """Standardized log-rank statistic; group is a boolean membership mask.

    ``order`` is the times' stable order, if known; without it the times
    are sorted once.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    group = np.asarray(group, dtype=bool)
    n1 = int(np.count_nonzero(group))
    if n1 == 0 or n1 == times.size:
        raise EmptyGroupError("both groups need at least one subject")
    if not events.any():
        return LogrankResult(0.0, False)
    if order is None:
        order = sort_order(times)
    grid, d, n_risk = risk_table(times, events, order)
    t1 = times[order[group[order]]]  # group 1's times, ascending
    n1_risk = t1.size - np.searchsorted(t1, grid, side="left")
    observed = np.count_nonzero(group & events)  # O = sum_j d_1j
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
        float((observed - expected.sum()) / np.sqrt(variance)), True
    )


# Cells per block of the band x event-time tables of exact variances:
# 512 KiB of float64, which stays in cache; any size gives the same
# numbers.
_BLOCK_CELLS = 1 << 16

# The exact band reaches this many tie tolerances (_TIE_RTOL) below the
# want-th largest certified lower bound on |statistic| (the largest, in
# a first search).  Two let the best cluster be served whole when the
# bounds are tight; any width serves the same candidates, a narrower
# band just widens sooner.
_BAND_TOLS = 2.0

_ROUNDOFF = 2.0**-53  # unit roundoff of float64

# no admissible split: ranked (cutpoints, statistics, left sizes)
_NONE = ((), (), ())


def _continuous_candidates(times, ev, by_time, grouping, minbucket, want=1):
    """Ranked midpoints: a certified leading run and their number.

    ``ev`` marks the times exact for the search's mode and ``by_time``
    is the times' stable order.  Returns the ranked (cutpoints,
    statistics, left sizes) of a leading run of the ranking and the
    number of candidates.  The band's floor is the ``want``-th largest
    lower bound, so a larger ``want`` certifies a longer run; from the
    number of candidates on it is the whole ranking.
    """
    n = times.size
    values, counts = grouping.distinct, grouping.counts
    if values.size < 2 or not ev.any():
        return _NONE, 0
    bounds = np.cumsum(counts)[:-1]  # left sizes at each boundary
    admissible = np.nonzero((bounds >= minbucket) & (n - bounds >= minbucket))[0]
    if admissible.size == 0:
        return _NONE, 0

    _, d, n_risk = risk_table(times, ev, by_time)
    cumhaz = np.cumsum(d / n_risk)
    pos = _time_ranks(by_time, n_risk)
    haz_at = np.concatenate(([0.0], cumhaz))[pos]
    resid = ev.astype(float) - haz_at

    order = grouping.order  # covariate order, ties in subject order
    numer = np.cumsum(resid[order])[bounds - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(n_risk > 1, d * (n_risk - d) / (n_risk - 1), 0.0)
    k = pos[order]

    # The variance is positive exactly where some a_j > 0 lies below the
    # largest k on each side: then that side has subjects at risk for
    # event time j.
    positive = np.nonzero(a > 0.0)[0]
    if positive.size == 0:
        return _NONE, 0
    lefts = bounds[admissible]
    reach = np.minimum(np.maximum.accumulate(k)[lefts - 1],
                       np.maximum.accumulate(k[::-1])[::-1][lefts])
    g = admissible[reach > positive[0]]
    if g.size == 0:
        return _NONE, 0

    # certified bounds on each |statistic|, then the exact band: every
    # boundary whose upper bound reaches the want-th largest lower bound
    # less the band, so every boundary outside it lies below ``floor``
    approx, err = _approximate_variances(k, bounds[g], a, n_risk)
    mag = np.abs(numer[g])
    low = mag / np.sqrt(approx + err)
    with np.errstate(invalid="ignore", divide="ignore"):
        high = np.where(approx - err > 0.0, mag / np.sqrt(approx - err), np.inf)
    best = float(low.max())
    m = min(want, g.size)
    nth = best if m == 1 else float(np.partition(low, -m)[-m])
    floor = nth - _BAND_TOLS * _TIE_RTOL * max(1.0, best)
    band = g[high >= floor]
    variance = _band_variances(k, bounds[band], a, n_risk)
    stats = numer[band] / np.sqrt(variance)
    cuts = 0.5 * (values[band] + values[band + 1])
    best_first = _tolerance_order(stats, cuts)
    ranked = (cuts[best_first].tolist(), stats[best_first].tolist(),
              bounds[band][best_first].tolist())
    if band.size == g.size:
        return ranked, g.size
    served = _certified_prefix(sorted(map(abs, ranked[1]), reverse=True), floor)
    return tuple(r[:served] for r in ranked), g.size


def _time_ranks(by_time, n_risk):
    """Each subject's number of risk-table times at or before its own.

    The same integers as ``np.searchsorted(grid, times, side="right")``,
    read off the stable time order ``by_time`` in O(n): grid time j
    first appears at sorted position n - n_risk[j], so a sorted
    position's rank counts those first appearances up to it.
    """
    n = by_time.size
    firsts = np.zeros(n, dtype=np.intp)
    firsts[n - n_risk] = 1
    ranks = np.empty(n, dtype=np.intp)
    ranks[by_time] = np.cumsum(firsts)
    return ranks


def _approximate_variances(k, lefts, a, n_risk):
    """Log-rank variances at left sizes ``lefts`` from prefix sums, with
    a bound on their distance from the exact ones.

    k lists the subjects in covariate order, each as the number of event
    times it is at risk for; left size m puts the first m of them on the
    left.  ``lefts`` ascends.  With f_j = n_left_j / n_j,

        V = sum_j a_j f_j (1 - f_j) = S1 - S2,
        S1 = sum_{i in L} A(k_i),          A(k) = sum_{j<k} a_j / n_j,
        S2 = sum_j b_j n_left_j^2
           = sum_{i in L} [B(k_i) + 2 sum_{i' in L before i} B(min(k_i, k_i'))],

    with b_j = a_j / n_j^2 and B(k) = sum_{j<k} b_j.  The inner sums are
    dominance sums, taken in blocks of about 2 sqrt(D) subjects: those
    over earlier blocks from one cumulative histogram of k per block,
    those within a block from a block x block minimum.  Time is
    O(N sqrt(D)), memory O(N + D).

    Error bound: every summand is nonnegative, so each computed sum is
    within a relative gamma_m = m u / (1 - m u) of its exact value, m
    the number of roundings along the longest chain (Higham 2002,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Lemma
    3.3), u = 2^-53.  That gives |S1^ - S1| <= gamma_(N+2D+b+2) S1 and
    the same for S2 (b the block size), and one more rounding of
    S1^ - S2^.  The exact band's terms a_j f^(1 - f^) are each within
    gamma_(N+3) of a_j f_j (1 - f_j), because 1 - f^ carries the error
    of f^ magnified by f / (1 - f) <= n_j - 1, and its sum within
    gamma_(N+D+2) of V <= S1.  Both together come to
    (2N + 3D + b + 5) u (S1^ + S2^) to first order in u; the bound's
    gamma = 3 (N + 2D + b + 8) u exceeds that by more than the
    higher-order terms and the two roundings of the bound itself while
    N + 2D < 2^30.
    """
    n, width = k.size, a.size + 1
    k = k[: lefts[-1]]
    per_risk = a / n_risk
    A = np.concatenate(([0.0], np.cumsum(per_risk)))
    B = np.concatenate(([0.0], np.cumsum(per_risk / n_risk)))
    size = 2 * math.isqrt(width)
    earlier = np.tri(size, k=-1)  # 1 where the column's subject comes first
    hist = np.zeros(width, dtype=np.intp)  # k of the subjects before the block
    at_least = np.empty(width, dtype=np.intp)  # reversed: k' >= width - 1 - index
    weighted = np.empty(width)
    below = np.zeros(width)  # sum of B(k') over earlier k' < index
    pairs = np.empty(k.size)
    for s in range(0, k.size, size):
        kb = k[s : s + size]
        r = kb.size
        np.cumsum(hist[::-1], out=at_least)
        np.multiply(hist[:-1], B[:-1], out=weighted[:-1])
        np.cumsum(weighted[:-1], out=below[1:])
        bk = B[kb]  # B is nondecreasing, so B(min(k, k')) = min(B(k), B(k'))
        within = (np.minimum.outer(bk, bk) * earlier[:r, :r]).sum(axis=1)
        pairs[s : s + r] = (bk * at_least[width - 1 - kb] + below[kb]) + within
        np.add.at(hist, kb, 1)
    s1 = np.cumsum(A[k])[lefts - 1]
    s2 = np.cumsum(B[k] + 2.0 * pairs)[lefts - 1]
    gamma = 3.0 * (n + 2 * a.size + size + 8) * _ROUNDOFF
    return s1 - s2, gamma * (s1 + s2)


def _band_variances(k, lefts, a, n_risk):
    """Exact log-rank variance at ascending left sizes ``lefts``.

    k is as in _approximate_variances.  Each boundary's at-risk counts
    n_left are the suffix sums of one running histogram of k: exact
    integers, held as floats, so each boundary's terms are the same D
    values in the same order as in a full N x D table, and the sums
    match that table's bit for bit.  Time O(N + band * D), memory
    O(block * D).
    """
    n_risk = n_risk.astype(float)
    width = n_risk.size
    rows = max(1, _BLOCK_CELLS // width)
    hist = np.zeros(width + 1, dtype=np.intp)
    frac_rows = np.empty((min(rows, lefts.size), width))
    term_rows = np.empty_like(frac_rows)
    out = np.empty(lefts.size)
    done = 0
    for r0 in range(0, lefts.size, rows):
        r1 = min(r0 + rows, lefts.size)
        frac, terms = frac_rows[: r1 - r0], term_rows[: r1 - r0]
        for r in range(r0, r1):
            hist += np.bincount(k[done : lefts[r]], minlength=width + 1)
            done = lefts[r]
            n_left = np.cumsum(hist[:0:-1])[::-1].astype(float)
            np.divide(n_left, n_risk, out=frac[r - r0])
        # each row's sum of a * frac * (1.0 - frac), in place
        np.multiply(a, frac, out=terms)
        np.subtract(1.0, frac, out=frac)
        np.multiply(terms, frac, out=terms)
        terms.sum(axis=1, out=out[r0:r1])
    return out


def _median_order(times, ev, by_time, inverse, n_groups):
    """Groups sorted by within-group product-limit median (None sorts last).

    ``ev`` marks the exact times, so each curve is of the search's mode;
    each group's times keep their order from ``by_time``.
    """
    keyed = []
    for idx in range(n_groups):
        mask = inverse == idx
        med = km_median(km_fit(times[mask], ev[mask],
                               order=restrict_order(by_time, mask)))
        keyed.append((np.inf if med is None else med, idx))
    keyed.sort()
    return [idx for _, idx in keyed]


def _categorical_candidates(times, ev, by_time, grouping, labels, minbucket):
    """Ranked prefix splits of the levels present, ordered by their medians.

    ``ev`` marks the times exact for the search's mode and ``by_time``
    is the times' stable order.  The grouping is
    by code and codes follow label order, so group indices order the
    levels present as their labels would.
    """
    n_groups = grouping.distinct.size
    if n_groups < 2:
        return _NONE
    if n_groups == 2:
        ordered = [0, 1]
    else:
        ordered = _median_order(times, ev, by_time, grouping.inverse, n_groups)
    group_labels = labels[grouping.distinct]
    on_left = np.zeros(n_groups, dtype=bool)
    cuts, stats, left = [], [], []
    for i, idx in enumerate(ordered[:-1]):
        on_left[idx] = True
        mask = on_left[grouping.inverse]
        left_n = int(np.count_nonzero(mask))
        if left_n < minbucket or times.size - left_n < minbucket:
            continue
        res = logrank(times, ev, mask, by_time)
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
    grouping, times, ev, by_time = _present(data, variable, mode)
    size = complete = None
    if times.size == 0:
        ranked = _NONE
    elif spec.kind == CATEGORICAL:
        ranked = _categorical_candidates(
            times, ev, by_time, grouping, data.levels[variable], minbucket
        )
    else:
        ranked, size = _continuous_candidates(times, ev, by_time, grouping,
                                              minbucket)
        complete = _widening(data, variable, mode, minbucket, 1, ranked, size)
    return Candidates(variable, spec.kind, mode, times.size, ranked, size, complete)


def _present(data, variable, mode):
    """The variable's grouping, and the times, exact-time mask and stable
    time order of the subjects with a value."""
    grouping = data.grouping(variable)
    include, by_time = grouping.include, data.time_order
    if grouping.values.size == data.n:  # nobody misses the variable
        return grouping, data.times, exact_mask(data.events, mode), by_time
    return (grouping, data.times[include],
            exact_mask(data.events[include], mode),
            restrict_order(by_time, include))


def _widening(data, variable, mode, minbucket, want, ranked, size):
    """What serves reads past a continuous search's run, or None when the
    run is the whole ranking.

    A wider search starts over from the node's data, so the search's
    arrays are not kept alive while its reader runs.
    """
    served = len(ranked[1])
    if served == size:
        return None
    return partial(_widened, data, variable, mode, minbucket,
                   2 * max(want, served + 1))


def _widened(data, variable, mode, minbucket, want):
    """A continuous search run again with its floor at the ``want``-th
    largest lower bound: its ranked run, and what serves reads past it."""
    grouping, times, ev, by_time = _present(data, variable, mode)
    ranked, size = _continuous_candidates(times, ev, by_time, grouping,
                                          minbucket, want)
    return ranked, _widening(data, variable, mode, minbucket, want, ranked, size)


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
    keys = np.asarray(keys).tolist()
    for i, j in _tie_clusters(mags[ranked]):
        if j - i > 1:
            out[i:j] = sorted(out[i:j], key=keys.__getitem__)
    return out


def _tie_clusters(mags):
    """(start, stop) of the tie clusters of descending magnitudes.

    Every cluster of two or more is listed; single ones may be left out.
    """
    # the largest magnitude bounds every cluster's band, so only these
    # gaps can join two candidates; the walk visits them alone
    mags = np.asarray(mags)
    near = np.nonzero(mags[:-1] - mags[1:] <= _TIE_RTOL * max(1.0, mags[0]))[0]
    mags = mags.tolist()
    clusters = []
    i = j = 0  # the current cluster is mags[i:j]
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
    return clusters


def _certified_prefix(mags, floor):
    """How many leading ranked positions magnitudes below ``floor`` cannot move.

    ``mags`` are the descending magnitudes of the candidates evaluated
    exactly, and every candidate left out has a magnitude below
    ``floor``.  The leading positions at or above it rank alike in the
    whole list, except that a left-out candidate could join the tie
    cluster holding the last of them; that cluster counts only when the
    gap down to ``floor`` already exceeds its tolerance.
    """
    q = sum(m >= floor for m in mags)
    i = q - 1  # where the cluster holding position q - 1 starts
    for start, stop in _tie_clusters(mags):
        if start < q <= stop:
            i = start
    # past the gap down to the floor no magnitude below it joins (nor,
    # then, any evaluated one: they lie below the floor too)
    if mags[q - 1] - floor > _TIE_RTOL * max(1.0, mags[i]):
        return q
    return i


def best_split(data, variable, mode, minbucket):
    """Admissible split maximizing |LR|, or None when no candidate exists."""
    cands = candidate_splits(data, variable, mode, minbucket)
    return cands[0] if cands else None
