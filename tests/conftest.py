"""Shared test fixtures and independent oracle implementations.

The oracles here are deliberately naive (per-risk-set tallies, explicit
product-limit recursion) so they share no code path with the package.
The one exception, `dense_continuous_candidates`, is the package's
former continuous split search, kept as a bit-exact reference.
"""

import numpy as np
import pytest
from numpy.random import Generator, Philox

from survcart import CovariateSpec, SurvivalDataset
from survcart.splitting import SplitCandidate, _effective_events, _risk_table


def rng_for(*key):
    return Generator(Philox(key=list(key)))


def brute_logrank(times, events, group):
    """(O - E)/sqrt(V) for the group-True side, tallied per risk set."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    group = np.asarray(group, dtype=bool)
    O = E = V = 0.0
    for tj in sorted(set(times[events])):
        at = times >= tj
        nj = at.sum()
        n1j = (at & group).sum()
        dj = (events & (times == tj)).sum()
        O += (events & (times == tj) & group).sum()
        E += dj * n1j / nj
        if nj > 1:
            V += dj * (n1j / nj) * (1.0 - n1j / nj) * (nj - dj) / (nj - 1)
    if V <= 0.0:
        return None
    return (O - E) / np.sqrt(V)


def brute_km(times, indicator):
    """Product-limit recursion over distinct indicator-True times."""
    times = np.asarray(times, dtype=float)
    indicator = np.asarray(indicator, dtype=bool)
    grid = sorted(set(times[indicator]))
    surv = []
    s = 1.0
    for tj in grid:
        nj = (times >= tj).sum()
        dj = ((times == tj) & indicator).sum()
        s *= 1.0 - dj / nj
        surv.append(s)
    return np.array(grid), np.array(surv)


def brute_km_median(grid, surv):
    for tj, sj in zip(grid, surv):
        if sj <= 0.5:
            return tj
    return None


# the tie band mirrors splitting._TIE_RTOL: exact |LR| ties computed by
# different routes can differ by a few ulps
TIE_RTOL = 1e-9


def brute_best_continuous(times, events, x, minbucket):
    vals = np.unique(x)
    entries = []
    for i in range(len(vals) - 1):
        c = (vals[i] + vals[i + 1]) / 2.0
        left = x <= c
        if left.sum() < minbucket or (~left).sum() < minbucket:
            continue
        r = brute_logrank(times, events, left)
        if r is None:
            continue
        entries.append((abs(r), c, r))
    if not entries:
        return None
    m = max(a for a, _, _ in entries)
    band = m - TIE_RTOL * max(1.0, m)
    ties = sorted((c, r) for a, c, r in entries if a >= band)
    return ties[0]


def dense_continuous_candidates(variable, times, events, x, mode, minbucket):
    """Unsorted continuous candidates from a full N x D at-risk table.

    The split search before it was blocked, kept verbatim: the blocked
    sweep must reproduce every statistic bit for bit.
    """
    ev = _effective_events(events, mode)
    n = times.size
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    if values.size < 2 or not ev.any():
        return []
    bounds = np.cumsum(counts)[:-1]  # left sizes at each boundary
    admissible = (bounds >= minbucket) & (n - bounds >= minbucket)
    if not admissible.any():
        return []

    grid, d, n_risk = _risk_table(times, ev)
    cumhaz = np.cumsum(d / n_risk)
    pos = np.searchsorted(grid, times, side="right")
    haz_at = np.concatenate(([0.0], cumhaz))[pos]
    resid = ev.astype(float) - haz_at

    order = np.argsort(inverse, kind="stable")  # subjects in covariate order
    numer = np.cumsum(resid[order])[bounds - 1]

    # at-risk counts on the left of each boundary, per event time
    k = pos[order]  # subject at risk for grid[j] iff j < k
    at_risk_rows = np.arange(grid.size)[None, :] < k[:, None]
    n_left = np.cumsum(at_risk_rows, axis=0)[bounds - 1].astype(float)
    frac = n_left / n_risk
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(n_risk > 1, d * (n_risk - d) / (n_risk - 1), 0.0)
    variance = (a * frac * (1.0 - frac)).sum(axis=1)

    out = []
    for g in np.nonzero(admissible)[0]:
        if variance[g] <= 0.0:
            continue
        stat = numer[g] / np.sqrt(variance[g])
        cut = 0.5 * (values[g] + values[g + 1])
        out.append(
            SplitCandidate(
                variable=variable,
                kind="continuous",
                cutpoint=float(cut),
                mode=mode,
                statistic=float(stat),
                left_n=int(bounds[g]),
                right_n=int(n - bounds[g]),
            )
        )
    return out


def brute_best_categorical(times, events, x, minbucket):
    levels = sorted(set(x))
    if len(levels) < 2:
        return None
    if len(levels) == 2:
        prefixes = [(levels[0],)]
    else:
        keyed = []
        for idx, lv in enumerate(levels):
            mask = np.array([xi == lv for xi in x])
            med = brute_km_median(*brute_km(times[mask], events[mask]))
            keyed.append((np.inf if med is None else med, idx, lv))
        keyed.sort(key=lambda item: (item[0], item[1]))
        ordered = [item[2] for item in keyed]
        prefixes = [tuple(ordered[: i + 1]) for i in range(len(ordered) - 1)]
    entries = []
    for scan, pref in enumerate(prefixes):
        mask = np.array([xi in pref for xi in x])
        if mask.sum() < minbucket or (~mask).sum() < minbucket:
            continue
        r = brute_logrank(times, events, mask)
        if r is None:
            continue
        entries.append((abs(r), scan, pref, r))
    if not entries:
        return None
    m = max(a for a, *_ in entries)
    band = m - TIE_RTOL * max(1.0, m)
    ties = sorted(
        (scan, pref, r) for a, scan, pref, r in entries if a >= band
    )
    return ties[0][1], ties[0][2]


def censored_exponential(rng, n, rate, censored_fraction):
    """Event/censor competing draw with the requested censored share."""
    t_event = rng.exponential(1.0 / rate, n)
    if censored_fraction <= 0.0:
        return t_event, np.ones(n, dtype=bool)
    rate_c = rate * censored_fraction / (1.0 - censored_fraction)
    t_cens = rng.exponential(1.0 / rate_c, n)
    t = np.minimum(t_event, t_cens)
    return t, t_event <= t_cens


def one_var_dataset(times, events, x, kind):
    return SurvivalDataset(
        np.asarray(times, dtype=float),
        np.asarray(events, dtype=bool),
        meta=(CovariateSpec("x", kind),),
        columns={"x": np.asarray(x, dtype=object if kind == "categorical" else float)},
    )


@pytest.fixture
def demo_csv(tmp_path):
    """Small four-column survival CSV with one missing cell per kind."""
    path = tmp_path / "demo.csv"
    path.write_text(
        "id,time,status,age,group\n"
        "1,5.5,1,60,a\n"
        "2,12.25,0,52,b\n"
        "3,3.0,1,,a\n"
        "4,8.125,1,47,NA\n"
        "5,20.0,0,71,b\n"
    )
    return str(path)
