"""Shared test fixtures and independent oracle implementations.

The oracles here are deliberately naive (per-risk-set tallies, explicit
product-limit recursion) so they share no code path with the package.
The exceptions are bit-exact references kept from earlier versions of
the package: `dense_continuous_candidates` (the split search before it
was blocked), `boundary_variances` (the full variance sweep that served
reads past the exact band before the band widened), `sort_ranked`,
`label_categorical_candidates` and `label_variable_test` (the ranking,
factor split search and variable test before factors were encoded,
working on the raw labels),
`dict_rows_load_csv` (the CSV loader before it read column by column)
and `unique_risk_table` (the risk table before it read its grid off
the one sort).
"""

import csv
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.stats import norm

from survcart import CovariateSpec, SurvivalDataset
from survcart.dataio import MISSING_TOKENS
from survcart.datasets import CONTINUOUS
from survcart.errors import EmptyDatasetError, MissingColumnError, ParseError
from survcart.families import CENSOR, EVENT, exact_mask, score_contributions
from survcart.km import km_fit, km_median, risk_table
from survcart.splitting import SplitCandidate, logrank
from survcart.stability import (
    StabilityReport,
    _component_test,
    _skipped,
    hochberg,
)


def rng_for(*key):
    return Generator(Philox(key=list(key)))


def small_random_dataset(rng, low, high):
    """Between ``low`` and ``high - 1`` subjects with a float "x" and a factor "g".

    Times are Exp(mean 10) + 0.01, each an event with probability 0.6;
    "x" is standard normal and "g" has three levels.  Grown with tiny
    nodes and every family pair, these datasets once aborted ``grow``
    on singular information matrices.
    """
    n = int(rng.integers(low, high))
    t = rng.exponential(10.0, n) + 0.01
    e = rng.random(n) < 0.6
    x = rng.normal(size=n)
    g = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, n)]
    return SurvivalDataset(
        t, e,
        meta=(CovariateSpec("x", "continuous"), CovariateSpec("g", "categorical")),
        columns={"x": x, "g": g},
    )


def censored_normal_loglik(z, exact, mu, sigma):
    """Log likelihood of z ~ N(mu, sigma^2), right censored where not ``exact``.

    scipy.stats' normal log density and log survival of each subject,
    summed with ``math.fsum``.  A lognormal likelihood in t = exp(z)
    adds -z for each exact time.
    """
    y = (np.asarray(z, dtype=float) - mu) / sigma
    terms = np.where(exact, norm.logpdf(y) - math.log(sigma), norm.logsf(y))
    return math.fsum(terms.tolist())


def extreme_value_loglik(times, exact, mu, sigma):
    """Weibull log likelihood of ``times``, right censored where not ``exact``.

    log t = mu + sigma y with y standard extreme value: an exact time
    adds y - e^y - log(sigma) - log(t) (the density of t), a censored one
    -e^y, per subject with ``math`` and summed with ``math.fsum``.  At
    sigma = 1 it is the exponential likelihood with rate e^-mu.
    """
    terms = []
    for t, ex in zip(np.asarray(times, dtype=float).tolist(),
                     np.asarray(exact, dtype=bool).tolist()):
        y = (math.log(t) - mu) / sigma
        terms.append(y - math.exp(y) - math.log(sigma) - math.log(t) if ex
                     else -math.exp(y))
    return math.fsum(terms)


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


def unique_risk_table(times, exact):
    """km.risk_table with its grid and counts from np.unique."""
    order = np.argsort(times, kind="stable")
    ts = times[order]
    grid, d = np.unique(ts[exact[order]], return_counts=True)
    n_risk = times.size - np.searchsorted(ts, grid, side="left")
    return grid, d, n_risk


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


def dense_continuous_candidates(times, events, x, mode, minbucket):
    """Unsorted continuous candidates from a full N x D at-risk table.

    The split search before it was blocked, kept verbatim: the blocked
    sweep must reproduce every statistic bit for bit.
    """
    ev = exact_mask(events, mode)
    n = times.size
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    if values.size < 2 or not ev.any():
        return []
    bounds = np.cumsum(counts)[:-1]  # left sizes at each boundary
    admissible = (bounds >= minbucket) & (n - bounds >= minbucket)
    if not admissible.any():
        return []

    grid, d, n_risk = risk_table(times, ev)
    # float counts, as before: the package divides the integer ones
    d, n_risk = d.astype(float), n_risk.astype(float)
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
        out.append(SplitCandidate(float(cut), float(stat)))
    return out



def boundary_variances(k, bounds, first, stop, a, n_risk):
    """Log-rank variance at boundaries first .. stop - 1, by the full sweep.

    The O(N * D) sweep that once ranked every boundary of a search read
    past its band, kept as it was but for the sum of each block, written
    inline.  k lists the subjects in covariate order, each as the
    number of event times it is at risk for; boundary g puts the first
    bounds[g] of them on the left.  The running at-risk counts n_left
    are exact integers (held as floats), and each boundary's terms are
    the same D values in the same order as in a full N x D table, so the
    sums match that table's bit for bit.
    """
    n_risk = n_risk.astype(float)
    width = n_risk.size
    rows = max(1, (1 << 16) // width)
    starts = np.concatenate(([0], bounds))  # first subject of each value
    # subjects left of the first boundary at risk for grid[j]: count of k > j
    hist = np.bincount(k[: starts[first]], minlength=width + 1)
    n_left = np.cumsum(hist[:0:-1])[::-1].astype(float)
    frac = np.empty((rows, width))
    out = np.empty(stop - first)
    k = k.tolist()
    for g0 in range(first, stop, rows):
        g1 = min(g0 + rows, stop)
        for g in range(g0, g1):
            for k_i in k[starts[g] : starts[g + 1]]:
                n_left[:k_i] += 1.0
            np.divide(n_left, n_risk, out=frac[g - g0])
        block = frac[: g1 - g0]
        out[g0 - first : g1 - first] = (a * block * (1.0 - block)).sum(axis=1)
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


def sort_ranked(cands, cluster_key):
    """Candidates by |statistic| with the tie band, by Python sorting."""
    ranked = sorted(
        enumerate(cands), key=lambda item: (-abs(item[1].statistic), item[0])
    )
    out = []
    i = 0
    while i < len(ranked):
        scale = max(1.0, abs(ranked[i][1].statistic))
        j = i + 1
        while (
            j < len(ranked)
            and abs(ranked[j - 1][1].statistic) - abs(ranked[j][1].statistic)
            <= TIE_RTOL * scale
        ):
            j += 1
        out.extend(sorted(ranked[i:j], key=cluster_key))
        i = j
    return [c for _, c in out]


def missing_labels(labels):
    return np.array(
        [v is None or (isinstance(v, float) and np.isnan(v)) for v in labels],
        dtype=bool,
    )


def label_categorical_candidates(times, events, x, mode, minbucket):
    """Unsorted factor candidates grouped by np.unique on the labels x."""
    levels = np.unique(x)
    if levels.size < 2:
        return []
    if levels.size == 2:
        prefixes = [(levels[0],)]
    else:
        keyed = []
        for idx, level in enumerate(levels):
            mask = x == level
            med = km_median(km_fit(times[mask], events[mask], flavor=mode))
            keyed.append((np.inf if med is None else med, idx, level))
        keyed.sort(key=lambda item: (item[0], item[1]))
        ordered = [item[2] for item in keyed]
        prefixes = [tuple(ordered[: i + 1]) for i in range(len(ordered) - 1)]
    ev = exact_mask(events, mode)
    out = []
    for left_levels in prefixes:
        mask = np.isin(x, np.array(left_levels, dtype=object))
        left_n = int(np.count_nonzero(mask))
        right_n = times.size - left_n
        if left_n < minbucket or right_n < minbucket:
            continue
        res = logrank(times, ev, mask)
        if not res.defined:
            continue
        out.append(SplitCandidate(left_levels, res.statistic))
    return out


def label_variable_test(data, labels, variable, event_model, censor_model,
                        censor_enabled=True):
    """variable_test on the raw values ``labels`` (None or NaN missing).

    Both components group the labels themselves (``Grouping.of``, which
    matches np.unique on them).
    """
    spec = data.spec_for(variable)
    include = ~missing_labels(labels)
    x = labels[include]
    n_used = int(np.count_nonzero(include))
    distinct = np.unique(x)

    event_ct = _skipped(EVENT, "degenerate")
    censor_ct = _skipped(CENSOR, "disabled" if not censor_enabled else "degenerate")

    if distinct.size < 2:
        return StabilityReport(
            variable=variable,
            kind=spec.kind,
            testable=False,
            n_used=n_used,
            n_groups=int(distinct.size),
            event=event_ct,
            censor=censor_ct,
            cross_adjusted=(1.0, 1.0),
            variable_p=1.0,
            more_heterogeneous=EVENT,
        )

    if event_model is not None:
        scores = score_contributions(event_model, data)[include]
        event_ct = _component_test(EVENT, event_model, scores, spec.kind, x)
    if censor_enabled and censor_model is not None:
        scores = score_contributions(censor_model, data)[include]
        censor_ct = _component_test(CENSOR, censor_model, scores, spec.kind, x)

    tested = [ct for ct in (event_ct, censor_ct) if ct.tested]
    cross = {EVENT: 1.0, CENSOR: 1.0}
    if tested:
        adj = hochberg([ct.component_p for ct in tested])
        for ct, a in zip(tested, adj):
            cross[ct.component] = float(a)
        variable_p = float(adj.min())
    else:
        variable_p = 1.0

    if event_ct.tested and censor_ct.tested:
        mode = EVENT if event_ct.component_p <= censor_ct.component_p else CENSOR
    elif censor_ct.tested:
        mode = CENSOR
    else:
        mode = EVENT

    return StabilityReport(
        variable=variable,
        kind=spec.kind,
        testable=bool(tested),
        n_used=n_used,
        n_groups=int(distinct.size),
        event=event_ct,
        censor=censor_ct,
        cross_adjusted=(cross[EVENT], cross[CENSOR]),
        variable_p=variable_p,
        more_heterogeneous=mode,
    )


# listed out of sort order, which is Alpha < B < a10 < a9 < b < zeta
FACTOR_LEVELS = ("zeta", "b", "Alpha", "a10", "a9", "B")


def factor_child_node(seed):
    """A subset() child of a dataset with a factor "g" and a float "x".

    Returns the child and the raw "g" labels and "x" values of its
    subjects.  Labels follow no sort order, missing ones are None or
    NaN, the child can lack some of the parent's levels, and the node
    can have a single level, or none.
    """
    rng = rng_for(409, seed)
    n = int(rng.integers(8, 60))
    n_levels = int(rng.integers(1, len(FACTOR_LEVELS) + 1))
    draws = rng.integers(0, n_levels, n)
    labels = np.array([FACTOR_LEVELS[v] for v in draws], dtype=object)
    miss = rng.random(n) < rng.choice([0.0, 0.1, 0.3])
    for i in np.nonzero(miss)[0]:
        labels[i] = (None, float("nan"), np.nan)[i % 3]
    x = np.round(rng.uniform(0.0, 3.0, n), 1)  # tied values
    x[rng.random(n) < 0.1] = np.nan
    t = np.round(rng.exponential(2.0, n), 1) + 0.1  # tied times
    e = rng.random(n) < 0.7
    parent = SurvivalDataset(
        t, e,
        meta=(CovariateSpec("g", "categorical"), CovariateSpec("x", "continuous")),
        columns={"g": labels, "x": x},
    )
    # drop a random level (possibly every subject of it) and a few others
    keep = (draws != rng.integers(0, n_levels)) | (rng.random(n) < 0.2)
    keep &= rng.random(n) < 0.9
    if not keep.any():
        keep[0] = True
    index = np.nonzero(keep)[0]
    return parent.subset(index), labels[index], x[index]


def censored_exponential(rng, n, rate, censored_fraction):
    """Event/censor competing draw with the requested censored share."""
    t_event = rng.exponential(1.0 / rate, n)
    if censored_fraction <= 0.0:
        return t_event, np.ones(n, dtype=bool)
    rate_c = rate * censored_fraction / (1.0 - censored_fraction)
    t_cens = rng.exponential(1.0 / rate_c, n)
    t = np.minimum(t_event, t_cens)
    return t, t_event <= t_cens


def exponential_mle(times, w):
    """Exponential rate, log likelihood and per-subject information.

    The closed forms lam = D / sum(t), D log lam - lam sum(t) and
    (D / N) / lam^2, summed in plain Python with ``math.fsum``.
    """
    d = math.fsum(w)
    exposure = math.fsum(times)
    lam = d / exposure
    return lam, d * math.log(lam) - lam * exposure, (d / len(times)) / lam**2


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


def dict_rows_load_csv(path, schema):
    """load_csv as one dict per row (csv.DictReader), converted row by row.

    Kept from before the loader read column by column, except that a
    ParseError names the file line the record ends on.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise EmptyDatasetError("file has no header row")
        needed = [schema.time_column, schema.event_column]
        needed.extend(v.name for v in schema.variables)
        if schema.id_column is not None:
            needed.append(schema.id_column)
        for column in needed:
            if column not in header:
                raise MissingColumnError(f"column {column!r} not in header {header}")

        times, events = [], []
        columns = {v.name: [] for v in schema.variables}
        for row in reader:
            rownum = reader.line_num
            raw_time = (row.get(schema.time_column) or "").strip()
            if raw_time in MISSING_TOKENS:
                raise ParseError(rownum, schema.time_column, "missing time value")
            try:
                times.append(float(raw_time))
            except ValueError:
                raise ParseError(
                    rownum, schema.time_column, f"not a number: {raw_time!r}"
                ) from None
            raw_event = (row.get(schema.event_column) or "").strip()
            if raw_event in MISSING_TOKENS:
                raise ParseError(rownum, schema.event_column, "missing event value")
            events.append(raw_event == schema.event_value)
            for spec in schema.variables:
                raw = (row.get(spec.name) or "").strip()
                if raw in MISSING_TOKENS:
                    columns[spec.name].append(
                        np.nan if spec.kind == CONTINUOUS else None)
                elif spec.kind == CONTINUOUS:
                    try:
                        columns[spec.name].append(float(raw))
                    except ValueError:
                        raise ParseError(
                            rownum, spec.name, f"not a number: {raw!r}"
                        ) from None
                else:
                    columns[spec.name].append(raw)

    if not times:
        raise EmptyDatasetError("file has no data rows")
    return SurvivalDataset(times, events, schema.variables, columns)
