import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcart import (
    CENSOR,
    EVENT,
    EmptyGroupError,
    TreeConfig,
    TreeRecoveryDesign,
    grow,
    logrank,
    replicate_rng,
)
from survcart import splitting
from survcart.km import risk_table
from survcart.simlab import generate_tree_data
from survcart.splitting import Candidates, SplitCandidate, candidate_splits

from conftest import (
    TIE_RTOL,
    boundary_variances,
    brute_best_categorical,
    brute_best_continuous,
    brute_logrank,
    censored_exponential,
    dense_continuous_candidates,
    factor_child_node,
    label_categorical_candidates,
    missing_labels,
    one_var_dataset,
    rng_for,
    sort_ranked,
)


# --- two-sample log-rank ---------------------------------------------------

def test_logrank_worked_example():
    # all events at 1..4 with the early pair in group 1
    res = logrank(np.array([1.0, 2.0, 3.0, 4.0]),
                  np.ones(4, bool),
                  np.array([1, 1, 0, 0], bool))
    assert res.defined
    assert res.statistic == pytest.approx(1.6977493752543307, abs=1e-12)


def test_logrank_sign_tracks_group_one():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.ones(4, bool)
    g = np.array([1, 1, 0, 0], bool)
    assert logrank(t, e, g).statistic == pytest.approx(
        -logrank(t, e, ~g).statistic, abs=1e-12)


def test_logrank_identical_groups_score_zero():
    t = np.array([1.0, 2.0, 1.0, 2.0])
    e = np.array([1, 0, 1, 0], bool)
    res = logrank(t, e, np.array([1, 1, 0, 0], bool))
    assert res.defined
    assert res.statistic == pytest.approx(0.0, abs=1e-12)


def test_logrank_no_events_undefined():
    res = logrank(np.array([1.0, 2.0]), np.zeros(2, bool),
                  np.array([1, 0], bool))
    assert not res.defined
    assert res.statistic == 0.0


def test_logrank_empty_group_rejected():
    t = np.array([1.0, 2.0])
    e = np.ones(2, bool)
    with pytest.raises(EmptyGroupError):
        logrank(t, e, np.array([1, 1], bool))
    with pytest.raises(EmptyGroupError):
        logrank(t, e, np.array([0, 0], bool))


def test_logrank_matches_risk_set_tally():
    rng = rng_for(401, 0)
    for _ in range(1000):
        n = int(rng.integers(4, 13))
        t = np.round(rng.uniform(0.5, 4.0, n), 1)  # force ties
        e = rng.integers(0, 2, n).astype(bool)
        g = rng.integers(0, 2, n).astype(bool)
        if g.all() or not g.any():
            continue
        mine = logrank(t, e, g)
        ref = brute_logrank(t, e, g)
        if ref is None:
            assert not mine.defined
        else:
            assert mine.defined
            assert mine.statistic == pytest.approx(ref, abs=1e-10)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_logrank_antisymmetric_under_group_swap(seed):
    rng = rng_for(402, seed)
    n = int(rng.integers(4, 20))
    t = rng.exponential(5.0, n)
    e = rng.random(n) < 0.7
    g = rng.random(n) < 0.5
    if g.all() or not g.any():
        return
    a = logrank(t, e, g)
    b = logrank(t, e, ~g)
    assert a.defined == b.defined
    assert a.statistic == pytest.approx(-b.statistic, abs=1e-12)


# --- split search ----------------------------------------------------------

def test_best_split_continuous_matches_brute_force():
    rng = rng_for(403, 0)
    for _ in range(500):
        n = int(rng.integers(6, 25))
        t, e = censored_exponential(rng, n, 0.2, 0.3)
        x = np.round(rng.uniform(0.0, 3.0, n), 1)
        data = one_var_dataset(t, e, x, "continuous")
        cands = candidate_splits(data, "x", EVENT, 2)
        want = brute_best_continuous(t, e, x, 2)
        if want is None:
            assert not cands
            continue
        got = cands[0]
        cut, stat = want
        assert got.cutpoint == pytest.approx(cut, abs=1e-12)
        assert abs(got.statistic) == pytest.approx(abs(stat), rel=1e-9)


def test_best_split_categorical_matches_brute_force():
    rng = rng_for(404, 0)
    for _ in range(400):
        n = int(rng.integers(8, 30))
        t, e = censored_exponential(rng, n, 0.2, 0.3)
        levels = rng.integers(0, 4, n)
        x = np.array([chr(ord("a") + v) for v in levels], object)
        data = one_var_dataset(t, e, x, "categorical")
        cands = candidate_splits(data, "x", EVENT, 2)
        want = brute_best_categorical(t, e, x, 2)
        if want is None:
            assert not cands
            continue
        got = cands[0]
        left, stat = want
        assert set(got.cutpoint) == set(left)
        assert abs(got.statistic) == pytest.approx(abs(stat), rel=1e-9)


def test_minbucket_filters_candidates():
    t = np.arange(1.0, 11.0)
    e = np.ones(10, bool)
    x = np.arange(10.0)
    data = one_var_dataset(t, e, x, "continuous")
    for mb in (1, 3, 5):
        cands = candidate_splits(data, "x", EVENT, mb)
        for c in cands:
            left = int(np.count_nonzero(x <= c.cutpoint))
            assert left >= mb and x.size - left >= mb
        assert len(cands) == 10 - 2 * mb + 1
    assert not candidate_splits(data, "x", EVENT, 6)


def test_tie_break_prefers_smallest_cutpoint():
    # symmetric layout: splitting at 1.5 and 2.5 give mirror-image partitions
    t = np.array([1.0, 5.0, 1.0, 5.0])
    e = np.ones(4, bool)
    x = np.array([1.0, 2.0, 2.0, 3.0])
    data = one_var_dataset(t, e, x, "continuous")
    cands = candidate_splits(data, "x", EVENT, 1)
    stats = [abs(c.statistic) for c in cands]
    assert stats[0] == pytest.approx(max(stats), rel=TIE_RTOL)
    best = cands[0]
    tied = [c.cutpoint for c in cands
            if abs(abs(c.statistic) - abs(best.statistic))
            <= TIE_RTOL * max(1.0, abs(best.statistic))]
    assert best.cutpoint == min(tied)


def test_candidates_ranked_by_absolute_statistic():
    rng = rng_for(405, 0)
    t, e = censored_exponential(rng, 60, 0.1, 0.3)
    x = rng.uniform(0.0, 1.0, 60)
    data = one_var_dataset(t, e, x, "continuous")
    cands = candidate_splits(data, "x", EVENT, 5)
    mags = [abs(c.statistic) for c in cands]
    for a, b in zip(mags, mags[1:]):
        assert b <= a + TIE_RTOL * max(1.0, a)


def test_censor_mode_flips_indicator():
    rng = rng_for(406, 0)
    t, e = censored_exponential(rng, 50, 0.1, 0.4)
    x = rng.uniform(0.0, 1.0, 50)
    data = one_var_dataset(t, e, x, "continuous")
    flipped = one_var_dataset(t, ~e, x, "continuous")
    a = candidate_splits(data, "x", CENSOR, 5)[0]
    b = candidate_splits(flipped, "x", EVENT, 5)[0]
    assert a.cutpoint == b.cutpoint
    assert a.statistic == pytest.approx(b.statistic, abs=1e-12)


@pytest.mark.parametrize("kind, x", [
    ("continuous", np.arange(20.0)),
    ("categorical", np.array(list("ab") * 10, object)),
    ("categorical", np.array(list("abcd") * 5, object)),
])
def test_unknown_mode_rejected(kind, x):
    # every search checks its mode, whatever the variable's kind or levels
    t = np.arange(1.0, 21.0)
    e = np.arange(20) % 3 != 0
    data = one_var_dataset(t, e, x, kind)
    with pytest.raises(ValueError, match="component must be"):
        candidate_splits(data, "x", "evnt", 5)


def test_categorical_split_orders_levels_by_median():
    rng = rng_for(407, 0)
    rates = {"a": 0.5, "b": 0.05, "c": 0.15}
    levels = np.array(list("abc") * 40, object)
    t = np.array([rng.exponential(1.0 / rates[v]) for v in levels])
    e = np.ones(levels.size, bool)
    data = one_var_dataset(t, e, levels, "categorical")
    cands = candidate_splits(data, "x", EVENT, 5)
    # prefix structure: every left side is a downward-closed set of levels
    # in median order, so one side of some candidate isolates fastest level a
    assert any(set(c.cutpoint) == {"a"} or
               set(c.cutpoint) == {"b", "c"} for c in cands)


def test_constant_variable_yields_no_candidates():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.ones(4, bool)
    data = one_var_dataset(t, e, np.full(4, 7.0), "continuous")
    assert len(candidate_splits(data, "x", EVENT, 1)) == 0


# --- blocked variance sweep -------------------------------------------------

@given(
    rows=st.integers(1, 8),
    blocks=st.integers(1, 5),
    extra=st.sampled_from([0, 1]),
    minbucket=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_blocked_split_search_equals_dense_table(rows, blocks, extra,
                                                 minbucket, seed):
    rng = rng_for(408, seed)
    # rows * blocks (+ 1) admissible boundaries between tied values, and
    # minbucket - 1 singleton values at each end whose boundaries are cut
    ends = np.ones(minbucket - 1, int)
    counts = np.concatenate(
        [ends, rng.integers(1, 4, rows * blocks + extra + 1), ends])
    x = np.repeat(np.cumsum(rng.integers(1, 4, counts.size)) * 0.5, counts)
    x = np.concatenate([x, np.full(int(rng.integers(0, 4)), np.nan)])
    rng.shuffle(x)
    t = np.round(rng.exponential(2.0, x.size), 1) + 0.1  # tied times
    e = rng.random(x.size) < 0.7
    data = one_var_dataset(t, e, x, "continuous")
    keep = ~np.isnan(x)
    for mode in (EVENT, CENSOR):
        want = dense_continuous_candidates(
            t[keep], e[keep], x[keep], mode, minbucket)
        ev = e[keep] if mode == EVENT else ~e[keep]
        width = np.unique(t[keep][ev]).size  # distinct event times
        with patch.object(splitting, "_BLOCK_CELLS", rows * width):
            blocked = candidate_splits(data, "x", mode, minbucket)
        default = candidate_splits(data, "x", mode, minbucket)
        for got in (blocked, default):
            assert sorted(got, key=lambda c: c.cutpoint) == want


@given(seed=st.integers(0, 2**31 - 1), minbucket=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_coded_split_search_equals_label_oracle(seed, minbucket):
    # factor codes and the shared node grouping give the same ranked
    # candidates as grouping the raw labels, in both modes
    node, labels, x = factor_child_node(seed)
    present = ~missing_labels(labels)
    finite = ~np.isnan(x)
    t, e = node.times, node.events
    for mode in (EVENT, CENSOR):
        want = sort_ranked(
            label_categorical_candidates(
                t[present], e[present], labels[present], mode, minbucket),
            lambda item: item[0],
        )
        assert list(candidate_splits(node, "g", mode, minbucket)) == want
        want = sort_ranked(
            dense_continuous_candidates(
                t[finite], e[finite], x[finite], mode, minbucket),
            lambda item: item[1].cutpoint,
        )
        assert list(candidate_splits(node, "x", mode, minbucket)) == want


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_tolerance_order_equals_sorted_ranking(seed):
    # magnitudes on and around the edge of the tie band, some chained
    rng = rng_for(410, seed)
    n = int(rng.integers(0, 30))
    base = rng.choice([1e-10, 0.5, 1.0, 3.0, 50.0], size=n)
    jitter = rng.choice([0.0, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8], size=n)
    stats = (base + jitter * np.maximum(1.0, base)) * rng.choice([-1, 1], n)
    cuts = np.round(rng.uniform(0.0, 3.0, n), 1)
    cands = [SplitCandidate(float(c), float(s)) for c, s in zip(cuts, stats)]
    want = sort_ranked(cands, lambda item: item[1].cutpoint)
    assert [cands[i] for i in splitting._tolerance_order(stats, cuts)] == want


@given(seed=st.integers(0, 2**31 - 1), minbucket=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_candidates_read_as_their_ranked_list(seed, minbucket):
    # the lazy sequence reads as the list the label and dense oracles rank
    node, labels, x = factor_child_node(seed)
    present = ~missing_labels(labels)
    finite = ~np.isnan(x)
    t, e = node.times, node.events
    for name, want in (
        ("g", sort_ranked(label_categorical_candidates(
            t[present], e[present], labels[present], EVENT, minbucket),
            lambda item: item[0])),
        ("x", sort_ranked(dense_continuous_candidates(
            t[finite], e[finite], x[finite], EVENT, minbucket),
            lambda item: item[1].cutpoint)),
    ):
        cands = candidate_splits(node, name, EVENT, minbucket)
        assert isinstance(cands, Candidates)
        assert len(cands) == len(want)
        assert bool(cands) == bool(want)
        assert list(cands) == want
        assert list(candidate_splits(node, name, EVENT, minbucket)) == want
        for i in range(len(want)):
            assert cands[i] == want[i]
        for i in (len(want), -1):  # forward reads only, as grow makes them
            with pytest.raises(IndexError):
                cands[i]


def test_split_search_memory_stays_bounded():
    # 12,000 rows, about 5,200 distinct event times: the former N x D
    # at-risk table peaked at 1.96 GiB here
    data, _ = generate_tree_data(TreeRecoveryDesign(n_per_subgroup=3000),
                                 replicate_rng(1, 0))
    tracemalloc.start()
    try:
        cands = candidate_splits(data, "X2", EVENT, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cands
    assert peak < 128 * 2**20


@pytest.mark.parametrize("mode", [EVENT, CENSOR])
@pytest.mark.parametrize("kind", ["continuous", "categorical"])
def test_variable_no_subject_has_gives_no_candidates(kind, mode):
    t = np.arange(1.0, 9.0)
    e = np.arange(8) % 3 != 0
    x = np.full(8, None if kind == "categorical" else np.nan, dtype=object)
    cands = candidate_splits(one_var_dataset(t, e, x, kind), "x", mode, 1)
    assert isinstance(cands, Candidates)
    assert len(cands) == 0 and list(cands) == []
    with pytest.raises(IndexError):
        cands[0]


# --- ranked sweep: certified bounds, exact band, fallback --------------------

def _tied_node(rng, minbucket):
    """Tied values and times, a few missing values, both modes' oracles."""
    counts = rng.integers(1, 4, int(rng.integers(2, 30)))
    x = np.repeat(np.cumsum(rng.integers(1, 4, counts.size)) * 0.5, counts)
    x = np.concatenate([x, np.full(int(rng.integers(0, 4)), np.nan)])
    rng.shuffle(x)
    t = np.round(rng.exponential(2.0, x.size), 1) + 0.1
    e = rng.random(x.size) < rng.choice([0.2, 0.7, 1.0])
    return t, e, x


@given(
    seed=st.integers(0, 2**31 - 1),
    minbucket=st.integers(1, 4),
    band=st.sampled_from([0.0, 2.0, 1e300]),
    widen=st.sampled_from([1.0, 1e4, 1e10, 1e13]),
)
@settings(max_examples=200, deadline=None)
def test_ranked_sweep_equals_dense_table_past_the_band(seed, minbucket, band,
                                                       widen):
    # a band of width 0 serves at most the best tie cluster and usually
    # nothing, so reads widen it; an unbounded band evaluates every
    # boundary exactly and never widens.  Any bound at least as wide as
    # the certified one serves the same list, so widened bounds
    # exercise wide bands and clusters at their floor.
    t, e, x = _tied_node(rng_for(411, seed), minbucket)
    data = one_var_dataset(t, e, x, "continuous")
    keep = ~np.isnan(x)
    search = splitting._search
    approximate = splitting._approximate_variances

    def loose(*args):
        approx, err = approximate(*args)
        return approx, err * widen

    for mode in (EVENT, CENSOR):
        want = sort_ranked(
            dense_continuous_candidates(
                t[keep], e[keep], x[keep], mode, minbucket),
            lambda item: item[1].cutpoint,
        )
        wants = []

        def spy(*args):
            if args[-1] > 1:  # want 1 is the first search, not a widening
                wants.append(args[-1])
            return search(*args)

        with patch.object(splitting, "_BAND_TOLS", band), \
                patch.object(splitting, "_search", spy), \
                patch.object(splitting, "_approximate_variances", loose):
            cands = candidate_splits(data, "x", mode, minbucket)
            served = len(cands._ranked[1])
            assert len(cands) == len(want)
            # read one position at a time, as grow does, then the rest
            assert [cands[i] for i in range(len(cands))] == want
            assert list(cands) == want
        if band > 1e9:
            assert served == len(want) and not wants
        else:
            # widened exactly when the first run fell short, each time
            # at least doubling want, so at most log2 of the count times
            assert bool(wants) == (served < len(want))
            assert all(w2 >= 2 * w1 for w1, w2 in zip(wants, wants[1:]))
            assert len(wants) <= (len(want) - 1).bit_length()


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=400, deadline=None)
def test_certified_prefix_holds_whatever_lies_below_the_floor(seed):
    # magnitudes on and around the floor and the tie band; the band is
    # every candidate at or above the floor and some below it, and the
    # whole ranking agrees with the band's on the certified positions
    rng = rng_for(413, seed)
    n = int(rng.integers(1, 16))
    floor = float(rng.choice([0.5, 1.0, 3.0]))
    offsets = rng.choice([-3e-9, -1e-9, -5e-10, -1e-12, 0.0, 1e-12, 5e-10,
                          1e-9, 2e-9, 3e-9, 1.0], size=n)
    mags = floor + offsets * max(1.0, floor)
    mags[0] = max(mags[0], floor)
    stats = mags * rng.choice([-1, 1], n)
    keys = np.arange(n)  # cutpoints ascend with the boundary index
    band = np.nonzero((mags >= floor) | (rng.random(n) < 0.5))[0]
    whole = splitting._tolerance_order(stats, keys)
    ranked = band[splitting._tolerance_order(stats[band], keys[band])]
    served = splitting._certified_prefix(
        sorted(np.abs(stats[band]).tolist(), reverse=True), floor)
    assert ranked[:served].tolist() == whole[:served]


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_search_cuts_its_run_at_a_tie_cluster_crossing_the_floor(seed):
    # at a tie tolerance of 2 percent the |LR| of 79 distinct boundaries
    # chain into tie clusters that reach below the band's floor, so a
    # boundary left out of the band would join a served cluster and,
    # with a smaller cutpoint, rank first in it: the first run must stop
    # where that cluster starts, and the reads widen past it
    rng = rng_for(417, seed)
    x = rng.permutation(80).astype(float)
    t = rng.exponential(1.0, 80) + 0.01
    e = rng.random(80) < 0.7
    data = one_var_dataset(t, e, x, "continuous")
    with patch.object(splitting, "_TIE_RTOL", 0.02):
        for mode in (EVENT, CENSOR):
            cands = dense_continuous_candidates(t, e, x, mode, 1)
            stats = np.array([c.statistic for c in cands])
            cuts = np.array([c.cutpoint for c in cands])
            want = [cands[i] for i in splitting._tolerance_order(stats, cuts)]
            got = candidate_splits(data, "x", mode, 1)
            assert [got[i] for i in range(len(got))] == want


def _zero_variance_nodes():
    n = 24
    x = np.arange(float(n))
    # every exact time on the right: the low-x subjects are censored
    # before the first event, so left sides among them carry no variance
    t = np.where(x < 10, 0.1 + 0.01 * x, 1.0 + x)
    e = x >= 10
    yield t, e, x
    # the same mirrored: high-x subjects censored before every event
    yield t[::-1].copy(), e[::-1].copy(), x
    # singletons at risk through every event time sit at both ends, so
    # isolating any one of them gives the same |statistic|
    t = np.concatenate([np.full(3, 50.0), 1.0 + np.arange(18.0), np.full(3, 50.0)])
    e = np.concatenate([np.zeros(3, bool), np.arange(18) % 3 != 0, np.zeros(3, bool)])
    yield t, e, x
    # every event time has all of its risk set die (a_j = 0) but the last
    t = np.repeat([1.0, 2.0, 3.0, 4.0], 6)
    e = np.ones(n, bool)
    e[-1] = False
    yield t, e, x


@pytest.mark.parametrize("minbucket", [1, 2])
def test_candidate_count_equals_dense_count_with_zero_variance(minbucket):
    for t, e, x in _zero_variance_nodes():
        data = one_var_dataset(t, e, x, "continuous")
        for mode in (EVENT, CENSOR):
            want = dense_continuous_candidates(t, e, x, mode, minbucket)
            cands = candidate_splits(data, "x", mode, minbucket)
            assert len(cands) == len(want)
            assert sorted(cands, key=lambda c: c.cutpoint) == want
            # a band of width 0, read one position at a time: in the
            # tied-singleton layout one cluster straddles every floor,
            # so the band widens until it holds every boundary
            with patch.object(splitting, "_BAND_TOLS", 0.0):
                narrow = candidate_splits(data, "x", mode, minbucket)
                read = [narrow[i] for i in range(len(narrow))]
            assert read == list(cands)
    # the layouts do have admissible boundaries with zero variance
    t, e, x = next(_zero_variance_nodes())
    assert len(dense_continuous_candidates(t, e, x, EVENT, 1)) < x.size - 1


def _variance_inputs(rng):
    """Subjects in covariate order as k, the a_j and n_j, all left sizes."""
    n = int(rng.integers(2, 200))
    layout = rng.integers(0, 4)
    t = np.round(rng.exponential(2.0, n), int(rng.integers(0, 3))) + 0.1
    ev = rng.random(n) < rng.choice([0.3, 0.8, 1.0])
    x = rng.random(n)
    if layout == 1:  # one-sided: every exact time among the high x
        ev &= x > np.median(x)
    elif layout == 2:  # a late risk set: many at risk beyond every event
        t[rng.random(n) < 0.5] = t.max() + 1.0
        ev &= t < t.max()
    elif layout == 3:  # heavy ties in x
        x = np.round(x * 3)
    if not ev.any():
        ev[0] = True
    grid, d, n_risk = risk_table(t, ev)
    k = np.searchsorted(grid, t, side="right")[np.argsort(x, kind="stable")]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(n_risk > 1, d * (n_risk - d) / (n_risk - 1), 0.0)
    return k, a, n_risk


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_approximate_variance_stays_within_its_bound(seed):
    k, a, n_risk = _variance_inputs(rng_for(412, seed))
    lefts = np.arange(1, k.size)
    if lefts.size == 0:
        return
    exact = boundary_variances(k, lefts, 0, lefts.size, a, n_risk)
    approx, err = splitting._approximate_variances(k, lefts, a, n_risk)
    assert np.all(err >= 0.0)
    assert np.all(np.abs(approx - exact) <= err)
    # the band over every boundary is the full sweep, bit for bit
    assert np.array_equal(splitting._band_variances(k, lefts, a, n_risk), exact)


def test_grow_is_served_from_each_first_band():
    # four-subgroup design, N = 12,000: every search is served from its
    # first exact band and never widens
    data, _ = generate_tree_data(TreeRecoveryDesign(n_per_subgroup=3000),
                                 replicate_rng(1, 0))
    search = splitting._search

    def first_band_only(*args):
        if args[-1] > 1:
            raise AssertionError("grow read a search past its first band")
        return search(*args)

    with patch.object(splitting, "_search", first_band_only):
        tree = grow(data, TreeConfig())
    assert tree.n_leaves > 1


@pytest.mark.parametrize("mode", [EVENT, CENSOR])
def test_widened_read_stays_a_band(mode):
    # N = 12,000: reading five positions past the first run widens the
    # band, which still evaluates a small share of the boundaries and
    # serves what a band over every boundary serves
    data, _ = generate_tree_data(TreeRecoveryDesign(n_per_subgroup=3000),
                                 replicate_rng(1, 0))
    band = splitting._band_variances
    evaluated = []

    def spy(k, lefts, a, n_risk):
        evaluated.append(lefts.size)
        return band(k, lefts, a, n_risk)

    with patch.object(splitting, "_band_variances", spy):
        cands = candidate_splits(data, "X2", mode, 25)
        reads = len(cands._ranked[1]) + 5
        assert reads <= len(cands)
        got = [cands[i] for i in range(reads)]
    assert len(evaluated) > 1  # the reads did widen
    assert sum(evaluated) < 0.05 * len(cands)
    with patch.object(splitting, "_BAND_TOLS", 1e300):
        whole = candidate_splits(data, "X2", mode, 25)
        assert len(whole._ranked[1]) == len(whole)  # exact, never widens
        assert got == [whole[i] for i in range(reads)]


@given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_time_ranks_equal_searchsorted(seed, n, levels):
    # few distinct times, so ties are common among events, among
    # censorings and across the two
    rng = rng_for(517, seed)
    times = rng.integers(1, levels + 1, size=n) / 2.0
    ev = rng.random(n) < 0.6
    if not ev.any():
        ev[rng.integers(n)] = True
    by_time = np.argsort(times, kind="stable")
    grid, _, n_risk = risk_table(times, ev, by_time)
    got = splitting._time_ranks(by_time, n_risk)
    want = np.searchsorted(grid, times, side="right")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
