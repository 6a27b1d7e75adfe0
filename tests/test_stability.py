import dataclasses
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc
from scipy.stats import chi2

from survcart import (
    CENSOR,
    EVENT,
    EmptyInputError,
    SurvivalDataset,
    TooFewGroupsError,
    categorical_test,
    continuous_test,
    fd_cdf,
    fd_quantile,
    fd_sf,
    fit,
    hochberg,
    score_contributions,
    variable_test,
)
from survcart import stability
from survcart.errors import (
    DegenerateComponentError,
    NonConvergenceError,
    SingularInformationError,
)
from survcart.datasets import Grouping
from survcart.stability import CheckedInformation, _grouped_sums

from conftest import (
    censored_exponential,
    factor_child_node,
    label_variable_test,
    one_var_dataset,
    rng_for,
)


# --- limiting distribution -------------------------------------------------

def test_fd_cdf_frozen_values():
    # series evaluated to convergence; classical critical values
    assert fd_cdf(1.3581) == pytest.approx(0.950000369568333, abs=1e-12)
    assert fd_cdf(1.2238) == pytest.approx(0.899976572164322, abs=1e-12)


def test_fd_cdf_limits():
    assert fd_cdf(0.0) == 0.0
    assert fd_cdf(-1.0) == 0.0
    assert abs(fd_cdf(10.0) - 1.0) <= 1e-12


def test_fd_cdf_tiny_argument_resolved_by_dual_series():
    # the direct series loses all precision below ~0.2; the dual form keeps it
    assert 0.0 < fd_cdf(0.05) < 1e-200
    assert 0.0 < fd_cdf(0.19) < 1e-13


def test_fd_cdf_nondecreasing_on_fine_grid():
    xs = np.linspace(0.0, 3.0, 10_000)
    vals = [fd_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_fd_cdf_and_sf_at_tiny_arguments():
    # 8 x^2 underflows to 0.0 below about 1.5e-162; no division by it
    for x in (1e-163, 1e-300, 5e-324):
        assert fd_cdf(x) == 0.0
        assert fd_sf(x) == 1.0
    # the dual series' first term already underflows at 0.04, so the
    # early 0.0 below it is the value the series would return
    assert math.exp(-math.pi**2 / (8.0 * 0.04 * 0.04)) == 0.0
    assert fd_cdf(0.0406) == 0.0 < fd_cdf(0.041)


def test_continuous_test_on_tiny_scores_is_not_significant():
    rng = rng_for(210, 0)
    scores = rng.normal(0.0, 1e-170, 50)
    res = continuous_test(scores, np.array([[1.0]]), rng.uniform(0.0, 1.0, 50))
    (_, d, p), = res.entries
    assert 0.0 < d < 1e-160
    assert p == 1.0


def test_fd_quantile_inverts_cdf():
    q = fd_quantile(0.95)
    assert q == pytest.approx(1.35809863932255, abs=1e-8)
    assert fd_cdf(q) == pytest.approx(0.95, abs=1e-9)
    assert fd_quantile(0.90) == pytest.approx(1.2238, abs=1e-3)


def test_fd_quantile_rejects_bad_level():
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            fd_quantile(p)


def test_fd_sf_matches_complement_and_keeps_tail_precision():
    for x in (0.1, 0.5, 1.0, 1.3581, 2.5):
        assert fd_sf(x) == pytest.approx(1.0 - fd_cdf(x), abs=1e-12)
    # beyond the 1 - cdf cliff the direct series still resolves the tail
    assert fd_sf(5.0) == pytest.approx(2.0 * np.exp(-50.0), rel=1e-10)
    assert 0.0 < fd_sf(12.0) < 1e-100
    assert fd_sf(0.0) == 1.0
    assert fd_sf(-3.0) == 1.0


# --- Hochberg adjustment ---------------------------------------------------

def test_hochberg_worked_examples():
    assert list(hochberg([0.01, 0.04])) == pytest.approx([0.02, 0.04])
    assert list(hochberg([0.3])) == [0.3]
    assert list(hochberg([0.5, 0.9, 0.9])) == pytest.approx([0.9, 0.9, 0.9])


def test_hochberg_empty_rejected():
    with pytest.raises(EmptyInputError):
        hochberg([])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_hochberg_dominates_input_and_caps(pvals):
    adj = hochberg(pvals)
    assert np.all(adj >= np.asarray(pvals) - 1e-15)
    assert np.all(adj <= 1.0)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_hochberg_permutation_equivariant(pvals, rand):
    perm = list(range(len(pvals)))
    rand.shuffle(perm)
    base = hochberg(pvals)
    shuffled = hochberg([pvals[i] for i in perm])
    assert np.allclose([base[i] for i in perm], shuffled, atol=1e-15)


def hochberg_loop(pvalues):
    """The step-up loop over a stable argsort, for every m."""
    p = np.asarray(pvalues, dtype=float)
    order = np.argsort(p, kind="stable")
    sp = p[order]
    m = p.size
    adj = np.empty(m)
    adj[m - 1] = sp[m - 1]
    for i in range(m - 2, -1, -1):
        adj[i] = min(adj[i + 1], (m - i) * sp[i])
    np.minimum(adj, 1.0, out=adj)
    out = np.empty(m)
    out[order] = adj
    return out


P_POOL = (0.0, 0.0, 0.02, 0.02, 0.3, 0.5, 0.5, 0.75, 1.0, 1.5, np.nan)


@given(st.lists(st.sampled_from(P_POOL) | st.floats(0.0, 2.0), min_size=1,
                max_size=6))
@settings(max_examples=400, deadline=None)
def test_hochberg_matches_step_up_loop(pvals):
    # ties, zeros, products above 1 and NaN, in both input orders
    for values in (pvals, pvals[::-1]):
        got = hochberg(values)
        want = hochberg_loop(values)
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_hochberg_ties_share_adjusted_value():
    adj = hochberg([0.02, 0.02, 0.5])
    assert adj[0] == adj[1]


# --- categorical test ------------------------------------------------------

def test_categorical_worked_example():
    # A = {(1, event), (2, event)}, B = {(5, event), (8, event)}
    data = SurvivalDataset(np.array([1.0, 2.0, 5.0, 8.0]), np.ones(4, bool))
    m = fit("exponential", EVENT, data)
    u = score_contributions(m, data)
    res = categorical_test(u, m.info, np.array(["A", "A", "B", "B"], object))
    assert res.statistic == pytest.approx(1.5625, abs=1e-10)
    assert res.df == 1
    assert res.small_groups  # both levels have fewer than 5 members


def test_categorical_identical_copies_score_zero():
    data = SurvivalDataset(np.array([1.0, 4.0, 1.0, 4.0]),
                           np.array([1, 0, 1, 0], bool))
    m = fit("exponential", EVENT, data)
    u = score_contributions(m, data)
    res = categorical_test(u, m.info, np.array(["a", "a", "b", "b"], object))
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p == pytest.approx(1.0)


def test_categorical_needs_two_levels():
    data = SurvivalDataset(np.array([1.0, 2.0]), np.ones(2, bool))
    m = fit("exponential", EVENT, data)
    u = score_contributions(m, data)
    with pytest.raises(TooFewGroupsError):
        categorical_test(u, m.info, np.array(["a", "a"], object))


def test_categorical_simplified_equals_generic():
    rng = rng_for(201, 0)
    for _ in range(100):
        n = int(rng.integers(20, 80))
        t, e = censored_exponential(rng, n, 0.1, float(rng.uniform(0.0, 0.6)))
        if e.sum() == 0:
            continue
        labels = rng.integers(0, 3, n).astype(str)
        if len(set(labels)) < 2:
            continue
        data = SurvivalDataset(t, e)
        m = fit("exponential", EVENT, data)
        u = score_contributions(m, data)
        generic = categorical_test(u, m.info, labels).statistic
        lam, d = m.params[0], e.sum()
        simplified = 0.0
        for g in np.unique(labels):
            mask = labels == g
            simplified += (e[mask].sum() - lam * t[mask].sum()) ** 2 / mask.sum()
        simplified *= n / d
        assert abs(simplified - generic) <= 1e-10


def test_chi_square_tail_is_scipy_stats_tail():
    # categorical_test takes its p-value from chdtrc, the function behind
    # scipy.stats.chi2.sf; the two must agree bit for bit
    rng = rng_for(212, 0)
    dfs = [1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 50, 100, 250]
    xs = np.concatenate([
        [0.0, 1e-300, 1e-12, 0.5, 1.0, 3.84, 10.0, 100.0, 1e3, 1e6, np.inf],
        rng.exponential(20.0, 200),
    ])
    for df in dfs:
        for x in xs:
            assert chdtrc(df, x) == chi2.sf(x, df), (df, x)


def test_categorical_label_permutation_invariance():
    rng = rng_for(202, 0)
    t, e = censored_exponential(rng, 100, 0.1, 0.3)
    labels = rng.integers(0, 4, 100).astype(str)
    data = SurvivalDataset(t, e)
    m = fit("exponential", EVENT, data)
    u = score_contributions(m, data)
    base = categorical_test(u, m.info, labels)
    relabeled = np.array([{"0": "z", "1": "q", "2": "a", "3": "m"}[v]
                          for v in labels], object)
    perm = categorical_test(u, m.info, relabeled)
    assert perm.statistic == base.statistic
    assert perm.df == base.df


# --- continuous test -------------------------------------------------------

def test_continuous_worked_example():
    # X = (1,2,3,4), t = (1,2,1,2), all events: boundary sums give D = 1/6
    data = SurvivalDataset(np.array([1.0, 2.0, 1.0, 2.0]), np.ones(4, bool))
    m = fit("exponential", EVENT, data)
    u = score_contributions(m, data)
    res = continuous_test(u, m.info, np.array([1.0, 2.0, 3.0, 4.0]))
    assert res.entries[0][1] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_continuous_balanced_partial_sums_give_zero():
    data = SurvivalDataset(np.ones(4), np.ones(4, bool))
    m = fit("exponential", EVENT, data)
    u = score_contributions(m, data)
    res = continuous_test(u, m.info, np.array([1.0, 2.0, 3.0, 4.0]))
    assert res.entries[0][1] == pytest.approx(0.0, abs=1e-12)
    assert res.entries[0][2] == pytest.approx(1.0)


def test_continuous_simplified_equals_generic():
    rng = rng_for(203, 0)
    for _ in range(100):
        n = int(rng.integers(20, 80))
        t, e = censored_exponential(rng, n, 0.1, float(rng.uniform(0.0, 0.6)))
        if e.sum() == 0:
            continue
        x = rng.uniform(0.0, 1.0, n)
        data = SurvivalDataset(t, e)
        m = fit("exponential", EVENT, data)
        u = score_contributions(m, data)
        generic = continuous_test(u, m.info, x).entries[0][1]
        lam, d = m.params[0], e.sum()
        order = np.argsort(x, kind="stable")
        dsum = np.cumsum(e[order])[:-1]
        ssum = np.cumsum(t[order])[:-1]
        simplified = np.abs(dsum - lam * ssum).max() / np.sqrt(d)
        assert abs(simplified - generic) <= 1e-12


def test_continuous_monotone_transform_invariance():
    rng = rng_for(204, 0)
    t, e = censored_exponential(rng, 120, 0.1, 0.2)
    x = rng.uniform(0.0, 5.0, 120)
    data = SurvivalDataset(t, e)
    m = fit("exponential", EVENT, data)
    u = score_contributions(m, data)
    a = continuous_test(u, m.info, x)
    b = continuous_test(u, m.info, np.exp(x))
    assert a.entries[0][1] == b.entries[0][1]


def test_exponential_time_scaling_leaves_statistics_unchanged():
    rng = rng_for(205, 0)
    t, e = censored_exponential(rng, 150, 0.05, 0.3)
    x = rng.uniform(0.0, 1.0, 150)
    labels = rng.integers(0, 3, 150).astype(str)
    stats = []
    for scale in (1.0, 7.5):
        data = SurvivalDataset(scale * t, e)
        m = fit("exponential", EVENT, data)
        u = score_contributions(m, data)
        stats.append((categorical_test(u, m.info, labels).statistic,
                      continuous_test(u, m.info, x).entries[0][1]))
    assert stats[0][0] == pytest.approx(stats[1][0], abs=1e-10)
    assert stats[0][1] == pytest.approx(stats[1][1], abs=1e-10)


def test_grouped_scores_totals():
    x = np.array([3.0, 1.0, 3.0, 2.0])
    scores = np.array([[1.0], [2.0], [3.0], [4.0]])
    grouping, sums = _grouped_sums(x, scores)
    assert grouping.distinct.size == 3
    assert list(grouping.counts) == [1, 1, 2]
    assert sums[:, 0].tolist() == [2.0, 4.0, 4.0]
    assert np.cumsum(sums, axis=0)[-1, 0] == pytest.approx(10.0)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 60),
    n_values=st.integers(1, 6),
    width=st.sampled_from([1, 2]),
)
@settings(max_examples=150, deadline=None)
def test_grouped_sums_equal_add_at(seed, n, n_values, width):
    # per-column bincount adds in subject order from 0.0, like np.add.at
    rng = rng_for(309, seed)
    x = rng.integers(0, n_values, n).astype(float)  # tied; one group at 1
    scores = rng.normal(0.0, 1.0, (n, width)) * rng.choice([1e-8, 1.0, 1e8], n)[:, None]
    grouping = Grouping.of(x)
    want = np.zeros((grouping.distinct.size, width))
    np.add.at(want, grouping.inverse, scores)
    _, got = _grouped_sums(x, scores)
    assert np.array_equal(got, want)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 40),
    levels=st.lists(st.sampled_from([1, 2, 3, 8, 40]), min_size=1, max_size=5),
    width=st.sampled_from([1, 2]),
    nan=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_continuous_test_rows_equal_one_row_calls(seed, n, levels, width, nan):
    # R rows in one call: each row's result is its own call's, bit for
    # bit with one parameter; one distinct value in a row raises as the
    # row's own call does
    rng = rng_for(311, seed)
    x = np.array([rng.integers(0, k, n).astype(float) for k in levels])
    if nan:
        x[rng.random(x.shape) < 0.2] = np.nan
    scores = rng.normal(0.0, 1.0, (len(levels), n, width))
    roots = rng.normal(0.0, 1.0, (len(levels), width, width))
    infos = [a @ a.T + np.eye(width) for a in roots]
    singles = []
    for row, u, info in zip(x, scores, infos):
        try:
            singles.append(continuous_test(u, info, row))
        except TooFewGroupsError:
            singles.append(None)
    if None in singles:
        with pytest.raises(TooFewGroupsError):
            continuous_test(scores, infos, x)
        return
    rows = continuous_test(scores, infos, x)
    assert len(rows) == len(levels)
    for got, want in zip(rows, singles):
        if width == 1:
            assert got == want
        else:
            for (gn, gd, gp), (wn, wd, wp) in zip(got.entries, want.entries):
                assert gn == wn
                assert gd == pytest.approx(wd, rel=1e-12, abs=1e-300)
                assert gp == pytest.approx(wp, rel=1e-9, abs=1e-300)


def eigh_checked(entry):
    """CheckedInformation and inv_sqrt of [[entry]] through LAPACK."""
    info = np.array([[entry]])
    vals = np.linalg.eigvalsh(info)
    if vals[0] <= 1e-12 * max(abs(vals[-1]), 1e-300):
        raise SingularInformationError("information matrix is singular")
    vals, vecs = np.linalg.eigh(info)
    return (vecs / np.sqrt(np.maximum(vals, 1e-12))) @ vecs.T


INFO_POOL = (5e-324, 1e-300, 1e-13, 1e-12, 0.25, 1e300, np.inf, 0.0, -0.0,
             -1.0, -np.inf, np.nan)


@given(st.sampled_from(INFO_POOL) | st.floats())
@settings(max_examples=300, deadline=None)
def test_one_by_one_information_matches_eigensolver(entry):
    try:
        want = eigh_checked(entry)
    except SingularInformationError:
        with pytest.raises(SingularInformationError):
            CheckedInformation([[entry]])
    else:
        checked = CheckedInformation([[entry]])
        assert np.array_equal(checked.inverse_sqrt, want, equal_nan=True)
        assert np.array_equal(checked.inverse, np.linalg.inv(np.array([[entry]])),
                              equal_nan=True)
    # inv_sqrt itself, singular or not
    for floor in (1e-12, 0.5):
        vals, vecs = np.linalg.eigh(np.array([[entry]]))
        want = (vecs / np.sqrt(np.maximum(vals, floor))) @ vecs.T
        got = stability.inv_sqrt(np.array([[entry]]), floor)
        assert got.shape == (1, 1)
        assert np.array_equal(got, want, equal_nan=True)


def test_tests_take_checked_information():
    rng = rng_for(310, 0)
    t, e = censored_exponential(rng, 80, 0.1, 0.3)
    data = SurvivalDataset(t, e)
    m = fit("weibull", EVENT, data)
    u = score_contributions(m, data)
    checked = CheckedInformation(m.info)
    x = rng.normal(0.0, 1.0, 80)
    labels = np.array(["a", "b", "c"], object)[rng.integers(0, 3, 80)]
    assert continuous_test(u, checked, x) == continuous_test(u, m.info, x)
    assert categorical_test(u, checked, labels) == categorical_test(u, m.info, labels)
    with pytest.raises(SingularInformationError):
        CheckedInformation(np.diag([1.0, 0.0]))


# --- per-variable combination ----------------------------------------------

def _fit_or_none(family, component, data):
    try:
        return fit(family, component, data)
    except (DegenerateComponentError, NonConvergenceError):
        # fit failures are not what these tests check
        return None


def _report_or_error(run):
    try:
        return run()
    except SingularInformationError:
        return "singular"


@given(
    seed=st.integers(0, 2**31 - 1),
    families=st.sampled_from(
        [("exponential", "exponential"), ("weibull", "exponential"),
         ("exponential", "weibull")]),
    censor_enabled=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_coded_variable_test_equals_label_oracle(seed, families,
                                                 censor_enabled):
    # the shared per-node grouping on factor codes reports exactly what
    # grouping the raw labels and values does
    node, labels, x = factor_child_node(seed)
    ev = _fit_or_none(families[0], EVENT, node)
    ce = _fit_or_none(families[1], CENSOR, node)
    for name, raw in (("g", labels), ("x", x)):
        want = _report_or_error(lambda: label_variable_test(
            node, raw, name, ev, ce, censor_enabled))
        got = _report_or_error(lambda: variable_test(
            node, name, ev, ce, censor_enabled=censor_enabled))
        assert got == want


def test_node_workspace_follows_the_model_object():
    # variable_test reuses a node's workspace only for the model object
    # that made it, and drop_groupings releases it
    rng = rng_for(311, 0)
    t, e = censored_exponential(rng, 120, 0.1, 0.3)
    x = rng.normal(0.0, 1.0, 120)
    data = one_var_dataset(t, e, x, "continuous")
    first = fit("exponential", EVENT, data)
    other = dataclasses.replace(first, params=first.params * 3.0)

    def fresh(model):
        return variable_test(data.subset(np.arange(data.n)), "x", model, None)

    want = {id(first): fresh(first), id(other): fresh(other)}
    assert want[id(first)] != want[id(other)]
    scored = []
    real_scores = stability.score_contributions

    def counting_scores(model, node):
        scored.append(model)
        return real_scores(model, node)

    with patch.object(stability, "score_contributions", counting_scores):
        for model, calls in ((first, 1), (first, 1), (other, 2), (first, 3)):
            assert variable_test(data, "x", model, None) == want[id(model)]
            assert len(scored) == calls
        data.drop_groupings()
        assert variable_test(data, "x", first, None) == want[id(first)]
        assert len(scored) == 4


def grown_models(data):
    return fit("exponential", EVENT, data), fit("exponential", CENSOR, data)


def test_variable_test_constant_column_not_testable():
    rng = rng_for(206, 0)
    t, e = censored_exponential(rng, 60, 0.1, 0.3)
    data = one_var_dataset(t, e, np.full(60, 2.0), "continuous")
    ev, ce = grown_models(data)
    rep = variable_test(data, "x", ev, ce)
    assert not rep.testable
    assert rep.variable_p == 1.0


def test_variable_test_degenerate_censor_component_skipped():
    rng = rng_for(207, 0)
    t = rng.exponential(10.0, 80)
    e = np.ones(80, bool)
    data = one_var_dataset(t, e, rng.uniform(0, 1, 80), "continuous")
    ev = fit("exponential", EVENT, data)
    rep = variable_test(data, "x", ev, None)
    assert rep.event.tested
    assert not rep.censor.tested
    assert rep.censor.skip_reason == "degenerate"
    assert rep.censor.component_p == 1.0
    # with one tested component the cross adjustment is the identity
    assert rep.variable_p == rep.event.component_p
    assert rep.more_heterogeneous == EVENT


def test_variable_test_censor_disabled():
    rng = rng_for(208, 0)
    t, e = censored_exponential(rng, 80, 0.1, 0.3)
    data = one_var_dataset(t, e, rng.uniform(0, 1, 80), "continuous")
    ev, ce = grown_models(data)
    rep = variable_test(data, "x", ev, ce, censor_enabled=False)
    assert rep.censor.skip_reason == "disabled"
    assert rep.variable_p == rep.event.component_p


def test_variable_test_mode_rule_prefers_event_on_tie():
    rng = rng_for(209, 0)
    t, e = censored_exponential(rng, 100, 0.1, 0.3)
    data = one_var_dataset(t, e, rng.uniform(0, 1, 100), "continuous")
    ev, ce = grown_models(data)
    rep = variable_test(data, "x", ev, ce)
    if rep.event.component_p <= rep.censor.component_p:
        assert rep.more_heterogeneous == EVENT
    else:
        assert rep.more_heterogeneous == CENSOR


def test_variable_test_cross_adjustment_doubles_minimum():
    rng = rng_for(210, 3)
    t, e = censored_exponential(rng, 100, 0.1, 0.3)
    data = one_var_dataset(t, e, rng.uniform(0, 1, 100), "continuous")
    ev, ce = grown_models(data)
    rep = variable_test(data, "x", ev, ce)
    lo, hi = sorted((rep.event.component_p, rep.censor.component_p))
    assert rep.variable_p == pytest.approx(min(max(2.0 * lo, 0.0), hi, 1.0)
                                           if 2.0 * lo <= hi else hi)


def test_variable_test_missing_values_excluded():
    rng = rng_for(211, 0)
    t, e = censored_exponential(rng, 90, 0.1, 0.3)
    x = rng.uniform(0, 1, 90)
    x[::9] = np.nan
    data = one_var_dataset(t, e, x, "continuous")
    ev, ce = grown_models(data)
    rep = variable_test(data, "x", ev, ce)
    assert rep.n_used == 80
