import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcart import (
    CENSOR,
    EVENT,
    EmptyInputError,
    SurvivalDataset,
    TreeConfig,
    grow,
    km_fit,
    km_median,
)
from survcart.families import exact_mask
from survcart.km import risk_table

from conftest import brute_km, brute_km_median, rng_for, unique_risk_table


def test_km_worked_example():
    # times (1, 2+, 3): drops to 2/3 at t=1, to 0 at t=3
    curve = km_fit(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1], bool))
    assert list(curve.times) == [1.0, 3.0]
    assert curve.survival == pytest.approx([2.0 / 3.0, 0.0])
    assert curve.at_risk.tolist() == [3, 1]
    assert curve.n_events.tolist() == [1, 1]


def test_km_no_events_flat_curve():
    curve = km_fit(np.array([1.0, 2.0]), np.zeros(2, bool))
    assert curve.times.size == 0
    assert curve.survival.size == 0  # S stays 1: no step
    assert km_median(curve) is None


def test_km_median_worked_example():
    curve = km_fit(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1], bool))
    assert km_median(curve) == 3.0


def test_km_median_first_time_reaching_half():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    curve = km_fit(t, np.ones(4, bool))
    # survival hits exactly 0.5 at t=2
    assert km_median(curve) == 2.0


def test_km_censor_flavor_flips_indicator():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.array([1, 0, 1, 0], bool)
    ev = km_fit(t, e, flavor=EVENT)
    ce = km_fit(t, e, flavor=CENSOR)
    flipped = km_fit(t, ~e)
    assert ce.times.tolist() == flipped.times.tolist()
    assert ce.survival == pytest.approx(flipped.survival)
    assert ev.times.tolist() == [1.0, 3.0]


def test_km_empty_rejected():
    with pytest.raises(EmptyInputError):
        km_fit(np.array([]), np.array([], bool))


def test_km_matches_brute_force_small_samples():
    rng = rng_for(301, 0)
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        t = np.round(rng.uniform(0.5, 4.0, n), 1)
        e = rng.integers(0, 2, n).astype(bool)
        curve = km_fit(t, e)
        bt, bs = brute_km(t, e)
        assert curve.times.tolist() == bt.tolist()
        assert curve.survival == pytest.approx(bs, abs=1e-12)
        assert km_median(curve) == brute_km_median(bt, bs)


@pytest.mark.parametrize("censoring", ["some", "all", "none"])
def test_node_medians_match_brute_force(censoring):
    # each flavor's median as a tree node records it (km_fit on the
    # node's stable time order) is the brute product-limit median, None
    # included: on tied times, with every subject censored (no event
    # curve) and with none censored (no censoring curve)
    rng = rng_for(302, ["some", "all", "none"].index(censoring))
    for _ in range(300):
        n = int(rng.integers(1, 40))
        t = np.round(rng.uniform(0.5, 4.0, n), 1)
        e = {"some": rng.random(n) < 0.6, "all": np.zeros(n, bool),
             "none": np.ones(n, bool)}[censoring]
        data = SurvivalDataset(t, e)
        for flavor in (EVENT, CENSOR):
            got = km_median(km_fit(data.times, data.events, flavor,
                                   order=data.time_order))
            want = brute_km_median(*brute_km(t, exact_mask(e, flavor)))
            assert got == want
        root = grow(data, TreeConfig()).root
        assert root.km_median_event == brute_km_median(*brute_km(t, e))
        assert root.km_median_censor == brute_km_median(*brute_km(t, ~e))


@given(st.lists(st.tuples(st.floats(0.1, 50.0), st.booleans()),
                min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_km_curve_is_nonincreasing_within_unit_interval(rows):
    t = np.array([r[0] for r in rows])
    e = np.array([r[1] for r in rows], bool)
    curve = km_fit(t, e)
    s = curve.survival
    assert np.all(s <= 1.0 + 1e-12) and np.all(s >= -1e-12)
    assert np.all(np.diff(s) <= 1e-12)
    assert np.all(np.diff(curve.times) > 0)


def _assert_same_risk_table(times, exact):
    got = risk_table(times, exact)
    want = unique_risk_table(times, exact)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


@given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.5, 7.0]),
                          st.booleans()),
                min_size=1, max_size=40),
       st.lists(st.tuples(st.floats(0.01, 1e6), st.booleans()),
                max_size=20))
@settings(max_examples=300, deadline=None)
def test_risk_table_equals_unique_oracle(tied, spread):
    # heavy ties from four values, plus distinct ones from a wide range
    rows = tied + spread
    t = np.array([r[0] for r in rows])
    e = np.array([r[1] for r in rows], bool)
    _assert_same_risk_table(t, e)
    _assert_same_risk_table(t, np.zeros(t.size, bool))


@pytest.mark.parametrize("times, exact", [
    ([3.0], [True]),           # one subject
    ([3.0], [False]),          # one subject, no exact time
    ([2.0, 1.0, 2.0], [False, False, False]),  # empty grid
    ([2.0, 2.0, 2.0, 2.0], [True, False, True, True]),
])
def test_risk_table_edge_cases_equal_unique_oracle(times, exact):
    _assert_same_risk_table(np.array(times), np.array(exact, bool))
