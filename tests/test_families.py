import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcart import (
    CENSOR,
    EVENT,
    DegenerateComponentError,
    FittedModel,
    InvalidTimeError,
    NonConvergenceError,
    SurvivalDataset,
    fit,
    get_family,
    km_fit,
    loglik_and_aic,
    n_params,
    score_contributions,
)
from survcart.families import _Exponential, _Weibull, exact_mask, inv_sqrt

from conftest import censored_exponential, rng_for

ALL_FAMILIES = ("exponential", "weibull", "lognormal", "normal")


def ds(times, events):
    return SurvivalDataset(np.asarray(times, float), np.asarray(events, bool))


def test_exponential_closed_forms():
    data = ds([2, 4, 6, 8], [1, 1, 0, 0])
    ev = fit("exponential", EVENT, data)
    ce = fit("exponential", CENSOR, data)
    assert ev.params[0] == pytest.approx(0.1, abs=0)  # D/S = 2/20
    assert ce.params[0] == pytest.approx(0.1, abs=0)  # (N-D)/S
    u = score_contributions(ev, data)
    assert u[1, 0] == pytest.approx(6.0)   # 1/0.1 - 4
    assert u[2, 0] == pytest.approx(-6.0)  # 0 - 6


def test_exponential_information_identity():
    data = ds([2, 4, 6, 8], [1, 1, 0, 0])
    ev = fit("exponential", EVENT, data)
    lam = ev.params[0]
    d, n = 2, 4
    assert ev.info[0, 0] == pytest.approx((d / n) / lam**2, rel=1e-12)


def test_weibull_recovers_exponential_sample():
    rng = rng_for(101, 0)
    t = rng.exponential(20.0, 2000)
    data = ds(t, np.ones(2000))
    m = fit("weibull", EVENT, data)
    alpha, lam = m.params
    assert 0.95 <= alpha <= 1.05
    assert 0.045 <= lam <= 0.055


@pytest.mark.parametrize("n_tied", [1, 2, 3, 5])
def test_weibull_tied_times_do_not_converge(n_tied):
    # all times tied: the profile likelihood rises without bound in the
    # shape, so there is no MLE (1, 2 and 5 tied times used to overflow
    # instead of failing cleanly)
    with pytest.raises(NonConvergenceError):
        fit("weibull", EVENT, ds(np.full(n_tied, 0.3), np.ones(n_tied)))


def test_weibull_nests_exponential_loglik():
    rng = rng_for(102, 0)
    t, e = censored_exponential(rng, 300, 0.1, 0.3)
    lam = e.sum() / t.sum()
    w = e.astype(float)
    ll_exp = _Exponential.loglik(t, w, (lam,))
    ll_wei = _Weibull.loglik(t, w, (1.0, lam))
    assert abs(ll_exp - ll_wei) <= 1e-10


def test_lognormal_uncensored_closed_form():
    rng = rng_for(103, 0)
    t = rng.lognormal(1.2, 0.7, 500)
    data = ds(t, np.ones(500))
    m = fit("lognormal", EVENT, data)
    logs = np.log(t)
    assert m.params[0] == pytest.approx(logs.mean(), abs=1e-7)
    assert m.params[1] == pytest.approx(logs.std(), abs=1e-7)


def test_lognormal_censored_score_example():
    # mu=0, sigma=1, censored at t=1: y=0, u(mu) = h(0) = phi(0)/Phi(0)
    model = FittedModel("lognormal", EVENT, np.array([0.0, 1.0]), 0.0,
                        np.eye(2), 1, 1)
    data = ds([1.0], [0])
    u = score_contributions(model, data)
    assert u[0, 0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert u[0, 1] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("component", [EVENT, CENSOR])
def test_stationarity(family, component):
    rng = rng_for(104, hash((family, component)) % 2**32)
    for frac in (0.0, 0.3, 0.6):
        t, e = censored_exponential(rng, 150, 0.08, frac)
        if component == CENSOR and (~e).sum() == 0:
            continue
        data = ds(t, e)
        m = fit(family, component, data)
        u = score_contributions(m, data)
        assert np.abs(u.sum(axis=0)).max() <= 1e-6 * data.n


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_information_matches_average_hessian(family):
    rng = rng_for(105, 0)
    t, e = censored_exponential(rng, 400, 0.1, 0.25)
    data = ds(t, e)
    fam = get_family(family)
    for component, w in ((EVENT, e), (CENSOR, ~e)):
        m = fit(family, component, data)
        p = np.asarray(m.params, float)
        k = p.size
        hess = np.zeros((k, k))
        for j in range(k):
            h = 1e-5 * max(1.0, abs(p[j]))
            for sgn in (1.0, -1.0):
                q = p.copy()
                q[j] += sgn * h
                sc = fam.scores(t, w.astype(float), tuple(q)).sum(axis=0)
                hess[:, j] += sgn * sc / (2.0 * h)
        avg = -0.5 * (hess + hess.T) / data.n
        rel = np.abs(m.info - avg).max() / np.abs(avg).max()
        assert rel < 1e-4


def test_time_scaling_equivariance_exponential():
    rng = rng_for(106, 0)
    t, e = censored_exponential(rng, 200, 0.05, 0.2)
    m1 = fit("exponential", EVENT, ds(t, e))
    m2 = fit("exponential", EVENT, ds(3.0 * t, e))
    assert m2.params[0] == pytest.approx(m1.params[0] / 3.0, rel=1e-12)


def test_censor_event_symmetry():
    rng = rng_for(107, 0)
    t, e = censored_exponential(rng, 250, 0.1, 0.4)
    for family in ALL_FAMILIES:
        m1 = fit(family, CENSOR, ds(t, e))
        m2 = fit(family, EVENT, ds(t, ~e))
        assert np.array_equal(np.asarray(m1.params), np.asarray(m2.params))
        assert m1.loglik == m2.loglik


def test_degenerate_component_raises():
    data = ds([1, 2, 3], [1, 1, 1])
    with pytest.raises(DegenerateComponentError):
        fit("exponential", CENSOR, data)
    with pytest.raises(DegenerateComponentError):
        fit("exponential", EVENT, ds([1, 2, 3], [0, 0, 0]))


def test_nonpositive_time_rejected_outside_normal():
    data = ds([1.0, -2.0], [1, 1])
    for family in ("exponential", "weibull", "lognormal"):
        with pytest.raises(InvalidTimeError):
            fit(family, EVENT, data)
    # the normal family admits the full real line
    m = fit("normal", EVENT, data)
    assert m.params[0] == pytest.approx(-0.5)


def test_n_params():
    assert n_params("exponential") == 1
    assert n_params("weibull") == 2
    assert n_params("lognormal") == 2
    assert n_params("normal") == 2


def test_exact_mask_is_events_or_censorings():
    e = np.array([1, 0, 1, 0], bool)
    assert exact_mask(e, EVENT).tolist() == [True, False, True, False]
    assert exact_mask(e, CENSOR).tolist() == [False, True, False, True]


def test_unknown_component_rejected_everywhere():
    # fit, score_contributions and km_fit share the one component check
    data = ds([1.0, 2.0, 3.0], [1, 0, 1])
    model = fit("exponential", EVENT, data)
    with pytest.raises(ValueError, match="component must be"):
        fit("exponential", "evnt", data)
    with pytest.raises(ValueError, match="component must be"):
        score_contributions(dataclasses.replace(model, component="evnt"), data)
    with pytest.raises(ValueError, match="component must be"):
        km_fit(data.times, data.events, "evnt")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        get_family("gamma")


def test_loglik_and_aic_worked_examples():
    def fm(k, ll):
        return FittedModel("weibull" if k == 2 else "exponential", EVENT,
                           np.ones(k), ll, np.eye(k), 1, 1)

    total, aic = loglik_and_aic([(fm(1, -60.0), fm(1, -40.0))])
    assert (total, aic) == (-100.0, 204.0)
    total, aic = loglik_and_aic(
        [(fm(2, -30.0), fm(1, -20.0)), (fm(2, -30.0), fm(1, -20.0))]
    )
    assert (total, aic) == (-100.0, 212.0)
    # a degenerate side contributes nothing
    total, aic = loglik_and_aic([(fm(1, -50.0), None)])
    assert (total, aic) == (-50.0, 102.0)


def test_refitting_halves_never_loses_likelihood():
    rng = rng_for(108, 0)
    t, e = censored_exponential(rng, 120, 0.1, 0.2)
    data = ds(t, e)
    whole = fit("exponential", EVENT, data).loglik
    halves = 0.0
    for idx in (np.arange(60), np.arange(60, 120)):
        halves += fit("exponential", EVENT, data.subset(idx)).loglik
    assert halves >= whole - 1e-9


@given(st.lists(st.floats(0.5, 50.0), min_size=2, max_size=30),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exponential_mle_is_event_count_over_exposure(times, seed):
    events = rng_for(109, seed).random(len(times)) < 0.7
    if not events.any():
        events[0] = True
    data = ds(times, events)
    m = fit("exponential", EVENT, data)
    assert m.params[0] == pytest.approx(events.sum() / np.sum(times), rel=1e-12)


def test_inv_sqrt_inverts():
    rng = rng_for(110, 0)
    a = rng.normal(size=(3, 3))
    m = a @ a.T + 3.0 * np.eye(3)
    r = inv_sqrt(m)
    assert np.allclose(r @ m @ r, np.eye(3), atol=1e-10)


@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1),
       st.sampled_from([EVENT, CENSOR]))
@settings(max_examples=150, deadline=None)
def test_one_pass_exponential_fit_matches_family_formulas(times, seed, component):
    # fit sums D and the exposure once; the three formulas sum them apiece
    events = rng_for(111, seed).random(len(times)) < 0.6
    data = ds(times, events)
    t = np.asarray(times, float)
    w = events.astype(float) if component == EVENT else 1.0 - events
    if not w.any():
        with pytest.raises(DegenerateComponentError):
            fit("exponential", component, data)
        return
    m = fit("exponential", component, data)
    params = _Exponential.fit_params(t, w)
    loglik = _Exponential.loglik(t, w, params)
    assert np.array_equal(m.params, params)
    assert m.loglik == loglik and type(m.loglik) is type(loglik)
    assert np.array_equal(m.info, _Exponential.information(t, w, params))
    assert m.n_contributing == int(w.sum())
