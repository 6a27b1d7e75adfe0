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
    score_contributions,
)
from survcart.families import exact_mask, inv_sqrt

from conftest import (
    censored_exponential,
    censored_normal_loglik,
    exponential_mle,
    extreme_value_loglik,
    rng_for,
)

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
    assert ev.info.matrix[0, 0] == pytest.approx((d / n) / lam**2, rel=1e-12)


# a rate whose square rounds one way through libm's pow, as ** gives it
# on a numpy scalar, and another way as a product, as ** 2 gives it on
# an array (17.8906609477631 and 17.890660947763102 with glibc)
POW_TRAP_RATE = 4.229735328334753


@pytest.mark.parametrize("n, rows", [(2, 30), (12, 40), (700, 5)])
def test_exponential_rows_fit_and_score_as_their_own_calls(n, rows):
    # a dataset of R rows is fitted and scored in one pass, and each row's
    # rate, J, loglik and scores are the bits of the row's own fit; J is
    # also the bits of (D/N) / lam**2 on the row's numpy scalar lam
    rng = rng_for(104, n)
    t = np.round(rng.exponential(5.0, (rows, n)), 1) + 0.1
    e = rng.random((rows, n)) < 0.6
    e[:, 0] = True
    if n == 2:
        # two exact times 1/lam: D / sum(t) = 2 / (2 t) is lam again
        t[0] = 1.0 / POW_TRAP_RATE
        e[0] = True
        assert 2.0 / t[0].sum() == POW_TRAP_RATE
    stack = ds(np.asfortranarray(t), e)  # rows in any memory layout
    model = fit("exponential", EVENT, stack)
    scores = score_contributions(model, stack)
    assert model.params.shape == (rows, 1)
    assert model.info.matrix.shape == (rows, 1, 1)
    assert scores.shape == (rows, n, 1)
    for r in range(rows):
        own = fit("exponential", EVENT, ds(t[r], e[r]))
        lam = own.params[0]
        assert model.params[r, 0] == lam
        assert model.info.matrix[r, 0, 0] == own.info.matrix[0, 0]
        assert own.info.matrix[0, 0] == (own.n_contributing / n) / lam**2
        assert model.loglik[r] == own.loglik
        assert model.n_contributing[r] == own.n_contributing
        assert np.array_equal(scores[r], score_contributions(own, ds(t[r], e[r])))
    if n == 2:
        assert model.params[0, 0] == POW_TRAP_RATE


def test_exponential_rows_raise_what_a_row_would():
    # a stack fails as a whole: a row without events is degenerate, a
    # nonpositive time is invalid even in such a row, and one row whose
    # information overflows fails the fit
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DegenerateComponentError):
        fit("exponential", EVENT, ds(t, [[True, False], [False, False]]))
    with pytest.raises(InvalidTimeError):
        fit("exponential", EVENT, ds([[1.0, 2.0], [0.0, 4.0]],
                                     [[True, False], [False, False]]))
    with pytest.raises(NonConvergenceError), np.errstate(all="ignore"):
        fit("exponential", EVENT, ds(t * [[1.0], [1e300]], np.ones((2, 2))))


def test_weibull_recovers_exponential_sample():
    rng = rng_for(101, 0)
    t = rng.exponential(20.0, 2000)
    data = ds(t, np.ones(2000))
    m = fit("weibull", EVENT, data)
    mu, sigma = m.params
    shape, rate = 1.0 / sigma, math.exp(-mu / sigma)
    assert 0.95 <= shape <= 1.05
    assert 0.045 <= rate <= 0.055


@pytest.mark.parametrize("family", ["weibull", "lognormal", "normal"])
@pytest.mark.parametrize("n_tied", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("censored", [(), (0.1,), (0.05, 0.2, 0.3)])
def test_tied_exact_times_with_no_censored_time_above_have_no_mle(
        family, n_tied, censored):
    # sigma -> 0 at mu = the tied z raises the likelihood without bound;
    # Newton used to stop on the way at a "converged" sigma (1.8e-8 for
    # 3 tied lognormal times)
    t = np.array([0.3] * n_tied + list(censored))
    e = np.arange(t.size) < n_tied
    with pytest.raises(NonConvergenceError, match="tied"):
        fit(family, EVENT, ds(t, e))


@pytest.mark.parametrize("family", ["weibull", "lognormal", "normal"])
def test_tied_exact_times_below_a_censored_time_fit(family):
    # a censored time above the tie bounds the likelihood as sigma -> 0
    data = ds([0.3, 0.3, 0.3, 0.1, 0.5], [1, 1, 1, 0, 0])
    m = fit(family, EVENT, data)
    assert m.params[1] > 1e-3
    assert np.abs(score_contributions(m, data).sum(axis=0)).max() <= 1e-8


def test_weibull_nests_exponential_loglik():
    rng = rng_for(102, 0)
    t, e = censored_exponential(rng, 300, 0.1, 0.3)
    m = fit("exponential", EVENT, ds(t, e))
    ll_wei = extreme_value_loglik(t, e, -math.log(m.params[0]), 1.0)
    assert abs(m.loglik - ll_wei) <= 1e-10
    w = fit("weibull", EVENT, ds(t, e))
    assert w.loglik == pytest.approx(extreme_value_loglik(t, e, *w.params),
                                     rel=1e-12)
    assert w.loglik >= m.loglik


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


def test_location_scale_fit_maximizes_the_likelihood():
    # Newton on the score norm used to stop at sigma ~ 1e8-1e10, where
    # the score vanishes but the likelihood is far below its maximum;
    # a fit now has no perturbation of (mu, sigma) with a higher
    # likelihood, or it reports that it did not converge (one exact
    # time above every censored one has no MLE)
    rng = rng_for(112, 0)
    steps = [(s * dmu, s * dlog) for s in (1e-3, 0.1)
             for dmu, dlog in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))]
    fitted = 0
    for _ in range(300):
        n = int(rng.integers(2, 200))
        t = rng.exponential(10.0, n) + 0.01
        e = rng.random(n) < rng.uniform(0.1, 0.9)
        for family in ("lognormal", "normal"):
            z = np.log(t) if family == "lognormal" else t
            for component in (EVENT, CENSOR):
                exact = exact_mask(e, component)
                try:
                    m = fit(family, component, ds(t, e))
                except (DegenerateComponentError, NonConvergenceError):
                    continue
                fitted += 1
                jacobian = -math.fsum(z[exact]) if family == "lognormal" else 0.0

                def loglik(mu, sigma):
                    return censored_normal_loglik(z, exact, mu, sigma) + jacobian

                mu, sigma = m.params
                top = loglik(mu, sigma)
                assert m.loglik == pytest.approx(top, rel=1e-9, abs=1e-9)
                for dmu, dlog in steps:
                    moved = loglik(mu + dmu * sigma, sigma * math.exp(dlog))
                    assert moved <= top + 1e-9 * (1.0 + abs(top))
    assert fitted > 1100


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
        rel = np.abs(m.info.matrix - avg).max() / np.abs(avg).max()
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
    data = ds([1.0, 2.0, 3.5, 4.0], [1, 0, 1, 1])
    sizes = {f: fit(f, EVENT, data).params.size for f in ALL_FAMILIES}
    assert sizes == {"exponential": 1, "weibull": 2, "lognormal": 2, "normal": 2}


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
    # fit sums D and the exposure once; the oracle applies the closed forms
    events = rng_for(111, seed).random(len(times)) < 0.6
    data = ds(times, events)
    t = np.asarray(times, float)
    w = events.astype(float) if component == EVENT else 1.0 - events
    if not w.any():
        with pytest.raises(DegenerateComponentError):
            fit("exponential", component, data)
        return
    m = fit("exponential", component, data)
    lam, loglik, info = exponential_mle(t, w)
    assert m.params.tolist() == [pytest.approx(lam, rel=1e-12)]
    assert isinstance(m.loglik, float)
    assert m.loglik == pytest.approx(loglik, rel=1e-12, abs=1e-12)
    assert m.info.matrix.shape == (1, 1)
    assert m.info.matrix[0, 0] == pytest.approx(info, rel=1e-12)
    assert m.n_contributing == int(w.sum())
