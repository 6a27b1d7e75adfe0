"""Parametric likelihood components for right-censored survival data.

Each subject contributes an observed time t_i and an event indicator
d_i (1 = event, 0 = right censored).  Writing f and S for the density
and survival function of the event time and g and H for those of the
censoring time, the subject likelihood factors as

    L_i = [f(t_i) H(t_i)]^d_i [S(t_i) g(t_i)]^(1 - d_i)

so the event parameters and the censoring parameters can be estimated
separately: the event component is the familiar censored likelihood in
(t_i, d_i), and the censoring component is the same likelihood with the
indicator flipped.  ``fit`` maximizes one component at a time and also
returns the per-subject average observed information J, which for the
closed-form families below matches the analytic expressions and in
general equals minus the average Hessian of the component log
likelihood at the MLE.

Families
--------
exponential
    f(t) = lam * exp(-lam t).  MLE lam = D / sum(t); score per subject
    u(lam) = d/lam - t; information J = (D/N) / lam^2.
weibull
    f(t) = a * lam * t^(a-1) * exp(-lam t^a), so S(t) = exp(-lam t^a).
    Scores u(a) = d/a + d log t - lam t^a log t and u(lam) = d/lam - t^a.
    lam profiles out as lam(a) = D / sum(t^a); a solves the profile
    score by Newton iteration.
lognormal, normal
    With y = (log t - mu)/sigma (normal: y = (t - mu)/sigma) and the
    hazard-like ratio h(y) = phi(y)/Phi(-y), the scores are
    u(mu) = [d y + (1-d) h(y)] / sigma and
    u(sigma) = [d (y^2 - 1) + (1-d) y h(y)] / sigma.
    Fitted by a joint Newton step on (mu, sigma) with a numerically
    differenced Hessian, started from the uncensored closed forms.

Only these two families need scipy, for the normal log-CDF
(``scipy.special.log_ndtr``), and the categorical instability test
needs it for the chi-square tail.  ``scipy_special`` imports
``scipy.special`` on its first call, so a process that fits only
exponential and Weibull components and runs only continuous tests
never loads scipy.

``fit`` and ``score_contributions`` share one preamble per dataset and
component (the positivity check and the 0/1 weights of the exact
times): the dataset keeps it like a tree node's test workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DegenerateComponentError,
    InvalidTimeError,
    NonConvergenceError,
)

EVENT = "event"
CENSOR = "censor"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def exact_mask(events, component) -> np.ndarray:
    """Where a subject's time is exact for ``component``.

    The events for "event" and the censorings for "censor": the one
    place the indicator is flipped for the censoring side.
    """
    events = np.asarray(events, dtype=bool)
    if component == EVENT:
        return events
    if component == CENSOR:
        return ~events
    raise ValueError(f"component must be {EVENT!r} or {CENSOR!r}")


@cache
def scipy_special():
    """The ``scipy.special`` module, imported on the first call."""
    import scipy.special

    return scipy.special


def _mills_ratio(y):
    """h(y) = phi(y) / Phi(-y), computed in log space for large y."""
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5 * y * y - _LOG_SQRT_2PI - scipy_special().log_ndtr(-y))


class _Family:
    """What ``fit`` asks of a family, given times and 0/1 weights w."""

    @classmethod
    def fitted(cls, times, w, d):
        """MLE, log likelihood and information; d is ``float(w.sum())``."""
        params = cls.fit_params(times, w)
        return params, cls.loglik(times, w, params), cls.information(times, w, params)


class _Exponential(_Family):
    name = "exponential"
    param_names = ("rate",)
    positive_time = True

    @staticmethod
    def fit_params(times, w):
        d = float(w.sum())
        st = float(times.sum())
        return np.array([d / st])

    @staticmethod
    def loglik(times, w, params):
        lam = params[0]
        return float(w.sum()) * math.log(lam) - lam * float(times.sum())

    @staticmethod
    def scores(times, w, params):
        lam = params[0]
        return (w / lam - times)[:, None]

    @staticmethod
    def information(times, w, params):
        lam = params[0]
        frac = float(w.sum()) / times.size
        return np.array([[frac / lam**2]])

    @staticmethod
    def fitted(times, w, d):
        # the three methods above in one pass: D and sum(t) summed once
        st = float(times.sum())
        params = np.array([d / st])
        lam = params[0]
        frac = d / times.size
        return params, d * math.log(lam) - lam * st, np.array([[frac / lam**2]])


class _Weibull(_Family):
    name = "weibull"
    param_names = ("shape", "rate")
    positive_time = True

    @staticmethod
    def _profile_terms(logt, alpha):
        # ratios of sum(t^a * logt^k) computed with a common scale factor
        # so large alpha * log t does not overflow
        e = alpha * logt
        m = e.max()
        p = np.exp(e - m)
        a0 = p.sum()
        a1 = float(p @ logt)
        a2 = float(p @ (logt * logt))
        return m, a0, a1, a2

    @classmethod
    def fit_params(cls, times, w):
        try:
            return cls._profile_fit(times, w)
        except OverflowError as exc:
            # tied contributing times have no finite MLE: the shape grows
            # without bound until a power or the rate overflows
            raise NonConvergenceError("weibull shape diverged") from exc

    @classmethod
    def _profile_fit(cls, times, w):
        logt = np.log(times)
        d = float(w.sum())
        swl = float(w @ logt)
        alpha = 1.0
        for _ in range(100):
            m, a0, a1, a2 = cls._profile_terms(logt, alpha)
            g = d / alpha + swl - d * a1 / a0
            gprime = -d / alpha**2 - d * (a2 * a0 - a1 * a1) / a0**2
            if not (math.isfinite(g) and math.isfinite(gprime)) or gprime == 0.0:
                raise NonConvergenceError("weibull profile score not finite")
            step = g / gprime
            while alpha - step <= 0.0:
                step *= 0.5
            alpha -= step
            if abs(step) < 1e-8:
                m, a0, _, _ = cls._profile_terms(logt, alpha)
                lam = math.exp(math.log(d) - (m + math.log(a0)))
                if not math.isfinite(lam) or lam <= 0.0:
                    raise NonConvergenceError("weibull rate overflowed")
                return np.array([alpha, lam])
        raise NonConvergenceError("weibull profile iteration hit 100 steps")

    @staticmethod
    def loglik(times, w, params):
        alpha, lam = params
        logt = np.log(times)
        ta = np.power(times, alpha)
        return float(
            w.sum() * (math.log(alpha) + math.log(lam))
            + (alpha - 1.0) * (w @ logt)
            - lam * ta.sum()
        )

    @staticmethod
    def scores(times, w, params):
        alpha, lam = params
        logt = np.log(times)
        ta = np.power(times, alpha)
        u_alpha = w / alpha + w * logt - lam * ta * logt
        u_lam = w / lam - ta
        return np.column_stack([u_alpha, u_lam])

    @staticmethod
    def information(times, w, params):
        alpha, lam = params
        n = times.size
        logt = np.log(times)
        ta = np.power(times, alpha)
        frac = float(w.sum()) / n
        j_aa = frac / alpha**2 + lam * float(ta @ (logt * logt)) / n
        j_al = float(ta @ logt) / n
        j_ll = frac / lam**2
        return np.array([[j_aa, j_al], [j_al, j_ll]])


class _LocationScale(_Family):
    """Shared Newton machinery for the lognormal and normal families."""

    param_names = ("mu", "sigma")

    @staticmethod
    def transform(times):
        raise NotImplementedError

    @classmethod
    def _score_total(cls, z, w, params):
        mu, sigma = params
        y = (z - mu) / sigma
        hy = _mills_ratio(y)
        cw = 1.0 - w
        u_mu = (w @ y + cw @ hy) / sigma
        u_sigma = (w @ (y * y - 1.0) + cw @ (y * hy)) / sigma
        return np.array([u_mu, u_sigma])

    @classmethod
    def _score_jacobian(cls, z, w, params):
        jac = np.empty((2, 2))
        for k in range(2):
            h = 1e-5 * max(1.0, abs(params[k]))
            hi = params.copy()
            lo = params.copy()
            hi[k] += h
            lo[k] -= h
            jac[:, k] = (cls._score_total(z, w, hi) - cls._score_total(z, w, lo)) / (
                2.0 * h
            )
        return jac

    @classmethod
    def fit_params(cls, times, w):
        z = cls.transform(times)
        contributing = z[w > 0]
        mu = float(contributing.mean())
        sigma = float(contributing.std())
        if sigma <= 0.0:
            sigma = float(z.std())
        if sigma <= 0.0:
            sigma = 1.0
        params = np.array([mu, sigma])
        score = cls._score_total(z, w, params)
        norm = float(np.linalg.norm(score))
        for _ in range(100):
            if norm < 1e-8:
                return params
            jac = cls._score_jacobian(z, w, params)
            try:
                delta = np.linalg.solve(jac, score)
            except np.linalg.LinAlgError as exc:
                raise NonConvergenceError("singular Newton step") from exc
            if not np.all(np.isfinite(delta)):
                raise NonConvergenceError("Newton step not finite")
            for _ in range(30):
                trial = params - delta
                if trial[1] > 0.0:
                    trial_score = cls._score_total(z, w, trial)
                    trial_norm = float(np.linalg.norm(trial_score))
                    if math.isfinite(trial_norm) and trial_norm <= max(
                        norm, 1e-8
                    ):
                        break
                delta = 0.5 * delta
            else:
                raise NonConvergenceError("step halving exhausted")
            params, score, norm = trial, trial_score, trial_norm
        if norm < 1e-8:
            return params
        raise NonConvergenceError("location-scale fit hit 100 iterations")

    @classmethod
    def loglik(cls, times, w, params):
        mu, sigma = params
        z = cls.transform(times)
        y = (z - mu) / sigma
        obs = -math.log(sigma) - _LOG_SQRT_2PI - 0.5 * y * y + cls._jacobian_term(z)
        cens = scipy_special().log_ndtr(-y)
        return float(w @ obs + (1.0 - w) @ cens)

    @classmethod
    def scores(cls, times, w, params):
        mu, sigma = params
        z = cls.transform(times)
        y = (z - mu) / sigma
        hy = _mills_ratio(y)
        cw = 1.0 - w
        u_mu = (w * y + cw * hy) / sigma
        u_sigma = (w * (y * y - 1.0) + cw * (y * hy)) / sigma
        return np.column_stack([u_mu, u_sigma])

    @classmethod
    def information(cls, times, w, params):
        z = cls.transform(times)
        jac = cls._score_jacobian(z, w, np.asarray(params, dtype=float))
        sym = -0.5 * (jac + jac.T) / times.size
        return sym


class _LogNormal(_LocationScale):
    name = "lognormal"
    positive_time = True

    @staticmethod
    def transform(times):
        return np.log(times)

    @staticmethod
    def _jacobian_term(z):
        # density of log-time carries a 1/t factor, i.e. -z on the log scale
        return -z


class _Normal(_LocationScale):
    name = "normal"
    positive_time = False

    @staticmethod
    def transform(times):
        return np.asarray(times, dtype=float)

    @staticmethod
    def _jacobian_term(z):
        return 0.0


_FAMILIES = {f.name: f for f in (_Exponential, _Weibull, _LogNormal, _Normal)}
FAMILY_NAMES = tuple(_FAMILIES)


def get_family(name: str):
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None


def n_params(family: str) -> int:
    return len(get_family(family).param_names)


@dataclass(frozen=True)
class FittedModel:
    """One maximized likelihood component."""

    family: str
    component: str
    params: np.ndarray
    loglik: float
    info: np.ndarray
    n_used: int
    n_contributing: int

    @property
    def named(self) -> dict:
        return dict(zip(get_family(self.family).param_names, self.params))


def _times_and_weights(fam, component, data):
    """Float times and the 0/1 weights of the times exact for ``component``.

    Raises InvalidTimeError when ``fam`` needs positive times and one is not.
    """
    w = exact_mask(data.events, component).astype(float)
    times = np.asarray(data.times, dtype=float)
    if fam.positive_time and (times <= 0.0).any():
        raise InvalidTimeError(
            f"{fam.name} requires strictly positive times"
        )
    return times, w


def _prepared(fam, component, data):
    """``_times_and_weights`` made once per dataset and component.

    ``data`` keeps it for the family that made it, so ``fit`` and
    ``score_contributions`` on one dataset share it; another family
    makes it anew.
    """
    return data.workspace(
        ("weights", component), fam, lambda: _times_and_weights(fam, component, data)
    )


def fit(family: str, component: str, data) -> FittedModel:
    """Maximize one likelihood component on a dataset.

    ``component`` selects which side of the factored likelihood is
    maximized: "event" treats d=1 as exact observations, "censor" swaps
    the roles of events and censorings.  Raises
    DegenerateComponentError when no observation contributes an exact
    time to the chosen component (D = 0 for the event side, D = N for
    the censor side).
    """
    fam = get_family(family)
    times, w = _prepared(fam, component, data)
    d = float(w.sum())
    n_contributing = int(round(d))
    if n_contributing == 0:
        raise DegenerateComponentError(
            f"no contributing observations for the {component} component"
        )
    params, loglik, info = fam.fitted(times, w, d)
    return FittedModel(
        family=fam.name,
        component=component,
        params=params,
        loglik=loglik,
        info=info,
        n_used=times.size,
        n_contributing=n_contributing,
    )


def score_contributions(model: FittedModel, data) -> np.ndarray:
    """Per-subject score vectors at the model's parameters, N x dim."""
    fam = get_family(model.family)
    times, w = _prepared(fam, model.component, data)
    return fam.scores(times, w, model.params)


def loglik_and_aic(leaves) -> tuple:
    """Total log likelihood and AIC over leaf model pairs.

    ``leaves`` is an iterable of (event_model, censor_model) pairs;
    either member may be None (degenerate component, or censoring side
    not modeled), contributing zero log likelihood and zero parameters.
    """
    total = 0.0
    k = 0
    for pair in leaves:
        for model in pair:
            if model is not None:
                total += model.loglik
                k += np.size(model.params)
    return total, -2.0 * total + 2.0 * k


def inv_sqrt(matrix: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Symmetric inverse square root with eigenvalues clipped at ``floor``.

    ``matrix`` is one matrix or a stack of them along leading axes.  A
    1 x 1 matrix is its own eigenvalue with eigenvector 1.0, as LAPACK
    returns it, so its inverse square root is written out directly.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[-2:] == (1, 1):
        return 1.0 / np.sqrt(np.maximum(matrix, floor))
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
