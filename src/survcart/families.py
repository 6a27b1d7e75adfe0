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
    Fitted by Newton's method on the log likelihood in a = mu/sigma,
    b = 1/sigma, where it is concave (Olsen 1978, Econometrica 46(5)),
    with the analytic Hessian and step halving that accepts only a
    step raising the likelihood, started from the uncensored closed
    forms.  The information in (mu, sigma) is that Hessian carried
    back through d(a, b)/d(mu, sigma).

Each family defines ``fitted`` (MLE, log likelihood and average
information from the times and the 0/1 weights w of the exact ones)
and ``scores`` (the per-subject score vectors).  ``fit`` is the one
place that decides whether an information matrix is usable: it wraps
every family's matrix, the exponential's included, in a
``CheckedInformation`` and reports a matrix that fails the check, or a
math error inside ``fitted``, as a fit that did not converge.  Even the
exponential's (D/N)/lam^2 fails at extreme time units, where lam^2
overflows or underflows.  The check is relative, so scaling a matrix
does not change its verdict: the instability tests standardize by
J^(-1/2), which makes them free of the time unit, and an absolute
floor on J would not be.

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
from functools import cache, cached_property

import numpy as np

from .errors import (
    DegenerateComponentError,
    InvalidTimeError,
    NonConvergenceError,
    SingularInformationError,
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


class _Exponential:
    name = "exponential"
    param_names = ("rate",)
    positive_time = True

    @staticmethod
    def scores(times, w, params):
        lam = params[0]
        return (w / lam - times)[:, None]

    @staticmethod
    def fitted(times, w, d):
        # closed forms: lam = D / sum(t), loglik = D log lam - lam sum(t),
        # information (D/N) / lam^2
        st = float(times.sum())
        params = np.array([d / st])
        lam = params[0]
        frac = d / times.size
        return params, d * math.log(lam) - lam * st, np.array([[frac / lam**2]])


class _Weibull:
    name = "weibull"
    param_names = ("shape", "rate")
    positive_time = True

    @classmethod
    def fitted(cls, times, w, d):
        params = cls._profile_fit(times, w)
        return params, cls.loglik(times, w, params), cls.information(times, w, params)

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


class _LocationScale:
    """A normal model for z = log t (lognormal) or z = t (normal)."""

    param_names = ("mu", "sigma")

    @classmethod
    def fitted(cls, times, w, d):
        # Newton's method on the log likelihood in a = mu/sigma,
        # b = 1/sigma, where it is globally concave (Olsen 1978).  With
        # y = b z - a, minus its Hessian is sum c (1, -z)'(1, -z) +
        # diag(0, D/b^2), c = 1 for an exact time and h (h - y) for a
        # censored one: positive definite, so each step ascends.
        z = np.log(times) if cls.log_time else times
        exact = w > 0.0
        ze, zc = z[exact], z[~exact]
        sum_e, sum_e2 = float(ze.sum()), float(ze @ ze)
        # the lognormal density of t carries 1/t, -z on the log scale
        const = -d * _LOG_SQRT_2PI - (sum_e if cls.log_time else 0.0)
        log_ndtr = scipy_special().log_ndtr

        def terms(theta):
            # log likelihood, gradient and minus the Hessian at (a, b)
            a, b = theta
            ye = b * ze - a
            yc = b * zc - a
            log_sf = log_ndtr(-yc)
            ll = d * math.log(b) - 0.5 * float(ye @ ye) + float(log_sf.sum()) + const
            h = np.exp(-0.5 * yc * yc - _LOG_SQRT_2PI - log_sf)  # Mills ratio
            c = h * (h - yc)
            cz = c * zc
            grad = np.array([ye.sum() + h.sum(), d / b - ye @ ze - h @ zc])
            s1 = sum_e + cz.sum()
            neg_hess = np.array(
                [[d + c.sum(), -s1], [-s1, sum_e2 + cz @ zc + d / (b * b)]]
            )
            return ll, grad, neg_hess

        # start from the uncensored closed forms
        mu = float(ze.mean())
        sigma = float(ze.std()) or float(z.std()) or 1.0
        theta = np.array([mu / sigma, 1.0 / sigma])
        ll, grad, neg_hess = terms(theta)
        for _ in range(100):
            # a singular Hessian raises LinAlgError, a ValueError: the fit fails
            step = np.linalg.solve(neg_hess, grad)
            if not np.all(np.isfinite(step)):
                raise NonConvergenceError("Newton step not finite")
            if grad @ step <= 1e-12 * (1.0 + abs(ll)):
                # the decrement is roundoff: take the last step whole (it
                # moves b by at most sqrt(decrement / D) times b)
                theta = theta + step
                ll, _, neg_hess = terms(theta)
                a, b = theta
                mu, sigma = a / b, 1.0 / b
                # d(a, b) / d(mu, sigma)
                jac = np.array([[sigma, -mu], [0.0, -1.0]]) / (sigma * sigma)
                info = jac.T @ neg_hess @ jac / times.size
                return np.array([mu, sigma]), ll, info
            for _ in range(60):  # halve until the step raises ll
                trial = theta + step
                if trial[1] > 0.0:
                    trial_terms = terms(trial)
                    if trial_terms[0] > ll:
                        break
                step = 0.5 * step
            else:
                raise NonConvergenceError("step halving exhausted")
            theta = trial
            ll, grad, neg_hess = trial_terms
        raise NonConvergenceError("location-scale fit hit 100 iterations")

    @classmethod
    def scores(cls, times, w, params):
        mu, sigma = params
        z = np.log(times) if cls.log_time else times
        y = (z - mu) / sigma
        # the Mills ratio phi(y) / Phi(-y), in log space for large y
        hy = np.exp(-0.5 * y * y - _LOG_SQRT_2PI - scipy_special().log_ndtr(-y))
        cw = 1.0 - w
        u_mu = (w * y + cw * hy) / sigma
        u_sigma = (w * (y * y - 1.0) + cw * (y * hy)) / sigma
        return np.column_stack([u_mu, u_sigma])


class _LogNormal(_LocationScale):
    name = "lognormal"
    positive_time = True
    log_time = True


class _Normal(_LocationScale):
    name = "normal"
    positive_time = False
    log_time = False


_FAMILIES = {f.name: f for f in (_Exponential, _Weibull, _LogNormal, _Normal)}
FAMILY_NAMES = tuple(_FAMILIES)


def get_family(name: str):
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None


@dataclass(frozen=True)
class FittedModel:
    """One maximized likelihood component."""

    family: str
    component: str
    params: np.ndarray
    loglik: float
    info: CheckedInformation
    n_used: int
    n_contributing: int


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
    the censor side), and NonConvergenceError when the fit fails: the
    iteration does not converge, an estimate or the log likelihood
    overflows or leaves the domain of a math function, or the
    information matrix fails ``CheckedInformation``.
    """
    fam = get_family(family)
    times, w = _prepared(fam, component, data)
    d = float(w.sum())
    n_contributing = int(round(d))
    if n_contributing == 0:
        raise DegenerateComponentError(
            f"no contributing observations for the {component} component"
        )
    try:
        params, loglik, info = fam.fitted(times, w, d)
        info = CheckedInformation(info)
    except (ArithmeticError, ValueError, SingularInformationError) as exc:
        # e.g. tied Weibull times, whose shape grows until a power
        # overflows, or times so large that their sum overflows, the
        # exponential rate is 0.0 and its log leaves the domain
        raise NonConvergenceError(f"{fam.name} fit: {exc}") from exc
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


def inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix.

    ``matrix`` is one matrix or a stack of them along leading axes.  A
    1 x 1 matrix is its own eigenvalue with eigenvector 1.0, as LAPACK
    returns it, so its inverse square root is written out directly.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[-2:] == (1, 1):
        return 1.0 / np.sqrt(matrix)
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


class CheckedInformation:
    """An average information matrix that is finite and positive definite.

    Raises ``SingularInformationError`` otherwise.  The check is
    relative: the smallest eigenvalue must exceed 1e-12 times the
    largest, so a change of time unit, which scales the eigenvalues,
    does not change its verdict.  A NaN or infinite entry fails it.  A
    1 x 1 matrix (a one-parameter family) is its own eigenvalue, which
    is exactly what LAPACK returns for it, so its check is one
    comparison, 0 < J < inf, and its inverse is the one division
    LAPACK's solve makes.  The inverse and the inverse square root are
    each made on first use, so a tree node that tests many variables
    against one fitted component makes them once.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape == (1, 1):
            low = high = matrix.item()
        elif np.isfinite(matrix).all():
            vals = np.linalg.eigvalsh(matrix)
            low, high = float(vals[0]), float(vals[-1])
        else:
            low = high = math.nan
        if not low > 1e-12 * high:  # False for NaN, and for inf > inf
            raise SingularInformationError(
                "information matrix is not finite and positive definite"
            )
        self.matrix = matrix

    @cached_property
    def inverse(self) -> np.ndarray:
        if self.matrix.shape == (1, 1):
            return np.array([[1.0 / self.matrix.item()]])
        return np.linalg.inv(self.matrix)

    @cached_property
    def inverse_sqrt(self) -> np.ndarray:
        return inv_sqrt(self.matrix)
