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
    u(lam) = d/lam - t; information J = (D/N) / lam^2.  Its ``fitted``
    and ``scores`` take a leading row axis, so a dataset of R samples,
    one per row (a size or power cell's chunk of replicates), is fitted,
    checked and scored in one numpy pass.  Each row gets the bits of its
    own one-sample fit: lam^2 is libm's pow and the log likelihood uses
    math.log, as a one-sample fit always has.
weibull, lognormal, normal
    Location-scale models: y = (z - mu)/sigma has a standard law, with
    z = log t (weibull, lognormal) or z = t (normal).  The Weibull's is
    the extreme-value (EV) law of log t, log f0(y) = y - e^y and
    log S0(y) = -e^y, so S(t) = exp(-(t / e^mu)^(1/sigma)): scale e^mu
    and shape 1/sigma (Kalbfleisch & Prentice 2002, ch. 2; R's
    ``survreg`` uses the same form).  The other two use the standard
    normal.  With g1 the derivative in y of log f0 (exact time) or of
    log S0 (censored) and w the 0/1 exact weight, the scores are
    u(mu) = -g1 / sigma and u(sigma) = (-w - y g1) / sigma.
    Fitted by Newton's method on the log likelihood in a = mu/sigma,
    b = 1/sigma, where it is concave for a log-concave f0 and S0
    (Olsen 1978, Econometrica 46(5); Pratt 1981, JASA 76(373)), with
    the analytic Hessian and step halving that accepts only a step
    raising the likelihood; no profile iteration.  When every exact z
    is tied and no censored z lies above it, the likelihood rises
    without bound as sigma -> 0, and the fit fails before Newton
    starts.  The information in (mu, sigma) is that Hessian carried
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
J^(-1/2), which makes them free of the time unit in all four families
(a change of unit scales lam, shifts mu on the log scale, or scales
mu and sigma of the normal), and an absolute floor on J would not be.

Only the lognormal and normal families need scipy, for the normal
log-CDF (``scipy.special.log_ndtr``), and the categorical instability
test needs it for the chi-square tail.  ``scipy_special`` imports
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
# math.log's bits, which a tree's JSON keeps, also on an array; ValueError at
# 0.0.  A float in gives a float out, an array an object array
_math_log = np.frompyfunc(math.log, 1, 1)
_EV_SD = math.pi / math.sqrt(6.0)  # standard deviation of the standard EV


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
        return (w / params - times)[..., None]

    @staticmethod
    def fitted(times, w, d):
        # closed forms, row by row: lam = D / sum(t), loglik = D log lam -
        # lam sum(t), information (D/N) / lam^2.  float_power is libm's
        # pow, as ** on one row's numpy scalar lam; ** 2 on an array
        # multiplies, which rounds differently
        st = times.sum(axis=-1)
        lam = d / st
        info = d / times.shape[-1] / np.float_power(lam, 2.0)
        loglik = d * np.asarray(_math_log(lam), dtype=float) - lam * st
        return lam[..., None], loglik, info[..., None, None]


class _StandardNormal:
    """The standard normal, for the lognormal and normal families."""

    @staticmethod
    def start(ze, z, d):
        # the uncensored closed forms
        return float(ze.mean()), float(ze.std()) or float(z.std()) or 1.0

    @staticmethod
    def exact(y):
        return -0.5 * y * y - _LOG_SQRT_2PI, -y, np.ones_like(y)

    @staticmethod
    def censored(y):
        log_sf = scipy_special().log_ndtr(-y)
        h = np.exp(-0.5 * y * y - _LOG_SQRT_2PI - log_sf)  # Mills ratio
        return log_sf, -h, h * (h - y)


class _StandardExtremeValue:
    """The standard (minimum) extreme-value distribution, for the Weibull."""

    @staticmethod
    def start(ze, z, d):
        # sigma from the spread of the exact z (the standard deviation of
        # y is pi/sqrt(6)), then the mu that maximizes the likelihood at
        # that sigma: sum e^y = D, so no e^y exceeds D
        sigma = float(ze.std()) / _EV_SD or float(z.std()) or 1.0
        s = z / sigma
        top = float(s.max())
        return sigma * (top + math.log(float(np.exp(s - top).sum()) / d)), sigma

    @staticmethod
    def exact(y):
        ey = np.exp(y)
        return y - ey, 1.0 - ey, ey

    @staticmethod
    def censored(y):
        ey = np.exp(y)
        return -ey, -ey, ey


class _LocationScale:
    """A model for z = log t or z = t: (z - mu)/sigma has a standard law.

    ``standard`` supplies, for an exact and for a censored y, the log
    density log f0(y) or the log survival log S0(y), its derivative g1
    in y and minus its second derivative g2.
    """

    param_names = ("mu", "sigma")
    positive_time = True
    log_time = True

    @classmethod
    def fitted(cls, times, w, d):
        # Newton's method on the log likelihood in a = mu/sigma,
        # b = 1/sigma, where it is globally concave for a log-concave f0
        # and S0.  With y = b z - a its gradient is (-sum g1, D/b +
        # sum g1 z) and minus its Hessian sum g2 (1, -z)'(1, -z) +
        # diag(0, D/b^2): positive definite, so each step ascends.
        z = np.log(times) if cls.log_time else times
        exact = w > 0.0
        ze, zc = z[exact], z[~exact]
        if ze.min() == ze.max() and not (zc > ze[0]).any():
            # sigma -> 0 at mu = the tied z raises the likelihood without bound
            raise NonConvergenceError(
                "every exact time is tied, with no censored time above it"
            )
        # the density of t carries 1/t, -z on the log scale
        jacobian = float(ze.sum()) if cls.log_time else 0.0
        standard = cls.standard

        def terms(a, b):
            # log likelihood, gradient (ga, gb) and minus the Hessian
            # [[haa, -s1], [-s1, hbb]] at (a, b)
            log_fe, g1e, g2e = standard.exact(b * ze - a)
            log_sc, g1c, g2c = standard.censored(b * zc - a)
            ll = d * math.log(b) + float(log_fe.sum()) + float(log_sc.sum()) - jacobian
            g2ze, g2zc = g2e * ze, g2c * zc
            return (
                ll,
                -float(g1e.sum() + g1c.sum()),
                d / b + float(g1e @ ze + g1c @ zc),
                float(g2e.sum() + g2c.sum()),
                float(g2ze.sum() + g2zc.sum()),
                float(g2ze @ ze + g2zc @ zc) + d / (b * b),
            )

        mu, sigma = standard.start(ze, z, d)
        a, b = mu / sigma, 1.0 / sigma
        ll, ga, gb, haa, s1, hbb = terms(a, b)
        for _ in range(100):
            # the Newton step, minus the Hessian's inverse times the gradient
            det = haa * hbb - s1 * s1
            da = (hbb * ga + s1 * gb) / det
            db = (s1 * ga + haa * gb) / det
            if not (math.isfinite(da) and math.isfinite(db)):
                raise NonConvergenceError("Newton step not finite")
            if ga * da + gb * db <= 1e-12 * (1.0 + abs(ll)):
                # the decrement is roundoff: take the last step whole (it
                # moves b by at most sqrt(decrement / D) times b)
                a, b = a + da, b + db
                ll, _, _, haa, s1, hbb = terms(a, b)
                mu, sigma = a / b, 1.0 / b
                # d(a, b) / d(mu, sigma)
                jac = np.array([[sigma, -mu], [0.0, -1.0]]) / (sigma * sigma)
                neg_hess = np.array([[haa, -s1], [-s1, hbb]])
                info = jac.T @ neg_hess @ jac / times.size
                return np.array([mu, sigma]), ll, info
            for _ in range(60):  # halve until the step raises ll
                if b + db > 0.0:
                    trial = terms(a + da, b + db)
                    if trial[0] > ll:
                        break
                da, db = 0.5 * da, 0.5 * db
            else:
                raise NonConvergenceError("step halving exhausted")
            a, b = a + da, b + db
            ll, ga, gb, haa, s1, hbb = trial
        raise NonConvergenceError("location-scale fit hit 100 iterations")

    @classmethod
    def scores(cls, times, w, params):
        mu, sigma = params
        z = np.log(times) if cls.log_time else times
        y = (z - mu) / sigma
        exact = w > 0.0
        g1 = np.empty_like(y)
        g1[exact] = cls.standard.exact(y[exact])[1]
        g1[~exact] = cls.standard.censored(y[~exact])[1]
        # u(mu) = -g1 / sigma, u(sigma) = (-w - y g1) / sigma
        return np.column_stack([-g1, -w - y * g1]) / sigma


class _Weibull(_LocationScale):
    name = "weibull"
    standard = _StandardExtremeValue


class _LogNormal(_LocationScale):
    name = "lognormal"
    standard = _StandardNormal


class _Normal(_LocationScale):
    name = "normal"
    standard = _StandardNormal
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

    The exponential also fits a dataset of R samples, one per row (a
    size or power cell's chunk), in one pass: params are R x 1, loglik
    has R entries, info checks an R x 1 x 1 stack and n_contributing is
    an array.  Each row's numbers are the bits of its own fit, and the
    stack raises what any of its rows would.
    """
    fam = get_family(family)
    times, w = _prepared(fam, component, data)
    d = w.sum(axis=-1)
    if np.count_nonzero(d) < d.size:
        raise DegenerateComponentError(
            f"no contributing observations for the {component} component"
        )
    if w.ndim == 1:
        # one sample: Python numbers, for the JSON of a tree and the
        # scalar arithmetic of the Newton loops
        d = float(d)
        n_contributing = int(d)
    else:
        n_contributing = d.astype(int)
    try:
        params, loglik, info = fam.fitted(times, w, d)
        info = CheckedInformation(info)
    except (ArithmeticError, ValueError, SingularInformationError) as exc:
        # e.g. times so large that their sum overflows: the exponential
        # rate is 0.0 and its log leaves the domain
        raise NonConvergenceError(f"{fam.name} fit: {exc}") from exc
    return FittedModel(
        family=fam.name,
        component=component,
        params=params,
        loglik=loglik,
        info=info,
        n_used=times.shape[-1],
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

    ``matrix`` may also be a stack of R matrices, R x p x p, such as the
    informations of a size or power cell's rows.  The stack passes only
    if each of its matrices does, an R x 1 x 1 stack in one vectorized
    comparison, and its inverse square root is a stack too.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[-2:] == (1, 1):
            low = high = matrix
        elif np.isfinite(matrix).all():
            vals = np.linalg.eigvalsh(matrix)
            low, high = vals[..., :1], vals[..., -1:]
        else:
            low = high = np.array(np.nan)
        if not (low > 1e-12 * high).all():  # False for NaN, and for inf > inf
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
