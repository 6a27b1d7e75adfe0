"""Parameter instability tests for partitioning variables.

Both tests ask whether the per-subject score contributions of one
likelihood component drift with a covariate X.  Scores are evaluated at
the component MLE of the node being examined, so under homogeneity the
group sums below are centered.

Categorical X with G levels: with s_g the score sum over level g, m_g
the level size and J the average per-subject information,

    chi2 = sum_g s_g' [m_g J]^(-1) s_g

is asymptotically chi-square with dim(theta) * (G - 1) degrees of
freedom.

Continuous X: order subjects by X and standardize the running score sum
at each distinct-value boundary,

    M(t_g) = N^(-1/2) J^(-1/2) sum_{i <= M_g} u_i .

Under homogeneity each coordinate of M behaves like a Brownian bridge
in t_g = M_g / N, so D_q = max_g |M(t_g)_q| is compared to the
distribution of the bridge supremum,

    F(x) = 1 + 2 sum_{l>=1} (-1)^l exp(-2 l^2 x^2),

one raw p-value per parameter, combined within a component by
Hochberg's step-up adjustment.  A variable's overall p-value applies
the same adjustment once more across the tested components, and
``grow`` once more across the variables; all three steps run the one
``hochberg``, whatever the number of p-values.

Within a tree node, a covariate is grouped once
(``SurvivalDataset.grouping``, by integer code for a factor) and that
grouping serves both components' tests and the node's split search.
The grouping reads the covariate's order that the node inherited from
the root, so a node's tests sort nothing; bare covariate values are
grouped with one sort (``Grouping.of``).
Each fitted component likewise gets one workspace per node, kept by the
node's dataset next to its groupings: the component's score
contributions at the node's data, computed once.  Every variable's test
reads that workspace, so a node with K variables evaluates each
component's scores once instead of K times.  The tests take the
model's information as ``fit`` checked it, a ``CheckedInformation``,
and check nothing again; its inverse (categorical tests) and inverse
square root (continuous tests) are each made once per model.  A
one-parameter family's 1 x 1 information is inverted in closed form,
with the bits LAPACK would give.  Because the continuous statistic is
standardized by J^(-1/2), the tests do not depend on the time unit.

``continuous_test`` returns two arrays, the D statistics and their raw
p-values, one entry per parameter; the component test names them with
the family's parameter names.  It also takes many samples at once, one
per row of a 2-d covariate array, as a Monte Carlo cell does, and then
returns R x p arrays: the rows share one row-wise sort, one bincount,
one cumulative sum and one standardization, and a tree node's one-row
call runs the same steps on a row of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import CATEGORICAL, Grouping, group_starts, sort_order
from .errors import EmptyInputError, TooFewGroupsError
from .families import (
    CENSOR,
    EVENT,
    get_family,
    score_contributions,
    scipy_special,
)

__all__ = [
    "fd_cdf",
    "fd_sf",
    "fd_quantile",
    "hochberg",
    "CategoricalResult",
    "ComponentTest",
    "StabilityReport",
    "categorical_test",
    "continuous_test",
    "variable_test",
]


def fd_cdf(x: float) -> float:
    """CDF of the supremum of the absolute standard Brownian bridge.

    Alternating series for x >= 0.2; below that the terms cancel to
    roundoff, so the equivalent theta-series form
    sqrt(2 pi)/x * sum exp(-(2l-1)^2 pi^2 / (8 x^2)) is used instead.
    Below 0.04 even its first term underflows to 0.0, so the CDF is
    exactly 0.0 there; returning it directly also keeps 8 x^2 from
    underflowing to a zero divisor for tiny x.  NaN gives NaN.
    """
    if not x >= 0.04:
        return 0.0 if x < 0.04 else math.nan
    if x < 0.2:
        total = 0.0
        for el in range(1, 1001):
            term = math.exp(-((2 * el - 1) ** 2) * math.pi**2 / (8.0 * x * x))
            total += term
            if term < 1e-300:
                break
        return min(1.0, math.sqrt(2.0 * math.pi) / x * total)
    total = 0.0
    for el in range(1, 1001):
        term = 2.0 * (-1.0) ** (el + 1) * math.exp(-2.0 * el * el * x * x)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, 1.0 - total))


def fd_sf(x: float) -> float:
    """Upper tail 1 - fd_cdf(x), summed directly.

    Computing 1 - fd_cdf(x) loses everything below machine epsilon once
    x exceeds about 4.4, which would collapse all strongly significant
    continuous tests to an exact zero and make them incomparable with
    chi-square p-values.  The alternating series for the tail itself,

        2 sum_{l>=1} (-1)^(l+1) exp(-2 l^2 x^2),

    keeps full relative accuracy out to the underflow limit.  NaN gives
    NaN, not the most significant p-value.
    """
    if not x > 0.0:
        return 1.0 if x <= 0.0 else math.nan
    if x < 0.2:
        return min(1.0, 1.0 - fd_cdf(x))
    total = 0.0
    twice_sign = 2.0  # 2 (-1)^(l+1), exactly
    for el in range(1, 1001):
        term = twice_sign * math.exp(-2.0 * el * el * x * x)
        twice_sign = -twice_sign
        total += term
        if abs(term) < 1e-12 * max(total, 1e-300):
            break
    return min(1.0, max(0.0, total))


def fd_quantile(p: float) -> float:
    """Inverse of fd_cdf, by bisection to a bracket of 1e-10."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    lo, hi = 0.0, 10.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if fd_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hochberg(pvalues) -> np.ndarray:
    """Hochberg step-up adjusted p-values, in the input order.

    With ascending p_(1) <= ... <= p_(m): adj_(m) = p_(m) and
    adj_(i) = min(adj_(i+1), (m - i + 1) p_(i)), capped at 1.

    One plain-Python step-up for every m (inside a tree m is mostly one
    or two): NaN sorts last and ties keep their input order, as in a
    stable argsort, and a NaN stays NaN through the minima.
    """
    p = np.asarray(pvalues, dtype=float).tolist()
    if not p:
        raise EmptyInputError("hochberg needs at least one p-value")
    order = sorted(range(len(p)), key=lambda i: (p[i] != p[i], p[i]))
    out = [0.0] * len(p)
    adj = p[order[-1]]
    for factor, i in enumerate(reversed(order), start=1):
        adj = min(adj, factor * p[i])
        out[i] = min(adj, 1.0)
    return np.array(out)


def _score_matrix(scores, n):
    """Scores as an n x p float array; one row of n is one parameter."""
    if not (isinstance(scores, np.ndarray) and scores.ndim == 2
            and scores.dtype == np.float64):
        scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if scores.shape[0] == 1 and n != 1:
        scores = scores.T
    return scores


def _cell_sums(cells, scores, n_cells):
    """The n_cells x p score sums of the cells that number the subjects.

    ``cells`` holds each subject's cell and ``scores`` its p scores, in
    the same order.  One bincount over (cell, parameter) pairs: each
    sum adds in subject order from 0.0, as np.add.at would.
    """
    width = scores.shape[-1]
    if width > 1:
        cells = cells[..., None] * width + np.arange(width)
    sums = np.bincount(cells.ravel(), weights=scores.ravel(), minlength=n_cells * width)
    return sums.reshape(n_cells, width)


def _grouped_sums(x, scores):
    """The grouping of x and the G x p score sums of its groups.

    x is the covariate values, or their ``Grouping``: a tree node
    groups each covariate once and passes that grouping to both
    components' tests.
    """
    grouping = x if isinstance(x, Grouping) else Grouping.of(np.asarray(x))
    scores = _score_matrix(scores, grouping.values.size)
    return grouping, _cell_sums(grouping.inverse, scores, grouping.distinct.size)


def _row_cells(x):
    """Each row of a 2-d x grouped by value, in rows of equal width.

    Returns each subject's cell (in subject order), the rows' group
    counts G_r and the width, the largest G_r.  Row r's groups,
    ascending, are the G_r cells that end at (r + 1) * width, so the
    cells before its first group stay empty.  One quicksort per row, as
    ``Grouping.of`` makes for one.
    """
    rows, n = x.shape
    # each row's sort order as indices into the flattened rows
    flat = sort_order(x, kind=None)
    flat += np.arange(0, rows * n, n)[:, None]
    codes = np.cumsum(group_starts(x.take(flat)), axis=1)
    n_groups = codes[:, -1].copy()  # codes shift below
    width = int(n_groups.max())
    codes += (np.arange(1, rows + 1) * width - n_groups - 1)[:, None]
    cells = np.empty_like(codes)
    cells.put(flat, codes)
    return cells, n_groups, width


@dataclass(frozen=True)
class CategoricalResult:
    statistic: float
    df: int
    p: float
    small_groups: bool


def categorical_test(scores, info, labels) -> CategoricalResult:
    """Joint chi-square instability test over the levels of a factor.

    info is the ``CheckedInformation`` of the fitted model (its
    ``model.info``); labels are the factor's values, or their
    ``Grouping``.
    """
    grouping, sums = _grouped_sums(labels, scores)
    n_groups = grouping.distinct.size
    if n_groups < 2:
        raise TooFewGroupsError("categorical test needs at least 2 levels")
    quad = np.einsum("gi,ij,gj->g", sums, info.inverse, sums)
    stat = float(np.sum(quad / grouping.counts))
    df = info.matrix.shape[0] * (n_groups - 1)
    return CategoricalResult(
        statistic=stat,
        df=df,
        p=float(scipy_special().chdtrc(df, stat)),  # the chi-square upper tail
        small_groups=bool(grouping.counts.min() < 5),
    )


def continuous_test(scores, info, x):
    """Per-parameter bridge-supremum instability test along an ordering.

    info is the ``CheckedInformation`` of the fitted model (its
    ``model.info``); x is the covariate values, or their ``Grouping``.
    Returns the D statistics and their raw p-values, one per parameter:
    two arrays of shape (p,).

    A 2-d x holds R samples of n subjects, one per row.  scores are then
    R x n x p (or R x n for one parameter), info is the rows' stacked
    ``CheckedInformation`` (R x p x p, as ``fit`` makes it for a dataset
    of rows), and the two arrays are R x p, one row per sample.  The
    rows share each numpy step of the test: one row-wise sort, one
    bincount, one cumulative sum, one matrix product and one maximum.
    A row's arrays equal its own one-row call bit for bit when p = 1;
    with more parameters the stacked matrix product may round a last
    bit differently.  A row with fewer than two distinct values raises
    ``TooFewGroupsError``, as its own call would.
    """
    if isinstance(x, Grouping) or np.ndim(x) != 2:
        grouping, sums = _grouped_sums(x, scores)
        _require_groups(grouping.distinct.size)
        stats, pvalues = _bridge(sums[None], info.inverse_sqrt, grouping.values.size)
        return stats[0], pvalues[0]
    x = np.asarray(x)
    cells, n_groups, width = _row_cells(x)
    rows, n = x.shape
    _require_groups(int(n_groups.min()))
    scores = np.asarray(scores, dtype=float).reshape(rows, n, -1)
    sums = _cell_sums(cells, scores, rows * width)
    return _bridge(sums.reshape(rows, width, -1), info.inverse_sqrt, n)


def _require_groups(n_groups):
    if n_groups < 2:
        raise TooFewGroupsError("continuous test needs at least 2 distinct values")


def _bridge(sums, inv_sqrt, n):
    """The R x p bridge-supremum statistics and p-values of R rows of n
    subjects.

    ``sums`` is R x width x p: row r's G_r group score sums, ascending,
    fill its last G_r cells and the cells before them are 0.0, so its
    running sums stay 0.0 until its first group.  Each row's last
    running sum, its total, is the one boundary dropped: every row is
    standardized and maximized at its own G_r - 1 boundaries, by
    ``inv_sqrt``, its J^(-1/2) (or one per row).
    """
    partial = np.add.accumulate(sums, axis=1)[:, :-1]
    rotated = partial @ inv_sqrt
    # |J^(-1/2) partial sums| laid out parameter by parameter, so that
    # each maximum runs along a contiguous row: reducing the strided
    # boundary axis of a few parameters costs ten times as much.  Division
    # by sqrt(N) rounds monotonically and symmetrically, so dividing the
    # maxima gives the bits that dividing every sum first would.
    d_stats = np.maximum.reduce(
        np.abs(rotated.transpose(0, 2, 1), order="C"), axis=2
    ) / math.sqrt(n)
    return d_stats, np.array([[fd_sf(d) for d in row] for row in d_stats.tolist()])


@dataclass(frozen=True)
class ComponentTest:
    """Instability evidence from one likelihood component."""

    component: str
    tested: bool
    component_p: float
    skip_reason: str = None      # "degenerate" | "disabled" when not tested
    entries: tuple = ()          # (label, statistic, raw p) per test
    adjusted: tuple = ()         # within-component Hochberg-adjusted ps
    df: int = None               # categorical only
    small_groups: bool = False


@dataclass(frozen=True)
class StabilityReport:
    """Combined instability verdict for one partitioning variable."""

    variable: str
    kind: str
    testable: bool
    n_used: int
    n_groups: int
    event: ComponentTest
    censor: ComponentTest
    cross_adjusted: tuple    # (event, censor) after the across-component step
    variable_p: float
    more_heterogeneous: str


def _skipped(component, reason):
    return ComponentTest(
        component=component, tested=False, component_p=1.0, skip_reason=reason
    )


def _component_test(component, model, scores, kind, x):
    if kind == CATEGORICAL:
        res = categorical_test(scores, model.info, x)
        return ComponentTest(
            component=component,
            tested=True,
            component_p=res.p,
            entries=(("joint", res.statistic, res.p),),
            adjusted=(res.p,),
            df=res.df,
            small_groups=res.small_groups,
        )
    stats, pvalues = continuous_test(scores, model.info, x)
    adjusted = hochberg(pvalues).tolist()
    names = get_family(model.family).param_names
    return ComponentTest(
        component=component,
        tested=True,
        # one NaN p-value makes every adjusted one NaN, so the plain
        # minimum is NaN exactly when numpy's would be
        component_p=min(adjusted),
        entries=tuple(zip(names, stats.tolist(), pvalues.tolist())),
        adjusted=tuple(adjusted),
    )


def _scores(data, model):
    """Scores of ``model`` at ``data``.

    Made on the first test of a node and kept by ``data`` (one per
    component, for this model object) until ``drop_groupings``.
    """
    return data.workspace(
        model.component, model, lambda: score_contributions(model, data)
    )


def variable_test(
    data,
    variable: str,
    event_model,
    censor_model,
    censor_enabled: bool = True,
) -> StabilityReport:
    """Run the instability tests of both components for one variable.

    Subjects with a missing value on ``variable`` are left out.  A
    component whose model is None is skipped (p = 1): "degenerate" when
    the node had no contributing observations, "disabled" when the
    censoring side is not modeled at all.  Skipped components do not
    enter the across-component Hochberg family.  Both components use
    the grouping that ``data`` keeps for the variable, which the split
    search of the node reuses, and each component's workspace that
    ``data`` keeps for the node's other variables.
    """
    spec = data.spec_for(variable)
    grouping = data.grouping(variable)
    include = grouping.include
    n_used = int(grouping.values.size)
    distinct = grouping.distinct

    def present(scores):  # the rows of the subjects with a value
        return scores if n_used == data.n else scores[include]

    event_ct = _skipped(EVENT, "degenerate")
    censor_ct = _skipped(CENSOR, "disabled" if not censor_enabled else "degenerate")
    # a variable with fewer than two distinct values tests neither component
    if distinct.size > 1 and event_model is not None:
        scores = present(_scores(data, event_model))
        event_ct = _component_test(EVENT, event_model, scores, spec.kind, grouping)
    if distinct.size > 1 and censor_enabled and censor_model is not None:
        scores = present(_scores(data, censor_model))
        censor_ct = _component_test(CENSOR, censor_model, scores, spec.kind, grouping)

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
