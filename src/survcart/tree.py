"""Recursive partitioning driven by parameter instability tests.

A node is split only when some partitioning variable shows significant
instability in the event-time or censoring-time parameters, so the tree
only grows where the data contradict within-node homogeneity:

1. fit the event and (optionally) censoring models at the node;
2. run the instability test of every declared variable and adjust the
   per-variable p-values with Hochberg's step-up across the variables;
3. if the smallest adjusted p-value clears alpha, split that variable
   at the maximally selected log-rank point, comparing event times or
   censoring times according to which component was more unstable;
4. do the same at each child, depth first and left child first.

There is no pruning; size control comes from the test (alpha), from
minsplit/minbucket, and optionally from max_depth.  AIC is computed
from the parametric leaf likelihoods (both components).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import (
    CATEGORICAL,
    MISSING_TOKENS,
    SurvivalDataset,
    is_missing_value,
)
from .errors import (
    DegenerateComponentError,
    MissingValueError,
    NonConvergenceError,
    SchemaMismatchError,
    TruthMismatchError,
)
from .families import CENSOR, EVENT, FittedModel, fit, get_family, loglik_and_aic
from .km import km_fit, km_median
from .splitting import candidate_splits
from .stability import hochberg, variable_test

STOP_TOO_SMALL = "too_small"
STOP_MAX_DEPTH = "max_depth"
STOP_NO_TESTABLE_COMPONENT = "no_testable_component"
STOP_NO_SIGNIFICANT_VARIABLE = "no_significant_variable"
STOP_NO_ADMISSIBLE_SPLIT = "no_admissible_split"
STOP_FIT_FAILURE = "fit_failure"


@dataclass(frozen=True)
class TreeConfig:
    """Growth controls; minsplit must be at least twice minbucket."""

    alpha: float = 0.05
    minsplit: int = 50
    minbucket: int = 25
    event_dist: str = "exponential"
    censor_dist: str = "exponential"
    censor_heterogeneity: bool = True
    max_depth: int = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.minbucket < 1:
            raise ValueError("minbucket must be at least 1")
        if self.minsplit < 2 * self.minbucket:
            raise ValueError("minsplit must be at least 2 * minbucket")
        get_family(self.event_dist)
        get_family(self.censor_dist)
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")


@dataclass(frozen=True)
class SplitInfo:
    variable: str
    kind: str
    cutpoint: object        # float, or tuple of left-side levels
    mode: str               # which component drove the split
    statistic: float        # signed log-rank value at the chosen point
    variable_p: float       # the variable's own two-level adjusted p
    adjusted_p: float       # after the across-variables Hochberg step


@dataclass
class TreeNode:
    node_id: int
    depth: int
    n: int
    d: int
    event_model: FittedModel = None
    censor_model: FittedModel = None
    km_median_event: float = None
    km_median_censor: float = None
    is_leaf: bool = True
    stop_reason: str = None
    split: SplitInfo = None
    children: tuple = None  # (left id, right id) = (2k, 2k+1)

    @property
    def loglik(self) -> float:
        total = 0.0
        for model in (self.event_model, self.censor_model):
            if model is not None:
                total += model.loglik
        return total


@dataclass
class SurvTree:
    config: TreeConfig
    nodes: dict
    loglik: float
    aic: float
    improvements: tuple  # (node_id, loglik gain of its split)

    ROOT = 1

    @property
    def root(self) -> TreeNode:
        return self.nodes[self.ROOT]

    def leaves(self) -> list:
        return [n for n in self.nodes.values() if n.is_leaf]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())


# a fit that overflows at an extreme time unit fails (a fit_failure leaf,
# or a skipped candidate), so numpy's floating-point warnings say nothing
@np.errstate(all="ignore")
def _fit_pair(config: TreeConfig, subset: SurvivalDataset):
    try:
        event_model = fit(config.event_dist, EVENT, subset)
    except DegenerateComponentError:
        event_model = None
    censor_model = None
    if config.censor_heterogeneity:
        try:
            censor_model = fit(config.censor_dist, CENSOR, subset)
        except DegenerateComponentError:
            censor_model = None
    return event_model, censor_model


def _goes_left(split: SplitInfo, value):
    """The one side rule: a label among the cutpoint's levels, or a float
    (or an array of floats) at or below the cutpoint, goes left."""
    if split.kind == CATEGORICAL:
        return value in split.cutpoint
    return value <= split.cutpoint


def _split_masks(data: SurvivalDataset, split: SplitInfo, index=slice(None)):
    """Left/right membership of the subjects at ``index`` (all by default),
    by the variable's floats or a factor's codes; missing joins neither."""
    values = data.stored(split.variable)[index]
    present = ~data.missing_mask(split.variable)[index]
    if split.kind == CATEGORICAL:
        # a side per level, and a last one (False) that code -1 picks
        sides = [_goes_left(split, label) for label in data.levels[split.variable]]
        goes_left = np.array(sides + [False])[values]
    else:
        goes_left = _goes_left(split, values)  # False where NaN
    return goes_left, ~goes_left & present


def _make_node(node_id, depth, subset, models) -> TreeNode:
    event_model, censor_model = models or (None, None)
    order = subset.time_order  # inherited from the root's one sort
    return TreeNode(
        node_id=node_id,
        depth=depth,
        n=subset.n,
        d=subset.n_events,
        event_model=event_model,
        censor_model=censor_model,
        km_median_event=km_median(
            km_fit(subset.times, subset.events, EVENT, order=order)),
        km_median_censor=km_median(
            km_fit(subset.times, subset.events, CENSOR, order=order)),
    )


def _split_node(config: TreeConfig, depth: int, subset: SurvivalDataset, models):
    """A node's fate: its stop reason, or its ``SplitInfo`` and the
    ``(dataset, models)`` of its left and right child.  ``models`` is the
    node's fitted pair, None where the fit failed."""
    if models is None:
        return STOP_FIT_FAILURE
    if subset.n < config.minsplit:
        return STOP_TOO_SMALL
    if config.max_depth is not None and depth >= config.max_depth:
        return STOP_MAX_DEPTH
    event_model, censor_model = models
    if event_model is None and censor_model is None:
        return STOP_NO_TESTABLE_COMPONENT
    var_names = [m.name for m in subset.meta]
    if not var_names:
        return STOP_NO_SIGNIFICANT_VARIABLE

    reports = [
        variable_test(subset, name, event_model, censor_model,
                      censor_enabled=config.censor_heterogeneity)
        for name in var_names
    ]
    per_variable = [report.variable_p for report in reports]
    adjusted = hochberg(per_variable)
    best = int(np.argmin(adjusted))
    # a NaN p-value (argmin's pick when there is one) never splits
    if not adjusted[best] <= config.alpha or not reports[best].testable:
        return STOP_NO_SIGNIFICANT_VARIABLE

    chosen, report = var_names[best], reports[best]
    # the rest of the tests' state goes before the search and the
    # child copies, which read only this grouping and the orders
    subset.drop_groupings(keep=chosen)
    mode = report.more_heterogeneous
    for cutpoint, statistic in candidate_splits(subset, chosen, mode,
                                                config.minbucket):
        split = SplitInfo(chosen, report.kind, cutpoint, mode, statistic,
                          per_variable[best], float(adjusted[best]))
        children = [subset.subset(mask) for mask in _split_masks(subset, split)]
        try:
            return split, *[(child, _fit_pair(config, child)) for child in children]
        except NonConvergenceError:
            continue
    return STOP_NO_ADMISSIBLE_SPLIT


def grow(data: SurvivalDataset, config: TreeConfig) -> SurvTree:
    """Grow a tree on ``data``; node ids are heap-ordered with root 1, and
    nodes are made in pre-order.  Releases the caches of ``data``
    (``SurvivalDataset.drop_groupings``) whatever the root's stop reason."""
    if data.times.ndim != 1:
        raise SchemaMismatchError("grow needs one sample; got a dataset of rows")
    try:
        models = _fit_pair(config, data)
    except NonConvergenceError:
        models = None
    nodes = {}
    improvements = []
    pending = [(SurvTree.ROOT, 0, data, models)]  # last in, first out
    while pending:
        node_id, depth, subset, models = pending.pop()
        node = nodes[node_id] = _make_node(node_id, depth, subset, models)
        fate = _split_node(config, depth, subset, models)
        # the node's groupings, workspaces and orders (the children hold
        # their own) would otherwise live while its subtree grows
        subset.drop_groupings()
        if isinstance(fate, str):
            node.stop_reason = fate
            continue
        node.split, node.is_leaf = fate[0], False
        node.children = (2 * node_id, 2 * node_id + 1)
        children_ll = sum(m.loglik for _, pair in fate[1:] for m in pair if m)
        improvements.append((node_id, children_ll - node.loglik))
        # the left child on top, so the left subtree grows first; a child
        # bound to a name here would outlive its own subtree
        pending += reversed([(child_id, depth + 1, *child)
                             for child_id, child in zip(node.children, fate[1:])])
    total_ll, aic = loglik_and_aic(
        (n.event_model, n.censor_model) for n in nodes.values() if n.is_leaf
    )
    return SurvTree(
        config=config,
        nodes=nodes,
        loglik=total_ll,
        aic=aic,
        improvements=tuple(improvements),
    )


def leaf_subjects(tree: SurvTree, data: SurvivalDataset) -> dict:
    """``{leaf_id: ascending subject indices}`` of ``data``, in leaf-id order,
    routed by the rule ``grow`` splits a node with: a subject missing a
    split variable reaches no leaf, and a leaf no subject reaches is left out.
    """
    reached = {SurvTree.ROOT: np.arange(data.n)}
    leaves = {}
    for node_id in sorted(tree.nodes):  # a child's id exceeds its parent's
        node, index = tree.nodes[node_id], reached.pop(node_id)
        if not node.is_leaf:
            left, right = _split_masks(data, node.split, index)
            reached.update(zip(node.children, (index[left], index[right])))
        elif index.size:
            leaves[node_id] = index
    return leaves


def predict_node(tree: SurvTree, covariates: dict) -> int:
    """Route one subject to a leaf id; no surrogates, missing values raise."""
    node = tree.root
    while not node.is_leaf:
        split = node.split
        if split.variable not in covariates:
            raise SchemaMismatchError(
                f"covariate {split.variable!r} absent from input"
            )
        value = _read_cell(split, covariates[split.variable])
        node = tree.nodes[node.children[0 if _goes_left(split, value) else 1]]
    return node.node_id


def _read_cell(split: SplitInfo, value):
    """One subject's value of the split variable, read as ``load_csv``
    reads a cell: a string is stripped, a missing token, None or a NaN
    is missing, and a continuous value must convert to one float."""
    if isinstance(value, str):
        value = None if value.strip() in MISSING_TOKENS else value.strip()
    if np.ndim(value) != 0:
        raise SchemaMismatchError(
            f"value for {split.variable!r} is not a scalar: {value!r}")
    if split.kind != CATEGORICAL and value is not None:
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise SchemaMismatchError(
                f"value for {split.variable!r} is not a number: {value!r}"
            ) from None
    if is_missing_value(value):
        raise MissingValueError(
            f"missing value for {split.variable!r}; no surrogate splits"
        )
    return value


@dataclass(frozen=True)
class TruthSpec:
    """Ground truth for recovery metrics: subgroup labels and true rates."""

    subgroup: np.ndarray  # one label per subject
    rates: dict           # label -> (event rate, censor rate)


@dataclass(frozen=True)
class TreeMetrics:
    n_leaves: int
    mad_event: float
    mad_censor: float
    perfect_mad_event: float
    perfect_mad_censor: float
    delta_event_pct: float
    delta_censor_pct: float


def _exp_rates(times, events):
    s = float(times.sum())
    d = float(np.count_nonzero(events))
    return d / s, (times.size - d) / s


def tree_metrics(tree: SurvTree, data: SurvivalDataset, truth: TruthSpec) -> TreeMetrics:
    """Relative deviation of leaf rate estimates from the true rates.

    Per subject the deviation is |lam_true - lam_leaf| / lam_true using
    the leaf's exponential MLE; deviations are averaged within each true
    subgroup and the subgroup means are averaged with equal weight.  The
    same measure on the perfect partition (leaves = true subgroups)
    gives the baseline, and delta is the percent increase over it.
    A subject missing a split variable reaches no leaf and is left out of
    the leaf-side means; a subgroup with no subject in a leaf raises.
    """
    labels = np.asarray(truth.subgroup)
    if labels.shape != data.times.shape:
        raise TruthMismatchError("one subgroup label per subject is required")
    unique_labels = np.unique(labels)
    for lab in unique_labels:
        if lab not in truth.rates:
            raise TruthMismatchError(f"no true rates for subgroup {lab!r}")

    # each subject's leaf rates (event, censor), NaN where it reaches no leaf
    fitted = np.full((2, data.n), np.nan)
    for idx in leaf_subjects(tree, data).values():
        fitted[0, idx], fitted[1, idx] = _exp_rates(data.times[idx], data.events[idx])
    routed = ~np.isnan(fitted[0])

    # each subgroup's subjects, true rates and rates on the perfect
    # partition, for both components
    groups = []
    for lab in unique_labels:
        mask = labels == lab
        if not routed[mask].any():
            raise TruthMismatchError(f"no subject of subgroup {lab!r} reaches a leaf")
        est = _exp_rates(data.times[mask], data.events[mask])
        groups.append((mask & routed, truth.rates[lab], est))

    def averaged(which):
        return float(np.mean([
            float((np.abs(rates[which] - fitted[which][mask]) / rates[which]).mean())
            for mask, rates, _ in groups
        ]))

    def perfect(which):
        return float(np.mean([
            abs(rates[which] - est[which]) / rates[which]
            for _, rates, est in groups
        ]))

    mad_event = averaged(0)
    mad_censor = averaged(1)
    perfect_event = perfect(0)
    perfect_censor = perfect(1)

    def delta(fit_val, base):
        if base == 0.0:
            return 0.0 if fit_val == 0.0 else float("inf")
        return (fit_val - base) / base * 100.0

    return TreeMetrics(
        n_leaves=tree.n_leaves,
        mad_event=mad_event,
        mad_censor=mad_censor,
        perfect_mad_event=perfect_event,
        perfect_mad_censor=perfect_censor,
        delta_event_pct=delta(mad_event, perfect_event),
        delta_censor_pct=delta(mad_censor, perfect_censor),
    )
