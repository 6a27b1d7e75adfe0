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
4. recurse into the children.

There is no pruning; size control comes from the test (alpha), from
minsplit/minbucket, and optionally from max_depth.  AIC is computed
from the parametric leaf likelihoods (both components).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import CATEGORICAL, SurvivalDataset, is_missing_value
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
    subject_index: np.ndarray
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
    meta: tuple = ()

    ROOT = 1

    @property
    def root(self) -> TreeNode:
        return self.nodes[self.ROOT]

    def leaves(self) -> list:
        return [n for n in self.nodes.values() if n.is_leaf]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())


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


def _split_masks(subset: SurvivalDataset, split: SplitInfo):
    """Left/right membership among the node's subjects; missing joins neither."""
    grouping = subset.grouping(split.variable)
    if split.kind == CATEGORICAL:
        labels = subset.levels[split.variable]
        left_codes = [c for c, label in enumerate(labels) if label in split.cutpoint]
        goes_left = np.isin(grouping.values, left_codes)
    else:
        goes_left = grouping.values <= split.cutpoint
    left = np.zeros(subset.n, dtype=bool)
    left[grouping.include] = goes_left
    right = grouping.include & ~left
    return left, right


def grow(data: SurvivalDataset, config: TreeConfig) -> SurvTree:
    """Grow a tree on ``data``; node ids are heap-ordered with root 1."""
    nodes = {}
    improvements = []
    var_names = [m.name for m in data.meta]

    def leaf(node, reason):
        node.is_leaf = True
        node.stop_reason = reason
        return node

    def build(node_id, depth, index, subset, models):
        if models is None:
            try:
                models = _fit_pair(config, subset)
            except NonConvergenceError:
                models = (None, None)
                node = _make_node(node_id, depth, index, subset, models)
                nodes[node_id] = leaf(node, STOP_FIT_FAILURE)
                return
        node = _make_node(node_id, depth, index, subset, models)
        nodes[node_id] = node
        event_model, censor_model = models

        if subset.n < config.minsplit:
            leaf(node, STOP_TOO_SMALL)
            return
        if config.max_depth is not None and depth >= config.max_depth:
            leaf(node, STOP_MAX_DEPTH)
            return
        if event_model is None and censor_model is None:
            leaf(node, STOP_NO_TESTABLE_COMPONENT)
            return

        reports = {
            name: variable_test(
                subset,
                name,
                event_model,
                censor_model,
                censor_enabled=config.censor_heterogeneity,
            )
            for name in var_names
        }
        per_variable = np.array([reports[name].variable_p for name in var_names])
        adjusted = hochberg(per_variable)
        best = int(np.argmin(adjusted))
        if adjusted[best] > config.alpha or not reports[var_names[best]].testable:
            subset.drop_groupings()
            leaf(node, STOP_NO_SIGNIFICANT_VARIABLE)
            return

        chosen = var_names[best]
        mode = reports[chosen].more_heterogeneous
        accepted = None
        for cand in candidate_splits(subset, chosen, mode, config.minbucket):
            split = SplitInfo(
                variable=chosen,
                kind=cand.kind,
                cutpoint=cand.cutpoint,
                mode=cand.mode,
                statistic=cand.statistic,
                variable_p=float(per_variable[best]),
                adjusted_p=float(adjusted[best]),
            )
            left_mask, right_mask = _split_masks(subset, split)
            left_subset = subset.subset(left_mask)
            right_subset = subset.subset(right_mask)
            try:
                left_models = _fit_pair(config, left_subset)
                right_models = _fit_pair(config, right_subset)
            except NonConvergenceError:
                continue
            accepted = (split, left_mask, right_mask, left_subset, right_subset,
                        left_models, right_models)
            break
        # release the groupings shared by the tests and the split search
        # of this node, its test workspaces and its orders (the children
        # hold theirs); they would otherwise live while its subtree grows
        subset.drop_groupings()
        if accepted is None:
            leaf(node, STOP_NO_ADMISSIBLE_SPLIT)
            return

        split, left_mask, right_mask, left_subset, right_subset, lmod, rmod = accepted
        node.is_leaf = False
        node.split = split
        node.children = (2 * node_id, 2 * node_id + 1)
        children_ll = sum(m.loglik for pair in (lmod, rmod) for m in pair if m)
        improvements.append((node_id, children_ll - node.loglik))
        build(2 * node_id, depth + 1, index[left_mask], left_subset, lmod)
        build(2 * node_id + 1, depth + 1, index[right_mask], right_subset, rmod)

    def _make_node(node_id, depth, index, subset, models):
        event_model, censor_model = models
        order = subset.time_order  # inherited from the root's one sort
        return TreeNode(
            node_id=node_id,
            depth=depth,
            n=subset.n,
            d=subset.n_events,
            subject_index=np.asarray(index),
            event_model=event_model,
            censor_model=censor_model,
            km_median_event=km_median(
                km_fit(subset.times, subset.events, EVENT, order=order)),
            km_median_censor=km_median(
                km_fit(subset.times, subset.events, CENSOR, order=order)),
        )

    build(SurvTree.ROOT, 0, np.arange(data.n), data, None)
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


def predict_node(tree: SurvTree, covariates: dict) -> int:
    """Route one subject to a leaf id; no surrogates, missing values raise."""
    node = tree.root
    while not node.is_leaf:
        split = node.split
        if split.variable not in covariates:
            raise SchemaMismatchError(
                f"covariate {split.variable!r} absent from input"
            )
        value = covariates[split.variable]
        if is_missing_value(value):
            raise MissingValueError(
                f"missing value for {split.variable!r}; no surrogate splits"
            )
        if split.kind == CATEGORICAL:
            go_left = value in split.cutpoint
        else:
            go_left = float(value) <= split.cutpoint
        node = tree.nodes[node.children[0] if go_left else node.children[1]]
    return node.node_id


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
    """
    labels = np.asarray(truth.subgroup)
    if labels.shape != data.times.shape:
        raise TruthMismatchError("one subgroup label per subject is required")
    unique_labels = np.unique(labels)
    for lab in unique_labels:
        if lab not in truth.rates:
            raise TruthMismatchError(f"no true rates for subgroup {lab!r}")

    fitted_event = np.empty(data.n)
    fitted_censor = np.empty(data.n)
    for node in tree.leaves():
        idx = node.subject_index
        lam_t, lam_c = _exp_rates(data.times[idx], data.events[idx])
        fitted_event[idx] = lam_t
        fitted_censor[idx] = lam_c

    def averaged(fitted, which):
        devs = []
        for lab in unique_labels:
            lam = truth.rates[lab][which]
            mask = labels == lab
            devs.append(float(np.mean(np.abs(lam - fitted[mask]) / lam)))
        return float(np.mean(devs))

    def perfect(which):
        devs = []
        for lab in unique_labels:
            mask = labels == lab
            lam = truth.rates[lab][which]
            est = _exp_rates(data.times[mask], data.events[mask])[which]
            devs.append(abs(lam - est) / lam)
        return float(np.mean(devs))

    mad_event = averaged(fitted_event, 0)
    mad_censor = averaged(fitted_censor, 1)
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
