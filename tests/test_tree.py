from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcart import (
    CENSOR,
    EVENT,
    MissingValueError,
    SchemaMismatchError,
    SurvTree,
    SurvivalDataset,
    TreeConfig,
    TreeMetrics,
    TreeRecoveryDesign,
    TruthMismatchError,
    TruthSpec,
    grow,
    predict_node,
    replicate_rng,
    tree_metrics,
)
from survcart import datasets, km, splitting, stability
from survcart import tree as tree_module
from survcart.datasets import CovariateSpec
from survcart.simlab import generate_tree_data
from survcart.splitting import candidate_splits
from survcart.tree import (
    STOP_FIT_FAILURE,
    STOP_MAX_DEPTH,
    STOP_NO_SIGNIFICANT_VARIABLE,
    STOP_NO_TESTABLE_COMPONENT,
    STOP_TOO_SMALL,
    SplitInfo,
    _split_masks,
)

from conftest import factor_child_node, missing_labels, rng_for


def two_group_data(rng, n=300, rate_a=0.2, rate_b=0.02, censor_rate=0.05,
                   extra_noise=True):
    """Half the subjects get rate_a, half rate_b, via binary variable g."""
    g = np.repeat([0.0, 1.0], n // 2)
    rng.shuffle(g)
    rates = np.where(g > 0.5, rate_a, rate_b)
    ev_t = rng.exponential(1.0 / rates)
    ce_t = rng.exponential(1.0 / censor_rate, n)
    times = np.minimum(ev_t, ce_t)
    events = ev_t <= ce_t
    meta = [CovariateSpec("g", "continuous")]
    cols = {"g": g}
    if extra_noise:
        meta.append(CovariateSpec("noise", "continuous"))
        cols["noise"] = rng.uniform(0.0, 1.0, n)
    return SurvivalDataset(times, events, meta=tuple(meta), columns=cols), g


def test_config_validation():
    TreeConfig()  # defaults are consistent
    with pytest.raises(ValueError):
        TreeConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TreeConfig(alpha=1.0)
    with pytest.raises(ValueError):
        TreeConfig(minbucket=0)
    with pytest.raises(ValueError):
        TreeConfig(minsplit=10, minbucket=6)
    with pytest.raises(ValueError):
        TreeConfig(event_dist="cauchy")
    with pytest.raises(ValueError):
        TreeConfig(max_depth=-1)


def test_two_group_structure_recovered():
    rng = rng_for(501, 0)
    data, g = two_group_data(rng)
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20))
    assert not tree.root.is_leaf
    assert tree.root.split.variable == "g"
    assert tree.root.split.cutpoint == pytest.approx(0.5)
    left, right = (tree.nodes[c] for c in tree.root.children)
    assert left.n + right.n == data.n
    # leaf rate estimates straddle the true rates
    by_side = sorted(tree.leaves(), key=lambda nd: nd.event_model.params[0])
    assert by_side[0].event_model.params[0] < 0.1 < by_side[-1].event_model.params[0]


def test_homogeneous_data_stays_single_leaf():
    rng = rng_for(502, 0)
    n = 200
    times = rng.exponential(10.0, n)
    events = np.ones(n, bool)
    data = SurvivalDataset(
        times, events,
        meta=(CovariateSpec("x", "continuous"),),
        columns={"x": rng.uniform(0.0, 1.0, n)},
    )
    tree = grow(data, TreeConfig(alpha=0.01, minsplit=40, minbucket=20))
    assert tree.n_leaves == 1
    assert tree.root.stop_reason == STOP_NO_SIGNIFICANT_VARIABLE


def test_stop_reason_too_small():
    rng = rng_for(503, 0)
    data, _ = two_group_data(rng, n=40)
    tree = grow(data, TreeConfig(minsplit=50, minbucket=25))
    assert tree.n_leaves == 1
    assert tree.root.stop_reason == STOP_TOO_SMALL


def test_stop_reason_max_depth_zero():
    rng = rng_for(504, 0)
    data, _ = two_group_data(rng)
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20, max_depth=0))
    assert tree.n_leaves == 1
    assert tree.root.stop_reason == STOP_MAX_DEPTH


def test_stop_reason_no_testable_component():
    # zero events and censoring disabled: nothing left to test
    n = 60
    data = SurvivalDataset(
        np.linspace(1.0, 6.0, n), np.zeros(n, bool),
        meta=(CovariateSpec("x", "continuous"),),
        columns={"x": np.arange(float(n))},
    )
    tree = grow(data, TreeConfig(minsplit=20, minbucket=10,
                                 censor_heterogeneity=False))
    assert tree.root.stop_reason == STOP_NO_TESTABLE_COMPONENT


def test_max_depth_one_limits_to_two_leaves():
    rng = rng_for(505, 0)
    data, _ = two_group_data(rng, n=400, rate_a=0.5, rate_b=0.02)
    tree = grow(data, TreeConfig(minsplit=30, minbucket=15, max_depth=1))
    assert tree.n_leaves <= 2
    for leaf in tree.leaves():
        assert leaf.depth <= 1


def test_node_ids_are_heap_ordered():
    rng = rng_for(506, 0)
    data, _ = two_group_data(rng)
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20))
    for node in tree.nodes.values():
        if not node.is_leaf:
            assert node.children == (2 * node.node_id, 2 * node.node_id + 1)
            for cid in node.children:
                assert tree.nodes[cid].depth == node.depth + 1
    assert tree.root.node_id == SurvTree.ROOT


def test_split_improvements_nonnegative():
    rng = rng_for(507, 0)
    data, _ = two_group_data(rng)
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20))
    assert tree.improvements
    for node_id, gain in tree.improvements:
        assert not tree.nodes[node_id].is_leaf
        assert gain >= -1e-8


def test_leaf_logliks_sum_to_tree_loglik():
    rng = rng_for(508, 0)
    data, _ = two_group_data(rng)
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20))
    total = sum(leaf.loglik for leaf in tree.leaves())
    assert tree.loglik == pytest.approx(total, abs=1e-9)
    n_par = sum(m.params.size for leaf in tree.leaves()
                for m in (leaf.event_model, leaf.censor_model) if m is not None)
    assert tree.aic == pytest.approx(-2.0 * total + 2.0 * n_par, abs=1e-9)


# --- prediction -------------------------------------------------------------

def grown_two_level(rng):
    data, _ = two_group_data(rng)
    return grow(data, TreeConfig(minsplit=40, minbucket=20)), data


def test_predict_node_routes_every_training_subject_home():
    rng = rng_for(509, 0)
    tree, data = grown_two_level(rng)
    for i in range(data.n):
        cov = {m.name: data.covariate(m.name)[i] for m in data.meta}
        nid = predict_node(tree, cov)
        assert i in set(tree.nodes[nid].subject_index.tolist())


def test_predict_node_missing_key_raises_schema_error():
    rng = rng_for(510, 0)
    tree, _ = grown_two_level(rng)
    with pytest.raises(SchemaMismatchError):
        predict_node(tree, {"noise": 0.3})


def test_predict_node_none_and_nan_raise_missing_value():
    rng = rng_for(511, 0)
    tree, _ = grown_two_level(rng)
    with pytest.raises(MissingValueError):
        predict_node(tree, {"g": None, "noise": 0.1})
    with pytest.raises(MissingValueError):
        predict_node(tree, {"g": float("nan"), "noise": 0.1})


def test_predict_unseen_categorical_level_goes_right():
    rng = rng_for(512, 0)
    n = 300
    lv = np.array(list("ab") * (n // 2), object)
    rates = np.where(lv == "a", 0.5, 0.02)
    t = rng.exponential(1.0 / rates)
    data = SurvivalDataset(
        t, np.ones(n, bool),
        meta=(CovariateSpec("grp", "categorical"),),
        columns={"grp": lv},
    )
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20,
                                 censor_heterogeneity=False))
    assert not tree.root.is_leaf
    nid = predict_node(tree, {"grp": "zz"})
    assert nid == tree.root.children[1]


def test_grow_treats_nan_labels_as_missing():
    # pandas marks a missing factor value with a float NaN
    rng = rng_for(513, 0)
    n = 200
    g = np.array([np.nan if i % 7 == 0 else str(i % 3) for i in range(n)],
                 object)
    rates = np.array([0.02 if v == "1" else 0.2 for v in g])
    t = rng.exponential(1.0 / rates)
    e = rng.random(n) < 0.8
    meta = (CovariateSpec("g", "categorical"),)
    tree = grow(SurvivalDataset(t, e, meta=meta, columns={"g": g}),
                TreeConfig(minsplit=20, minbucket=5, alpha=0.5))
    none_marked = np.array([None if v != v else v for v in g], object)
    same = grow(SurvivalDataset(t, e, meta=meta, columns={"g": none_marked}),
                TreeConfig(minsplit=20, minbucket=5, alpha=0.5))
    assert not tree.root.is_leaf
    assert tree.root.n == n
    assert tree.root.split.cutpoint == same.root.split.cutpoint
    assert partition_signature(tree) == partition_signature(same)
    with pytest.raises(MissingValueError):
        predict_node(tree, {"g": float("nan")})


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_split_masks_match_raw_values(seed):
    # children are routed by factor codes; the raw labels must agree,
    # also where the node lacks some of the dataset's levels
    node, labels, x = factor_child_node(seed)
    present = {"g": ~missing_labels(labels), "x": ~np.isnan(x)}
    for name in ("g", "x"):
        for cand in candidate_splits(node, name, EVENT, 1):
            split = SplitInfo(name, cand.kind, cand.cutpoint, cand.mode,
                              cand.statistic, 0.0, 0.0)
            left, right = _split_masks(node, split)
            if name == "g":
                want = np.array([v in cand.cutpoint for v in labels])
            else:
                want = np.where(present[name], x, np.inf) <= cand.cutpoint
            want &= present[name]
            assert np.array_equal(left, want)
            assert np.array_equal(right, present[name] & ~want)
            assert left.sum() == cand.left_n and right.sum() == cand.right_n


def test_grow_groups_each_covariate_once_per_node():
    rng = rng_for(514, 0)
    n = 400
    lv = np.array([("zeta", "b", "Alpha")[v] for v in rng.integers(0, 3, n)],
                  object)
    x = rng.uniform(0.0, 1.0, n)
    t = rng.exponential(np.where(lv == "b", 2.0, 20.0)
                        * np.where(x < 0.5, 1.0, 8.0))
    data = SurvivalDataset(
        t, rng.random(n) < 0.8,
        meta=(CovariateSpec("grp", "categorical"),
              CovariateSpec("x", "continuous")),
        columns={"grp": lv, "x": x},
    )
    groupings = []
    sorted_dtypes = []
    real_of, real_unique = datasets.Grouping.of, np.unique

    def counting_of(values, include=None, order=None):
        groupings.append(values.size)
        sorted_dtypes.append(values.dtype)
        return real_of(values, include, order)

    def spying_unique(ar, *args, **kwargs):
        sorted_dtypes.append(np.asarray(ar).dtype)
        return real_unique(ar, *args, **kwargs)

    with patch.object(datasets.Grouping, "of", counting_of), \
            patch.object(np, "unique", spying_unique):
        tree = grow(data, TreeConfig(minsplit=40, minbucket=10, alpha=0.5))
    tested = [node for node in tree.nodes.values()
              if node.stop_reason not in (STOP_TOO_SMALL, STOP_MAX_DEPTH)]
    assert tree.n_leaves > 2
    assert len(groupings) == 2 * len(tested)
    assert object not in sorted_dtypes  # labels are never sorted while growing


def test_grow_sorts_each_column_once_at_the_root():
    # every sort of a data column goes through datasets.sort_order; the
    # root sorts the times and each covariate once and every node below
    # inherits those orders, missing values, factors of three levels and
    # all
    rng = rng_for(515, 0)
    n = 600
    grp = np.array([("c", "b", "a")[v] for v in rng.integers(0, 3, n)], object)
    grp[rng.random(n) < 0.05] = None
    x = np.round(rng.uniform(0.0, 1.0, n), 2)
    x[rng.random(n) < 0.05] = np.nan
    z = rng.integers(0, 4, n).astype(float)
    t = np.ceil(rng.exponential(np.where(grp == "b", 2.0, 20.0)
                                * np.where(x < 0.5, 1.0, 8.0)))
    data = SurvivalDataset(
        t, rng.random(n) < 0.8,
        meta=(CovariateSpec("grp", "categorical"),
              CovariateSpec("x", "continuous"),
              CovariateSpec("z", "continuous")),
        columns={"grp": grp, "x": x, "z": z},
    )
    sorted_sizes = []
    real = datasets.sort_order

    def counting(values, kind="stable"):
        sorted_sizes.append(values.size)
        return real(values, kind)

    with patch.object(datasets, "sort_order", counting), \
            patch.object(km, "sort_order", counting), \
            patch.object(splitting, "sort_order", counting):
        tree = grow(data, TreeConfig(minsplit=40, minbucket=10, alpha=0.5))
    assert len(tree.nodes) > 10
    split_on = [node for node in tree.nodes.values() if not node.is_leaf]
    assert {node.split.variable for node in split_on} == {"grp", "x"}
    # a search over three levels ordered them by their medians
    assert any(
        node.split.variable == "grp"
        and len(set(grp[node.subject_index]) - {None}) == 3
        for node in split_on
    )
    assert sorted_sizes == [n] * 4


def four_subgroup_data():
    return generate_tree_data(TreeRecoveryDesign(n_per_subgroup=150),
                              replicate_rng(7, 0))[0]


def test_grow_scores_each_component_once_per_node():
    # every variable's test at a node reads one workspace per component
    scored, tested = [], []
    real_scores = stability.score_contributions
    real_test = tree_module.variable_test

    def counting_scores(model, node):
        scored.append((node, model.component))
        return real_scores(model, node)

    def recording_test(node, *args, **kwargs):
        if not any(node is seen for seen in tested):
            tested.append(node)
        return real_test(node, *args, **kwargs)

    with patch.object(stability, "score_contributions", counting_scores), \
            patch.object(tree_module, "variable_test", recording_test):
        grown = grow(four_subgroup_data(), TreeConfig())
    assert grown.n_leaves > 2
    assert 0 < len(scored) <= 2 * len(tested)
    for i, (node, component) in enumerate(scored):
        assert not any(seen is node and c == component
                       for seen, c in scored[:i])


def test_grow_builds_only_the_candidates_it_reads():
    built, read, returned = [], [], []
    real_candidate = splitting.SplitCandidate
    real_masks = tree_module._split_masks
    real_search = tree_module.candidate_splits

    def counting_candidate(*args, **kwargs):
        built.append(1)
        return real_candidate(*args, **kwargs)

    def counting_masks(node, split):
        read.append(split)
        return real_masks(node, split)

    def counting_search(*args, **kwargs):
        cands = real_search(*args, **kwargs)
        returned.append(len(cands))
        return cands

    with patch.object(splitting, "SplitCandidate", counting_candidate), \
            patch.object(tree_module, "_split_masks", counting_masks), \
            patch.object(tree_module, "candidate_splits", counting_search):
        grown = grow(four_subgroup_data(), TreeConfig())
    assert grown.n_leaves > 2
    assert len(built) == len(read)
    assert grown.n_leaves - 1 <= len(read) < sum(returned)


def test_grow_survives_weibull_fits_on_tied_times():
    # the best split puts the two earliest events, tied, alone on the
    # left, where the Weibull fit has no MLE; grow used to abort with an
    # OverflowError there instead of trying the next candidate
    rng = rng_for(515, 2)
    n = 62
    t = np.concatenate([[0.05, 0.05], 0.2 + rng.exponential(1.0, n - 2)])
    e = np.concatenate([[True, True], rng.random(n - 2) < 0.7])
    data = SurvivalDataset(t, e, meta=(CovariateSpec("x", "continuous"),),
                           columns={"x": np.arange(n, dtype=float)})
    config = TreeConfig(alpha=0.5, minsplit=4, minbucket=2,
                        event_dist="weibull")
    grown = grow(data, config)
    split = grown.root.split
    assert candidate_splits(data, "x", split.mode, 2)[0].cutpoint == 1.5
    assert split.cutpoint == 2.5
    # no MLE at the root: a recorded stop, not an exception
    tied = SurvivalDataset(np.full(5, 0.3), np.ones(5, bool))
    assert grow(tied, config).root.stop_reason == STOP_FIT_FAILURE


# --- recovery metrics -------------------------------------------------------

def test_tree_metrics_perfect_partition_scores_zero_delta():
    rng = rng_for(513, 0)
    data, g = two_group_data(rng, n=400, censor_rate=0.03)
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20))
    assert tree.root.split.variable == "g"
    labels = np.where(g > 0.5, "hi", "lo")
    truth = TruthSpec(subgroup=labels,
                      rates={"hi": (0.2, 0.03), "lo": (0.02, 0.03)})
    m = tree_metrics(tree, data, truth)
    assert isinstance(m, TreeMetrics)
    assert m.n_leaves == tree.n_leaves
    assert m.mad_event >= 0.0 and m.perfect_mad_event > 0.0
    if tree.n_leaves == 2:
        # the fitted partition is exactly the true one
        assert m.mad_event == pytest.approx(m.perfect_mad_event, abs=1e-12)
        assert m.delta_event_pct == pytest.approx(0.0, abs=1e-9)


def test_tree_metrics_single_leaf_never_beats_perfect():
    rng = rng_for(514, 0)
    data, g = two_group_data(rng, n=200)
    tree = grow(data, TreeConfig(minsplit=500, minbucket=25))
    labels = np.where(g > 0.5, "hi", "lo")
    truth = TruthSpec(subgroup=labels,
                      rates={"hi": (0.2, 0.05), "lo": (0.02, 0.05)})
    m = tree_metrics(tree, data, truth)
    assert m.n_leaves == 1
    assert m.mad_event > m.perfect_mad_event
    assert m.delta_event_pct > 0.0


def test_tree_metrics_shape_and_label_checks():
    rng = rng_for(515, 0)
    data, g = two_group_data(rng, n=100)
    tree = grow(data, TreeConfig(minsplit=500, minbucket=25))
    with pytest.raises(TruthMismatchError):
        tree_metrics(tree, data, TruthSpec(np.array(["a"]), {"a": (0.1, 0.1)}))
    labels = np.where(g > 0.5, "hi", "lo")
    with pytest.raises(TruthMismatchError):
        tree_metrics(tree, data, TruthSpec(labels, {"hi": (0.1, 0.1)}))


# --- invariances ------------------------------------------------------------

def partition_signature(tree):
    return frozenset(frozenset(leaf.subject_index.tolist())
                     for leaf in tree.leaves())


def test_subject_reorder_keeps_partition():
    rng = rng_for(516, 0)
    data, _ = two_group_data(rng)
    perm = rng.permutation(data.n)
    shuffled = data.subset(perm)
    cfg = TreeConfig(minsplit=40, minbucket=20)
    a = grow(data, cfg)
    b = grow(shuffled, cfg)
    sig_b = frozenset(frozenset(perm[list(s)].tolist())
                      for s in partition_signature(b))
    assert partition_signature(a) == sig_b
    assert a.loglik == pytest.approx(b.loglik, abs=1e-8)


def test_monotone_covariate_transform_keeps_partition():
    rng = rng_for(517, 0)
    data, g = two_group_data(rng)
    cfg = TreeConfig(minsplit=40, minbucket=20)
    a = grow(data, cfg)
    warped = SurvivalDataset(
        data.times, data.events, meta=data.meta,
        columns={"g": np.exp(data.covariate("g")),
                 "noise": data.covariate("noise") ** 3},
    )
    b = grow(warped, cfg)
    assert partition_signature(a) == partition_signature(b)


def test_time_rescaling_keeps_partition_for_exponential():
    rng = rng_for(518, 0)
    data, _ = two_group_data(rng)
    cfg = TreeConfig(minsplit=40, minbucket=20)
    a = grow(data, cfg)
    scaled = SurvivalDataset(
        3.7 * data.times, data.events, meta=data.meta,
        columns={m.name: data.covariate(m.name) for m in data.meta},
    )
    b = grow(scaled, cfg)
    assert partition_signature(a) == partition_signature(b)
    for nid in a.nodes:
        assert nid in b.nodes
        if not a.nodes[nid].is_leaf:
            assert a.nodes[nid].split.variable == b.nodes[nid].split.variable


def test_categorical_relabeling_keeps_partition():
    rng = rng_for(519, 0)
    n = 400
    lv = np.array([("a", "b", "c")[v] for v in rng.integers(0, 3, n)], object)
    rates = {"a": 0.4, "b": 0.05, "c": 0.05}
    t = np.array([rng.exponential(1.0 / rates[v]) for v in lv])
    e = np.ones(n, bool)
    meta = (CovariateSpec("grp", "categorical"),)
    data = SurvivalDataset(t, e, meta=meta, columns={"grp": lv})
    rename = {"a": "z9", "b": "k2", "c": "m5"}
    renamed = SurvivalDataset(
        t, e, meta=meta,
        columns={"grp": np.array([rename[v] for v in lv], object)},
    )
    cfg = TreeConfig(minsplit=40, minbucket=20, censor_heterogeneity=False)
    a = grow(data, cfg)
    b = grow(renamed, cfg)
    # partition is invariant; left/right orientation may swap with the labels
    assert partition_signature(a) == partition_signature(b)
    assert a.loglik == pytest.approx(b.loglik, abs=1e-8)
    assert a.n_leaves == b.n_leaves
