from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcart import (
    CATEGORICAL,
    CONTINUOUS,
    CovariateSpec,
    EmptyInputError,
    SchemaMismatchError,
    SurvivalDataset,
    UnknownVariableError,
)
from survcart import datasets
from survcart.datasets import Grouping
from survcart.errors import EmptyDatasetError


def make(n=4):
    return SurvivalDataset(
        np.arange(1.0, n + 1.0),
        np.array([True, False] * (n // 2)),
        meta=(CovariateSpec("age", CONTINUOUS), CovariateSpec("arm", CATEGORICAL)),
        columns={
            "age": np.array([50.0, np.nan, 61.0, 44.0]),
            "arm": np.array(["a", "b", None, "a"], dtype=object),
        },
    )


def test_basic_fields():
    ds = make()
    assert ds.n == 4
    assert ds.n_events == 2
    assert ds.spec_for("age").kind == CONTINUOUS
    assert ds.spec_for("arm").kind == CATEGORICAL


def test_covariate_spec_rejects_unknown_kind():
    with pytest.raises(SchemaMismatchError):
        CovariateSpec("x", "ordinal")


def test_missing_mask_covers_nan_and_none():
    ds = make()
    assert list(ds.missing_mask("age")) == [False, True, False, False]
    assert list(ds.missing_mask("arm")) == [False, False, True, False]
    # a factor may mark missing labels with a float NaN, as pandas does
    nan_marked = SurvivalDataset(
        np.arange(1.0, 5.0),
        np.ones(4, bool),
        meta=(CovariateSpec("arm", CATEGORICAL),),
        columns={"arm": np.array([np.nan, "b", None, float("nan")], object)},
    )
    assert list(nan_marked.missing_mask("arm")) == [True, False, True, True]
    assert list(nan_marked.covariate("arm")) == [None, "b", None, None]


def test_unknown_variable():
    with pytest.raises(UnknownVariableError):
        make().spec_for("bmi")


@pytest.mark.parametrize("read", [
    SurvivalDataset.spec_for,
    SurvivalDataset.covariate,
    SurvivalDataset.stored,
    SurvivalDataset.missing_mask,
    SurvivalDataset.grouping,
])
def test_every_read_of_an_unknown_variable_names_it(read):
    # missing_mask (and grouping through it) indexed the columns first
    # and raised KeyError
    with pytest.raises(UnknownVariableError, match="'bmi'"):
        read(make(), "bmi")
    with pytest.raises(UnknownVariableError, match="'x'"):
        read(SurvivalDataset([1.0, 2.0], [True, False]), "x")


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        SurvivalDataset(np.array([]), np.array([], dtype=bool))


def test_nonfinite_time_rejected():
    with pytest.raises(SchemaMismatchError):
        SurvivalDataset(np.array([1.0, np.inf]), np.array([True, False]))


def test_column_length_mismatch_rejected():
    with pytest.raises(SchemaMismatchError):
        SurvivalDataset(
            np.array([1.0, 2.0]),
            np.array([True, False]),
            meta=(CovariateSpec("x", CONTINUOUS),),
            columns={"x": np.array([1.0])},
        )


def test_duplicate_variable_rejected():
    with pytest.raises(SchemaMismatchError):
        SurvivalDataset(
            np.array([1.0]),
            np.array([True]),
            meta=(CovariateSpec("x", CONTINUOUS), CovariateSpec("x", CONTINUOUS)),
            columns={"x": np.array([1.0])},
        )


def test_missing_column_rejected():
    with pytest.raises(SchemaMismatchError):
        SurvivalDataset(
            np.array([1.0]),
            np.array([True]),
            meta=(CovariateSpec("x", CONTINUOUS),),
            columns={},
        )


def test_subset_by_mask_and_index():
    ds = make()
    sub = ds.subset(np.array([True, False, True, False]))
    assert sub.n == 2
    assert list(sub.times) == [1.0, 3.0]
    assert list(sub.covariate("arm")) == ["a", None]
    sub2 = ds.subset(np.array([3, 0]))
    assert list(sub2.times) == [4.0, 1.0]


def test_subset_keeps_codes_and_labels_aligned():
    rng = np.random.default_rng(3)
    labels = np.array(["zeta", "b", None, "Alpha", np.nan, "b", "a10"] * 5,
                      object)
    ds = SurvivalDataset(
        np.arange(1.0, labels.size + 1.0),
        np.ones(labels.size, bool),
        meta=(CovariateSpec("g", CATEGORICAL),),
        columns={"g": labels},
    )
    assert list(ds.levels["g"]) == ["Alpha", "a10", "b", "zeta"]
    decoded = [None if v is None or v != v else v for v in labels]
    for _ in range(20):
        index = rng.choice(labels.size, size=int(rng.integers(1, 12)),
                           replace=False)
        sub = ds.subset(index)
        assert list(sub.covariate("g")) == [decoded[i] for i in index]
        assert list(sub.missing_mask("g")) == [decoded[i] is None for i in index]
        assert sub.levels["g"] is ds.levels["g"]  # never re-encoded
        grouping = sub.grouping("g")
        assert list(ds.levels["g"][grouping.distinct]) == sorted(
            {decoded[i] for i in index} - {None})


def test_unorderable_labels_rejected():
    with pytest.raises(SchemaMismatchError, match="'g'"):
        SurvivalDataset(
            np.arange(1.0, 5.0),
            np.ones(4, bool),
            meta=(CovariateSpec("g", CATEGORICAL),),
            columns={"g": np.array([1, "a", 1, "a"], object)},
        )


def test_constructor_keeps_missing_values():
    ds = SurvivalDataset(
        [2.0, 4.5],
        [True, False],
        meta=(CovariateSpec("age", CONTINUOUS), CovariateSpec("arm", CATEGORICAL)),
        columns={"age": [50.0, None], "arm": ["a", "b"]},
    )
    assert ds.n == 2
    assert np.isnan(ds.covariate("age")[1])
    assert ds.covariate("arm").tolist() == ["a", "b"]


# --- Grouping.of against np.unique -----------------------------------------

def assert_groups_like_unique(values):
    got = Grouping.of(values)
    distinct, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    assert got.values is values
    assert np.array_equal(got.order, np.argsort(values, kind="stable"))
    assert got.distinct.dtype == distinct.dtype
    if distinct.dtype.kind == "f":
        assert np.array_equal(got.distinct, distinct, equal_nan=True)
        # the first of -0.0 and 0.0 in subject order stands for their group
        first = [values[inverse == g][0] for g in range(distinct.size)]
        assert np.array_equal(np.signbit(got.distinct), np.signbit(first))
    else:
        assert list(got.distinct) == list(distinct)
    for mine, theirs in ((got.inverse, inverse), (got.counts, counts)):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


FLOAT_POOL = (0.0, -0.0, 1.5, -2.0, 1e-300, 7.0, np.nan, -np.nan, np.inf)


@given(st.lists(st.sampled_from(FLOAT_POOL) | st.floats(), max_size=60))
@settings(max_examples=300, deadline=None)
def test_grouping_of_floats_matches_unique(values):
    assert_groups_like_unique(np.array(values, dtype=float))


@given(st.lists(st.integers(-1, 6), max_size=60))
@settings(max_examples=150, deadline=None)
def test_grouping_of_codes_matches_unique(codes):
    assert_groups_like_unique(np.array(codes, dtype=np.intp))


@given(st.lists(st.sampled_from(["b", "a", "Z", "a1", ""]), max_size=40))
@settings(max_examples=150, deadline=None)
def test_grouping_of_labels_matches_unique(labels):
    assert_groups_like_unique(np.array(labels, dtype=object))


@pytest.mark.parametrize("values", [
    np.array([3.5]),
    np.array([np.nan]),
    np.array([-0.0]),
    np.array([], dtype=float),
    np.array([np.nan, 1.0, np.nan, -0.0, 0.0, 1.0]),
])
def test_grouping_of_small_cases_match_unique(values):
    assert_groups_like_unique(values)


def test_grouping_of_large_tied_floats_match_unique():
    # long enough for the sort's vectorized paths
    rng = np.random.default_rng(111)
    values = np.round(rng.normal(0.0, 2.0, 5000))
    values[rng.random(5000) < 0.1] = -0.0
    values[rng.random(5000) < 0.05] = np.nan
    assert_groups_like_unique(values)
    assert_groups_like_unique(rng.random(5000))


# --- sort_order against numpy's stable argsort --------------------------------

def assert_sorts_like_stable_argsort(values):
    got = datasets.sort_order(values)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(values, kind="stable"))


# factor codes with -1 for missing, and codes beyond int16 either way
CODE_POOL = (-1, 0, 1, 2, 5, 32767, 32768, -32769, 70000)


@st.composite
def sortable_arrays(draw):
    """A column of floats, integer codes or object labels."""
    kind = draw(st.sampled_from(("float", "code", "label")))
    element, dtype = {
        "float": (st.sampled_from(FLOAT_POOL) | st.floats(), float),
        "code": (st.integers(-1, 6) | st.sampled_from(CODE_POOL), np.intp),
        "label": (st.sampled_from(["b", "a", "Z", "a1", ""]), object),
    }[kind]
    return np.array(draw(st.lists(element, max_size=40)), dtype=dtype)


@given(sortable_arrays())
@settings(max_examples=400, deadline=None)
def test_sort_order_is_the_stable_argsort(values):
    assert_sorts_like_stable_argsort(values)


@pytest.mark.parametrize("values", [
    np.array([], dtype=float), np.array([-0.0]), np.array([0.0, -0.0]),
    np.array([np.nan, np.nan]), np.array([], dtype=np.intp),
    np.array([-1]), np.array([40000, -1]), np.array(["b", "a"], dtype=object),
])
def test_sort_order_of_zero_one_and_two_values(values):
    assert_sorts_like_stable_argsort(values)


def test_sort_order_of_large_tied_columns():
    # long enough for the vectorized quicksort and the radix sort
    rng = np.random.default_rng(112)
    floats = np.round(rng.normal(0.0, 2.0, 6000))
    floats[rng.random(6000) < 0.1] = -0.0
    floats[rng.random(6000) < 0.05] = np.nan
    codes = rng.integers(-1, 12, 6000)
    for values in (floats, rng.random(6000), codes, codes * 5000):
        assert_sorts_like_stable_argsort(values)


# --- sort orders inherited through subset ------------------------------------

def stable_codes(ds, name):
    """A factor's values as codes into its sorted labels, -1 where missing."""
    code = {label: c for c, label in enumerate(ds.levels[name])}
    return np.array([-1 if ds.missing_mask(name)[i] else code[v]
                     for i, v in enumerate(ds.covariate(name))], dtype=np.intp)


def assert_orders_are_stable_sorts(ds):
    columns = [ds.times, ds.covariate("x"), stable_codes(ds, "grp")]
    for row, column in zip(ds._presorted(), columns):
        assert np.array_equal(row, np.argsort(column, kind="stable"))


def assert_grouping_matches_unordered(grouped):
    fresh = Grouping.of(grouped.values, grouped.include)
    assert fresh.include is grouped.include and fresh.values is grouped.values
    for field in ("inverse", "counts"):
        mine, theirs = getattr(grouped, field), getattr(fresh, field)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    # the given order is the stable sort of the groups
    assert np.array_equal(grouped.order, np.argsort(fresh.inverse, kind="stable"))
    # both orders are the stable sort, so even the signs of zero agree
    assert grouped.distinct.dtype == fresh.distinct.dtype
    assert np.array_equal(grouped.distinct, fresh.distinct)
    assert np.array_equal(np.signbit(grouped.distinct), np.signbit(fresh.distinct))


@st.composite
def subset_chains(draw):
    n = draw(st.integers(1, 40))
    times = draw(st.lists(st.sampled_from((1.0, 2.0, 2.0, 0.5, 7.25)),
                          min_size=n, max_size=n))
    x = draw(st.lists(st.sampled_from((0.0, -0.0, 1.5, -2.0, np.nan, 7.0)),
                      min_size=n, max_size=n))
    grp = draw(st.lists(st.sampled_from(("b", "a", "c", None, float("nan"))),
                        min_size=n, max_size=n))
    data = SurvivalDataset(
        times, [i % 3 != 0 for i in range(n)],
        meta=(CovariateSpec("x", CONTINUOUS), CovariateSpec("grp", CATEGORICAL)),
        columns={"x": x, "grp": np.array(grp, dtype=object)},
    )
    masks = []
    size = n
    for _ in range(draw(st.integers(1, 4))):
        mask = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        mask[draw(st.integers(0, size - 1))] = True  # a subset is never empty
        masks.append(np.array(mask))
        size = int(np.count_nonzero(mask))
    return data, masks


@given(subset_chains())
@settings(max_examples=200, deadline=None)
def test_subset_children_inherit_stable_orders(chain):
    ds, masks = chain
    ds.time_order  # the root sorts
    sorted_sizes = []

    def counting(values):
        sorted_sizes.append(values.size)
        return np.argsort(values, kind="stable")

    with patch.object(datasets, "sort_order", counting):
        for mask in masks:
            ds = ds.subset(mask)
            groupings = [ds.grouping(name) for name in ("x", "grp")]
            assert_orders_are_stable_sorts(ds)
            assert sorted_sizes == []  # inherited, nothing sorted
            for grouped in groupings:
                assert np.array_equal(
                    grouped.order, np.argsort(grouped.values, kind="stable"))
                assert_grouping_matches_unordered(grouped)
            sorted_sizes.clear()
        # an index-array subset sorts its times and each covariate afresh
        by_index = ds.subset(np.arange(ds.n))
        assert_orders_are_stable_sorts(by_index)
        assert sorted_sizes == [ds.n] * 3
