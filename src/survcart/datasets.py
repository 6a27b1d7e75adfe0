"""Right-censored survival data containers.

A dataset holds one observed time per subject, the event indicator
(True = event observed, False = right censored), and any number of
partitioning covariates, each declared categorical or continuous.
Continuous columns are float arrays with NaN marking a missing value.
Categorical columns are given as labels, with None or a float NaN (as
pandas writes it) marking a missing value; the labels of one column
must be hashable and mutually orderable.  Each factor is encoded once,
when the dataset is built, as integer codes into its sorted distinct
labels (-1 for missing), and subsets slice the codes without
re-encoding.  A caller that numbers labels itself (the CSV loader, chunk
by chunk, with ``number_labels``) hands over the codes of the same
``sorted_codes`` step instead, with their ``levels``.
Because codes follow label order, grouping by code groups exactly as
grouping by label would.  Missing covariate values are legal, missing
times or indicators are not.  A subject is known by its position.

A dataset is treated as immutable: ``grouping`` caches, per covariate,
the distinct values of the subjects that have one, for the instability
tests and the split search of a tree node to share, and ``workspace``
keeps what those tests derive from a fitted model at the node, and what
a fit and its scores share (``families``), until ``drop_groupings``.

Who sorts: ``sort_order``, numpy's stable argsort at quicksort speed,
makes every sort of a data column.  Only the rows of a Monte Carlo
chunk (``stability._row_cells``) are grouped by a plain quicksort: a
subject's group does not depend on the order of ties.  A dataset sorts
its times and each covariate (a factor by its codes) together, when one
is first needed.  ``subset`` with a boolean mask hands the child its
parent's orders, each partitioned stably in O(n) by ``restrict_order``,
so below the root no node sorts again; an integer-index ``subset``
sorts afresh on first use.  ``grouping`` drops the missing values from
the covariate's order with the same helper, and ``Grouping.of`` and
``km.risk_table`` take those orders instead of sorting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, SchemaMismatchError, UnknownVariableError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"
MISSING_TOKENS = ("", "NA")  # a stripped CSV cell that holds no value


@dataclass(frozen=True)
class CovariateSpec:
    """Name and kind of one partitioning variable."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise SchemaMismatchError(
                f"covariate {self.name!r}: kind must be "
                f"{CATEGORICAL!r} or {CONTINUOUS!r}, got {self.kind!r}"
            )


def sort_order(values) -> np.ndarray:
    """Exactly ``np.argsort(values, kind="stable")`` of a 1-d array: codes
    that fit int16 by numpy's radix sort, the rest by numpy's quicksort
    and then, only where equal values (ties, -0.0 and 0.0, the NaNs) form
    runs, one more sort by run rank * n + subject."""
    if values.dtype.kind in "iu" and values.size and (
            -32768 <= values.min() and values.max() <= 32767):
        return values.astype(np.int16).argsort(kind="stable")
    order = values.argsort()
    starts = group_starts(values[order])
    if not starts.all():
        shift = np.cumsum(starts) * values.size
        order = np.sort(order + shift) - shift
    return order


def restrict_order(order, mask) -> np.ndarray:
    """The subjects of ``mask`` in ``order``, numbered as ``subset(mask)`` does.

    ``order`` lists every subject once (a 2-d array lists them once per
    row), ``mask`` selects some of them.  Keeping the selected ones in
    place is a stable partition, so the stable sort of a column restricts
    to the stable sort of the column's subset.  O(n) per row.
    """
    # the new number of each selected subject (an integer running sum)
    rank = np.add.accumulate(mask.astype(np.intp)) - 1
    kept = order[mask[order]]
    return rank[kept].reshape(order.shape[:-1] + (-1,))


def group_starts(ordered) -> np.ndarray:
    """Where a value of each sorted row of ``ordered`` starts a new group.

    ``ordered`` is one sorted row or a 2-d array of them.  As in
    ``np.unique``, all float NaNs, which sort last, form one group: a
    NaN after a NaN starts none.  The rows are compared as one run of
    values, and then each row's first value starts a group.
    """
    flat = ordered.reshape(-1)
    starts = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    last = ordered.T[-1:]  # each row's last value, none for no values
    if flat.dtype.kind == "f" and np.count_nonzero(last != last):
        before = flat[:-1]
        starts[1:] &= before == before
    starts = starts.reshape(ordered.shape)
    starts.T[:1] = True
    return starts


@dataclass(frozen=True)
class Grouping:
    """Subjects with a value on one covariate, grouped by that value."""

    include: np.ndarray   # True where the value is present; None for bare values
    values: np.ndarray    # present values in subject order (floats, or codes)
    distinct: np.ndarray  # distinct values, ascending
    inverse: np.ndarray   # index into distinct of each present value
    counts: np.ndarray    # group sizes
    order: np.ndarray     # the stable order of values

    @classmethod
    def of(cls, values, include=None, order=None) -> "Grouping":
        """Group a 1-d array of floats, integer codes or orderable labels.

        The groups are those of ``np.unique(values, return_inverse=True,
        return_counts=True)``: all float NaNs form one, the last, and the
        first of -0.0 and 0.0 in subject order stands for theirs.  ``order``
        is the stable sort of ``values`` (``sort_order`` makes it without).
        The gaps between ``group_starts`` are the counts, and each group's
        index repeated by its count (half the cost of a running count of
        the flags) and scattered back through the order is the inverse.
        """
        if order is None:
            order = sort_order(values)
        ordered = values[order]
        starts = group_starts(ordered)
        n = ordered.size
        if n == 0:
            empty = np.empty(0, dtype=np.intp)
            return cls(include, values, ordered, empty, empty, order)
        starts = starts.nonzero()[0]
        counts = np.empty(starts.size, dtype=np.intp)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = n - starts[-1]
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = np.arange(starts.size).repeat(counts)
        return cls(include, values, ordered[starts], inverse, counts, order)


def is_missing_value(value) -> bool:
    """True for None and for a float NaN, the two missing-value markers."""
    return value is None or (
        isinstance(value, (float, np.floating)) and math.isnan(value)
    )


def number_labels(labels, first_seen) -> np.ndarray:
    """Number a list of labels in order of first appearance.

    ``first_seen`` maps each label met so far to its number and gains
    the new ones, so one dict numbers several sequences, such as the
    chunks of a file, consistently.  Hashing passes only: the distinct
    labels of ``labels``, then one lookup per label.
    """
    for v in dict.fromkeys(labels):
        first_seen.setdefault(v, len(first_seen))
    return np.fromiter(map(first_seen.__getitem__, labels), dtype=np.intp,
                       count=len(labels))


def sorted_codes(distinct, seen):
    """Sorted distinct labels and one code per subject, -1 where missing.

    ``distinct`` lists the labels by number, a missing one as None or a
    float NaN, and ``seen`` holds each subject's number; only the
    distinct labels are sorted.
    """
    levels = sorted(v for v in distinct if not is_missing_value(v))
    code = {v: c for c, v in enumerate(levels)}
    recode = np.array([code.get(v, -1) for v in distinct], dtype=np.intp)
    return np.array(levels, dtype=object), recode[seen]


def _encode(name, labels):
    """Sorted distinct labels and one code per subject, -1 where missing."""
    first_seen = {}
    try:
        seen = number_labels(labels.tolist(), first_seen)
        return sorted_codes(list(first_seen), seen)
    except TypeError as exc:
        raise SchemaMismatchError(
            f"column {name!r}: labels must be hashable and orderable ({exc})"
        ) from None


class SurvivalDataset:
    """Column-oriented survival sample with a fixed covariate schema.

    Without covariates, times and events may instead be R x n: R samples
    of n subjects, one per row, such as a size or power cell's chunk of
    replicates.  ``fit`` and ``score_contributions`` take such a dataset
    (the exponential fits all its rows in one pass), and ``subset`` with
    a mask of R selects rows.  The times are kept in C order, so that a
    row's sum adds in the order of the row's own sum.

    ``levels`` maps a factor to its sorted distinct labels when its
    column is given already encoded, as the codes ``sorted_codes``
    returns, rather than as labels (``dataio.load_csv`` numbers a file's
    labels chunk by chunk).
    """

    def __init__(self, times, events, meta=(), columns=None, levels=None):
        times = np.ascontiguousarray(times, dtype=float)
        events = np.asarray(events, dtype=bool)
        meta = tuple(meta)
        if times.ndim != 1 and (times.ndim != 2 or meta):
            raise SchemaMismatchError(
                "times must be one-dimensional, or rows without covariates"
            )
        if times.shape != events.shape:
            raise SchemaMismatchError("times and events must have equal length")
        if times.size == 0:
            raise EmptyDatasetError("dataset has no subjects")
        if not np.isfinite(times).all():
            raise SchemaMismatchError("times must be finite")
        columns = {} if columns is None else dict(columns)
        names = [m.name for m in meta]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("duplicate covariate names in schema")
        if set(columns) != set(names):
            raise SchemaMismatchError(
                f"columns {sorted(columns)} do not match schema {sorted(names)}"
            )
        coded = {} if levels is None else levels
        stored = {}
        levels = {}
        for m in meta:
            col = columns[m.name]
            if m.name in coded:  # a factor given as codes into its levels
                col = np.asarray(col, dtype=np.intp)
            else:
                col = np.asarray(col, dtype=float if m.kind == CONTINUOUS else object)
            if col.shape != times.shape:
                raise SchemaMismatchError(f"column {m.name!r} has wrong length")
            if m.name in coded:
                levels[m.name] = coded[m.name]
            elif m.kind == CATEGORICAL:
                levels[m.name], col = _encode(m.name, col)
            stored[m.name] = col
        self._assign(times, events, meta, stored, levels)

    def _assign(self, times, events, meta, stored, levels, orders=None):
        self.times = times
        self.events = events
        self.meta = meta
        # float column, or int codes into levels[name] for a factor
        self._stored = stored
        self.levels = levels  # factor name -> its sorted distinct labels
        self._orders = orders
        self._groupings = {}
        self._workspaces = {}

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self.events))

    @property
    def columns(self) -> dict:
        """Every covariate column as ``covariate`` returns it."""
        return {m.name: self.covariate(m.name) for m in self.meta}

    def spec_for(self, name: str) -> CovariateSpec:
        for m in self.meta:
            if m.name == name:
                return m
        raise UnknownVariableError(f"unknown partitioning variable {name!r}")

    def covariate(self, name: str) -> np.ndarray:
        """Floats with NaN missing, or a factor's labels with None missing."""
        if self.spec_for(name).kind == CONTINUOUS:
            return self._stored[name]
        # code -1 picks the trailing None
        return np.append(self.levels[name], None)[self._stored[name]]

    def stored(self, name: str) -> np.ndarray:
        """Floats with NaN missing, or a factor's codes (-1 where missing)."""
        self.spec_for(name)
        return self._stored[name]

    def missing_mask(self, name: str) -> np.ndarray:
        """Boolean mask, True where the covariate value is missing."""
        if self.spec_for(name).kind == CONTINUOUS:
            return np.isnan(self._stored[name])
        return self._stored[name] < 0

    def _presorted(self) -> np.ndarray:
        """Stable orders of the times (row 0) and of each covariate.

        Inherited from the parent by a boolean ``subset``, otherwise
        sorted here on first use; kept until ``drop_groupings``.
        """
        if self._orders is None:
            self._orders = np.stack(
                [sort_order(self.times)]
                + [sort_order(col) for col in self._stored.values()]
            )
        return self._orders

    @property
    def time_order(self) -> np.ndarray:
        """Subject indices by ascending time, ties in subject order."""
        return self._presorted()[0]

    def grouping(self, name: str) -> Grouping:
        """The present values of one covariate grouped by value.

        Computed on first use and kept until ``drop_groupings``, so the
        instability test and the split search of a node group each
        covariate once.  A factor is grouped by its codes.  The values
        come in the covariate's stable order, with the missing ones
        dropped from it.
        """
        grouped = self._groupings.get(name)
        if grouped is None:
            missing = self.missing_mask(name)
            include = ~missing
            row = 1 + list(self._stored).index(name)
            values, order = self._stored[name], self._presorted()[row]
            if np.count_nonzero(missing):
                values, order = values[include], restrict_order(order, include)
            grouped = Grouping.of(values, include, order)
            self._groupings[name] = grouped
        return grouped

    def workspace(self, key, owner, make):
        """Per-node state derived from ``owner``, kept like a grouping.

        Returns the value last made under ``key`` if it was made for
        this same ``owner`` object, and otherwise stores and returns
        ``make()``.  Kept until ``drop_groupings``.
        """
        held = self._workspaces.get(key)
        if held is None or held[0] is not owner:
            held = self._workspaces[key] = (owner, make())
        return held[1]

    def drop_groupings(self, keep=None) -> None:
        """Release the groupings, workspaces and sort orders cached so far;
        with ``keep``, that covariate's grouping and the orders stay."""
        kept = self._groupings.get(keep)
        self._groupings = {} if kept is None else {keep: kept}
        self._workspaces.clear()
        if keep is None:
            self._orders = None

    def subset(self, index) -> "SurvivalDataset":
        """The subjects at ``index``, an integer array or a boolean mask;
        a mask hands the child this dataset's sort orders, if made, and
        every column is taken at the positions it selects."""
        index = np.asarray(index)
        times = self.times[index]  # a mask of the wrong length raises here
        if times.size == 0:
            raise EmptyDatasetError("dataset has no subjects")
        orders = None
        if index.dtype == bool:
            if self._orders is not None:
                orders = restrict_order(self._orders, index)
            index = index.nonzero()[0]
        out = object.__new__(type(self))
        out._assign(
            times,
            self.events[index],
            self.meta,
            {name: col[index] for name, col in self._stored.items()},
            self.levels,
            orders,
        )
        return out
