"""Right-censored survival data containers.

A dataset holds one observed time per subject, the event indicator
(True = event observed, False = right censored), and any number of
partitioning covariates, each declared categorical or continuous.
Continuous columns are float arrays with NaN marking a missing value.
Categorical columns are given as labels, with None or a float NaN (as
pandas writes it) marking a missing value; the labels of one column
must be hashable and mutually orderable.  Each factor is encoded once, when the
dataset is built, as integer codes into its sorted distinct labels
(-1 for missing), and subsets slice the codes without re-encoding.
Because codes follow label order, grouping by code groups exactly as
grouping by label would.  Missing covariate values are legal, missing
times or indicators are not.

A dataset is treated as immutable: ``grouping`` caches, per covariate,
the distinct values of the subjects that have one, for the instability
tests and the split search of a tree node to share, and ``workspace``
keeps what those tests derive from a fitted model at the node, and what
a fit and its scores share (``families``).

Who sorts: a dataset makes one stable sort of its times and of each
covariate (a factor by its codes), together and only when one of them
is first needed.  ``subset`` with a boolean mask hands the child its
parent's orders, each partitioned stably in O(n) by ``restrict_order``,
so below the root no node sorts again; an integer-index ``subset``
sorts afresh on first use.  ``grouping`` drops the missing values from
the covariate's order with the same helper, ``Grouping.of`` and
``km.risk_table`` take those orders instead of sorting, and every sort
of a data column goes through ``sort_order``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDatasetError, SchemaMismatchError, UnknownVariableError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


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


@dataclass(frozen=True)
class SurvivalRecord:
    """One subject: observed time, event indicator, covariate values."""

    time: float
    event: bool
    covariates: dict
    subject_id: object = None


def sort_order(values, kind="stable") -> np.ndarray:
    """Indices that sort the array ``values``: every sort of a data column
    goes here.  ``kind=None`` is numpy's default quicksort, as in
    ``np.unique``."""
    return values.argsort(kind=kind)


def restrict_order(order, mask) -> np.ndarray:
    """The subjects of ``mask`` in ``order``, numbered as ``subset(mask)`` does.

    ``order`` lists every subject once (a 2-d array lists them once per
    row), ``mask`` selects some of them.  Keeping the selected ones in
    place is a stable partition, so the stable sort of a column restricts
    to the stable sort of the column's subset.  O(n) per row.
    """
    rank = np.cumsum(mask) - 1  # new number of each selected subject
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
    last = ordered.T[-1]  # each row's last value; a scalar for one row
    if flat.dtype.kind == "f" and np.count_nonzero(last != last):
        before = flat[:-1]
        starts[1:] &= before == before
    starts = starts.reshape(ordered.shape)
    starts.T[0] = True
    return starts


@dataclass(frozen=True)
class Grouping:
    """Subjects with a value on one covariate, grouped by that value."""

    include: np.ndarray   # True where the value is present; None for bare values
    values: np.ndarray    # present values in subject order (floats, or codes)
    distinct: np.ndarray  # distinct values, ascending
    inverse: np.ndarray   # index into distinct of each present value
    counts: np.ndarray    # group sizes

    @cached_property
    def order(self) -> np.ndarray:
        """The present values' indices in stable ascending order.

        Given by the dataset that grouped them; for bare values it is
        sorted from the inverse on first read.
        """
        return sort_order(self.inverse)

    @classmethod
    def of(cls, values, include=None, order=None) -> "Grouping":
        """Group a 1-d array of floats, integer codes or orderable labels.

        Without ``order`` the result is exactly ``np.unique(values,
        return_inverse=True, return_counts=True)``, built from the same
        single argsort (the default quicksort, so even which of -0.0 and
        0.0 stands for their group agrees): ``group_starts`` flags where
        the sorted values change, the running count of those flags scattered
        back through the sort order is the inverse, and the gaps between
        flagged positions are the counts.  As in ``np.unique``, all float
        NaNs form one group, the last.  A given ``order``, the stable sort
        of ``values``, replaces the argsort; it gives the same groups, but
        the first of -0.0 and 0.0 in subject order stands for their group.
        """
        given = order is not None
        if not given:
            order = sort_order(values, kind=None)
        ordered = values[order]
        n = ordered.size
        if n == 0:
            empty = np.empty(0, dtype=np.intp)
            return cls(include, values, ordered, empty, empty)
        starts_group = group_starts(ordered)
        starts = starts_group.nonzero()[0]
        codes = np.cumsum(starts_group)
        codes -= 1
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = codes
        counts = np.empty(starts.size, dtype=np.intp)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = n - starts[-1]
        grouped = cls(include, values, ordered[starts], inverse, counts)
        if given:  # the stable order is known: seed ``order`` with it
            object.__setattr__(grouped, "order", order)
        return grouped


def is_missing_value(value) -> bool:
    """True for None and for a float NaN, the two missing-value markers."""
    return value is None or (
        isinstance(value, (float, np.floating)) and math.isnan(value)
    )


def _encode(name, labels):
    """Sorted distinct labels and one code per subject, -1 where missing.

    Labels are numbered in order of first appearance, which takes one
    hashing pass, and only the distinct ones are sorted.
    """
    first_seen = {}
    try:
        seen = np.fromiter(
            (first_seen.setdefault(v, len(first_seen)) for v in labels),
            dtype=np.intp,
            count=labels.size,
        )
        levels = sorted(v for v in first_seen if not is_missing_value(v))
    except TypeError as exc:
        raise SchemaMismatchError(
            f"column {name!r}: labels must be hashable and orderable ({exc})"
        ) from None
    code = {v: c for c, v in enumerate(levels)}
    recode = np.array([code.get(v, -1) for v in first_seen], dtype=np.intp)
    return np.array(levels, dtype=object), recode[seen]


class SurvivalDataset:
    """Column-oriented survival sample with a fixed covariate schema."""

    def __init__(self, times, events, meta=(), columns=None, subject_ids=None):
        times = np.asarray(times, dtype=float)
        events = np.asarray(events, dtype=bool)
        if times.ndim != 1:
            raise SchemaMismatchError("times must be one-dimensional")
        if times.shape != events.shape:
            raise SchemaMismatchError("times and events must have equal length")
        if times.size == 0:
            raise EmptyDatasetError("dataset has no subjects")
        if not np.isfinite(times).all():
            raise SchemaMismatchError("times must be finite")
        meta = tuple(meta)
        columns = {} if columns is None else dict(columns)
        names = [m.name for m in meta]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("duplicate covariate names in schema")
        if set(columns) != set(names):
            raise SchemaMismatchError(
                f"columns {sorted(columns)} do not match schema {sorted(names)}"
            )
        stored = {}
        levels = {}
        for m in meta:
            col = columns[m.name]
            col = np.asarray(col, dtype=float if m.kind == CONTINUOUS else object)
            if col.shape != times.shape:
                raise SchemaMismatchError(f"column {m.name!r} has wrong length")
            if m.kind == CATEGORICAL:
                levels[m.name], col = _encode(m.name, col)
            stored[m.name] = col
        if subject_ids is None:
            subject_ids = np.arange(times.size)
        subject_ids = np.asarray(subject_ids)
        if subject_ids.shape != times.shape:
            raise SchemaMismatchError("subject_ids has wrong length")
        self._assign(times, events, meta, stored, levels, subject_ids)

    def _assign(self, times, events, meta, stored, levels, subject_ids,
                orders=None):
        self.times = times
        self.events = events
        self.meta = meta
        # float column, or int codes into levels[name] for a factor
        self._stored = stored
        self.levels = levels  # factor name -> its sorted distinct labels
        self.subject_ids = subject_ids
        self._orders = orders
        self._groupings = {}
        self._workspaces = {}

    @classmethod
    def from_records(cls, records, meta, subject_ids=None):
        records = list(records)
        times = [r.time for r in records]
        events = [r.event for r in records]
        columns = {m.name: [r.covariates.get(m.name) for r in records] for m in meta}
        for m in meta:
            if m.kind == CONTINUOUS:
                columns[m.name] = [
                    np.nan if v is None else float(v) for v in columns[m.name]
                ]
        if subject_ids is None and records and records[0].subject_id is not None:
            subject_ids = [r.subject_id for r in records]
        return cls(times, events, meta, columns, subject_ids)

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
        raise UnknownVariableError(f"no partitioning variable named {name!r}")

    def covariate(self, name: str) -> np.ndarray:
        """Floats with NaN missing, or a factor's labels with None missing."""
        if self.spec_for(name).kind == CONTINUOUS:
            return self._stored[name]
        # code -1 picks the trailing None
        return np.append(self.levels[name], None)[self._stored[name]]

    def missing_mask(self, name: str) -> np.ndarray:
        """Boolean mask, True where the covariate value is missing."""
        col = self._stored[name]
        if self.spec_for(name).kind == CONTINUOUS:
            return np.isnan(col)
        return col < 0

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
            include = ~self.missing_mask(name)
            row = 1 + list(self._stored).index(name)
            values, order = self._stored[name], self._presorted()[row]
            if not include.all():
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

    def drop_groupings(self) -> None:
        """Release the groupings, workspaces and sort orders cached so far."""
        self._groupings.clear()
        self._workspaces.clear()
        self._orders = None

    def subset(self, index) -> "SurvivalDataset":
        """The subjects at ``index``, an integer array or a boolean mask;
        a mask hands the child this dataset's sort orders, if made."""
        index = np.asarray(index)
        times = self.times[index]
        if times.size == 0:
            raise EmptyDatasetError("dataset has no subjects")
        orders = None
        if index.dtype == bool and self._orders is not None:
            orders = restrict_order(self._orders, index)
        out = object.__new__(type(self))
        out._assign(
            times,
            self.events[index],
            self.meta,
            {name: col[index] for name, col in self._stored.items()},
            self.levels,
            self.subject_ids[index],
            orders,
        )
        return out
