"""CSV ingestion, tree serialization (JSON and DOT), text rendering.

The JSON tree document is the canonical on-disk form: it carries the
growth config, the column schema, and every node with its split rule
and fitted parameters, so a reloaded document routes subjects exactly
like the original tree.  Floats go through Python's shortest
round-trip repr, so parameter values survive a save/load cycle bit for
bit.  DOT output is presentation only.

A Weibull model's params are (mu, sigma), the extreme-value location
and scale of log t.  A document written before the Weibull was fitted
in that form stores (shape, rate) instead: its params load as they
are, and it routes subjects the same way, since routing reads only the
splits.  Refit to get (mu, sigma).

The CSV loader converts 1,024 records at a time into one numpy array
per column, appended to one growing buffer per column that becomes the
dataset's array without a copy; an id column is checked, not read.
So a 1,000,000-row file peaks at about the size of its dataset's own
arrays above the interpreter's start.  A factor's labels are numbered
by first appearance across the chunks and sorted once at the end
(``datasets.sorted_codes``).

The product-limit export (``survcart fit --km-out``) is a CSV with the
header ``leaf,flavor,time,surv,n.risk,n.event`` (``KM_COLUMNS``) and
one row per grid time of each leaf's event and censoring curves, from
``km_leaf_rows``.  ``km_curve_csv`` formats one curve's rows in one
string, byte for byte as a default-dialect ``csv.writer`` would: CRLF
line ends, no quotes (no cell needs them) and floats in their shortest
round-trip repr (``str(float)``), so the bytes depend only on the input.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import repeat
from operator import eq, itemgetter

import numpy as np

from . import __version__
from .datasets import (
    CATEGORICAL,
    CONTINUOUS,
    MISSING_TOKENS,
    CovariateSpec,
    SurvivalDataset,
    number_labels,
    sort_order,
    sorted_codes,
)
from .errors import (
    EmptyDatasetError,
    MissingColumnError,
    ParseError,
)
from .families import CheckedInformation, FittedModel
from .km import KMCurve, km_fit
from .tree import SplitInfo, SurvTree, TreeConfig, TreeNode, leaf_subjects


@dataclass(frozen=True)
class SchemaSpec:
    """Column mapping for survival CSV files; the id column is checked, not read."""

    time_column: str
    event_column: str
    event_value: str = "1"
    variables: tuple = ()
    id_column: str = None

    def __post_init__(self):
        # event cells are read as stripped strings, and a missing one is
        # a parse error
        value = self.event_value
        if (not isinstance(value, str) or value != value.strip()
                or value in MISSING_TOKENS):
            raise ValueError(f"event value {value!r} can match no event cell")

    def to_dict(self) -> dict:
        return {
            "time": self.time_column,
            "event": self.event_column,
            "event_value": self.event_value,
            "id": self.id_column,
            "variables": [{"name": v.name, "kind": v.kind} for v in self.variables],
        }


def parse_variable_flags(text: str) -> tuple:
    """Parse "name:cat,name:cont" flag syntax into covariate specs."""
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"variable {token!r} is not name:cat or name:cont")
        name, kind = parts[0].strip(), parts[1].strip().lower()
        if any(spec.name == name for spec in specs):
            raise ValueError(f"variable {name!r} is given twice")
        if kind in ("cat", "categorical"):
            specs.append(CovariateSpec(name, CATEGORICAL))
        elif kind in ("cont", "continuous"):
            specs.append(CovariateSpec(name, CONTINUOUS))
        else:
            raise ValueError(f"unknown kind {kind!r} for variable {name!r}")
    if not specs:
        raise ValueError("no partitioning variables given")
    return tuple(specs)


def load_csv(path: str, schema: SchemaSpec) -> SurvivalDataset:
    """Read a survival CSV (RFC 4180, header row required, UTF-8 with or
    without a byte-order mark).

    Missing time or event cells, and times that are not finite numbers,
    abort with a ``ParseError`` naming the file line the record ends on
    (blank lines count) and the column; missing partitioning values
    (empty or NA) are kept as missing and the affected subject simply
    drops out of that variable's tests and split candidacy.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _read_csv(fh, schema)


# Records converted at a time: bounds the rows held as raw text.
_CHUNK_ROWS = 1024


def _read_csv(fh, schema: SchemaSpec) -> SurvivalDataset:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise EmptyDatasetError("file has no header row")
    needed = [schema.time_column, schema.event_column]
    needed.extend(v.name for v in schema.variables)
    if schema.id_column is not None:
        needed.append(schema.id_column)
    for column in needed:
        if column not in header:
            raise MissingColumnError(f"column {column!r} not in header {header}")
    # a name the header repeats reads its last column
    index = {name: i for i, name in enumerate(header)}
    width = max(index[column] for column in needed) + 1

    # each chunk's array of a column is appended, as bytes, to one
    # growing buffer per column; a factor's holds label numbers from one
    # first-seen dict per factor
    times, events = bytearray(), bytearray()
    columns = {v.name: bytearray() for v in schema.variables}
    first_seen = {v.name: {} for v in schema.variables if v.kind == CATEGORICAL}
    records, lines = [], []
    for row in reader:
        if row:  # a blank line holds no record
            records.append(row)
            lines.append(reader.line_num)
            if len(records) == _CHUNK_ROWS:
                _convert_records(records, lines, index, width, schema,
                                 times, events, columns, first_seen)
                records, lines = [], []
    if records:
        _convert_records(records, lines, index, width, schema,
                         times, events, columns, first_seen)
    if not times:
        raise EmptyDatasetError("file has no data rows")
    levels = {}
    for spec in schema.variables:
        name = spec.name
        if spec.kind == CONTINUOUS:
            columns[name] = np.frombuffer(columns[name], dtype=float)
            continue
        distinct = [None if v in MISSING_TOKENS else v for v in first_seen[name]]
        levels[name], columns[name] = sorted_codes(
            distinct, np.frombuffer(columns[name], dtype=np.intp))
    return SurvivalDataset(
        np.frombuffer(times, dtype=float),
        np.frombuffer(events, dtype=bool),
        schema.variables,
        columns,
        levels,
    )


def _convert_records(records, lines, index, width, schema,
                     times, events, columns, first_seen):
    """Append the cells of some records to the columns, one array each.

    A number column is one ``float`` pass (``float`` ignores the
    whitespace ``str.strip`` removes); only a column that fails it looks
    for missing tokens cell by cell.  A bad cell, or a time that is not
    finite, raises the ParseError of the first one, record by record.
    """
    if min(map(len, records)) < width:  # the cells a short row lacks are empty
        records = [row + [""] * (width - len(row)) for row in records]
    n = len(records)

    def cells(name):
        return map(itemgetter(index[name]), records)

    def stripped(name):
        return list(map(str.strip, cells(name)))

    try:
        new_times = np.fromiter(map(float, cells(schema.time_column)), float, n)
        if not np.isfinite(new_times).all():
            raise ValueError("time not finite")
        raw_events = stripped(schema.event_column)
        if any(token in raw_events for token in MISSING_TOKENS):
            raise ValueError("missing event value")
        new_columns = {}
        for spec in schema.variables:
            if spec.kind == CATEGORICAL:
                new_columns[spec.name] = number_labels(
                    stripped(spec.name), first_seen[spec.name])
                continue
            try:
                values = np.fromiter(map(float, cells(spec.name)), float, n)
            except ValueError:  # a missing value or a bad cell
                values = np.array([np.nan if v in MISSING_TOKENS else float(v)
                                   for v in stripped(spec.name)])
            new_columns[spec.name] = values
    except ValueError:
        _raise_first_bad_cell(records, lines, index, schema)
        raise
    times += memoryview(new_times)
    events += memoryview(np.fromiter(
        map(eq, raw_events, repeat(schema.event_value)), bool, n))
    for name, values in new_columns.items():
        columns[name] += memoryview(values)


def _raise_first_bad_cell(records, lines, index, schema):
    """Raise the ParseError of the first bad cell, record by record."""
    time_at, event_at = index[schema.time_column], index[schema.event_column]
    continuous = [spec.name for spec in schema.variables if spec.kind == CONTINUOUS]
    for row, line in zip(records, lines):
        raw_time = row[time_at].strip()
        if raw_time in MISSING_TOKENS:
            raise ParseError(line, schema.time_column, "missing time value")
        try:
            time = float(raw_time)
        except ValueError:
            raise ParseError(
                line, schema.time_column, f"not a number: {raw_time!r}"
            ) from None
        if not math.isfinite(time):
            raise ParseError(
                line, schema.time_column, f"not a finite number: {raw_time!r}")
        if row[event_at].strip() in MISSING_TOKENS:
            raise ParseError(line, schema.event_column, "missing event value")
        for name in continuous:
            raw = row[index[name]].strip()
            if raw in MISSING_TOKENS:
                continue
            try:
                float(raw)
            except ValueError:
                raise ParseError(line, name, f"not a number: {raw!r}") from None


# --- JSON tree documents ---------------------------------------------------

FORMAT_NAME = "survcart-tree"
FORMAT_VERSION = 1


def _model_payload(model: FittedModel):
    if model is None:
        return None
    return {
        "family": model.family,
        "component": model.component,
        "params": [float(v) for v in model.params],
        "loglik": float(model.loglik),
        "info": [[float(v) for v in row] for row in model.info.matrix],
        "n_used": model.n_used,
        "n_contributing": model.n_contributing,
    }


def _model_from_payload(payload):
    if payload is None:
        return None
    return FittedModel(
        family=payload["family"],
        component=payload["component"],
        params=np.array(payload["params"], dtype=float),
        loglik=payload["loglik"],
        info=CheckedInformation(payload["info"]),
        n_used=payload["n_used"],
        n_contributing=payload["n_contributing"],
    )


def _split_payload(split: SplitInfo):
    if split is None:
        return None
    payload = {
        "variable": split.variable,
        "kind": split.kind,
        "mode": split.mode,
        "statistic": float(split.statistic),
        "variable_p": float(split.variable_p),
        "adjusted_p": float(split.adjusted_p),
    }
    if split.kind == CATEGORICAL:
        payload["left_levels"] = list(split.cutpoint)
    else:
        payload["cutpoint"] = float(split.cutpoint)
    return payload


def _split_from_payload(payload):
    if payload is None:
        return None
    if payload["kind"] == CATEGORICAL:
        cutpoint = tuple(payload["left_levels"])
    else:
        cutpoint = payload["cutpoint"]
    return SplitInfo(
        variable=payload["variable"],
        kind=payload["kind"],
        cutpoint=cutpoint,
        mode=payload["mode"],
        statistic=payload["statistic"],
        variable_p=payload["variable_p"],
        adjusted_p=payload["adjusted_p"],
    )


def tree_to_document(
    tree: SurvTree, schema: SchemaSpec = None, deterministic: bool = False
) -> dict:
    """Serializable dict capturing config, schema, and all nodes."""
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "config": asdict(tree.config),
        "schema": schema.to_dict() if schema is not None else None,
        "loglik": float(tree.loglik),
        "aic": float(tree.aic),
        "improvements": [[int(i), float(d)] for i, d in tree.improvements],
        "nodes": [],
    }
    if not deterministic:
        doc["created"] = datetime.now(timezone.utc).isoformat()
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        doc["nodes"].append(
            {
                "id": node.node_id,
                "depth": node.depth,
                "n": node.n,
                "d": node.d,
                "is_leaf": node.is_leaf,
                "stop_reason": node.stop_reason,
                "children": list(node.children) if node.children else None,
                "km_median_event": node.km_median_event,
                "km_median_censor": node.km_median_censor,
                "event_model": _model_payload(node.event_model),
                "censor_model": _model_payload(node.censor_model),
                "split": _split_payload(node.split),
            }
        )
    return doc


def document_to_tree(doc: dict) -> SurvTree:
    """Rebuild a routable tree from its JSON document."""
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    config = TreeConfig(**doc["config"])
    nodes = {}
    for payload in doc["nodes"]:
        node = TreeNode(
            node_id=payload["id"],
            depth=payload["depth"],
            n=payload["n"],
            d=payload["d"],
            event_model=_model_from_payload(payload["event_model"]),
            censor_model=_model_from_payload(payload["censor_model"]),
            km_median_event=payload["km_median_event"],
            km_median_censor=payload["km_median_censor"],
            is_leaf=payload["is_leaf"],
            stop_reason=payload["stop_reason"],
            split=_split_from_payload(payload["split"]),
            children=tuple(payload["children"]) if payload["children"] else None,
        )
        nodes[node.node_id] = node
    return SurvTree(
        config=config,
        nodes=nodes,
        loglik=doc["loglik"],
        aic=doc["aic"],
        improvements=tuple((i, d) for i, d in doc["improvements"]),
    )


def save_tree(tree: SurvTree, path: str, schema=None, deterministic=False):
    doc = tree_to_document(tree, schema=schema, deterministic=deterministic)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_tree(path: str) -> SurvTree:
    with open(path, encoding="utf-8") as fh:
        return document_to_tree(json.load(fh))


# --- presentation ----------------------------------------------------------


def _format_median(value) -> str:
    return "none" if value is None else f"{value:g}"


def _edge_labels(split: SplitInfo):
    if split.kind == CATEGORICAL:
        levels = ", ".join(str(v) for v in split.cutpoint)
        return f"{split.variable} in {{{levels}}}", "otherwise"
    return (
        f"{split.variable} <= {split.cutpoint:g}",
        f"{split.variable} > {split.cutpoint:g}",
    )


def render_text(tree: SurvTree) -> str:
    """Indented listing of the tree, one node per line, in pre-order."""
    lines = []
    pending = [(tree.root, "", "")]  # a stack: the left child pops first
    while pending:
        node, prefix, edge = pending.pop()
        med_t = _format_median(node.km_median_event)
        med_c = _format_median(node.km_median_censor)
        head = f"{prefix}[{node.node_id}]"
        if edge:
            head += f" {edge}:"
        head += f" n={node.n} d={node.d} medT={med_t} medC={med_c}"
        if node.is_leaf:
            lines.append(head + f" <leaf:{node.stop_reason}>")
            continue
        split = node.split
        lines.append(head + (
            f" | split {split.variable} ({split.mode}) "
            f"LR={split.statistic:.3f} p={split.adjusted_p:.4g}"
        ))
        left_label, right_label = _edge_labels(split)
        left, right = (tree.nodes[child] for child in node.children)
        pending.append((right, prefix + "  ", right_label))
        pending.append((left, prefix + "  ", left_label))
    return "\n".join(lines)


def tree_to_dot(tree: SurvTree) -> str:
    """Graphviz rendering with split rules on the edges."""
    lines = ["digraph survtree {", "  node [shape=box, fontsize=10];"]
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        label = (
            f"#{node.node_id}\\nn={node.n} d={node.d}"
            f"\\nmedT={_format_median(node.km_median_event)}"
            f" medC={_format_median(node.km_median_censor)}"
        )
        if node.is_leaf:
            label += f"\\n{node.stop_reason}"
        lines.append(f'  n{node.node_id} [label="{label}"];')
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        if node.is_leaf:
            continue
        for child, text in zip(node.children, _edge_labels(node.split)):
            # a name or level may hold the quote or backslash of DOT's strings
            text = text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{node.node_id} -> n{child} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


KM_COLUMNS = ("leaf", "flavor", "time", "surv", "n.risk", "n.event")


def km_leaf_rows(tree: SurvTree, data: SurvivalDataset) -> list:
    """Per-leaf product-limit curves as ``(leaf_id, flavor, KMCurve)``.

    Leaves come in node-id order with the subjects ``tree.leaf_subjects``
    routes to them, each with its event curve and then its censoring
    curve; a curve with no exact times is left out.  Both curves of a
    leaf share one sort of its times.
    """
    curves = []
    for leaf_id, idx in leaf_subjects(tree, data).items():
        times, events = data.times[idx], data.events[idx]
        order = sort_order(times)
        for flavor in ("event", "censor"):
            curve = km_fit(times, events, flavor=flavor, order=order)
            if curve.times.size:
                curves.append((leaf_id, flavor, curve))
    return curves


def km_curve_csv(leaf_id: int, flavor: str, curve: KMCurve) -> str:
    """The ``KM_COLUMNS`` rows of one curve, as a default-dialect
    ``csv.writer`` writes them: CRLF line ends, no quotes, and each float
    in its shortest round-trip repr (``%r``, which is ``str(float)``)."""
    line = f"{leaf_id:d},{flavor},%r,%r,%d,%d\r\n"
    return "".join(map(line.__mod__, zip(
        curve.times.tolist(),
        curve.survival.tolist(),
        curve.at_risk.tolist(),
        curve.n_events.tolist(),
    )))


def write_csv_rows(fh, rows: list):
    """Write dict rows with the union of keys, in first-seen order."""
    fieldnames = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.DictWriter(fh, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)


def rows_to_csv_text(rows: list) -> str:
    buf = io.StringIO()
    write_csv_rows(buf, rows)
    return buf.getvalue()
