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

The product-limit export (``survcart fit --km-out``) is a CSV with the
header ``leaf,flavor,time,surv,n.risk,n.event`` (``KM_COLUMNS``) and
one row per grid time of each leaf's event and censoring curves, from
``km_leaf_rows``.  It is written by a default-dialect ``csv.writer``:
CRLF line ends, minimal quoting (no cell needs quotes) and floats in
their shortest round-trip repr (``str(float)``), so the bytes depend
only on the input.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import repeat
from operator import itemgetter

import numpy as np

from . import __version__
from .datasets import CATEGORICAL, CONTINUOUS, CovariateSpec, SurvivalDataset
from .errors import (
    EmptyDatasetError,
    MissingColumnError,
    ParseError,
)
from .families import CheckedInformation, FittedModel
from .km import km_fit
from .tree import SplitInfo, SurvTree, TreeConfig, TreeNode

MISSING_TOKENS = ("", "NA")


@dataclass(frozen=True)
class SchemaSpec:
    """Column mapping for survival CSV files."""

    time_column: str
    event_column: str
    event_value: str = "1"
    variables: tuple = ()
    id_column: str = None

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

    Missing time or event cells abort with a ``ParseError`` naming the
    file line the record ends on (blank lines count) and the column;
    missing partitioning values (empty or NA) are kept as missing and
    the affected subject simply drops out of that variable's tests and
    split candidacy.
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

    times, events, ids = [], [], []
    columns = {v.name: [] for v in schema.variables}
    records, lines = [], []
    for row in reader:
        if row:  # a blank line holds no record
            records.append(row)
            lines.append(reader.line_num)
            if len(records) == _CHUNK_ROWS:
                _convert_records(records, lines, index, width, schema,
                                 times, events, columns, ids)
                records, lines = [], []
    if records:
        _convert_records(records, lines, index, width, schema,
                         times, events, columns, ids)
    if not times:
        raise EmptyDatasetError("file has no data rows")
    return SurvivalDataset(
        times,
        events,
        schema.variables,
        columns,
        np.array(ids, dtype=object) if ids else None,
    )


def _convert_records(records, lines, index, width, schema,
                     times, events, columns, ids):
    """Append the cells of some records to the columns, column by column.

    A bad cell raises the ParseError of the first one, record by record.
    """
    if min(map(len, records)) < width:  # the cells a short row lacks are empty
        records = [row + [""] * (width - len(row)) for row in records]

    def stripped(name):
        return list(map(str.strip, map(itemgetter(index[name]), records)))

    try:
        new_times = list(map(float, stripped(schema.time_column)))
        raw_events = stripped(schema.event_column)
        if any(token in raw_events for token in MISSING_TOKENS):
            raise ValueError("missing event value")
        new_columns = {}
        for spec in schema.variables:
            raw = stripped(spec.name)
            if spec.kind == CONTINUOUS:
                new_columns[spec.name] = [
                    np.nan if v in MISSING_TOKENS else float(v) for v in raw
                ]
            else:
                new_columns[spec.name] = [
                    None if v in MISSING_TOKENS else v for v in raw
                ]
    except ValueError:
        _raise_first_bad_cell(records, lines, index, schema)
        raise
    times.extend(new_times)
    events.extend(raw == schema.event_value for raw in raw_events)
    for name, values in new_columns.items():
        columns[name].extend(values)
    if schema.id_column is not None:
        ids.extend(stripped(schema.id_column))


def _raise_first_bad_cell(records, lines, index, schema):
    """Raise the ParseError of the first bad cell, record by record."""
    time_at, event_at = index[schema.time_column], index[schema.event_column]
    continuous = [spec.name for spec in schema.variables if spec.kind == CONTINUOUS]
    for row, line in zip(records, lines):
        raw_time = row[time_at].strip()
        if raw_time in MISSING_TOKENS:
            raise ParseError(line, schema.time_column, "missing time value")
        try:
            float(raw_time)
        except ValueError:
            raise ParseError(
                line, schema.time_column, f"not a number: {raw_time!r}"
            ) from None
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
    config = tree.config
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "config": {
            "alpha": config.alpha,
            "minsplit": config.minsplit,
            "minbucket": config.minbucket,
            "event_dist": config.event_dist,
            "censor_dist": config.censor_dist,
            "censor_heterogeneity": config.censor_heterogeneity,
            "max_depth": config.max_depth,
        },
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
            subject_index=np.array([], dtype=int),
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
    """Indented listing of the tree, one node per line."""
    lines = []

    def visit(node: TreeNode, prefix: str, edge: str):
        med_t = _format_median(node.km_median_event)
        med_c = _format_median(node.km_median_censor)
        head = f"{prefix}[{node.node_id}]"
        if edge:
            head += f" {edge}:"
        head += f" n={node.n} d={node.d} medT={med_t} medC={med_c}"
        if node.is_leaf:
            head += f" <leaf:{node.stop_reason}>"
            lines.append(head)
            return
        split = node.split
        head += (
            f" | split {split.variable} ({split.mode}) "
            f"LR={split.statistic:.3f} p={split.adjusted_p:.4g}"
        )
        lines.append(head)
        left_label, right_label = _edge_labels(split)
        visit(tree.nodes[node.children[0]], prefix + "  ", left_label)
        visit(tree.nodes[node.children[1]], prefix + "  ", right_label)

    visit(tree.root, "", "")
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
        left_label, right_label = _edge_labels(node.split)
        left, right = node.children
        lines.append(f'  n{node.node_id} -> n{left} [label="{left_label}"];')
        lines.append(f'  n{node.node_id} -> n{right} [label="{right_label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


KM_COLUMNS = ("leaf", "flavor", "time", "surv", "n.risk", "n.event")


def km_leaf_rows(tree: SurvTree, data: SurvivalDataset) -> list:
    """Per-leaf product-limit curves as row tuples in ``KM_COLUMNS`` order.

    Leaves come in node-id order, each with its event curve and then its
    censoring curve; a curve with no exact times has no rows.  Cells are
    Python ints and floats, so a ``csv.writer`` prints the floats in
    their shortest round-trip repr.
    """
    rows = []
    for node in sorted(tree.leaves(), key=lambda n: n.node_id):
        idx = node.subject_index
        times, events = data.times[idx], data.events[idx]
        for flavor in ("event", "censor"):
            curve = km_fit(times, events, flavor=flavor)
            rows.extend(zip(
                repeat(node.node_id),
                repeat(flavor),
                curve.times.tolist(),
                curve.survival.tolist(),
                curve.at_risk.tolist(),
                curve.n_events.tolist(),
            ))
    return rows


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
