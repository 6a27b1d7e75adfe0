import builtins
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survcart import (
    EmptyDatasetError,
    MissingColumnError,
    ParseError,
    SchemaSpec,
    TreeConfig,
    TreeRecoveryDesign,
    document_to_tree,
    grow,
    load_csv,
    load_tree,
    parse_variable_flags,
    predict_node,
    render_text,
    replicate_rng,
    save_tree,
    tree_to_document,
)
from survcart import dataio, families
from survcart.cli import (
    EXIT_CONFIG, EXIT_DATA, EXIT_FIT, EXIT_MEMORY, EXIT_OK, EXIT_SPEC, main,
)
from survcart.dataio import km_curve_csv, km_leaf_rows, rows_to_csv_text, tree_to_dot
from survcart.datasets import CovariateSpec
from survcart.km import KMCurve, km_fit
from survcart.simlab import generate_tree_data

from conftest import dict_rows_load_csv, rng_for


DEMO_SCHEMA = SchemaSpec(
    time_column="time",
    event_column="status",
    event_value="1",
    variables=(CovariateSpec("age", "continuous"),
               CovariateSpec("group", "categorical")),
    id_column="id",
)


# --- CSV loading -----------------------------------------------------------

def test_load_csv_happy_path(demo_csv):
    data = load_csv(demo_csv, DEMO_SCHEMA)
    assert data.n == 5
    assert data.n_events == 3
    assert np.isnan(data.covariate("age")).sum() == 1
    assert data.missing_mask("group").sum() == 1
    # the id column is required, and recorded in the schema, not read
    with pytest.raises(MissingColumnError, match="'patient'"):
        load_csv(demo_csv, replace(DEMO_SCHEMA, id_column="patient"))
    assert DEMO_SCHEMA.to_dict()["id"] == "id"


def test_load_csv_event_value_comparison_is_textual(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,status\n1.0,dead\n2.0,alive\n3.0,dead\n")
    schema = SchemaSpec("time", "status", event_value="dead")
    data = load_csv(str(path), schema)
    assert data.events.tolist() == [True, False, True]


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,status\n1.0,1\n")
    with pytest.raises(MissingColumnError):
        load_csv(str(path), DEMO_SCHEMA)


def test_load_csv_missing_time_cell_reports_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,status\n1.0,1\n,0\n")
    schema = SchemaSpec("time", "status")
    with pytest.raises(ParseError) as err:
        load_csv(str(path), schema)
    assert err.value.row == 3
    assert err.value.column == "time"


def test_load_csv_nonnumeric_continuous_reports_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,status,age\n1.0,1,62\n2.0,0,young\n")
    schema = SchemaSpec("time", "status",
                        variables=(CovariateSpec("age", "continuous"),))
    with pytest.raises(ParseError) as err:
        load_csv(str(path), schema)
    assert err.value.row == 3
    assert err.value.column == "age"


def test_load_csv_empty_file_and_header_only(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_csv(str(empty), SchemaSpec("time", "status"))
    header = tmp_path / "h.csv"
    header.write_text("time,status\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(str(header), SchemaSpec("time", "status"))


def test_load_csv_parse_error_names_the_file_line(tmp_path):
    # the blank third line counts: the bad cell sits on line 5
    path = tmp_path / "t.csv"
    path.write_text("time,status,age\n1.0,1,0.5\n\n2.0,0\n3.0,1,abc\n")
    schema = SchemaSpec("time", "status",
                        variables=(CovariateSpec("age", "continuous"),))
    with pytest.raises(ParseError) as err:
        load_csv(str(path), schema)
    assert err.value.row == 5
    assert err.value.column == "age"


@pytest.mark.parametrize("chunk", [2, 1024])
@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", " NaN ", "1e400"])
def test_load_csv_non_finite_time_names_the_file_line(tmp_path, cell, chunk):
    # the blank third line counts: the bad time sits on line 5, in the
    # second chunk of two records
    path = tmp_path / "t.csv"
    path.write_text(f"time,status,age\n1.0,1,0.5\n\n2.0,0,\n{cell},1,3\n4,0,x\n")
    schema = SchemaSpec("time", "status",
                        variables=(CovariateSpec("age", "continuous"),))
    with patch.object(dataio, "_CHUNK_ROWS", chunk), \
            pytest.raises(ParseError) as err:
        load_csv(str(path), schema)
    assert err.value.row == 5
    assert err.value.column == "time"
    assert str(err.value) == (
        f"row 5, column 'time': not a finite number: {cell.strip()!r}")


def test_cli_fit_non_finite_time_is_a_data_error_with_its_line(tmp_path,
                                                                capsys):
    path = tmp_path / "t.csv"
    rows = [f"{1 + i % 7},{i % 2},{i}" for i in range(30)]
    rows[20] = "inf,1,20"
    path.write_text("time,status,x\n" + "\n".join(rows) + "\n")
    code = main(["fit", "--data", str(path), "--time", "time",
                 "--event", "status", "--vars", "x:cont"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: row 22, column 'time': not a finite number: 'inf'\n")


def _csv_cell(kind):
    plain = st.sampled_from({
        "time": ["1", "2.5", "0.125", "7e1", "3"],
        "number": ["1", "2.5", "0.125", "-7e1", "nan", "inf"],
        "label": ["a", "b", "B", "a,b", 'q"t', "two\nlines"],
        "status": ["1", "0", " 1", "dead"],
        "id": ["7", "id 8", "NA", ""],
    }[kind])
    missing = st.sampled_from(["", "NA", " NA ", "  "])
    bad = st.sampled_from(["abc", "1.2.3", "--1", "x1"])
    # about one cell in six missing, one in twelve not a number
    text = st.tuples(plain, missing, bad, st.integers(0, 11)).map(
        lambda c: c[2] if c[3] == 0 else c[1] if c[3] == 1 else c[0])
    return st.tuples(text, st.integers(0, 2), st.booleans())


def _render_cell(cell):
    text, pad, quoted = cell
    text = " " * pad + text + " " * (pad % 2)
    if quoted or any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


_CSV_KINDS = ("id", "time", "status", "number", "label", "number")


@given(
    rows=st.lists(
        st.one_of(
            *[st.tuples(*(_csv_cell(kind) for kind in _CSV_KINDS))] * 5,
            st.just(None),  # a blank line
        ),
        min_size=1,
        max_size=8,
    ),
    cut=st.lists(st.integers(-3, 2), min_size=8, max_size=8),
    with_id=st.booleans(),
    chunk=st.sampled_from([1, 3, 1024]),
)
@settings(max_examples=300, deadline=None)
def test_load_csv_equals_dict_rows_oracle(tmp_path_factory, rows, cut, with_id,
                                          chunk):
    # the same dataset, or the same error, as reading one dict per row,
    # whatever the number of records converted at a time
    header = "id,time,status,age,group,score"
    lines = [header]
    for i, row in enumerate(rows):
        if row is None:
            lines.append("")
            continue
        cells = [_render_cell(c) for c in row]
        shift = cut[i % len(cut)]
        if shift < 0:  # a short row
            cells = cells[:shift]
        else:  # a long row
            cells += ["9"] * shift
        lines.append(",".join(cells))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = SchemaSpec(
        "time", "status",
        variables=(CovariateSpec("age", "continuous"),
                   CovariateSpec("group", "categorical"),
                   CovariateSpec("score", "continuous")),
        id_column="id" if with_id else None,
    )
    outcomes = []
    for load in (load_csv, dict_rows_load_csv):
        try:
            with patch.object(dataio, "_CHUNK_ROWS", chunk):
                outcomes.append(load(str(path), schema))
        except Exception as exc:  # compared below, class and message
            outcomes.append(exc)
    got, want = outcomes
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.events, want.events)
    for name in ("age", "score"):
        assert np.array_equal(got.covariate(name), want.covariate(name),
                              equal_nan=True)
    assert got.levels["group"].tolist() == want.levels["group"].tolist()
    assert got.covariate("group").tolist() == want.covariate("group").tolist()


def test_parse_variable_flags():
    specs = parse_variable_flags("age:cont, group:cat,score:continuous")
    assert [(s.name, s.kind) for s in specs] == [
        ("age", "continuous"), ("group", "categorical"),
        ("score", "continuous")]
    with pytest.raises(ValueError):
        parse_variable_flags("age")
    with pytest.raises(ValueError):
        parse_variable_flags("age:ordinal")
    with pytest.raises(ValueError):
        parse_variable_flags(" , ")


# --- tree documents --------------------------------------------------------

def grown_tree():
    rng = rng_for(601, 0)
    n = 300
    g = np.repeat([0.0, 1.0], n // 2)
    rng.shuffle(g)
    rates = np.where(g > 0.5, 0.3, 0.03)
    ev = rng.exponential(1.0 / rates)
    ce = rng.exponential(20.0, n)
    times = np.minimum(ev, ce)
    events = ev <= ce
    from survcart import SurvivalDataset

    data = SurvivalDataset(
        times, events,
        meta=(CovariateSpec("g", "continuous"),
              CovariateSpec("noise", "continuous")),
        columns={"g": g, "noise": rng.uniform(0, 1, n)},
    )
    return grow(data, TreeConfig(minsplit=40, minbucket=20)), data


def test_tree_document_round_trip(tmp_path):
    tree, data = grown_tree()
    path = tmp_path / "tree.json"
    save_tree(tree, str(path))
    loaded = load_tree(str(path))
    assert loaded.n_leaves == tree.n_leaves
    assert loaded.loglik == pytest.approx(tree.loglik, abs=1e-12)
    assert loaded.aic == pytest.approx(tree.aic, abs=1e-12)
    for i in range(data.n):
        cov = {m.name: data.covariate(m.name)[i] for m in data.meta}
        assert predict_node(loaded, cov) == predict_node(tree, cov)


def test_tree_document_shape():
    tree, _ = grown_tree()
    doc = tree_to_document(tree)
    assert doc["format"] == "survcart-tree"
    assert doc["format_version"] == 1
    assert "created" in doc
    root = next(n for n in doc["nodes"] if n["id"] == 1)
    assert root["split"]["variable"] == "g"
    rebuilt = document_to_tree(json.loads(json.dumps(doc)))
    assert rebuilt.n_leaves == tree.n_leaves


def test_weibull_document_with_shape_rate_params_loads_and_routes_the_same():
    # a document written while the Weibull was fitted as (shape, rate)
    # holds those params: they load as they are and routing is unchanged
    _, data = grown_tree()
    tree = grow(data, TreeConfig(minsplit=40, minbucket=20, event_dist="weibull"))
    assert tree.n_leaves > 1
    doc = tree_to_document(tree)
    for node in doc["nodes"]:
        mu, sigma = node["event_model"]["params"]
        node["event_model"]["params"] = [1.0 / sigma, math.exp(-mu / sigma)]
    loaded = document_to_tree(json.loads(json.dumps(doc)))
    for node in doc["nodes"]:
        got = loaded.nodes[node["id"]].event_model.params
        assert got.tolist() == node["event_model"]["params"]
    for i in range(data.n):
        cov = {m.name: data.covariate(m.name)[i] for m in data.meta}
        assert predict_node(loaded, cov) == predict_node(tree, cov)


def test_deterministic_document_is_byte_stable(tmp_path):
    tree, _ = grown_tree()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(tree, str(p1), deterministic=True)
    save_tree(tree, str(p2), deterministic=True)
    assert p1.read_bytes() == p2.read_bytes()
    assert "created" not in json.loads(p1.read_text())


def test_render_text_mentions_structure():
    tree, _ = grown_tree()
    text = render_text(tree)
    assert "g <=" in text
    assert "n=" in text and "d=" in text
    assert text.count("\n") >= tree.n_leaves


def test_tree_to_dot_is_valid_digraph():
    tree, _ = grown_tree()
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    for node in tree.nodes.values():
        assert f"n{node.node_id}" in dot
    assert dot.count("->") == len(tree.nodes) - 1


def test_km_leaf_rows_match_direct_fits():
    tree, data = grown_tree()
    curves = km_leaf_rows(tree, data)
    got = {(leaf, flavor): curve for leaf, flavor, curve in curves}
    assert len(got) == len(curves)
    expected = {}
    for leaf in sorted(tree.leaves(), key=lambda n: n.node_id):
        idx = leaf.subject_index
        for flavor in ("event", "censor"):
            curve = km_fit(data.times[idx], data.events[idx], flavor=flavor)
            if curve.times.size:  # a curve with no exact times is left out
                expected[(leaf.node_id, flavor)] = curve
    # leaves in node-id order, each event curve before its censor curve
    assert list(got) == list(expected)
    for key, curve in expected.items():
        assert got[key].flavor == curve.flavor
        for field in ("times", "survival", "at_risk", "n_events"):
            assert np.array_equal(getattr(got[key], field), getattr(curve, field))


def test_km_leaf_rows_sorts_each_leaf_once(monkeypatch):
    # both flavors of a leaf get the same order, the stable sort of its times
    tree, data = grown_tree()
    calls = []

    def spy(times, events, flavor, order=None):
        calls.append((times, order))
        return km_fit(times, events, flavor=flavor, order=order)

    monkeypatch.setattr(dataio, "km_fit", spy)
    km_leaf_rows(tree, data)
    assert len(calls) == 2 * tree.n_leaves
    for (times, order), (_, other) in zip(calls[::2], calls[1::2]):
        assert order is other
        assert np.array_equal(order, np.argsort(times, kind="stable"))


# cells csv.writer prints with care: the smallest subnormal, powers of ten
# where repr switches to exponent form, a sum with a long repr, the
# largest float, an integral float, a zero survival and a negative zero
AWKWARD_FLOATS = (5e-324, 1e-05, 1e16, 0.1 + 0.2, 1.7976931348623157e308,
                  3.0, 0.0, -0.0, 1e-4, 123456789012345.6)


def csv_writer_text(leaf, flavor, curve):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(
        (leaf, flavor, t, s, r, e) for t, s, r, e in zip(
            curve.times.tolist(), curve.survival.tolist(),
            curve.at_risk.tolist(), curve.n_events.tolist()))
    return buf.getvalue()


def test_km_curve_csv_awkward_floats_equal_csv_writer_bytes():
    floats = np.array(AWKWARD_FLOATS)
    curve = KMCurve("event", floats, floats[::-1].copy(),
                    np.arange(floats.size, 0, -1), np.ones(floats.size, dtype=np.intp))
    text = km_curve_csv(3, "event", curve)
    assert text == csv_writer_text(3, "event", curve)
    assert text.split("\r\n")[:3] == [
        "3,event,5e-324,123456789012345.6,10,1",
        "3,event,1e-05,0.0001,9,1",
        "3,event,1e+16,-0.0,8,1",
    ]
    assert "0.30000000000000004" in text and ",0.0," in text


@given(
    cells=st.lists(
        st.tuples(st.sampled_from(AWKWARD_FLOATS) | st.floats(allow_nan=False),
                  st.sampled_from(AWKWARD_FLOATS) | st.floats(0.0, 1.0),
                  st.integers(1, 10**6), st.integers(0, 10**6)),
        min_size=1, max_size=6),
    leaf=st.integers(1, 10**4),
    flavor=st.sampled_from(["event", "censor"]),
)
@settings(max_examples=200, deadline=None)
def test_km_curve_csv_equals_csv_writer_bytes(cells, leaf, flavor):
    times, surv, at_risk, n_events = (np.array(c) for c in zip(*cells))
    curve = KMCurve(flavor, times, surv, at_risk, n_events)
    assert km_curve_csv(leaf, flavor, curve) == csv_writer_text(leaf, flavor, curve)


def test_rows_to_csv_text_union_header():
    text = rows_to_csv_text([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    lines = text.strip().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2,"
    assert lines[2] == "3,,4"


# --- CLI -------------------------------------------------------------------

FIT_ARGS = ["fit", "--time", "time", "--event", "status",
            "--vars", "age:cont,group:cat", "--id", "id",
            "--minsplit", "4", "--minbucket", "2"]


def test_cli_fit_happy_path(demo_csv, tmp_path, capsys):
    out = tmp_path / "tree.json"
    code = main(FIT_ARGS + ["--data", demo_csv, "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "leaves=" in printed and "aic=" in printed
    assert out.exists()
    loaded = load_tree(str(out))
    assert loaded.n_leaves >= 1


EXTREME_UNITS = (1e300, 1e305, 1e-318)


@pytest.fixture(scope="module")
def extreme_unit_csvs(tmp_path_factory):
    """The four-subgroup design (1,200 rows) with its times in extreme units.

    At 1e300 the exponential information overflows, at 1e305 the sum of
    the times does, and at 1e-318 the times are subnormal.
    """
    data, _ = generate_tree_data(TreeRecoveryDesign(n_per_subgroup=300),
                                 replicate_rng(1, 0))
    names = [m.name for m in data.meta]
    columns = [data.covariate(name) for name in names]
    paths = {}
    for scale in EXTREME_UNITS:
        path = tmp_path_factory.mktemp("units") / "design.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "status"] + names)
            for i, (t, e) in enumerate(zip(data.times.tolist(), data.events.tolist())):
                writer.writerow([repr(t * scale), int(e)] + [c[i] for c in columns])
        paths[scale] = str(path)
    return paths


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the fits silence their overflows
@pytest.mark.parametrize("scale", EXTREME_UNITS)
@pytest.mark.parametrize("flag", ["--time-dist", "--cens-dist"])
@pytest.mark.parametrize("family", ["exponential", "weibull", "lognormal", "normal"])
def test_cli_fit_never_exits_5_at_extreme_time_units(extreme_unit_csvs, tmp_path,
                                                     capsys, scale, flag, family):
    # a fit whose rate, log likelihood or information leaves the floats is
    # a fit_failure leaf, not an exit 5 (or 3, for a math domain error)
    out = tmp_path / "tree.json"
    code = main(["fit", "--data", extreme_unit_csvs[scale], "--time", "time",
                 "--event", "status",
                 "--vars", "X1:cat,X2:cont,X3:cont,X4:cont,X5:cat,X6:cat",
                 flag, family, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_OK, err
    assert err == ""
    assert load_tree(str(out)).n_leaves >= 1


def test_cli_fit_reads_a_file_with_byte_order_mark(demo_csv, tmp_path, capsys):
    text = open(demo_csv, encoding="utf-8").read()
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfid,")
    out = tmp_path / "tree.json"
    code = main(FIT_ARGS + ["--data", str(path), "--out", str(out)])
    assert code == EXIT_OK, capsys.readouterr().err
    assert load_tree(str(out)).n_leaves >= 1


def test_cli_fit_missing_file_is_data_error(tmp_path, capsys):
    code = main(FIT_ARGS + ["--data", str(tmp_path / "nope.csv")])
    assert code == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_cli_fit_grows_where_a_lognormal_fit_was_singular(tmp_path, capsys):
    # small random data on which a lognormal information matrix once
    # came out singular and `fit` exited 5; a fit that fails inside
    # grow is a recorded stop, so the tree grows (exit 5 stays checked
    # by test_cli_stabtest_weibull_on_tied_times_is_fit_error)
    rng = np.random.default_rng(0)
    n = rng.integers(8, 120)
    t = rng.exponential(1.0, n)
    e = rng.random(n) < 0.6
    x = rng.normal(size=n)
    path = tmp_path / "fail.csv"
    path.write_text("time,status,x\n" + "".join(
        f"{ti!r},{int(ei)},{xi!r}\n"
        for ti, ei, xi in zip(t.tolist(), e.tolist(), x.tolist())))
    out = tmp_path / "tree.json"
    code = main([
        "fit", "--data", str(path), "--time", "time", "--event", "status",
        "--vars", "x:cont", "--alpha", "0.5", "--minsplit", "4",
        "--minbucket", "2", "--time-dist", "lognormal",
        "--cens-dist", "lognormal", "--out", str(out),
    ])
    assert code == EXIT_OK, capsys.readouterr().err
    assert load_tree(str(out)).n_leaves == 10


def test_cli_fit_bad_flag_value_is_config_error(demo_csv, capsys):
    code = main(["fit", "--data", demo_csv, "--time", "time",
                 "--event", "status", "--vars", "age:banana"])
    assert code == EXIT_CONFIG
    code = main(["fit", "--data", demo_csv, "--time", "time",
                 "--event", "status", "--vars", "age:cont",
                 "--alpha", "2.0"])
    assert code == EXIT_CONFIG


def test_cli_fit_unknown_column_is_data_error(demo_csv, capsys):
    code = main(["fit", "--data", demo_csv, "--time", "bogus",
                 "--event", "status", "--vars", "age:cont"])
    assert code == EXIT_DATA
    assert "bogus" in capsys.readouterr().err


def test_cli_fit_deterministic_outputs_identical(demo_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(FIT_ARGS + ["--data", demo_csv, "--out", str(path),
                                "--deterministic"])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()



@pytest.mark.parametrize("id_column", ["id", None])
def test_cli_fit_schema_round_trips_through_the_tree_json(demo_csv, tmp_path,
                                                          id_column):
    out = tmp_path / "tree.json"
    args = ["fit", "--data", demo_csv, "--out", str(out), "--deterministic",
            "--time", "time", "--event", "status",
            "--vars", "age:cont,group:cat", "--minsplit", "4", "--minbucket", "2"]
    if id_column is not None:
        args += ["--id", id_column]
    assert main(args) == EXIT_OK
    payload = json.loads(out.read_text())["schema"]
    assert payload == replace(DEMO_SCHEMA, id_column=id_column).to_dict()

def test_cli_fit_writes_dot_and_km(demo_csv, tmp_path):
    dot = tmp_path / "t.dot"
    km = tmp_path / "km.csv"
    code = main(FIT_ARGS + ["--data", demo_csv, "--dot", str(dot),
                            "--km-out", str(km)])
    assert code == EXIT_OK
    assert dot.read_text().startswith("digraph")
    header = km.read_text().splitlines()[0]
    assert "leaf" in header and "surv" in header


def golden_csv(path):
    """60 subjects in three groups of 20, with tied times.

    Group a has early events, b later ones, and c only censorings, so
    with minsplit 10 and minbucket 5 the tree gets a leaf of c alone
    whose event curve has no rows.
    """
    lines = ["id,time,status,x,group"]
    for i in range(60):
        group, k = "abc"[i % 3], i // 3
        if group == "a":
            time, status = 1 + k % 5, int(k % 4 != 3)
        elif group == "b":
            time, status = 6 + 2 * (k % 6), int(k % 3 != 2)
        else:
            time, status = 3 + k % 4, 0
        lines.append(f"{i},{time},{status},{(i * 37 % 60) / 4},{group}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# sha256 of the --km-out file, recorded before the KM export was
# rewritten to write tuple rows in one writerows
GOLDEN_KM_SHA256 = (
    "faa50e798b83c8dd001eae1ceca4be0fb9807e23166d17741811130edfa18aa0")


def test_cli_fit_km_out_golden_bytes(tmp_path):
    data = golden_csv(tmp_path / "golden.csv")
    km = tmp_path / "km.csv"
    code = main(["fit", "--data", data, "--time", "time", "--event", "status",
                 "--id", "id", "--vars", "x:cont,group:cat", "--minsplit", "10",
                 "--minbucket", "5", "--km-out", str(km), "--deterministic"])
    assert code == EXIT_OK
    raw = km.read_bytes()
    assert raw.startswith(b"leaf,flavor,time,surv,n.risk,n.event\r\n")
    # the all-censored leaf has a censor curve and no event rows
    assert b"2,censor," in raw and b"2,event," not in raw
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_KM_SHA256


def signed_zero_csv(path):
    """120 subjects on x in {-1, -0.0, 0.0, 1, 2} with tied integer times.

    The first zero in subject order is 0.0, while np.unique's quicksort
    (numpy 2 on x86-64) lets -0.0 stand for the group, so the root's
    split at x <= -0.5, next to that group, sees the representative
    differ between the stable order and np.unique.
    """
    levels = ("-1.0", "-0.0", "0.0", "1.0", "2.0", "0.0")
    lines = ["id,time,status,x,arm"]
    for i in range(120):
        x = levels[(i * i + 3 * i + i // 7) % 6]
        k = (i * 7) % 11
        value = float(x)
        if value < 0.0:
            time = 1 + k % 3
        elif value == 0.0:
            time = 3 + k % 4
        else:
            time = 6 + k % 5
        lines.append(f"{i},{time},{int(k % 6 != 5)},{x},{'ab'[i % 2]}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# sha256 of the --deterministic tree JSON and the --km-out file on
# signed_zero_csv, recorded while grouping still sorted every node with
# np.unique's quicksort
SIGNED_ZERO_JSON_SHA256 = (
    "5694417a0fd58a791503168347a91e1dd2746bd6994d5bfabc9efc916d4adc2b")
SIGNED_ZERO_KM_SHA256 = (
    "61e92b7a2d8c970c0f922b93aaf6c06436a16196c2ac34832cdcf0d02f83658b")


def test_cli_fit_signed_zero_golden_bytes(tmp_path):
    # which of -0.0 and 0.0 stands for their group never reaches a cutpoint
    data = signed_zero_csv(tmp_path / "zeros.csv")
    out, km = tmp_path / "tree.json", tmp_path / "km.csv"
    code = main(["fit", "--data", data, "--time", "time", "--event", "status",
                 "--id", "id", "--vars", "x:cont,arm:cat", "--minsplit", "10",
                 "--minbucket", "5", "--out", str(out), "--km-out", str(km),
                 "--deterministic"])
    assert code == EXIT_OK
    assert '"cutpoint": -0.5' in out.read_text()
    loaded = load_csv(data, SchemaSpec(
        time_column="time", event_column="status", event_value="1",
        variables=parse_variable_flags("x:cont,arm:cat"), id_column="id"))
    # the stable order lets the first zero in subject order, 0.0, stand
    # for the group
    distinct = loaded.grouping("x").distinct
    assert list(distinct) == [-1.0, 0.0, 1.0, 2.0]
    assert not np.signbit(distinct[1])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIGNED_ZERO_JSON_SHA256
    assert hashlib.sha256(km.read_bytes()).hexdigest() == SIGNED_ZERO_KM_SHA256


# sha256 of save_tree(..., deterministic=True) for the four-subgroup
# design (TreeRecoveryDesign(n_per_subgroup=300), replicate_rng(1, 0)),
# recorded before the per-node test path was made leaner: every node's
# fitted parameters, medians and split p-values, including the
# two-parameter Weibull tests, to the last bit
FOUR_SUBGROUP_TREE_SHA256 = {
    ("weibull", "exponential"):
        "65eb9a9ac89f50a1900fa1ec1e1aa8f9c6e614b2207c2833e8b417f63851fbc1",
    ("weibull", "weibull"):
        "0e16d7fa64bb75c8e2f43e6459fe903eb7def2bc72582d474df1a0752de2a0be",
    ("exponential", "na"):
        "968d38705d13c7a9f6838ed1942dc62c916dbf466898e6aab0f83c1dbc043752",
}


@pytest.mark.parametrize("event_dist, censor_dist",
                         sorted(FOUR_SUBGROUP_TREE_SHA256))
def test_four_subgroup_tree_golden_bytes(tmp_path, event_dist, censor_dist):
    # "na" is the censoring-blind config of a tree-recovery spec
    data, _ = generate_tree_data(TreeRecoveryDesign(n_per_subgroup=300),
                                 replicate_rng(1, 0))
    blind = censor_dist == "na"
    config = TreeConfig(
        event_dist=event_dist,
        censor_dist=TreeConfig.censor_dist if blind else censor_dist,
        censor_heterogeneity=not blind,
    )
    path = tmp_path / "tree.json"
    save_tree(grow(data, config), str(path), deterministic=True)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == FOUR_SUBGROUP_TREE_SHA256[event_dist, censor_dist]


@pytest.mark.parametrize("bad", ["--out", "--dot", "--km-out"])
def test_cli_fit_checks_output_dirs_before_loading(demo_csv, tmp_path, capsys,
                                                   bad):
    outputs = {"--out": tmp_path / "ok.json", "--dot": tmp_path / "ok.dot",
               "--km-out": tmp_path / "ok.csv"}
    outputs[bad] = tmp_path / "no" / "such" / "dir" / "file"
    argv = FIT_ARGS + ["--data", demo_csv]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    with patch("survcart.cli.load_csv", side_effect=AssertionError("loaded")):
        code = main(argv)
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {outputs[bad]}: "
                            "No such file or directory\n")
    assert not any(path.exists() for path in outputs.values())


@pytest.mark.parametrize("name, reason", [
    ("plain.txt/t.json", "Not a directory"),
    ("folder", "Is a directory"),
])
def test_cli_fit_output_path_checked_before_loading(demo_csv, tmp_path,
                                                    capsys, name, reason):
    (tmp_path / "plain.txt").write_text("")
    (tmp_path / "folder").mkdir()
    code = main(FIT_ARGS + ["--data", demo_csv, "--out", str(tmp_path / name)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path / name}: {reason}\n"


@pytest.mark.parametrize("flag", ["--out", "--dot", "--km-out"])
def test_cli_fit_unwritable_output_is_config_error(demo_csv, tmp_path, capsys,
                                                   flag):
    target = tmp_path / "no" / "such" / "file"
    code = main(FIT_ARGS + ["--data", demo_csv, flag, str(target)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--dot", "--km-out"])
def test_cli_fit_existing_read_only_output_checked_before_loading(
        demo_csv, tmp_path, capsys, monkeypatch, flag):
    # file modes do not bind root, so the denial is the access check's
    target = tmp_path / "locked"
    target.write_text("kept")
    other = tmp_path / "other.json"
    access = os.access

    def deny_target(path, mode, **kwargs):
        if os.fspath(path) == str(target) and mode & os.W_OK:
            return False
        return access(path, mode, **kwargs)

    monkeypatch.setattr(os, "access", deny_target)
    args = FIT_ARGS + ["--data", demo_csv, flag, str(target)]
    if flag != "--out":
        args += ["--out", str(other)]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was fitted
    assert captured.err == f"error: cannot write {target}: Permission denied\n"
    assert target.read_text() == "kept" and not other.exists()


def test_cli_stabtest_reports_components(demo_csv, capsys):
    code = main(["stabtest", "--data", demo_csv, "--time", "time",
                 "--event", "status", "--vars", "age:cont,group:cat",
                 "--var", "age"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "age" in out
    lines = out.strip().splitlines()
    header = next(l for l in lines if l.startswith("variable,"))
    assert "component_p" in header and "variable_p" in header


# sha256 of stabtest's stdout on golden_csv, recorded while Hochberg
# still had one-, two- and many-value paths and continuous_test returned
# one result object per sample
GOLDEN_STABTEST_SHA256 = {
    ("x", "exponential"):
        "8c4ac3611c5cc0f5d2946a8b1ac02ea75d69cff70970367677726d82638f5271",
    ("x", "weibull"):
        "fd5104b5be55dc8da57db14be3cae054c15ab44ed6ccdd3069bbcd9d23d3f019",
    ("group", "exponential"):
        "84cd4f2050e0b9d21b07164e2958739fb3ff4785041a77d941e20139fceae87b",
    ("group", "weibull"):
        "c5201e117631fb32bd1eaeadc9a5ce58b15e432400730e36067bc2af29ce78db",
}


@pytest.mark.parametrize("var, dist", sorted(GOLDEN_STABTEST_SHA256))
def test_cli_stabtest_golden_bytes(tmp_path, capsys, var, dist):
    # the Weibull's two parameters run Hochberg within the event component
    data = golden_csv(tmp_path / "golden.csv")
    code = main(["stabtest", "--data", data, "--time", "time", "--event",
                 "status", "--id", "id", "--vars", "x:cont,group:cat",
                 "--var", var, "--time-dist", dist])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STABTEST_SHA256[var, dist]


def test_cli_stabtest_weibull_on_tied_times_is_fit_error(tmp_path, capsys):
    # every event at one time: the Weibull fit has no MLE, which used to
    # escape as an OverflowError traceback
    path = tmp_path / "tied.csv"
    path.write_text("time,status,x\n" + "".join(
        f"0.3,1,{i}\n" for i in range(6)))
    code = main(["stabtest", "--data", str(path), "--time", "time",
                 "--event", "status", "--vars", "x:cont", "--var", "x",
                 "--time-dist", "weibull"])
    assert code == EXIT_FIT
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_cli_stabtest_unknown_variable_is_config_error(demo_csv, capsys):
    code = main(["stabtest", "--data", demo_csv, "--time", "time",
                 "--event", "status", "--vars", "age:cont",
                 "--var", "weight"])
    assert code == EXIT_CONFIG


# Caps the child's address space 40 MiB above its size after the import,
# then runs the CLI; OPENBLAS_NUM_THREADS=1 keeps BLAS thread buffers out
# of that headroom
OUT_OF_MEMORY_CHILD = """
import resource
import sys

from survcart.cli import main

with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (kib * 1024 + 40 * 2**20, hard))
sys.exit(main(sys.argv[1:]))
"""


def run_out_of_memory_fit(tmp_path, factor):
    """survcart fit on 200,000 rows in a child whose address space is
    capped (OUT_OF_MEMORY_CHILD).

    Without ``factor`` the child fits eight continuous covariates.  With
    it the file gains a three-level factor g, and the child fits g and
    one continuous covariate: few enough columns for the file to load
    under the cap, so that the root's first test, g's, imports
    scipy.special there.
    """
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads VmSize from /proc")
    names = [f"x{j}" for j in range(8)]
    variables = [f"{name}:cont" for name in names]
    levels = [""] * 3  # no factor column
    if factor:
        names.insert(0, "g")
        variables = ["g:cat", "x0:cont"]
        levels = ["a,", "b,", "c,"]
    path = tmp_path / "big.csv"
    times = rng_for(650, 0).exponential(10.0, 200_000)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["time", "status"] + names) + "\n")
        fh.writelines(
            f"{t!r},{i % 3 != 0:d},{levels[i % 3]}"
            + ",".join(str(i * k % 997) for k in range(7, 15))
            + "\n" for i, t in enumerate(times.tolist()))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(dataio.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY_CHILD, "fit", "--data", str(path),
         "--time", "time", "--event", "status", "--vars", ",".join(variables)],
        env=env, capture_output=True, text=True, timeout=300)


def test_cli_out_of_memory_is_one_error_line(tmp_path):
    # eight continuous covariates: fit needs about 90 MiB above the
    # import, and loads no scipy
    proc = run_out_of_memory_fit(tmp_path, factor=False)
    assert proc.returncode == EXIT_MEMORY, proc.stderr
    assert proc.stderr == "error: out of memory\n"
    assert "Traceback" not in proc.stdout + proc.stderr


def test_cli_out_of_memory_at_a_categorical_test_is_one_error_line(tmp_path):
    # the factor's test imports scipy.special under the cap, where the
    # loader failed to map libscipy_openblas: that ImportError is out of
    # memory too, not a traceback and exit 1
    proc = run_out_of_memory_fit(tmp_path, factor=True)
    assert proc.returncode == EXIT_MEMORY, proc.stderr
    assert proc.stderr == "error: out of memory\n"
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.fixture
def failing_scipy_import(monkeypatch):
    """Makes ``import scipy.special`` raise the ImportError it is given.

    ``families.scipy_special`` caches the module, so its cache is cleared
    before and after, and the import statement runs again.
    """
    real_import = builtins.__import__

    def install(message):
        def importing(name, *args, **kwargs):
            if name == "scipy.special":
                raise ImportError(message)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", importing)

    families.scipy_special.cache_clear()
    yield install
    monkeypatch.undo()
    families.scipy_special.cache_clear()


def test_cli_fit_maps_an_unmappable_scipy_library_to_out_of_memory(
        tmp_path, capsys, failing_scipy_import):
    # the message the loader gave when scipy.special was first imported
    # near the memory limit, at the first categorical test
    failing_scipy_import(
        "libscipy_openblas-68440149.so: failed to map segment from shared object")
    data = golden_csv(tmp_path / "golden.csv")
    code = main(["fit", "--data", data, "--time", "time", "--event", "status",
                 "--vars", "group:cat,x:cont"])
    assert code == EXIT_MEMORY
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"


def test_cli_fit_lets_any_other_import_error_propagate(
        tmp_path, capsys, failing_scipy_import):
    failing_scipy_import("No module named 'scipy'")
    data = golden_csv(tmp_path / "golden.csv")
    with pytest.raises(ImportError, match="No module named 'scipy'"):
        main(["fit", "--data", data, "--time", "time", "--event", "status",
              "--vars", "group:cat,x:cont"])
    assert capsys.readouterr().err == ""


def test_cli_simulate_deterministic_csv(tmp_path, capsys):
    spec = tmp_path / "size.spec"
    spec.write_text("experiment = size\nrate_event = 0.05\n"
                    "censoring_rate = 0.25\nn = 100\nreplicates = 20\n")
    outputs = []
    for _ in range(2):
        code = main(["simulate", "--spec", str(spec), "--seed", "55"])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("# size: rejection=")
    assert "seed=55" in outputs[0].splitlines()[0]


def test_cli_simulate_seed_precedence(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "size.spec"
    spec.write_text("experiment = size\nn = 100\nreplicates = 5\nseed = 70\n")

    monkeypatch.setenv("SURVCART_SEED", "80")
    assert main(["simulate", "--spec", str(spec), "--seed", "90"]) == EXIT_OK
    assert "seed=90" in capsys.readouterr().out

    assert main(["simulate", "--spec", str(spec)]) == EXIT_OK
    assert "seed=70" in capsys.readouterr().out

    nospec = tmp_path / "noseed.spec"
    nospec.write_text("experiment = size\nn = 100\nreplicates = 5\n")
    assert main(["simulate", "--spec", str(nospec)]) == EXIT_OK
    assert "seed=80" in capsys.readouterr().out

    monkeypatch.delenv("SURVCART_SEED")
    assert main(["simulate", "--spec", str(nospec)]) == EXIT_OK
    assert "seed=12345" in capsys.readouterr().out


def test_cli_simulate_bad_env_seed_is_config_error(tmp_path, capsys,
                                                   monkeypatch):
    spec = tmp_path / "s.spec"
    spec.write_text("experiment = size\nn = 100\nreplicates = 5\n")
    monkeypatch.setenv("SURVCART_SEED", "later")
    assert main(["simulate", "--spec", str(spec)]) == EXIT_CONFIG


def test_cli_simulate_malformed_spec_exit(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("experiment = size\nn = about a thousand\n")
    assert main(["simulate", "--spec", str(bad)]) == EXIT_SPEC
    missing = tmp_path / "gone.spec"
    assert main(["simulate", "--spec", str(missing)]) == EXIT_DATA
    zero = tmp_path / "zero.spec"
    zero.write_text("experiment = size\nn = 100\nreplicates = 5\n")
    assert main(["simulate", "--spec", str(zero), "--reps", "0"]) == EXIT_SPEC


@pytest.mark.parametrize("design, level", [
    ("experiment = size\nn = 100\n", "1.5"),
    ("experiment = size\nn = 100\n", "0"),
    ("experiment = power\nrate_event_1 = 0.05\nrate_event_2 = 0.025\n"
     "rate_censor = 0.03\n", "0"),
    ("experiment = power\nrate_event_1 = 0.05\nrate_event_2 = 0.025\n"
     "rate_censor = 0.03\n", "1.5"),
])
def test_cli_simulate_out_of_range_level_is_spec_error(tmp_path, capsys,
                                                      design, level):
    spec = tmp_path / "level.spec"
    spec.write_text(f"{design}replicates = 5\nlevel = {level}\n")
    assert main(["simulate", "--spec", str(spec)]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert err.startswith("error: level must lie in (0, 1)")
    assert "Traceback" not in err


_POWER_RATES = {"rate_event_1": "0.05", "rate_event_2": "0.025",
                "rate_censor": "0.03"}
_TREE_RATES = "0.05/0.03, 0.025/0.03, 0.01/0.03, 0.01/0.01"


@pytest.mark.parametrize("kind, field, entries", [
    ("size", "rate_event", {"rate_event": "nan"}),
    ("size", "rate_event", {"rate_event": "inf"}),
    ("power", "rate_event_1", {**_POWER_RATES, "rate_event_1": "inf"}),
    ("power", "rate_censor", {**_POWER_RATES, "rate_censor": "inf"}),
    ("tree_recovery", "rates", {"rates": _TREE_RATES.replace("0.05", "nan")}),
    ("tree_recovery", "rates", {"rates": _TREE_RATES.replace("0.01/0.01", "0.01/inf")}),
])
def test_cli_simulate_non_finite_rate_is_spec_error(tmp_path, capsys, kind,
                                                    field, entries):
    # a rate of nan or inf is the spec's fault: exit 4 naming the field,
    # not a data error (exit 2) from the draws it would make
    spec = tmp_path / "rate.spec"
    lines = [f"experiment = {kind}", "replicates = 2"]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    spec.write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--spec", str(spec)]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite")
    assert "Traceback" not in err


def test_cli_simulate_writes_csv_file(tmp_path, capsys):
    spec = tmp_path / "s.spec"
    spec.write_text("experiment = size\nn = 100\nreplicates = 10\n")
    out = tmp_path / "rows.csv"
    code = main(["simulate", "--spec", str(spec), "--seed", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("experiment,")
    assert len(lines) == 2
    # summary still goes to stdout
    assert capsys.readouterr().out.startswith("# size:")


def test_cli_simulate_unwritable_out_is_config_error(tmp_path, capsys):
    spec = tmp_path / "s.spec"
    spec.write_text("experiment = size\nn = 100\nreplicates = 10\n")
    target = tmp_path / "no" / "rows.csv"
    code = main(["simulate", "--spec", str(spec), "--seed", "4",
                 "--out", str(target)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}")
    assert err.count("\n") == 1


def test_cli_simulate_checks_out_dir_before_running(tmp_path, capsys):
    spec = tmp_path / "s.spec"
    spec.write_text("experiment = size\nn = 100\nreplicates = 10\n")
    target = tmp_path / "no" / "rows.csv"
    with patch("survcart.cli.run_spec", side_effect=AssertionError("ran")):
        code = main(["simulate", "--spec", str(spec), "--out", str(target)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {target}: "
                            "No such file or directory\n")
    assert not target.parent.exists()


def test_cli_unknown_subcommand_is_config_error(capsys):
    assert main(["prune"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG
