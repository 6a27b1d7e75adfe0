import hashlib
import json
import os
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
    document_to_tree,
    grow,
    load_csv,
    load_tree,
    parse_variable_flags,
    predict_node,
    render_text,
    save_tree,
    tree_to_document,
)
from survcart import dataio
from survcart.cli import EXIT_CONFIG, EXIT_DATA, EXIT_FIT, EXIT_OK, EXIT_SPEC, main
from survcart.dataio import KM_COLUMNS, km_leaf_rows, rows_to_csv_text, tree_to_dot
from survcart.datasets import CovariateSpec
from survcart.km import km_fit

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
    assert data.subject_ids.tolist() == ["1", "2", "3", "4", "5"]
    assert np.isnan(data.covariate("age")).sum() == 1
    assert data.missing_mask("group").sum() == 1


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
    assert got.subject_ids.tolist() == want.subject_ids.tolist()
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
    rows = km_leaf_rows(tree, data)
    assert all(len(row) == len(KM_COLUMNS) for row in rows)
    curves = {}
    for leaf, flavor, *cells in rows:
        curves.setdefault((leaf, flavor), []).append(tuple(cells))
    expected = {}
    for leaf in sorted(tree.leaves(), key=lambda n: n.node_id):
        idx = leaf.subject_index
        for flavor in ("event", "censor"):
            curve = km_fit(data.times[idx], data.events[idx], flavor=flavor)
            cells = list(zip(
                curve.times.tolist(), curve.survival.tolist(),
                curve.at_risk.tolist(), curve.n_events.tolist()))
            if cells:  # a curve with no exact times has no rows
                expected[(leaf.node_id, flavor)] = cells
    assert curves == expected
    # leaves in node-id order, each event curve before its censor curve
    assert list(curves) == list(expected)
    # plain Python numbers, so str() is the shortest repr
    assert all(type(t) is float and type(s) is float and type(r) is int
               and type(e) is int for _, _, t, s, r, e in rows)


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


def test_cli_fit_model_failure_is_fit_error(tmp_path, capsys):
    # small random data on which a lognormal information matrix comes
    # out singular: a one-line error and exit code 5, not a traceback
    rng = np.random.default_rng(0)
    n = rng.integers(8, 120)
    t = rng.exponential(1.0, n)
    e = rng.random(n) < 0.6
    x = rng.normal(size=n)
    path = tmp_path / "fail.csv"
    path.write_text("time,status,x\n" + "".join(
        f"{ti!r},{int(ei)},{xi!r}\n"
        for ti, ei, xi in zip(t.tolist(), e.tolist(), x.tolist())))
    code = main([
        "fit", "--data", str(path), "--time", "time", "--event", "status",
        "--vars", "x:cont", "--alpha", "0.5", "--minsplit", "4",
        "--minbucket", "2", "--time-dist", "lognormal",
        "--cens-dist", "lognormal",
    ])
    assert code == EXIT_FIT
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


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
    schema = SchemaSpec.from_dict(json.loads(out.read_text())["schema"])
    assert schema == replace(DEMO_SCHEMA, id_column=id_column)

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
