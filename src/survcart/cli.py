"""Command line interface.

Subcommands: fit (grow a tree from CSV), stabtest (instability report
for one variable), simulate (run a seeded experiment spec).  Exit
codes: 0 success, 2 data errors (unreadable or malformed input files),
3 configuration errors (bad flags, or an output file that cannot be
written), 4 malformed experiment specs, 5 model fit failures (a
stabtest fit that did not converge or whose information matrix is not
positive definite; fit records such a node as a fit_failure leaf), 6
out of memory (the input is too large for the memory the process may
use).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager

import numpy as np

from .dataio import (
    KM_COLUMNS,
    SchemaSpec,
    km_curve_csv,
    km_leaf_rows,
    load_csv,
    parse_variable_flags,
    render_text,
    rows_to_csv_text,
    save_tree,
    write_csv_rows,
)
from .errors import (
    DataError,
    SpecParseError,
    SurvcartError,
    UnknownVariableError,
)
from .simlab import parse_spec, run_spec
from .stability import variable_test
from .tree import TreeConfig, _fit_pair, grow

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_SPEC = 4
EXIT_FIT = 5
EXIT_MEMORY = 6

# the dynamic loader's message when mmap of a shared library fails, as it
# does when the address space is exhausted
_OUT_OF_MEMORY_IMPORT = "failed to map segment from shared object"

DEFAULT_SEED = 12345
SEED_ENV_VAR = "SURVCART_SEED"


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them to the
    # config-error code instead
    def error(self, message):
        raise _ConfigError(message)


def _add_schema_flags(sub):
    sub.add_argument("--data", required=True, help="input CSV file")
    sub.add_argument("--time", required=True, help="time column name")
    sub.add_argument("--event", required=True, help="event indicator column")
    sub.add_argument(
        "--event-value",
        default="1",
        help="cell value meaning an observed event (default: 1)",
    )
    sub.add_argument("--id", default=None, help="subject id column (checked, not read)")
    sub.add_argument(
        "--vars",
        required=True,
        help="partitioning variables, comma-separated name:cat|name:cont",
    )


def _add_model_flags(sub):
    sub.add_argument(
        "--time-dist",
        default="exponential",
        choices=["exponential", "weibull", "lognormal", "normal"],
        help="event-time family",
    )
    sub.add_argument(
        "--cens-dist",
        default="exponential",
        choices=["exponential", "weibull", "lognormal", "normal"],
        help="censoring-time family",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="survcart", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="grow a survival tree from a CSV file")
    _add_schema_flags(p_fit)
    _add_model_flags(p_fit)
    p_fit.add_argument("--alpha", type=float, default=0.05)
    p_fit.add_argument("--minsplit", type=int, default=50)
    p_fit.add_argument("--minbucket", type=int, default=25)
    p_fit.add_argument("--max-depth", type=int, default=None)
    p_fit.add_argument(
        "--no-censor-heterogeneity",
        action="store_true",
        help="ignore the censoring distribution when growing",
    )
    p_fit.add_argument("--out", default=None, help="write the tree JSON here")
    p_fit.add_argument("--dot", default=None, help="write a DOT rendering here")
    p_fit.add_argument(
        "--km-out", default=None, help="write per-leaf product-limit curves (CSV)"
    )
    p_fit.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the timestamp so output bytes depend only on input",
    )

    p_stab = subs.add_parser(
        "stabtest", help="instability report for one partitioning variable"
    )
    _add_schema_flags(p_stab)
    _add_model_flags(p_stab)
    p_stab.add_argument("--var", required=True, help="variable to test")
    p_stab.add_argument(
        "--no-censor-heterogeneity",
        action="store_true",
        help="test only the event component",
    )

    p_sim = subs.add_parser("simulate", help="run an experiment spec file")
    p_sim.add_argument("--spec", required=True, help="experiment spec file")
    p_sim.add_argument("--out", default=None, help="results CSV (default: stdout)")
    p_sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"base seed (default: spec file, then ${SEED_ENV_VAR}, then "
        f"{DEFAULT_SEED})",
    )
    p_sim.add_argument("--reps", type=int, default=None, help="override replicates")
    p_sim.add_argument("--threads", type=int, default=1)
    return parser


def _load(args) -> tuple:
    variables = parse_variable_flags(args.vars)
    schema = SchemaSpec(
        time_column=args.time,
        event_column=args.event,
        event_value=args.event_value,
        variables=variables,
        id_column=args.id,
    )
    try:
        data = load_csv(args.data, schema)
    except OSError as exc:
        raise DataError(f"cannot read {args.data}: {exc}") from exc
    return schema, data


def _cmd_fit(args) -> int:
    _check_writable(args.out, args.dot, args.km_out)
    schema, data = _load(args)
    config = TreeConfig(
        alpha=args.alpha,
        minsplit=args.minsplit,
        minbucket=args.minbucket,
        event_dist=args.time_dist,
        censor_dist=args.cens_dist,
        censor_heterogeneity=not args.no_censor_heterogeneity,
        max_depth=args.max_depth,
    )
    tree = grow(data, config)
    print(render_text(tree))
    print(
        f"leaves={tree.n_leaves} loglik={tree.loglik:.6f} aic={tree.aic:.6f}"
    )
    if args.out:
        with _writing(args.out):
            save_tree(tree, args.out, schema=schema,
                      deterministic=args.deterministic)
    if args.dot:
        from .dataio import tree_to_dot

        with _writing(args.dot), open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(tree_to_dot(tree))
    if args.km_out:
        curves = km_leaf_rows(tree, data)
        with _writing(args.km_out), open(
            args.km_out, "w", newline="", encoding="utf-8"
        ) as fh:
            fh.write(",".join(KM_COLUMNS) + "\r\n")
            for leaf_id, flavor, curve in curves:
                fh.write(km_curve_csv(leaf_id, flavor, curve))
    return EXIT_OK


def _check_writable(*paths):
    """Fail fast, as ``_writing`` would, on an output path that names a
    directory, whose directory is missing or not writable, or that names
    an existing file that is not writable; None stands for an output not
    asked for."""
    for path in paths:
        if path is None:
            continue
        folder = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(folder):
            code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        elif not os.access(folder, os.W_OK | os.X_OK) or (
                os.path.exists(path) and not os.access(path, os.W_OK)):
            code = errno.EACCES
        else:
            continue
        raise _ConfigError(f"cannot write {path}: {os.strerror(code)}")


@contextmanager
def _writing(path):
    """Report an OSError while writing the output file ``path`` as a bad flag."""
    try:
        yield
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_stabtest(args) -> int:
    schema, data = _load(args)
    if args.var not in {v.name for v in schema.variables}:
        raise _ConfigError(f"--var {args.var!r} is not among --vars")
    censor_enabled = not args.no_censor_heterogeneity
    event_model, censor_model = _fit_pair(
        TreeConfig(
            event_dist=args.time_dist,
            censor_dist=args.cens_dist,
            censor_heterogeneity=censor_enabled,
        ),
        data,
    )
    report = variable_test(
        data, args.var, event_model, censor_model, censor_enabled=censor_enabled
    )
    print(f"variable {report.variable} ({report.kind}), n={report.n_used}, "
          f"groups={report.n_groups}")
    for ct in (report.event, report.censor):
        if not ct.tested:
            print(f"  {ct.component}: skipped ({ct.skip_reason}), p=1")
            continue
        parts = ", ".join(
            f"{label}: stat={stat:.6g} p={p:.6g}" for label, stat, p in ct.entries
        )
        print(f"  {ct.component}: {parts} -> component p={ct.component_p:.6g}")
    print(
        f"  overall p={report.variable_p:.6g}, "
        f"more heterogeneous: {report.more_heterogeneous}"
    )
    rows = []
    for ct, cross in zip((report.event, report.censor), report.cross_adjusted):
        if ct.tested:
            rows.extend(
                _stabtest_row(report, ct, cross, label, stat, raw, adj)
                for (label, stat, raw), adj in zip(ct.entries, ct.adjusted)
            )
        else:
            rows.append(_stabtest_row(report, ct, cross, ct.skip_reason))
    print(rows_to_csv_text(rows), end="")
    return EXIT_OK


def _stabtest_row(report, ct, cross, label, stat="", raw="", adj=""):
    """One CSV row of a component's test; a skipped one has no statistic."""
    return {
        "variable": report.variable,
        "kind": report.kind,
        "component": ct.component,
        "tested": ct.tested,
        "label": label,
        "statistic": stat,
        "raw_p": raw,
        "within_adjusted_p": adj,
        "component_p": ct.component_p,
        "cross_adjusted_p": cross,
        "variable_p": report.variable_p,
        "mode": report.more_heterogeneous,
    }


def _resolve_seed(args, spec) -> int:
    if args.seed is not None:
        return args.seed
    if spec.seed is not None:
        return spec.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _cmd_simulate(args) -> int:
    _check_writable(args.out)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {args.spec}: {exc}") from exc
    spec = parse_spec(text)
    if args.reps is not None:
        if args.reps < 1:
            raise SpecParseError("replicates must be at least 1")
        spec = _override_reps(spec, args.reps)
    if args.threads < 1:
        raise _ConfigError("--threads must be at least 1")
    seed = _resolve_seed(args, spec)
    rows = run_spec(spec, seed, threads=args.threads)
    for row in rows:
        print(_summary_line(row))
    if args.out:
        with _writing(args.out), open(
            args.out, "w", newline="", encoding="utf-8"
        ) as fh:
            write_csv_rows(fh, rows)
    else:
        sys.stdout.write(rows_to_csv_text(rows))
    return EXIT_OK


def _summary_line(row) -> str:
    if row["experiment"] == "tree_recovery":
        return (
            f"# tree_recovery[{row['config']}]: "
            f"x1_first={100.0 * row['estimate']:.1f}% "
            f"modal_leaves={row['modal_leaves']} "
            f"median_delta_event={row['median_delta_event_pct']:.1f}% "
            f"median_delta_censor={row['median_delta_censor_pct']:.1f}% "
            f"reps={row['replicates']} seed={row['seed']}"
        )
    return (
        f"# {row['experiment']}: rejection={100.0 * row['estimate']:.2f}% "
        f"ci=[{100.0 * row['ci_low']:.2f}%, {100.0 * row['ci_high']:.2f}%] "
        f"reps={row['replicates']} seed={row['seed']}"
    )


def _override_reps(spec, reps):
    from dataclasses import replace

    try:
        design = replace(spec.design, replicates=reps)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc
    return replace(spec, design=design)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a fit that overflows at an extreme time unit fails or is a
        # fit_failure leaf, so numpy's floating-point warnings say nothing
        with np.errstate(all="ignore"):
            if args.command == "fit":
                return _cmd_fit(args)
            if args.command == "stabtest":
                return _cmd_stabtest(args)
            return _cmd_simulate(args)
    except (_ConfigError, ValueError, UnknownVariableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SurvcartError as exc:
        print(f"error: model fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_MEMORY
    except ImportError as exc:
        # scipy.special is imported at the first categorical test; near
        # the memory limit the loader cannot map its shared libraries
        if _OUT_OF_MEMORY_IMPORT not in str(exc):
            raise
        print("error: out of memory", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
