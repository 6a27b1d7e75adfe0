"""The benchmark's three workloads.

Each workload prepares a fixed list of inputs from its seed, runs one
operation on one input through the public API, and checks the
operation's outputs.  ``op_s`` of a run is the sum over the inputs of
each input's median operation time, divided by ``ops_per_round``.

* ``fit_large``: the user-facing ``survcart fit`` path on 12,000-row
  CSVs.  The continuous split search dominates its time and peak RSS;
  ``simlab`` is not used.  Fit time depends on the tree a dataset
  grows, so a run fits several datasets of its seed and averages their
  medians, which keeps ``op_s`` steady across seeds.
* ``recovery``: the paper's structure-recovery experiment, hundreds of
  small nodes per operation; ``stability.variable_test``, the per-node
  ``datasets``/``km`` calls and (through the weibull/exponential
  config) the Weibull fit.  Its traced run adds the location-scale
  probe (``diagnostics.location_scale_probe``), which grows the
  weibull/lognormal config outside the timed operations, because that
  config aborts ``grow`` on some seeds (ROADMAP item 3).
* ``rejection``: the size and power cells, thousands of tiny fit ->
  score -> bridge-test calls with no tree, no split search and no
  ``subset``; the bypass workload for split-search and node-workspace
  changes.  Each cell is one operation, so the reference kernel runs
  between the two and each gets its own median.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
from pathlib import Path

from survcart import cli
from survcart.simlab import (
    TreeRecoveryDesign,
    generate_tree_data,
    parse_spec,
    replicate_rng,
    run_spec,
)

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

FIT_VARS = "X1:cat,X2:cont,X3:cont,X4:cont,X5:cat,X6:cat"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def with_replicates(spec, replicates, **design_changes):
    design = dataclasses.replace(spec.design, replicates=replicates, **design_changes)
    return dataclasses.replace(spec, design=design)


def row_problems(row, expected, label):
    """Exact comparison on the recorded columns; extra columns are allowed."""
    missing = [key for key in expected if key not in row]
    if missing:
        return [f"{label}: columns {missing} missing"]
    got = {key: row[key] for key in expected}
    if canonical(got) != canonical(expected):
        return [f"{label}: row differs from the recorded output\n"
                f"  got      {canonical(got)}\n  expected {canonical(expected)}"]
    return []


def estimate_problems(row, label):
    problems = []
    if not 0.0 <= float(row["estimate"]) <= 1.0:
        problems.append(f"{label}: estimate {row['estimate']} outside [0, 1]")
    if "modal_leaves" in row and int(row["modal_leaves"]) < 1:
        problems.append(f"{label}: modal_leaves {row['modal_leaves']} < 1")
    return problems


def recovery_spec(smoke):
    """The benchmark's tree-recovery spec (tiny in smoke mode)."""
    spec = parse_spec((HERE / "specs" / "tree_recovery.spec").read_text(encoding="utf-8"))
    return with_replicates(spec, 2, n_per_subgroup=40) if smoke else spec


class Workload:
    """Inputs from a seed, one operation per input, and its output check.

    Subclasses provide ``prepare() -> inputs``, ``run(input) -> output``,
    ``check(input, output) -> [problem, ...]``, ``items_per_round()`` and
    ``provenance()``.
    """

    name = ""
    default_seed = 0
    ops_per_round = 1
    item = ""           # what one unit of throughput is
    # span-name prefixes this workload must reach in the traced run
    required = ()
    # whether the traced run adds diagnostics.location_scale_probe
    location_scale_probe = False

    def __init__(self, root: Path, out_dir: Path, seed: int, smoke: bool):
        self.root = root
        self.out_dir = out_dir
        self.seed = seed
        self.smoke = smoke
        # exact output checks only where outputs were recorded
        self.exact = seed == self.default_seed and not smoke


class FitLarge(Workload):
    name = "fit_large"
    default_seed = 1
    item = "rows fitted"
    required = (
        "dataio.load_csv", "tree.grow", "families.fit.exponential",
        "stability.variable_test", "stability.continuous_test",
        "stability.categorical_test", "families.score_contributions",
        "splitting.candidate_splits.continuous",
        "splitting.candidate_splits.categorical", "datasets.subset",
        "datasets.missing_mask", "km.km_fit", "dataio.save_tree",
        "dataio.km_leaf_rows",
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.n_per_subgroup = 100 if self.smoke else 3000
        self.datasets = 1 if self.smoke else 4
        self.ops_per_round = self.datasets

    def prepare(self):
        design = TreeRecoveryDesign(n_per_subgroup=self.n_per_subgroup)
        for r in range(self.datasets):
            data, _ = generate_tree_data(design, replicate_rng(self.seed, r))
            path = self.out_dir / f"data{r}.csv"
            names = [m.name for m in data.meta]
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["time", "status", *names])
                writer.writerows(zip(
                    data.times.tolist(),
                    data.events.astype(int).tolist(),
                    *(data.columns[name].tolist() for name in names),
                ))
        return list(range(self.datasets))

    def run(self, r):
        argv = [
            "fit", "--data", str(self.out_dir / f"data{r}.csv"),
            "--time", "time", "--event", "status", "--vars", FIT_VARS,
            "--out", str(self.out_dir / f"tree{r}.json"),
            "--km-out", str(self.out_dir / f"km{r}.csv"),
            "--deterministic",
        ]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(argv)
        return code, stdout.getvalue()

    def check(self, r, out):
        code, stdout = out
        if code != 0:
            return [f"dataset {r}: survcart fit exited with {code}"]
        tree_path = self.out_dir / f"tree{r}.json"
        km_path = self.out_dir / f"km{r}.csv"
        if self.exact:
            expected = EXPECTED["fit_large"]["outputs"][r]
            problems = []
            for label, path in (("tree", tree_path), ("km", km_path)):
                if sha256_file(path) != expected[f"{label}_sha256"]:
                    problems.append(f"dataset {r}: {label} output differs from the recorded bytes")
            return problems
        doc = json.loads(tree_path.read_text(encoding="utf-8"))
        leaves = [node for node in doc["nodes"] if node["is_leaf"]]
        problems = []
        if not leaves:
            problems.append(f"dataset {r}: tree has no leaves")
        if "leaves=" not in stdout:
            problems.append(f"dataset {r}: no summary line on stdout")
        with open(km_path, newline="", encoding="utf-8") as fh:
            if len(list(csv.reader(fh))) < 2:
                problems.append(f"dataset {r}: KM CSV has no rows")
        return problems

    def items_per_round(self):
        return 4 * self.n_per_subgroup * self.datasets

    def provenance(self):
        return {"seed": self.seed, "n": 4 * self.n_per_subgroup,
                "datasets": self.datasets, "replicates": None}


class Recovery(Workload):
    name = "recovery"
    default_seed = 424242
    item = "replicates"
    required = (
        "simlab.replicate_rng", "simlab.generate_tree_data", "tree.grow",
        "families.fit.exponential", "families.fit.weibull",
        "stability.variable_test",
        "stability.continuous_test", "stability.categorical_test",
        "families.score_contributions", "splitting.candidate_splits",
        "datasets.subset", "datasets.missing_mask", "km.km_fit",
    )

    location_scale_probe = True

    def __init__(self, *args):
        super().__init__(*args)
        self.spec = recovery_spec(self.smoke)

    def prepare(self):
        return [self.spec]

    def run(self, spec, threads=1):
        return run_spec(spec, self.seed, threads=threads)

    def check(self, spec, rows):
        configs = list(spec.configs)
        got = [row["config"] for row in rows]
        if got != configs:
            return [f"config rows {got}, expected {configs}"]
        problems = []
        exact_rows = EXPECTED["recovery"]["rows"] if self.exact else {}
        for row in rows:
            label = f"tree_recovery[{row['config']}]"
            if row["config"] in exact_rows:
                problems += row_problems(row, exact_rows[row["config"]], label)
            else:
                problems += estimate_problems(row, label)
        return problems

    def items_per_round(self):
        return self.spec.design.replicates

    def provenance(self):
        design = self.spec.design
        return {"seed": self.seed, "n": 4 * design.n_per_subgroup,
                "replicates": design.replicates, "configs": list(self.spec.configs)}


class Rejection(Workload):
    name = "rejection"
    default_seed = 20260821
    item = "replicates"
    required = (
        "simlab.replicate_rng", "simlab.event_rate_instability_p",
        "families.fit.exponential", "families.score_contributions",
        "stability.continuous_test",
    )
    SPECS = ("size_n1000", "power_scenario2")

    def __init__(self, *args):
        super().__init__(*args)
        reps = 40 if self.smoke else 4000
        self.specs = []
        for name in self.SPECS:
            text = (self.root / "scripts" / "specs" / f"{name}.spec").read_text(encoding="utf-8")
            self.specs.append(with_replicates(parse_spec(text), reps))
        self.ops_per_round = len(self.specs)

    def prepare(self):
        return list(range(len(self.specs)))

    def run(self, i):
        return run_spec(self.specs[i], self.seed)

    def check(self, i, rows):
        kind = self.specs[i].kind
        kinds = [row["experiment"] for row in rows]
        if kinds != [kind]:
            return [f"rows {kinds}, expected one {kind} row"]
        if self.exact:
            return row_problems(rows[0], EXPECTED["rejection"]["rows"][i], kind)
        return estimate_problems(rows[0], kind)

    def items_per_round(self):
        return sum(spec.design.replicates for spec in self.specs)

    def provenance(self):
        return {"seed": self.seed,
                "n": {spec.kind: getattr(spec.design, "n", None) or
                      spec.design.n1 + spec.design.n2 for spec in self.specs},
                "replicates": self.specs[0].design.replicates,
                "specs": [f"scripts/specs/{name}.spec" for name in self.SPECS]}


WORKLOADS = {cls.name: cls for cls in (FitLarge, Recovery, Rejection)}
