"""Seeded Monte Carlo experiments for the operating characteristics.

Three designs:

* size: one homogeneous exponential arm, an uninformative ordering
  covariate, rejection rate of the event-rate instability test at the
  5 percent bridge-supremum threshold;
* power: two exponential subgroups separated by the covariate (first
  subgroup uniform on (0, 10), second on (10, 20)), same test;
* tree recovery: the four-subgroup design with a binary first-level
  variable X1, a continuous event-rate variable X2 on one side, a
  continuous censoring-rate variable X3 on the other (subgroups 3 and
  4 share the event rate and differ only in censoring), plus three
  noise variables (X4 continuous, X5 binary, X6 with six levels).

Censoring rates are set through the exponential identity: a target
censored fraction q fixes rate_censor = rate_event * q / (1 - q),
because P(censored) = rate_censor / (rate_event + rate_censor).

Reproducibility: every replicate draws from its own counter-based
Philox stream keyed (seed, replicate), so results are independent of
execution order and thread count; the generator identity is recorded
in every result row.  Size and power cells evaluate their replicates
in chunks: a chunk fills one block of uniforms, one row per replicate
from that replicate's stream, and tests all its rows in one
``event_rate_instability_p`` call.  A row's p-value is the bits of the
replicate's own one-row call, so the rows are independent of the
chunking too.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .datasets import CATEGORICAL, CONTINUOUS, CovariateSpec, SurvivalDataset
from .errors import DegenerateComponentError, SpecParseError
from .families import EVENT, fit, score_contributions
from .stability import continuous_test, fd_quantile
from .tree import TreeConfig, TruthSpec, grow, tree_metrics

RNG_NAME = "philox4x64"


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based substream for one replicate of one experiment."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return np.random.Generator(np.random.Philox(key=[seed, replicate]))


def _exponential(rate: float, u) -> np.ndarray:
    """Inverse-CDF exponential draws, t = -ln(1 - U)/rate, on uniforms U."""
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return -np.log1p(-u) / rate


def gen_exponential(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n exponential draws at ``rate`` from the next n uniforms of ``rng``."""
    return _exponential(rate, rng.random(n))


def censor_rate_for(rate_event: float, censored_fraction: float) -> float:
    """Censoring rate hitting a target expected censored fraction."""
    if not 0.0 <= censored_fraction < 1.0:
        raise ValueError("censored fraction must lie in [0, 1)")
    return rate_event * censored_fraction / (1.0 - censored_fraction)


def _wilson_interval(k: int, n: int, z: float = 1.959963984540054):
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _map_replicates(fn, count: int, threads: int):
    """``fn`` of 0 .. count - 1 in order, on at most ``threads`` threads.

    The items are replicates, or a size or power cell's chunks of them.
    The pool never has more threads than items or cores.
    """
    workers = min(threads, count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in range(count)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


@dataclass(frozen=True)
class SizeDesign:
    """Homogeneous arm for the type-I-error table."""

    rate_event: float = 1.0 / 20.0
    censoring_rate: float = 0.25
    n: int = 1000
    replicates: int = 2000
    level: float = 0.05

    def __post_init__(self):
        if self.rate_event <= 0:
            raise ValueError("rate_event must be positive")
        if not 0.0 <= self.censoring_rate < 1.0:
            raise ValueError("censoring_rate must lie in [0, 1)")
        if self.n < 2 or self.replicates < 1:
            raise ValueError("n and replicates must be positive")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")

    @property
    def rate_censor(self) -> float:
        return censor_rate_for(self.rate_event, self.censoring_rate)


@dataclass(frozen=True)
class PowerDesign:
    """Two exponential subgroups split by the ordering covariate."""

    rate_event_1: float
    rate_event_2: float
    rate_censor: float
    n1: int = 50
    n2: int = 50
    replicates: int = 1000
    level: float = 0.05

    def __post_init__(self):
        if min(self.rate_event_1, self.rate_event_2) <= 0 or self.rate_censor < 0:
            raise ValueError("rates must be positive (censor rate nonnegative)")
        if self.n1 < 1 or self.n2 < 1 or self.replicates < 1:
            raise ValueError("sample sizes and replicates must be positive")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")


# Per-subgroup (event rate, censor rate): X1 separates {1,2} from {3,4},
# X2 separates 1 from 2 by event rate, X3 separates 3 from 4 by censoring
# only; subgroups 3 and 4 share the event rate by construction.
DEFAULT_SUBGROUP_RATES = (
    (1.0 / 20.0, 1.0 / 30.0),
    (1.0 / 40.0, 1.0 / 30.0),
    (1.0 / 100.0, 1.0 / 30.0),
    (1.0 / 100.0, 1.0 / 90.0),
)


@dataclass(frozen=True)
class TreeRecoveryDesign:
    """Four-subgroup tree design with three defining and three noise variables."""

    rates: tuple = DEFAULT_SUBGROUP_RATES
    n_per_subgroup: int = 300
    cut_x2: float = 50.0
    cut_x3: float = 2.5
    replicates: int = 200

    def __post_init__(self):
        if len(self.rates) != 4:
            raise ValueError("exactly four subgroups are required")
        for lam_t, lam_c in self.rates:
            if lam_t <= 0 or lam_c <= 0:
                raise ValueError("subgroup rates must be positive")
        if self.n_per_subgroup < 1 or self.replicates < 1:
            raise ValueError("n_per_subgroup and replicates must be positive")


TREE_VARIABLES = (
    CovariateSpec("X1", CATEGORICAL),
    CovariateSpec("X2", CONTINUOUS),
    CovariateSpec("X3", CONTINUOUS),
    CovariateSpec("X4", CONTINUOUS),
    CovariateSpec("X5", CATEGORICAL),
    CovariateSpec("X6", CATEGORICAL),
)


def generate_tree_data(design: TreeRecoveryDesign, rng) -> tuple:
    """One training dataset plus its ground truth."""
    m = design.n_per_subgroup
    cols = {name: [] for name in ("X1", "X2", "X3", "X4", "X5", "X6")}
    times, events, labels = [], [], []
    x2_ranges = ((0.0, design.cut_x2), (design.cut_x2, 100.0), (0.0, 100.0), (0.0, 100.0))
    x3_ranges = ((0.0, 5.0), (0.0, 5.0), (0.0, design.cut_x3), (design.cut_x3, 5.0))
    for k, (lam_t, lam_c) in enumerate(design.rates):
        tstar = gen_exponential(lam_t, m, rng)
        cens = gen_exponential(lam_c, m, rng)
        lo2, hi2 = x2_ranges[k]
        lo3, hi3 = x3_ranges[k]
        cols["X1"].append(np.full(m, "1" if k >= 2 else "0", dtype=object))
        cols["X2"].append(lo2 + (hi2 - lo2) * rng.random(m))
        cols["X3"].append(lo3 + (hi3 - lo3) * rng.random(m))
        cols["X4"].append(100.0 * rng.random(m))
        cols["X5"].append(
            np.where(rng.random(m) < 0.5, "0", "1").astype(object)
        )
        cols["X6"].append(
            rng.integers(1, 7, size=m).astype(str).astype(object)
        )
        times.append(np.minimum(tstar, cens))
        events.append(tstar <= cens)
        labels.append(np.full(m, k + 1))
    data = SurvivalDataset(
        np.concatenate(times),
        np.concatenate(events),
        TREE_VARIABLES,
        {name: np.concatenate(parts) for name, parts in cols.items()},
    )
    truth = TruthSpec(
        subgroup=np.concatenate(labels),
        rates={k + 1: design.rates[k] for k in range(4)},
    )
    return data, truth


def event_rate_instability_p(times, events, x):
    """Raw bridge-supremum p-value for the exponential event rate along x.

    1-d arguments are one sample and give a float.  (R, n) arguments
    are R samples, one per row, and give an array of R p-values, each
    the bits of its row's own call: every row is fitted and scored on
    its own, and the live rows share one ``continuous_test``.  A row
    with no events has p = 1.
    """
    times, events, x = (np.asarray(a) for a in (times, events, x))
    one = x.ndim == 1
    if one:
        times, events, x = times[None], events[None], x[None]
    p = np.ones(len(x))
    live, scores, infos = [], [], []
    for r in range(len(x)):
        data = SurvivalDataset(times[r], events[r])
        try:
            model = fit("exponential", EVENT, data)
        except DegenerateComponentError:
            continue
        live.append(r)
        scores.append(score_contributions(model, data))
        infos.append(model.info)
    if live:
        results = continuous_test(
            np.array(scores), infos, x[live], param_names=("rate",)
        )
        p[live] = [res.entries[0][2] for res in results]
    return float(p[0]) if one else p


@dataclass(frozen=True)
class RejectionResult:
    """Rejection rate of one Monte Carlo cell."""

    kind: str
    design: object
    seed: int
    replicates: int
    n_reject: int
    threshold: float

    @property
    def rate(self) -> float:
        return self.n_reject / self.replicates

    @property
    def ci(self) -> tuple:
        return _wilson_interval(self.n_reject, self.replicates)

    def to_row(self) -> dict:
        row = {"experiment": self.kind}
        for key, value in vars(self.design).items():
            row[key] = value if not isinstance(value, tuple) else repr(value)
        lo, hi = self.ci
        row.update(
            estimate=self.rate,
            ci_low=lo,
            ci_high=hi,
            threshold=self.threshold,
            replicates=self.replicates,
            seed=self.seed,
            rng=RNG_NAME,
        )
        return row


# Most subjects in one block of replicates: a size or power cell runs
# its replicates in chunks of this many subjects (at least one replicate)
_CHUNK_SUBJECTS = 16384


def _run_rejection(kind, design, seed, threads, n, cut, event_times):
    """Rejection rate of the event-rate test over one cell's replicates.

    Each replicate draws one row of uniforms from its own stream: n for
    the latent event times, then n for the censoring times when the
    design's ``rate_censor`` is positive (none are censored otherwise),
    then n for the covariate, uniform on (0, 10) before subject ``cut``
    and on (10, 20) from it.  ``event_times(u)`` maps a block of event
    uniforms, one row per replicate, to latent event times.  The
    replicates run in chunks of at most ``_CHUNK_SUBJECTS`` subjects
    (and at least one replicate): each chunk fills one block of
    uniforms, row by row, and makes one ``event_rate_instability_p``
    call, so the rows do not depend on the chunking or the thread count.
    """
    threshold = fd_quantile(1.0 - design.level)
    rate_censor = design.rate_censor
    width = (3 if rate_censor > 0 else 2) * n
    first = np.arange(n) < cut
    per_chunk = max(1, _CHUNK_SUBJECTS // n)
    chunks = -(-design.replicates // per_chunk)

    def one(chunk: int) -> int:
        start = chunk * per_chunk
        reps = range(start, min(start + per_chunk, design.replicates))
        u = np.empty((len(reps), width))
        for row, rep in zip(u, reps):
            replicate_rng(seed, rep).random(out=row)
        tstar = event_times(u[:, :n])
        cens = np.inf
        if rate_censor > 0:
            cens = _exponential(rate_censor, u[:, n:2 * n])
        covariate = u[:, -n:]
        x = np.where(first, 10.0 * covariate, 10.0 + 10.0 * covariate)
        p = event_rate_instability_p(np.minimum(tstar, cens), tstar <= cens, x)
        return int(np.count_nonzero(p < design.level))

    hits = _map_replicates(one, chunks, threads)
    return RejectionResult(
        kind, design, seed, design.replicates, sum(hits), threshold
    )


def run_size(design: SizeDesign, seed: int, threads: int = 1) -> RejectionResult:
    """Rejection rate of the event-rate test under homogeneity."""

    def event_times(u):
        return _exponential(design.rate_event, u)

    return _run_rejection(
        "size", design, seed, threads, design.n, design.n // 2, event_times
    )


def run_power(design: PowerDesign, seed: int, threads: int = 1) -> RejectionResult:
    """Rejection rate of the event-rate test across two true subgroups."""
    n1 = design.n1

    def event_times(u):
        return np.concatenate(
            [_exponential(design.rate_event_1, u[:, :n1]),
             _exponential(design.rate_event_2, u[:, n1:])],
            axis=1,
        )

    return _run_rejection(
        "power", design, seed, threads, n1 + design.n2, n1, event_times
    )


@dataclass(frozen=True)
class TreeRecoveryResult:
    """Per-config tree recovery summaries over the replicates."""

    config_name: str
    design: TreeRecoveryDesign
    seed: int
    replicates: int
    leaf_counts: tuple
    first_split: tuple        # root split variable per replicate (None = no split)
    delta_event_pct: tuple
    delta_censor_pct: tuple

    @property
    def modal_leaves(self) -> int:
        values, counts = np.unique(np.array(self.leaf_counts), return_counts=True)
        return int(values[np.argmax(counts)])

    @property
    def x1_first_pct(self) -> float:
        hits = sum(1 for v in self.first_split if v == "X1")
        return 100.0 * hits / len(self.first_split)

    @property
    def median_delta_event(self) -> float:
        return float(np.median(np.array(self.delta_event_pct)))

    @property
    def median_delta_censor(self) -> float:
        return float(np.median(np.array(self.delta_censor_pct)))

    def leaf_count_distribution(self) -> dict:
        values, counts = np.unique(np.array(self.leaf_counts), return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def to_row(self) -> dict:
        hits = sum(1 for v in self.first_split if v == "X1")
        lo, hi = _wilson_interval(hits, self.replicates)
        return {
            "experiment": "tree_recovery",
            "config": self.config_name,
            "rates": format_rates(self.design.rates),
            "n_per_subgroup": self.design.n_per_subgroup,
            "modal_leaves": self.modal_leaves,
            "estimate": hits / self.replicates,
            "ci_low": lo,
            "ci_high": hi,
            "median_delta_event_pct": self.median_delta_event,
            "median_delta_censor_pct": self.median_delta_censor,
            "replicates": self.replicates,
            "seed": self.seed,
            "rng": RNG_NAME,
        }


def run_tree_recovery(
    design: TreeRecoveryDesign,
    configs: dict,
    seed: int,
    threads: int = 1,
) -> dict:
    """Grow each config's tree on shared per-replicate datasets.

    ``configs`` maps a short name to a TreeConfig; all configs see the
    same replicate data so the comparison is paired.
    """

    def one(rep: int):
        rng = replicate_rng(seed, rep)
        data, truth = generate_tree_data(design, rng)
        out = {}
        for name, config in configs.items():
            tree = grow(data, config)
            root = tree.root
            first = root.split.variable if not root.is_leaf else None
            metrics = tree_metrics(tree, data, truth)
            out[name] = (metrics.n_leaves, first, metrics.delta_event_pct,
                         metrics.delta_censor_pct)
        return out

    per_rep = _map_replicates(one, design.replicates, threads)
    results = {}
    for name in configs:
        rows = [r[name] for r in per_rep]
        results[name] = TreeRecoveryResult(
            config_name=name,
            design=design,
            seed=seed,
            replicates=design.replicates,
            leaf_counts=tuple(r[0] for r in rows),
            first_split=tuple(r[1] for r in rows),
            delta_event_pct=tuple(r[2] for r in rows),
            delta_censor_pct=tuple(r[3] for r in rows),
        )
    return results


# --- experiment spec files -------------------------------------------------
#
# Flat "key = value" lines, '#' comments, case-sensitive keys.  The
# experiment key picks the design; remaining keys fill its fields, each
# read by the parser for the field's annotated type.  tree_recovery
# adds: rates (four lambda_t/lambda_c pairs separated by commas), configs
# (event_dist/censor_dist pairs, censor "na" disabling censoring
# heterogeneity), and the tree controls alpha, minsplit, minbucket.

_TREE_CONTROL_FIELDS = {"alpha": float, "minsplit": int, "minbucket": int}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    design: object
    configs: dict = None   # tree_recovery only
    seed: int = None       # optional seed embedded in the file


def _parse_rates(text: str):
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split("/")
        if len(parts) != 2:
            raise SpecParseError(f"rates entry {chunk.strip()!r} is not a t/c pair")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise SpecParseError(f"bad rates entry {chunk.strip()!r}") from exc
    return tuple(pairs)


def format_rates(rates) -> str:
    """Render subgroup rates in the spec-file grammar (t/c pairs)."""
    return ", ".join(f"{t:.17g}/{c:.17g}" for t, c in rates)


def _parse_configs(text: str, controls: dict):
    configs = {}
    for chunk in text.split(","):
        parts = chunk.strip().split("/")
        if len(parts) != 2:
            raise SpecParseError(
                f"configs entry {chunk.strip()!r} is not event/censor"
            )
        event_dist, censor_dist = parts[0].strip(), parts[1].strip()
        blind = censor_dist == "na"
        try:
            config = TreeConfig(
                event_dist=event_dist,
                censor_dist=TreeConfig.censor_dist if blind else censor_dist,
                censor_heterogeneity=not blind,
                **controls,
            )
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
        configs[chunk.strip()] = config
    if not configs:
        raise SpecParseError("configs list is empty")
    return configs


# design fields' annotations (strings, under the __future__ import) ->
# the parser of their spec values; the one tuple field is the rates
_FIELD_PARSERS = {"float": float, "int": int, "tuple": _parse_rates}

# experiment kind -> (design class, runner returning its results)
_EXPERIMENTS = {
    "size": (
        SizeDesign,
        lambda spec, seed, threads: [run_size(spec.design, seed, threads)],
    ),
    "power": (
        PowerDesign,
        lambda spec, seed, threads: [run_power(spec.design, seed, threads)],
    ),
    "tree_recovery": (
        TreeRecoveryDesign,
        lambda spec, seed, threads: run_tree_recovery(
            spec.design, spec.configs, seed, threads
        ).values(),
    ),
}


def parse_spec(text: str) -> ExperimentSpec:
    """Parse an experiment spec file into a design (see module docstring)."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecParseError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise SpecParseError(f"line {lineno}: empty key or value")
        if key in entries:
            raise SpecParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    kind = entries.pop("experiment", None)
    if kind is None:
        raise SpecParseError("missing required key 'experiment'")
    if kind not in _EXPERIMENTS:
        raise SpecParseError(
            f"unknown experiment {kind!r}; choose from {sorted(_EXPERIMENTS)}"
        )
    design_cls, _ = _EXPERIMENTS[kind]

    seed = None
    if "seed" in entries:
        try:
            seed = int(entries.pop("seed"))
        except ValueError as exc:
            raise SpecParseError("seed must be an integer") from exc

    fields = {
        f.name: _FIELD_PARSERS[f.type] for f in dataclasses.fields(design_cls)
    }
    kwargs = {}
    controls = {}
    configs_text = None
    for key, value in entries.items():
        if kind == "tree_recovery" and key == "configs":
            configs_text = value
            continue
        if kind == "tree_recovery" and key in _TREE_CONTROL_FIELDS:
            try:
                controls[key] = _TREE_CONTROL_FIELDS[key](value)
            except ValueError as exc:
                raise SpecParseError(f"bad value for {key!r}: {value!r}") from exc
            continue
        if key not in fields:
            raise SpecParseError(f"unknown key {key!r} for experiment {kind!r}")
        try:
            kwargs[key] = fields[key](value)
        except ValueError as exc:
            raise SpecParseError(f"bad value for {key!r}: {value!r}") from exc

    try:
        design = design_cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecParseError(str(exc)) from exc

    configs = None
    if kind == "tree_recovery":
        if configs_text is None:
            configs_text = "exponential/exponential, exponential/na"
        configs = _parse_configs(configs_text, controls)
    return ExperimentSpec(kind=kind, design=design, configs=configs, seed=seed)


def run_spec(spec: ExperimentSpec, seed: int, threads: int = 1) -> list:
    """Execute a parsed experiment; returns result rows for CSV output."""
    _, runner = _EXPERIMENTS[spec.kind]
    return [res.to_row() for res in runner(spec, seed, threads)]
