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
Philox stream keyed (seed, replicate), with seed and replicate integers
in [0, 2**64), so results are independent of execution order and thread
count; the generator identity is recorded in every result row.  The
work of a replicate, or of a chunk of them, is a module-level function
with its arguments bound by ``functools.partial``, so it pickles.  A
size or power cell lists its subjects as arms, (event rate, size) pairs
in subject order, and evaluates its replicates in chunks: a chunk fills
one block of uniforms, one row per replicate from that replicate's
stream, and tests all its rows in one ``event_rate_instability_p``
call.  That call treats the rows as one dataset of samples: one ``fit``
and one ``score_contributions`` of the exponential over all rows, and
one ``continuous_test``.  A row's p-value is the bits of the replicate's
own one-row call, so the rows are independent of the chunking too.  A
chunk builds one generator and re-keys it for each row: a Philox stream
is its key, so a re-keyed generator draws the bits of a fresh one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
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
    """Counter-based substream keyed (seed, replicate), each in [0, 2**64)."""
    try:
        key = [operator.index(seed), operator.index(replicate)]
    except TypeError as exc:
        raise ValueError(f"seed and replicate must be integers: {exc}") from None
    if not all(0 <= word < 2**64 for word in key):
        raise ValueError("seed and replicate must fit in an unsigned 64-bit integer")
    # a key list holding an int >= 2**63 would pass through float64
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _replicate_rows(seed: int, reps, out: np.ndarray) -> None:
    """Fill row i of ``out`` with the uniforms of replicate ``reps[i]``.

    One generator is re-keyed per row: setting the key resets the
    counter and the buffer, so each row is the bits of
    ``replicate_rng(seed, rep).random(out.shape[1])``.
    """
    rng = replicate_rng(seed, reps[0])
    bits = rng.bit_generator
    state = bits.state
    for row, rep in zip(out, reps):
        state["state"]["key"][1] = rep
        bits.state = state
        rng.random(out=row)


def _exponential(rate: float, u) -> np.ndarray:
    """Inverse-CDF exponential draws, t = -ln(1 - U)/rate, on uniforms U."""
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be finite and positive")
    return -np.log1p(-u) / rate


def gen_exponential(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n exponential draws at ``rate`` from the next n uniforms of ``rng``."""
    return _exponential(rate, rng.random(n))


def censor_rate_for(rate_event: float, censored_fraction: float) -> float:
    """Censoring rate hitting a target expected censored fraction."""
    if not 0.0 < rate_event < math.inf:
        raise ValueError("event rate must be finite and positive")
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
        if not 0.0 < self.rate_event < math.inf:
            raise ValueError("rate_event must be finite and positive")
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
        for name in ("rate_event_1", "rate_event_2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 <= self.rate_censor < math.inf:
            raise ValueError("rate_censor must be finite and nonnegative")
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
        if not all(0.0 < lam < math.inf for pair in self.rates for lam in pair):
            raise ValueError("rates must be finite and positive")
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


# the factor labels "0" ... "6": each subject's label is one of these str
# objects, whose hash is computed once, not a fresh string per subject
_DIGITS = np.array([str(v) for v in range(7)], dtype=object)


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
        cols["X5"].append(_DIGITS[np.where(rng.random(m) < 0.5, 0, 1)])
        cols["X6"].append(_DIGITS[rng.integers(1, 7, size=m)])
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
    the bits of its row's own call.  The rows form one dataset, so one
    ``fit``, one ``score_contributions`` and one ``continuous_test``
    serve them all.  A row with no events has p = 1: when there is one,
    every row's times are still checked, as its own call checks them,
    and the rows with events are fitted on their own.  A row that fails
    makes the whole call raise the error of its own call; among several,
    the error of the earliest check wins (finite times, positive times,
    the information, two distinct x).
    """
    times, events, x = (np.asarray(a) for a in (times, events, x))
    one = x.ndim == 1
    if one:
        times, events, x = times[None], events[None], x[None]
    p = np.ones(len(x))
    data = SurvivalDataset(times, events)
    live = slice(None)
    try:
        model = fit("exponential", EVENT, data)
    except DegenerateComponentError:
        live = data.events.any(axis=1)
        if not live.any():
            return float(p[0]) if one else p
        data = data.subset(live)
        model = fit("exponential", EVENT, data)
    _, pvalues = continuous_test(score_contributions(model, data), model.info, x[live])
    p[live] = pvalues[:, 0]
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


def _rejection_hits(design, seed, rates, cut, per_chunk, chunk) -> int:
    """Rejections among the replicates of chunk ``chunk`` of a cell.

    ``rates`` holds each subject's event rate.  Each replicate draws one
    row of uniforms from its own stream: n for the latent event times,
    then n for the censoring times when the design's ``rate_censor`` is
    positive (none are censored otherwise), then n for the covariate,
    uniform on (0, 10) before subject ``cut`` and on (10, 20) from it.
    The chunk fills one block of uniforms, row by row, and makes one
    ``event_rate_instability_p`` call, so the rows do not depend on the
    chunking or the thread count.
    """
    n = rates.size
    start = chunk * per_chunk
    reps = range(start, min(start + per_chunk, design.replicates))
    rate_censor = design.rate_censor
    u = np.empty((len(reps), (3 if rate_censor > 0 else 2) * n))
    _replicate_rows(seed, reps, u)
    tstar = -np.log1p(-u[:, :n]) / rates
    cens = np.inf
    if rate_censor > 0:
        cens = _exponential(rate_censor, u[:, n:2 * n])
    covariate = u[:, -n:]
    x = np.where(np.arange(n) < cut, 10.0 * covariate, 10.0 + 10.0 * covariate)
    p = event_rate_instability_p(np.minimum(tstar, cens), tstar <= cens, x)
    return int(np.count_nonzero(p < design.level))


def _run_rejection(kind, design, seed, threads, arms, cut):
    """Rejection rate of the event-rate test over one cell's replicates.

    ``arms`` lists the cell's (event rate, size) pairs in subject order.
    The replicates run in chunks of at most ``_CHUNK_SUBJECTS`` subjects
    (and at least one replicate), each a ``_rejection_hits`` call.
    """
    rates = np.repeat(*zip(*arms))  # each subject's event rate
    per_chunk = max(1, _CHUNK_SUBJECTS // rates.size)
    chunks = -(-design.replicates // per_chunk)
    work = functools.partial(_rejection_hits, design, seed, rates, cut, per_chunk)
    hits = _map_replicates(work, chunks, threads)
    threshold = fd_quantile(1.0 - design.level)
    return RejectionResult(
        kind, design, seed, design.replicates, sum(hits), threshold
    )


def run_size(design: SizeDesign, seed: int, threads: int = 1) -> RejectionResult:
    """Rejection rate of the event-rate test under homogeneity."""
    arms = [(design.rate_event, design.n)]
    return _run_rejection("size", design, seed, threads, arms, design.n // 2)


def run_power(design: PowerDesign, seed: int, threads: int = 1) -> RejectionResult:
    """Rejection rate of the event-rate test across two true subgroups."""
    arms = [(design.rate_event_1, design.n1), (design.rate_event_2, design.n2)]
    return _run_rejection("power", design, seed, threads, arms, design.n1)


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


def _recovery_replicate(design, configs, seed, rep) -> list:
    """Replicate ``rep``'s (leaves, first split, delta event pct, delta
    censor pct), one tuple per config in ``configs`` order."""
    rng = replicate_rng(seed, rep)
    data, truth = generate_tree_data(design, rng)
    # grow releases its root's sort orders once the root is split, so
    # each config grows a copy that inherits them: the replicate's
    # columns are sorted once, not once per config
    data.time_order
    everyone = np.ones(data.n, dtype=bool)
    rows = []
    for config in configs.values():
        tree = grow(data.subset(everyone), config)
        root = tree.root
        first = root.split.variable if not root.is_leaf else None
        metrics = tree_metrics(tree, data, truth)
        rows.append((metrics.n_leaves, first, metrics.delta_event_pct,
                     metrics.delta_censor_pct))
    return rows


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
    work = functools.partial(_recovery_replicate, design, configs, seed)
    per_rep = _map_replicates(work, design.replicates, threads)
    return {
        name: TreeRecoveryResult(name, design, seed, design.replicates, *zip(*rows))
        for name, rows in zip(configs, zip(*per_rep))
    }


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
        if not 0 <= seed < 2**64:
            raise SpecParseError(f"seed must lie in [0, 2**64), got {seed}")

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
