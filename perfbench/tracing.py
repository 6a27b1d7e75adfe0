"""Outside-in span tracing for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``Tracer.installed``
replaces the module-level names through which each survcart layer is
reached (``cli.grow``, ``tree.candidate_splits``, ``simlab.fit``, ...)
with wrappers and restores them on exit, so no file of the package
changes.  A span records its name, start, end and parent span; spans
stay in memory and are summarised (and written out) when the run ends.
A layer's self time is its span time minus the time of its direct
child spans.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter

import numpy as np

from survcart import cli, dataio, simlab, splitting, stability, tree
from survcart.datasets import SurvivalDataset
from survcart.errors import NonConvergenceError

# Layers in the order they are reported; a span's layer is the part of
# its name before the first dot.  "op" is the root span of one
# benchmark operation, so its self time is what no layer claims (CLI
# parsing, rendering, result rows).
LAYERS = ("dataio", "tree", "splitting", "stability", "families", "datasets",
          "km", "simlab", "op")

FAMILIES = ("exponential", "weibull", "lognormal")


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder with a few boundary counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = Counter()
        self._stack = []
        self._last_tested = None

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    # --- wrappers, one per kind of boundary -------------------------------

    def _plain(self, name):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
            return traced
        return wrap

    def _fit(self, fn):
        @functools.wraps(fn)
        def traced(family, *args, **kwargs):
            try:
                return self.span("families.fit." + family, fn, family, *args, **kwargs)
            except NonConvergenceError:
                self.counters["families.fit.nonconvergence"] += 1
                raise
        return traced

    def _candidate_splits(self, fn):
        @functools.wraps(fn)
        def traced(data, variable, *args, **kwargs):
            kind = data.spec_for(variable).kind
            cands = self.span(
                "splitting.candidate_splits." + kind, fn, data, variable, *args, **kwargs
            )
            self.counters["splitting.candidates_returned"] += len(cands)
            return cands
        return traced

    def _variable_test(self, fn):
        @functools.wraps(fn)
        def traced(data, *args, **kwargs):
            # grow tests every variable of a node on the same dataset object
            if data is not self._last_tested:
                self._last_tested = data
                self.counters["tested_nodes"] += 1
            return self.span("stability.variable_test", fn, data, *args, **kwargs)
        return traced

    def _instability_p(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters["tested_nodes"] += 1
            return self.span("simlab.event_rate_instability_p", fn, *args, **kwargs)
        return traced

    def _grow(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._last_tested = None
            grown = self.span("tree.grow", fn, *args, **kwargs)
            self.counters["tree.nodes"] += len(grown.nodes)
            self.counters["tree.splits_accepted"] += grown.n_leaves - 1
            return grown
        return traced

    def _load_csv(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            data = self.span("dataio.load_csv", fn, *args, **kwargs)
            self.counters["dataio.rows_loaded"] += data.n
            return data
        return traced

    def replacements(self):
        """Every boundary as ``(owner, attribute, wrapped)``."""
        km = self._plain("km.km_fit")
        score = self._plain("families.score_contributions")
        cont = self._plain("stability.continuous_test")
        table = [
            (tree, "fit", self._fit),
            (tree, "variable_test", self._variable_test),
            (tree, "candidate_splits", self._candidate_splits),
            (tree, "km_fit", km),
            (splitting, "km_fit", km),
            (dataio, "km_fit", km),
            (stability, "score_contributions", score),
            (stability, "continuous_test", cont),
            (stability, "categorical_test", self._plain("stability.categorical_test")),
            (SurvivalDataset, "subset", self._plain("datasets.subset")),
            (SurvivalDataset, "missing_mask", self._plain("datasets.missing_mask")),
            (cli, "load_csv", self._load_csv),
            (cli, "grow", self._grow),
            (cli, "save_tree", self._plain("dataio.save_tree")),
            (cli, "km_leaf_rows", self._plain("dataio.km_leaf_rows")),
            (simlab, "grow", self._grow),
            (simlab, "fit", self._fit),
            (simlab, "score_contributions", score),
            (simlab, "continuous_test", cont),
            (simlab, "generate_tree_data", self._plain("simlab.generate_tree_data")),
            (simlab, "event_rate_instability_p", self._instability_p),
            (simlab, "replicate_rng", self._plain("simlab.replicate_rng")),
        ]
        return [(owner, attr, wrap(getattr(owner, attr))) for owner, attr, wrap in table]

    def installed(self):
        return patched(self.replacements())

    # --- summaries --------------------------------------------------------

    def by_name(self):
        """``{name: (calls, inclusive_s, self_s, [durations])}``."""
        starts = np.array(self.starts)
        durations = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros(durations.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        own = durations - child
        out = {}
        for i, name in enumerate(self.names):
            calls, incl, self_s, durs = out.get(name, (0, 0.0, 0.0, []))
            durs.append(float(durations[i]))
            out[name] = (calls + 1, incl + float(durations[i]), self_s + float(own[i]), durs)
        return out

    def dump(self):
        """Spans as a JSON-ready document (names interned)."""
        index = {}
        rows = []
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            rows.append([index.setdefault(name, len(index)), start, end, parent])
        return {"names": list(index), "spans": rows, "counters": dict(self.counters)}


def _quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def _total(stats, prefix, field):
    """One ``by_name`` field summed over spans named ``prefix`` or ``prefix.*``."""
    return sum(row[field] for name, row in stats.items()
               if name == prefix or name.startswith(prefix + "."))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced round (counts and seconds)."""
    stats = tracer.by_name()
    counters = tracer.counters

    def calls(prefix):
        return _total(stats, prefix, 0)

    def incl(prefix):
        return float(_total(stats, prefix, 1))

    def own(prefix):
        return float(_total(stats, prefix, 2))

    op_s = incl("op")
    grow_durations = stats.get("tree.grow", (0, 0.0, 0.0, []))[3]
    cands = counters["splitting.candidates_returned"]
    tested = counters["tested_nodes"]
    load_s = incl("dataio.load_csv")

    m = {
        "splitting.candidate_splits.calls": calls("splitting.candidate_splits"),
        "splitting.candidate_splits.s": incl("splitting.candidate_splits"),
        "splitting.candidate_splits.continuous.s": incl("splitting.candidate_splits.continuous"),
        "splitting.candidate_splits.categorical.s": incl("splitting.candidate_splits.categorical"),
        "splitting.candidates_returned": cands,
        # base: candidates returned; 0 when the workload does no split search
        "splitting.candidate_use_ratio": counters["tree.splits_accepted"] / cands if cands else 0.0,
        "stability.variable_test.calls": calls("stability.variable_test"),
        "stability.variable_test.s": incl("stability.variable_test"),
        "stability.variable_test.self_s": own("stability.variable_test"),
        "stability.continuous_test.calls": calls("stability.continuous_test"),
        "stability.continuous_test.s": incl("stability.continuous_test"),
        "stability.categorical_test.calls": calls("stability.categorical_test"),
        "stability.categorical_test.s": incl("stability.categorical_test"),
        "families.fit.calls": calls("families.fit"),
        **{f"families.fit.{fam}.s": incl("families.fit." + fam) for fam in FAMILIES},
        "families.fit.nonconvergence": counters["families.fit.nonconvergence"],
        "families.score_contributions.calls": calls("families.score_contributions"),
        "families.score_contributions.s": incl("families.score_contributions"),
        # base: nodes that ran an instability test (grow nodes, bare rejection tests)
        "families.score_calls_per_tested_node": (
            calls("families.score_contributions") / tested if tested else 0.0
        ),
        "datasets.subset.calls": calls("datasets.subset"),
        "datasets.subset.s": incl("datasets.subset"),
        "datasets.missing_mask.calls": calls("datasets.missing_mask"),
        "datasets.missing_mask.s": incl("datasets.missing_mask"),
        "km.km_fit.calls": calls("km.km_fit"),
        "km.km_fit.s": incl("km.km_fit"),
        "tree.grow.calls": calls("tree.grow"),
        "tree.grow.self_s": own("tree.grow"),
        "tree.grow.p50_s": _quantile(grow_durations, 0.5),
        "tree.grow.p90_s": _quantile(grow_durations, 0.9),
        "tree.nodes": counters["tree.nodes"],
        "tree.splits_accepted": counters["tree.splits_accepted"],
        "dataio.load_csv.s": load_s,
        "dataio.load_csv.rows_per_s": counters["dataio.rows_loaded"] / load_s if load_s else 0.0,
        "dataio.save_tree.s": incl("dataio.save_tree"),
        "dataio.km_leaf_rows.s": incl("dataio.km_leaf_rows"),
        "simlab.replicate_rng.s": incl("simlab.replicate_rng"),
        "simlab.generate_tree_data.s": incl("simlab.generate_tree_data"),
        "simlab.event_rate_instability_p.s": incl("simlab.event_rate_instability_p"),
    }
    # self-time share of each layer in the traced operations' wall time
    for layer in LAYERS:
        m[f"{layer}.self_share_pct"] = 100.0 * own(layer) / op_s if op_s else 0.0
    return m


def boundary_calls(tracer: Tracer, prefixes) -> dict:
    """Calls seen at each required boundary (span-name prefix)."""
    stats = tracer.by_name()
    return {prefix: _total(stats, prefix, 0) for prefix in prefixes}
