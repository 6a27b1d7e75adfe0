"""Traced-run diagnostics that do not belong to one workload.

* N-sweep: ``grow`` on the four-subgroup design at N = 1,200, 4,000
  and 12,000 (data from ``replicate_rng(1, 0)``, as for the baselines
  in ROADMAP.md), with the log-log slope of split-search time from 4k
  to 12k, the tracemalloc peak of one split search at 12k, and the
  peak RSS of a fresh process growing each N.
* Thread pool: the recovery spec once at ``threads=1`` and once at
  ``threads=2``; the rows must agree exactly.
* Location-scale probe: the weibull/lognormal config grown on every
  replicate of the recovery spec.  A singular information matrix from
  the lognormal fits aborts ``grow`` on some seeds (ROADMAP item 3), so
  this config cannot be part of a timed operation; the probe times its
  lognormal fits and counts the aborts instead of hiding them.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from survcart import tree
from survcart.errors import SingularInformationError
from survcart.simlab import TreeRecoveryDesign, generate_tree_data, replicate_rng, run_spec
from survcart.tree import TreeConfig

from tracing import Tracer, patched
from workloads import canonical, with_replicates

SWEEP = (1200, 4000, 12000)
# ROADMAP baselines measured on a 2-core machine, Python 3.11.7, numpy 2.4.6:
# grow wall seconds and per-process peak RSS (MB) at each sweep size.
BASELINE_GROW_S = {1200: 0.038, 4000: 0.166, 12000: 1.18}
BASELINE_RSS_MB = {1200: 111, 4000: 184, 12000: 865}
SMOKE_SHRINK = 10   # smoke mode runs the sweep at a tenth of each N
SPEEDUP_THREADS = 2


def peak_rss_mib() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM belongs to the address space, so unlike ``ru_maxrss`` it does
    not carry the parent's peak over fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# A fresh interpreter growing one sweep tree; argv: src perfbench n_per_subgroup
_RSS_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
from survcart.simlab import TreeRecoveryDesign, generate_tree_data, replicate_rng
from survcart.tree import TreeConfig, grow
from diagnostics import peak_rss_mib
design = TreeRecoveryDesign(n_per_subgroup=int(sys.argv[3]))
grow(generate_tree_data(design, replicate_rng(1, 0))[0], TreeConfig())
print(peak_rss_mib())
"""


def _grow_peak_rss_mib(src, n):
    argv = [sys.executable, "-c", _RSS_SCRIPT, str(src), str(Path(__file__).parent), str(n // 4)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def _sweep_data(n):
    design = TreeRecoveryDesign(n_per_subgroup=n // 4)
    return generate_tree_data(design, replicate_rng(1, 0))[0]


def _split_peak_mib(data) -> float:
    """Largest tracemalloc peak of one candidate_splits call in a grow."""
    peak = 0
    search = tree.candidate_splits

    def measured(*args, **kwargs):
        nonlocal peak
        tracemalloc.start()
        try:
            return search(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with patched([(tree, "candidate_splits", measured)]):
        tree.grow(data, TreeConfig())
    return peak / 2**20


def scaling(src, smoke: bool):
    """Sweep metrics plus a comparison with the ROADMAP baselines."""
    metrics = {}
    split_s = {}
    comparison = {}
    for n in SWEEP:
        size = n // SMOKE_SHRINK if smoke else n
        data = _sweep_data(size)
        tracer = Tracer()
        with tracer.installed():
            tracer.span("tree.grow", tree.grow, data, TreeConfig())
        stats = tracer.by_name()
        grow_s = stats["tree.grow"][1]
        split_s[n] = sum(row[1] for name, row in stats.items()
                         if name.startswith("splitting.candidate_splits"))
        rss = _grow_peak_rss_mib(src, size)
        metrics[f"tree.grow.n{n}.s"] = grow_s
        metrics[f"tree.grow.n{n}.peak_rss_mib"] = rss
        comparison[n] = {"grow_s": grow_s, "split_s": split_s[n], "peak_rss_mib": rss,
                         "baseline_grow_s": BASELINE_GROW_S[n],
                         "baseline_rss_mb": BASELINE_RSS_MB[n]}
    lo, hi = split_s[SWEEP[1]], split_s[SWEEP[2]]
    metrics["splitting.scaling_exponent"] = (
        math.log(hi / lo) / math.log(SWEEP[2] / SWEEP[1]) if lo > 0 and hi > 0 else 0.0
    )
    metrics["splitting.candidate_splits.peak_mib"] = _split_peak_mib(data)
    return metrics, comparison


def threads_speedup(spec, seed, replicates):
    """Wall-time ratio of the recovery spec at one thread over two threads."""
    spec = with_replicates(spec, replicates)
    times, outputs = [], []
    for threads in (1, SPEEDUP_THREADS):
        start = perf_counter()
        outputs.append(run_spec(spec, seed, threads=threads))
        times.append(perf_counter() - start)
    if canonical(outputs[0]) != canonical(outputs[1]):
        raise RuntimeError("recovery rows differ between 1 and 2 threads")
    return times[0] / times[1]


def location_scale_probe(spec, seed):
    """Lognormal fit time and ``grow`` aborts of the weibull/lognormal config.

    Returns the metrics and the probe's tracer.  Only the known abort,
    ``SingularInformationError``, is counted; any other exception
    escapes and fails the run.
    """
    base = next(iter(spec.configs.values()))
    config = dataclasses.replace(base, event_dist="weibull", censor_dist="lognormal",
                                 censor_heterogeneity=True)
    tracer = Tracer()
    aborts = 0
    with tracer.installed():
        for rep in range(spec.design.replicates):
            data, _ = generate_tree_data(spec.design, replicate_rng(seed, rep))
            try:
                tracer.span("tree.grow", tree.grow, data, config)
            except SingularInformationError:
                aborts += 1
    stats = tracer.by_name()
    metrics = {
        "families.fit.lognormal.s": stats.get("families.fit.lognormal", (0, 0.0))[1],
        "tree.grow.singular_aborts": aborts,
    }
    return metrics, tracer
