"""survcart benchmark: one workload per process, in-process public API.

    python3 perfbench/run.py --workload fit_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
Every operation is a closed loop in one single-threaded process: the
next operation starts when the previous one ends.  Inputs come from
``--seed`` (each workload's frozen seed is the default).  Outputs are
checked after every operation, outside the timed region; a raised
exception, a nonzero ``survcart fit`` exit code or a wrong output
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median time of a fresh interpreter that imports survcart
  and prepares the workload's inputs (repeated per run);
* ``op_s``: median time per operation (per-input medians, summed, over
  the operations in one pass over the inputs);
* ``peak_rss_mib``: peak resident set (VmHWM) of this process;
* ``ok_rate``: share of attempted operations that succeeded.

``--trace 1`` runs the untraced loop for half the time as a reference,
then one more pass over the inputs with every layer boundary wrapped
in a span (see ``tracing.py``), then the N-sweep, thread-pool and (on
``recovery``) location-scale diagnostics, and reports the per-layer
metrics.  A boundary the workload must reach that sees no call makes
the run incorrect.

The host's speed changes by tens of percent within seconds and drifts
over minutes on a shared machine, so a fixed reference kernel that does
not touch survcart runs between operations, and both times are given at
the speed the kernel has on a quiet machine.  Each operation's wall
time is scaled by ``REF_S`` over the mean of the kernel runs just
before and just after it; ``setup_s`` is scaled by ``REF_S`` over the
run's median kernel time.  A change to survcart moves these as it moves
wall time; a slow host moves them much less.  The raw wall times stay
in the result file.

The last line of stdout is the JSON result; a fuller record (metrics,
samples, provenance and, when traced, every span) is written to
``.perfbench_out/``.  ``--smoke`` runs every workload, untraced and
traced, at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
DEFAULT_SECONDS = 30.0
SMOKE_SECONDS = 0.2
SMOKE_SPEEDUP_REPS = 2
SPEEDUP_REPS = 8
# Wall seconds of reference_kernel on the quiet 2-core x86-64 VM the
# benchmark was written on (Python 3.11, numpy 2.4).
REF_S = 0.05

# One thread per process keeps BLAS from competing with the measured
# Python work on a small machine; it must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class Tally:
    """Attempted and failed operations, with every problem reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, label, fn, *args):
        """Run ``fn``; an escaped exception counts as a failed attempt."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # the benchmark keeps running and reports the failure
            self.failed += 1
            self.errors.append(f"{label}: exception")
            traceback.print_exc(file=sys.stderr)
            return False, None

    def op(self, workload, inp, run=None):
        """One timed operation plus its output check; returns seconds."""
        run = run or workload.run
        start = perf_counter()
        ok, out = self.call(workload.name, run, inp)
        seconds = perf_counter() - start
        if ok:
            try:
                problems = workload.check(inp, out)
            except Exception:  # a malformed output is a wrong output
                traceback.print_exc(file=sys.stderr)
                problems = ["output check raised"]
            if problems:
                self.failed += 1
                self.error(*problems)
        return seconds

    def error(self, *messages):
        for message in messages:
            self.errors.append(message)
            print(f"error: {message}", file=sys.stderr)


def git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, samples, seconds):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        **workload.provenance(),
        "inputs_per_round": len(samples),
        "rounds": min(map(len, samples)),
        "seconds": seconds,
        "smoke": workload.smoke,
    }


def measure_setup(name, seed, smoke, tally):
    """Median wall seconds of a fresh process preparing the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            tally.error(f"set-up exited with {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(times)


def time_reference():
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def reference_kernel():
    """Fixed interpreter-bound and memory-bound work that does not touch survcart."""
    import numpy as np

    total = 0
    for i in range(100_000):
        total += i * i % 7
    block = np.arange(1_000_000, dtype=float)
    for _ in range(2):
        block = np.cumsum(block) % 7.0
    return total + block[0]


def timed_loop(workload, inputs, seconds, tally):
    """Cycle over the inputs, each at least once, while the next operation
    still ends within ``seconds``.  The reference kernel runs before the
    first operation and after each; returns per-input wall seconds,
    per-input seconds at reference speed, and every kernel time."""
    samples = [[] for _ in inputs]
    scaled = [[] for _ in inputs]
    ref = [time_reference()]
    deadline = perf_counter() + seconds
    k = 0
    while True:
        i = k % len(inputs)
        if all(samples) and perf_counter() + samples[i][-1] > deadline:
            return samples, scaled, ref
        seconds_op = tally.op(workload, inputs[i])
        ref.append(time_reference())
        samples[i].append(seconds_op)
        scaled[i].append(seconds_op * 2.0 * REF_S / (ref[-2] + ref[-1]))
        k += 1


def declared_metrics(trace):
    """``[(name, unit)]`` of the mode, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name, seed, seconds, trace, smoke):
    from diagnostics import peak_rss_mib
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    seed = cls.default_seed if seed is None else seed
    out_dir = OUT / f"{name}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()

    setup_s = None if trace else measure_setup(name, seed, smoke, tally)
    workload = cls(ROOT, out_dir, seed, smoke)
    inputs = workload.prepare()
    tally.op(workload, inputs[0])  # warm-up: lazy imports, first-touch memory

    # a traced run spends the other half on the traced pass and diagnostics
    samples, scaled, ref = timed_loop(workload, inputs, seconds / 2 if trace else seconds, tally)
    round_s = sum(statistics.median(s) for s in samples)
    speed = REF_S / statistics.median(ref)
    record = {"samples": samples, "round_s": round_s, "reference_s": ref, "speed": speed,
              "setup_wall_s": setup_s,
              "items_per_s": workload.items_per_round() / round_s,
              "item": workload.item}
    if trace:
        values, traced = traced_metrics(workload, inputs, round_s, tally)
        record.update(traced)
    else:
        values = {
            "setup_s": setup_s * speed,
            "op_s": sum(statistics.median(s) for s in scaled) / workload.ops_per_round,
            "peak_rss_mib": peak_rss_mib(),
            "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        }

    declared = declared_metrics(trace)
    undeclared = sorted(set(values) - {name for name, _ in declared})
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    absent = [name for name, _ in declared if name not in values]
    if absent:
        tally.error(f"metrics not measured: {', '.join(absent)}")
    result = {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in declared},
    }
    record.update(result, errors=tally.errors,
                  provenance=provenance(workload, samples, seconds))
    out_file = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1, default=repr), encoding="utf-8")
    return result, record


def traced_metrics(workload, inputs, round_s, tally):
    """Per-layer values of one traced pass, plus the diagnostics."""
    import diagnostics
    from tracing import Tracer, boundary_calls, layer_metrics
    from workloads import recovery_spec

    tracer = Tracer()
    with tracer.installed():
        for inp in inputs:
            tally.op(workload, inp, run=lambda x: tracer.span("op", workload.run, x))
    values = layer_metrics(tracer)
    values["trace.overhead_pct"] = 100.0 * (tracer.by_name()["op"][1] / round_s - 1.0)

    seen = boundary_calls(tracer, workload.required)
    missing = [prefix for prefix, calls in seen.items() if calls == 0]
    if missing:
        tally.error(f"required boundaries saw no calls: {', '.join(missing)}")

    ok, sweep = tally.call("scaling diagnostics", diagnostics.scaling, SRC, workload.smoke)
    comparison = {}
    if ok:
        sweep_values, comparison = sweep
        values.update(sweep_values)
    reps = SMOKE_SPEEDUP_REPS if workload.smoke else SPEEDUP_REPS
    ok, speedup = tally.call("thread-pool diagnostic", diagnostics.threads_speedup,
                             recovery_spec(workload.smoke), workload.seed, reps)
    if ok:
        values["simlab.threads2_speedup"] = speedup
    values["tree.grow.singular_aborts"] = 0  # the probe runs on recovery only
    if workload.location_scale_probe:
        ok, probe = tally.call("location-scale probe", diagnostics.location_scale_probe,
                               workload.spec, workload.seed)
        if ok:
            probe_values, probe_tracer = probe
            values.update(probe_values)
            calls = boundary_calls(probe_tracer, ["families.fit.lognormal"])
            seen.update({f"location_scale_probe.{k}": n for k, n in calls.items()})
            if not all(calls.values()):
                tally.error("location-scale probe saw no lognormal fit")
    return values, {"boundary_calls": seen, "scaling": comparison, "spans": tracer.dump()}


def summary_lines(record):
    prov = record["provenance"]
    yield "# provenance " + json.dumps(prov, sort_keys=True)
    yield (f"# {prov['workload']}: {record['items_per_s']:.6g} {record['item']}/s, "
           f"pass {record['round_s']:.4f} s, {prov['rounds']} rounds")
    for n, row in record.get("scaling", {}).items():
        yield (f"# grow N={n}: {row['grow_s']:.4f} s (ROADMAP {row['baseline_grow_s']} s), "
               f"split search {row['split_s']:.4f} s, fresh-process peak RSS "
               f"{row['peak_rss_mib']:.0f} MiB (ROADMAP {row['baseline_rss_mb']} MB)")
    for message in record["errors"]:
        yield f"# error: {message.splitlines()[0]}"


def main(argv=None):
    if not (SRC / "survcart" / "__init__.py").is_file():
        print(f"error: no survcart package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, at tiny sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    if args.setup_only:
        cls = WORKLOADS[args.workload]
        out_dir = OUT / f"{args.workload}-{args.seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        cls(ROOT, out_dir, args.seed, args.smoke).prepare()
        return 0

    if args.smoke:
        runs = [(name, trace) for name in sorted(WORKLOADS) for trace in (0, 1)]
        seconds = SMOKE_SECONDS
    elif args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    else:
        runs = [(args.workload, args.trace)]
        seconds = args.seconds

    results = []
    for name, trace in runs:
        result, record = run_workload(name, args.seed, seconds, trace, args.smoke)
        for line in summary_lines(record):
            print(line)
        results.append((name, trace, result))
    if len(results) == 1:
        final = results[0][2]
    else:
        final = {
            "correct": all(r["correct"] for _, _, r in results),
            "attempted": sum(r["attempted"] for _, _, r in results),
            "failed": sum(r["failed"] for _, _, r in results),
            "metrics": {f"{name}.trace{trace}.{key}": value
                        for name, trace, r in results for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
