"""Type-I-error table for the event-rate instability test.

Sweeps sample size and censoring rate for homogeneous exponential data
and reports the empirical rejection rate at the 5 percent level with a
Wilson confidence interval per cell.  At the default desk-scale
replicate count the rates are noisy but the pattern is already visible:
undersized at N=50, converging toward the nominal 5 percent as N grows.

Usage:
    python3 scripts/run_size_table.py
    python3 scripts/run_size_table.py --reps 2000 --full
"""

import argparse
import sys
import time

from survcart import SizeDesign, run_size

DESK_NS = (50, 200, 1000)
FULL_NS = (50, 100, 200, 400, 1000, 2000)
CENSORING = (0.10, 0.25, 0.40, 0.60)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=500,
                        help="replicates per cell (default 500)")
    parser.add_argument("--seed", type=int, default=20260821)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--rate", type=float, default=1.0 / 20.0,
                        help="event hazard rate (default 1/20)")
    parser.add_argument("--full", action="store_true",
                        help="use the full N grid instead of the desk subset")
    args = parser.parse_args(argv)

    ns = FULL_NS if args.full else DESK_NS
    print(f"size of the event-rate instability test at the 5% level")
    print(f"rate_event={args.rate:g}  reps/cell={args.reps}  seed={args.seed}")
    header = "censoring " + "".join(f"{'N=' + str(n):>22}" for n in ns)
    print(header)
    print("-" * len(header))
    t0 = time.time()
    for cens in CENSORING:
        cells = []
        for n in ns:
            design = SizeDesign(rate_event=args.rate, censoring_rate=cens,
                                n=n, replicates=args.reps)
            res = run_size(design, seed=args.seed, threads=args.threads)
            lo, hi = res.ci
            cells.append(f"{100 * res.rate:5.2f} [{100 * lo:4.1f},{100 * hi:4.1f}]")
        print(f"{100 * cens:7.0f}%  " + "".join(f"{c:>22}" for c in cells))
    print(f"elapsed {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
