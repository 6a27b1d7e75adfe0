"""Power table for the event-rate instability test.

Two exponential subgroups with hazard rates lambda_T1 and lambda_T2 are
separated by the ordering covariate; the table reports the rejection
rate of the 5 percent instability test per scenario and sample-size
pair.  Scenario rows are ordered by increasing rate separation, so
power should rise down each column and to the right along each row.

Usage:
    python3 scripts/run_power_table.py
    python3 scripts/run_power_table.py --reps 1000
"""

import argparse
import sys
import time

from survcart import PowerDesign, run_power

# (name, rate group 1, rate group 2, censor rate)
SCENARIOS = (
    ("#1", 1.0 / 20.0, 1.0 / 30.0, 1.0 / 30.0),
    ("#2", 1.0 / 20.0, 1.0 / 40.0, 1.0 / 30.0),
    ("#3", 1.0 / 20.0, 1.0 / 50.0, 1.0 / 40.0),
    ("#4", 1.0 / 20.0, 1.0 / 60.0, 1.0 / 50.0),
)
DESK_PAIRS = ((25, 25), (50, 50), (100, 100))
FULL_PAIRS = ((25, 25), (50, 50), (50, 75), (100, 100), (200, 200))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=400,
                        help="replicates per cell (default 400)")
    parser.add_argument("--seed", type=int, default=20260821)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--full", action="store_true",
                        help="use the larger sample-size grid")
    args = parser.parse_args(argv)

    pairs = FULL_PAIRS if args.full else DESK_PAIRS
    print("power of the event-rate instability test at the 5% level")
    print(f"reps/cell={args.reps}  seed={args.seed}")
    header = ("scenario   rate1    rate2    censor "
              + "".join(f"{f'N={a}/{b}':>14}" for a, b in pairs))
    print(header)
    print("-" * len(header))
    t0 = time.time()
    for name, r1, r2, rc in SCENARIOS:
        cells = []
        for n1, n2 in pairs:
            design = PowerDesign(rate_event_1=r1, rate_event_2=r2,
                                 rate_censor=rc, n1=n1, n2=n2,
                                 replicates=args.reps)
            res = run_power(design, seed=args.seed, threads=args.threads)
            cells.append(f"{100 * res.rate:5.1f}%")
        print(f"{name:>8} {r1:8.4f} {r2:8.4f} {rc:8.4f}  "
              + "".join(f"{c:>14}" for c in cells))
    print(f"elapsed {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
