"""Write one dataset of the four-subgroup tree design as a CSV file.

The dataset is ``generate_tree_data`` at replicate 0 of seed 1: a header
``[id,] time, status, X1, ..., X6``, then one row per subject, written
in chunks of 100,000 rows, so only one chunk's cells are Python objects
at a time.  ``--time-scale`` multiplies every time (1e300 puts the times
near the top of the double range); ``--id`` adds a 1-based id column.

Usage:
    python3 scripts/write_design_csv.py four.csv --n-per-subgroup 300
    python3 scripts/write_design_csv.py units.csv --n-per-subgroup 300 \\
        --time-scale 1e300
    python3 scripts/write_design_csv.py big.csv --n-per-subgroup 250000 --id
"""

import argparse
import csv
import sys

from survcart.simlab import TreeRecoveryDesign, generate_tree_data, replicate_rng

CHUNK_ROWS = 100_000


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="CSV file to write")
    parser.add_argument("--n-per-subgroup", type=int, required=True)
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help="factor on every time (default 1)")
    parser.add_argument("--id", action="store_true",
                        help="start each row with a 1-based id")
    args = parser.parse_args(argv)
    data, _ = generate_tree_data(
        TreeRecoveryDesign(n_per_subgroup=args.n_per_subgroup),
        replicate_rng(1, 0))
    names = [m.name for m in data.meta]
    times = data.times * args.time_scale
    events = data.events.astype(int)
    covariates = [data.covariate(name) for name in names]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] * args.id + ["time", "status", *names])
        for start in range(0, data.n, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            columns = [times[rows].tolist(), events[rows].tolist(),
                       *(column[rows].tolist() for column in covariates)]
            if args.id:
                columns.insert(0, range(start + 1, start + 1 + len(columns[0])))
            writer.writerows(zip(*columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
