"""Structure recovery for the four-subgroup tree design.

Grows trees over replicated datasets from the built-in four-subgroup
design (binary X1 at the top, continuous X2 splitting one side by the
event rate, continuous X3 splitting the other side by the censoring
rate only, three noise variables) and summarizes, per model config:

  * the leaf-count distribution and its mode,
  * how often X1 is chosen at the root,
  * median percent increase of the subgroup-averaged rate deviation
    over the perfect partition, for both the event and censor rates.

The censoring-blind config (censor "na") cannot see the X3 contrast,
so its modal leaf count drops to 3 and its censor-rate deviation blows
up relative to the full config.

Usage:
    python3 scripts/run_tree_recovery.py
    python3 scripts/run_tree_recovery.py --reps 200 --weibull
"""

import argparse
import sys
import time

from survcart import TreeConfig, TreeRecoveryDesign, run_tree_recovery


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=50,
                        help="replicates (default 50)")
    parser.add_argument("--n-per-subgroup", type=int, default=300)
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--weibull", action="store_true",
                        help="also run weibull-event configs")
    args = parser.parse_args(argv)

    design = TreeRecoveryDesign(n_per_subgroup=args.n_per_subgroup,
                                replicates=args.reps)
    configs = {
        "exponential/exponential": TreeConfig(),
        "exponential/na": TreeConfig(censor_heterogeneity=False),
    }
    if args.weibull:
        configs["weibull/exponential"] = TreeConfig(event_dist="weibull")
        configs["weibull/na"] = TreeConfig(event_dist="weibull",
                                           censor_heterogeneity=False)

    print(f"tree recovery on the four-subgroup design "
          f"(N={4 * design.n_per_subgroup}/replicate, reps={args.reps}, "
          f"seed={args.seed})")
    t0 = time.time()
    results = run_tree_recovery(design, configs, seed=args.seed,
                                threads=args.threads)
    for name, res in results.items():
        dist = res.leaf_count_distribution()
        dist_text = ", ".join(f"{k}:{v}" for k, v in sorted(dist.items()))
        print(f"\nconfig {name}")
        print(f"  leaf counts        {dist_text}  (modal {res.modal_leaves})")
        print(f"  X1 first           {res.x1_first_pct:.1f}%")
        print(f"  median dMAD event  {res.median_delta_event:8.2f}%")
        print(f"  median dMAD censor {res.median_delta_censor:8.2f}%")
    print(f"\nelapsed {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
