"""scipy stays off the cold path.

Only the lognormal and normal families (the normal log-CDF) and the
categorical instability test (the chi-square tail) need
``scipy.special``, and they import it on first use.  A fresh
interpreter that imports the package and the CLI, runs size and power
cells and grows an exponential tree on continuous covariates must never
load scipy; its first categorical test then does, and gets its p-value
from ``scipy.special.chdtrc``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import survcart

SRC = Path(survcart.__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

import numpy as np

import survcart
import survcart.cli
import survcart.simlab
from survcart import (
    CONTINUOUS, CovariateSpec, PowerDesign, SizeDesign, SurvivalDataset,
    TreeConfig, TreeRecoveryDesign, fit, grow, replicate_rng, run_power,
    run_size, score_contributions,
)
from survcart.simlab import generate_tree_data
from survcart.stability import categorical_test


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


run_size(SizeDesign(n=200, replicates=20), seed=1)
run_power(PowerDesign(0.1, 0.02, 0.01, n1=50, n2=50, replicates=20), seed=1)
full, _ = generate_tree_data(TreeRecoveryDesign(n_per_subgroup=100),
                             replicate_rng(1, 0))
names = ("X2", "X3", "X4")
data = SurvivalDataset(full.times, full.events,
                       [CovariateSpec(name, CONTINUOUS) for name in names],
                       {name: full.covariate(name) for name in names})
tree = grow(data, TreeConfig(event_dist="exponential", censor_dist="exponential"))
cold = scipy_modules()

model = fit("exponential", "event", data)
res = categorical_test(score_contributions(model, data), model.info,
                       np.arange(data.n) % 3)
loaded = "scipy.special" in sys.modules
import scipy.special

print(json.dumps({
    "cold": cold,
    "leaves": tree.n_leaves,
    "loaded": loaded,
    "same_p": res.p == float(scipy.special.chdtrc(res.df, res.statistic)),
}))
"""


def test_cold_path_never_loads_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["cold"] == []
    assert out["leaves"] > 1  # the split search ran
    assert out["loaded"]
    assert out["same_p"]
