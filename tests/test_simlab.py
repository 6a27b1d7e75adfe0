import dataclasses
import math

import numpy as np
import pytest

from survcart import (
    DEFAULT_SUBGROUP_RATES,
    ExperimentSpec,
    PowerDesign,
    RNG_NAME,
    SizeDesign,
    SpecParseError,
    TreeConfig,
    TreeRecoveryDesign,
    censor_rate_for,
    format_rates,
    gen_exponential,
    parse_spec,
    replicate_rng,
    run_power,
    run_size,
    run_spec,
    run_tree_recovery,
)
from survcart import families, simlab
from survcart.simlab import _parse_rates, event_rate_instability_p, generate_tree_data


# --- RNG plumbing ----------------------------------------------------------

def test_replicate_rng_is_deterministic_per_key():
    a = replicate_rng(7, 3).random(5)
    b = replicate_rng(7, 3).random(5)
    c = replicate_rng(7, 4).random(5)
    d = replicate_rng(8, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_replicate_rng_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        replicate_rng(-1, 0)
    with pytest.raises(ValueError):
        replicate_rng(2**64, 0)


def test_rng_name_recorded():
    assert RNG_NAME == "philox4x64"


def test_gen_exponential_rate_scaling():
    # same underlying uniforms, so draws scale exactly as 1/rate
    a = gen_exponential(0.5, 1000, replicate_rng(11, 0))
    b = gen_exponential(2.0, 1000, replicate_rng(11, 0))
    assert np.allclose(a, 4.0 * b)
    assert np.mean(a) == pytest.approx(2.0, rel=0.1)
    with pytest.raises(ValueError):
        gen_exponential(0.0, 5, replicate_rng(11, 1))


def test_censor_rate_identity():
    # P(censored) = c / (t + c) for competing exponentials
    for q in (0.0, 0.25, 0.6):
        c = censor_rate_for(0.05, q)
        assert c / (0.05 + c) == pytest.approx(q, abs=1e-12)
    with pytest.raises(ValueError):
        censor_rate_for(0.05, 1.0)
    with pytest.raises(ValueError):
        censor_rate_for(0.05, -0.1)


def test_censored_fraction_hits_target_empirically():
    rng = replicate_rng(12, 0)
    lam_t = 1.0 / 20.0
    lam_c = censor_rate_for(lam_t, 0.5)
    tstar = gen_exponential(lam_t, 20000, rng)
    cstar = gen_exponential(lam_c, 20000, rng)
    assert np.mean(tstar > cstar) == pytest.approx(0.5, abs=0.02)


# --- rejection experiments -------------------------------------------------

def small_size_design():
    return SizeDesign(rate_event=0.05, censoring_rate=0.25, n=150, replicates=60)


def test_run_size_reruns_identically():
    a = run_size(small_size_design(), seed=99)
    b = run_size(small_size_design(), seed=99)
    assert a == b
    assert 0 <= a.n_reject <= a.replicates
    assert a.threshold == pytest.approx(1.3581, abs=1e-3)
    lo, hi = a.ci
    assert 0.0 <= lo <= a.rate <= hi <= 1.0


def test_run_size_threads_match_serial():
    serial = run_size(small_size_design(), seed=99, threads=1)
    parallel = run_size(small_size_design(), seed=99, threads=4)
    assert serial == parallel


def test_run_size_seed_changes_draws():
    a = run_size(small_size_design(), seed=1)
    b = run_size(small_size_design(), seed=2)
    assert a.seed != b.seed  # rows must record their seed
    # rates may coincide; the recorded metadata must not


def test_run_power_exceeds_size_for_separated_rates():
    size = run_size(SizeDesign(rate_event=0.05, censoring_rate=0.25,
                               n=100, replicates=80), seed=5)
    power = run_power(PowerDesign(rate_event_1=1.0 / 10.0,
                                  rate_event_2=1.0 / 40.0,
                                  rate_censor=censor_rate_for(0.05, 0.25),
                                  n1=50, n2=50, replicates=80), seed=5)
    assert power.rate > size.rate
    assert power.kind == "power"
    assert power.threshold == pytest.approx(size.threshold)


def test_rejection_row_shape():
    row = run_size(small_size_design(), seed=3).to_row()
    for key in ("experiment", "rate_event", "censoring_rate", "n",
                "estimate", "ci_low", "ci_high", "threshold",
                "replicates", "seed", "rng"):
        assert key in row
    assert row["experiment"] == "size"
    assert row["rng"] == RNG_NAME
    assert row["seed"] == 3


def test_wilson_interval_reference_value():
    # independent check of the interval published in the result rows
    res = run_size(SizeDesign(rate_event=0.05, censoring_rate=0.0,
                              n=100, replicates=50), seed=17)
    k, n = res.n_reject, res.replicates
    z = 1.959963984540054
    denom = 1.0 + z * z / n
    center = (k / n + z * z / (2 * n)) / denom
    half = z * math.sqrt((k / n) * (1 - k / n) / n + z * z / (4 * n * n)) / denom
    lo, hi = res.ci
    assert lo == pytest.approx(max(0.0, center - half), abs=1e-12)
    assert hi == pytest.approx(min(1.0, center + half), abs=1e-12)


def test_event_rate_instability_p_under_null_is_uniform_ish():
    rng = replicate_rng(13, 0)
    t = gen_exponential(0.1, 200, rng)
    p = event_rate_instability_p(t, np.ones(200, bool), rng.uniform(0, 1, 200))
    assert 0.0 < p <= 1.0


# --- tree recovery ---------------------------------------------------------

def small_recovery_design(reps=4):
    return TreeRecoveryDesign(rates=DEFAULT_SUBGROUP_RATES,
                              n_per_subgroup=50, replicates=reps)


def test_generate_tree_data_layout():
    design = small_recovery_design()
    data, truth = generate_tree_data(design, replicate_rng(21, 0))
    assert data.n == 4 * design.n_per_subgroup
    names = [m.name for m in data.meta]
    assert names == ["X1", "X2", "X3", "X4", "X5", "X6"]
    assert set(np.unique(truth.subgroup)) == {1, 2, 3, 4}
    assert sorted(truth.rates) == [1, 2, 3, 4]
    x1 = data.covariate("X1")
    sg = truth.subgroup
    # X1 separates subgroups {1,2} from {3,4}
    assert len(set(x1[np.isin(sg, (1, 2))])) == 1
    assert len(set(x1[np.isin(sg, (3, 4))])) == 1
    x6 = data.covariate("X6")
    assert len(set(x6.tolist())) == 6


def test_run_tree_recovery_paired_configs():
    design = small_recovery_design()
    configs = {
        "exponential/exponential": TreeConfig(minsplit=50, minbucket=25),
        "exponential/na": TreeConfig(minsplit=50, minbucket=25,
                                     censor_heterogeneity=False),
    }
    out = run_tree_recovery(design, configs, seed=31)
    assert set(out) == set(configs)
    full = out["exponential/exponential"]
    assert full.replicates == design.replicates
    assert len(full.leaf_counts) == design.replicates
    assert all(c >= 1 for c in full.leaf_counts)
    assert all(v is None or v.startswith("X") for v in full.first_split)
    row = full.to_row()
    assert row["rates"] == format_rates(design.rates)
    assert 0.0 <= row["estimate"] <= 1.0
    rerun = run_tree_recovery(design, configs, seed=31)
    assert rerun["exponential/exponential"] == full


def test_run_tree_recovery_threads_match_serial():
    design = small_recovery_design(reps=3)
    configs = {"exponential/exponential": TreeConfig(minsplit=50, minbucket=25)}
    a = run_tree_recovery(design, configs, seed=41, threads=1)
    b = run_tree_recovery(design, configs, seed=41, threads=2)
    assert a == b


def test_tree_recovery_summaries():
    design = small_recovery_design()
    configs = {"exponential/exponential": TreeConfig(minsplit=50, minbucket=25)}
    res = run_tree_recovery(design, configs, seed=51)["exponential/exponential"]
    dist = res.leaf_count_distribution()
    assert sum(dist.values()) == design.replicates
    assert res.modal_leaves in dist
    assert dist[res.modal_leaves] == max(dist.values())
    assert 0.0 <= res.x1_first_pct <= 100.0


# --- spec files ------------------------------------------------------------

SIZE_SPEC = """\
# homogeneous null cell
experiment = size
rate_event = 0.05
censoring_rate = 0.25
n = 120
replicates = 40
seed = 77
"""


def test_parse_spec_size():
    spec = parse_spec(SIZE_SPEC)
    assert spec.kind == "size"
    assert spec.seed == 77
    assert spec.design == SizeDesign(rate_event=0.05, censoring_rate=0.25,
                                     n=120, replicates=40)
    assert spec.configs is None


def test_parse_spec_power_requires_rates():
    with pytest.raises(SpecParseError):
        parse_spec("experiment = power\nn1 = 50\nn2 = 50\n")


def test_parse_spec_tree_recovery_full():
    text = (
        "experiment = tree_recovery\n"
        "rates = 0.05/0.0333, 0.025/0.0333, 0.01/0.0333, 0.01/0.0111\n"
        "n_per_subgroup = 60\n"
        "replicates = 5\n"
        "alpha = 0.01\n"
        "minsplit = 40\n"
        "minbucket = 20\n"
        "configs = weibull/exponential, exponential/na\n"
    )
    spec = parse_spec(text)
    assert spec.kind == "tree_recovery"
    assert spec.design.rates[0] == (0.05, 0.0333)
    assert set(spec.configs) == {"weibull/exponential", "exponential/na"}
    wconf = spec.configs["weibull/exponential"]
    assert wconf.event_dist == "weibull"
    assert wconf.alpha == 0.01 and wconf.minsplit == 40
    assert not spec.configs["exponential/na"].censor_heterogeneity


@pytest.mark.parametrize("kind, design", [
    ("size", SizeDesign(rate_event=0.125, censoring_rate=0.5, n=30,
                        replicates=7, level=0.1)),
    ("power", PowerDesign(0.5, 0.25, 0.125, n1=3, n2=4, replicates=5,
                          level=0.2)),
    ("tree_recovery", TreeRecoveryDesign(
        rates=((0.5, 0.25), (0.125, 1.0 / 3.0), (2.0, 4.0), (0.1, 0.2)),
        n_per_subgroup=9, cut_x2=40.0, cut_x3=1.5, replicates=3)),
])
def test_parse_spec_reads_every_design_field(kind, design):
    lines = [f"experiment = {kind}"]
    for field in dataclasses.fields(design):
        value = getattr(design, field.name)
        lines.append(f"{field.name} = "
                     + (format_rates(value) if field.name == "rates" else repr(value)))
    assert parse_spec("\n".join(lines)).design == design


def test_parse_spec_blind_config_keeps_default_censor_family():
    text = ("experiment = tree_recovery\n"
            "rates = 0.05/0.03, 0.025/0.03, 0.01/0.03, 0.01/0.011\n"
            "replicates = 2\nminsplit = 30\nminbucket = 15\n"
            "configs = weibull/na, weibull/lognormal\n")
    configs = parse_spec(text).configs
    assert configs["weibull/na"] == TreeConfig(
        minsplit=30, minbucket=15, event_dist="weibull",
        censor_heterogeneity=False)
    assert configs["weibull/lognormal"] == TreeConfig(
        minsplit=30, minbucket=15, event_dist="weibull", censor_dist="lognormal")


def test_parse_spec_default_configs():
    text = ("experiment = tree_recovery\n"
            "rates = 0.05/0.03, 0.025/0.03, 0.01/0.03, 0.01/0.011\n"
            "replicates = 2\n")
    spec = parse_spec(text)
    assert set(spec.configs) == {"exponential/exponential", "exponential/na"}


@pytest.mark.parametrize("text", [
    "rate_event = 0.05\n",                                  # no experiment
    "experiment = banana\n",                                # unknown kind
    "experiment = size\nrate_event = 0.05\nrate_event = 0.1\n",  # dup key
    "experiment = size\nbogus = 1\n",                       # unknown key
    "experiment = size\nn = many\n",                        # bad int
    "experiment = size\nseed = soon\n",                     # bad seed
    "experiment = size\nn 100\n",                           # missing '='
    "experiment = size\nlevel = 1.5\n",                     # level above 1
    "experiment = power\nrate_event_1 = 0.05\nrate_event_2 = 0.025\n"
    "rate_censor = 0.03\nlevel = 0\n",                       # level of 0
    "experiment = size\nn =\n",                             # empty value
    "experiment = tree_recovery\nrates = 0.05, 0.02\nreplicates = 1\n",
    "experiment = tree_recovery\nrates = a/b, c/d, e/f, g/h\nreplicates = 1\n",
    "experiment = tree_recovery\n"
    "rates = 0.05/0.03, 0.02/0.03, 0.01/0.03, 0.01/0.011\n"
    "replicates = 1\nconfigs = exponential\n",
])
def test_parse_spec_rejects_malformed(text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


def test_format_rates_round_trips():
    rates = DEFAULT_SUBGROUP_RATES
    assert _parse_rates(format_rates(rates)) == rates
    odd = ((1.0 / 3.0, 2.0 / 7.0), (0.1, 0.2))
    assert _parse_rates(format_rates(odd)) == odd


def test_run_spec_row_kinds():
    spec = parse_spec(SIZE_SPEC)
    rows = run_spec(spec, seed=spec.seed)
    assert len(rows) == 1
    assert rows[0]["experiment"] == "size"
    assert rows[0]["seed"] == 77

    tree_text = (
        "experiment = tree_recovery\n"
        "rates = 0.05/0.0333, 0.025/0.0333, 0.01/0.0333, 0.01/0.0111\n"
        "n_per_subgroup = 40\n"
        "replicates = 2\n"
        "minsplit = 40\nminbucket = 20\n"
    )
    tree_rows = run_spec(parse_spec(tree_text), seed=9)
    assert len(tree_rows) == 2
    assert {r["config"] for r in tree_rows} == {
        "exponential/exponential", "exponential/na"}
    for r in tree_rows:
        assert r["experiment"] == "tree_recovery"
        assert r["rng"] == RNG_NAME


def test_experiment_spec_is_plain_data():
    spec = ExperimentSpec(kind="size", design=SizeDesign(replicates=1))
    assert spec.configs is None and spec.seed is None


def test_one_preamble_per_component_per_rejection_replicate(monkeypatch):
    # fit and score_contributions of a replicate share its positivity
    # check and exact-time weights; only the event component is fitted
    calls = []
    preamble = families._times_and_weights

    def counted(fam, component, data):
        calls.append(component)
        return preamble(fam, component, data)

    monkeypatch.setattr(families, "_times_and_weights", counted)
    run_size(SizeDesign(n=80, replicates=20), seed=5)
    assert calls == ["event"] * 20
    calls.clear()
    run_power(PowerDesign(0.1, 0.02, 0.01, n1=30, n2=30, replicates=20), seed=5)
    assert calls == ["event"] * 20


class _SpyExecutor:
    """Records the pool size it is given; maps in the calling thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "threads, replicates, cores, workers",
    [(5000, 20, 2, 2), (5000, 3, 64, 3), (4, 60, 8, 4), (8, 60, None, None),
     (2, 60, 1, None), (1, 60, 8, None)],
)
def test_thread_pool_is_capped_by_replicates_and_cores(
    monkeypatch, threads, replicates, cores, workers
):
    # workers None: the replicates run serially, with no pool at all
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SpyExecutor)
    monkeypatch.setattr(simlab.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_SpyExecutor, "sizes", [])
    design = SizeDesign(n=40, replicates=replicates)
    serial = run_size(design, seed=3, threads=1)
    assert run_size(design, seed=3, threads=threads) == serial
    assert _SpyExecutor.sizes == ([] if workers is None else [workers])
