import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from survcart.errors import InvalidTimeError, TooFewGroupsError
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


# a row's covariate: distinct, tied, NaN-holding, signed zeros, or one value
ROW_COVARIATES = {
    "distinct": lambda rng, n: rng.uniform(0.0, 20.0, n),
    "tied": lambda rng, n: rng.integers(0, 4, n).astype(float),
    "nan": lambda rng, n: np.where(rng.random(n) < 0.3, np.nan,
                                   rng.integers(0, 6, n).astype(float)),
    "zeros": lambda rng, n: rng.choice([-0.0, 0.0, 1.0], n),
    "one": lambda rng, n: np.full(n, 3.0),
}


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 30),
    rows=st.lists(
        st.tuples(st.sampled_from(sorted(ROW_COVARIATES)),
                  st.sampled_from([0.0, 0.3, 0.9, 1.0])),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_instability_p_rows_equal_their_one_row_calls(seed, n, rows):
    # a 2-d call is its rows' 1-d calls: the same floats, p = 1 for a
    # row with no events, and the first failing row's error
    rng = np.random.default_rng(seed)
    times = np.round(rng.exponential(5.0, (len(rows), n)), 1) + 0.1  # tied too
    events = np.array([rng.random(n) < share for _, share in rows])
    x = np.array([ROW_COVARIATES[kind](rng, n) for kind, _ in rows])
    singles = []
    for r in range(len(rows)):
        try:
            singles.append(event_rate_instability_p(times[r], events[r], x[r]))
        except TooFewGroupsError as exc:
            singles.append(exc)
    assert all(type(p) is float for p in singles if not isinstance(p, Exception))
    errors = [p for p in singles if isinstance(p, Exception)]
    if errors:
        with pytest.raises(type(errors[0])):
            event_rate_instability_p(times, events, x)
    else:
        together = event_rate_instability_p(times, events, x)
        assert together.shape == (len(rows),)
        assert together.tolist() == singles


def test_instability_p_rows_let_invalid_times_escape():
    # a time the exponential fit rejects raises from the 2-d call as from
    # the row's own, even in a row without events
    times = np.array([[1.0, 2.0, 3.0], [0.0, 2.0, 3.0]])
    x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    for events in (np.ones((2, 3), bool), np.array([[True] * 3, [False] * 3])):
        for args in ((times[1], events[1], x[1]), (times, events, x)):
            with pytest.raises(InvalidTimeError):
                event_rate_instability_p(*args)


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
    squares = simlab._map_replicates(lambda rep: rep * rep, replicates, threads)
    assert squares == [rep * rep for rep in range(replicates)]
    assert _SpyExecutor.sizes == ([] if workers is None else [workers])


def test_rejection_pool_is_capped_by_chunks(monkeypatch):
    # 1,000 replicates of 40 subjects fill three chunks of at most
    # 16,384 subjects, so 8 threads on 64 cores start 3 workers
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SpyExecutor)
    monkeypatch.setattr(simlab.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_SpyExecutor, "sizes", [])
    design = SizeDesign(n=40, replicates=1000)
    serial = run_size(design, seed=3, threads=1)
    assert _SpyExecutor.sizes == []
    assert run_size(design, seed=3, threads=8) == serial
    assert _SpyExecutor.sizes == [3]


REJECTION_CELLS = [
    (run_size, SizeDesign(n=90, replicates=70)),
    (run_size, SizeDesign(n=33, censoring_rate=0.0, replicates=50)),
    (run_power, PowerDesign(0.1, 0.02, 0.01, n1=17, n2=23, replicates=60)),
    (run_power, PowerDesign(0.1, 0.05, 0.0, n1=5, n2=7, replicates=60)),
]


@pytest.mark.parametrize("runner, design", REJECTION_CELLS)
def test_rejection_rows_do_not_depend_on_chunks_or_threads(
    monkeypatch, runner, design
):
    # replicate streams are keyed (seed, replicate): one replicate per
    # chunk, every replicate in one chunk, the default chunks and two
    # threads (never more than the cores) all draw and test the same
    counts = []

    def counting(times, events, x):
        p = event_rate_instability_p(times, events, x)
        counts.append(p.size)
        return p

    monkeypatch.setattr(simlab, "event_rate_instability_p", counting)
    want = runner(design, seed=8)
    assert sum(counts) == design.replicates
    for chunk_subjects in (1, 10**9):
        monkeypatch.setattr(simlab, "_CHUNK_SUBJECTS", chunk_subjects)
        counts.clear()
        assert runner(design, seed=8) == want
        assert counts == ([1] * design.replicates if chunk_subjects == 1
                          else [design.replicates])
    monkeypatch.undo()
    assert runner(design, seed=8, threads=min(2, os.cpu_count() or 1)) == want


def test_rejection_cell_draws_each_replicate_from_its_stream(monkeypatch):
    # the chunk's block of uniforms, row by row, is what one replicate's
    # own draws were: events, censoring, covariate, n at a time
    design = PowerDesign(0.1, 0.02, 0.01, n1=6, n2=4, replicates=3)
    seen = []

    def spy(times, events, x):
        seen.append((times, events, x))
        return event_rate_instability_p(times, events, x)

    monkeypatch.setattr(simlab, "event_rate_instability_p", spy)
    run_power(design, seed=4)
    (times, events, x), = seen
    for rep in range(design.replicates):
        rng = replicate_rng(4, rep)
        t1 = gen_exponential(0.1, 6, rng)
        t2 = gen_exponential(0.02, 4, rng)
        cens = gen_exponential(0.01, 10, rng)
        want_x = np.concatenate([10.0 * rng.random(6), 10.0 + 10.0 * rng.random(4)])
        tstar = np.concatenate([t1, t2])
        assert np.array_equal(times[rep], np.minimum(tstar, cens))
        assert np.array_equal(events[rep], tstar <= cens)
        assert np.array_equal(x[rep], want_x)
