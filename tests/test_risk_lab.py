import functools
import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from oracles import binom_mean_abs_dev
from treedens import (
    ESTIMATORS,
    FAMILY_NAMES,
    BadParam,
    DegenerateGrid,
    DomainMismatch,
    EmptyFamily,
    HypercubeSpec,
    NotConvex,
    Regime,
    RiskReport,
    UnknownEstimator,
    assouad_default_params,
    assouad_density,
    default_sup_family,
    derive_seed,
    estimator_names,
    family,
    fit_estimate,
    make_density,
    mc_risk,
    rate_scaling,
    risk_lab,
    sample,
    sup_risk,
    tv,
)

# Frozen at first run: greedy-binary+monotonize, harmonic-zipf, n=1000,
# k=64, reps=50, master seed 11.  Guards the whole sampling-tree-pooling
# pipeline against silent drift.
GOLDEN_MEAN_TV = 0.05220578067983798


def test_registry_names():
    names = estimator_names()
    assert "oracle" in names and "greedy-binary+monotonize" in names
    assert len(names) == 7


def test_unknown_estimator():
    with pytest.raises(UnknownEstimator):
        mc_risk("no-such", family("uniform", 2), 10, 2, 0)


def test_oracle_risk_zero():
    rep = mc_risk("oracle", family("harmonic-zipf", 16), 100, 10, 5)
    assert rep.mean_tv == 0.0
    assert rep.std_error == 0.0


def test_empirical_histogram_matches_binomial_oracle():
    n, reps = 10**4, 500
    rep = mc_risk("empirical-histogram", family("uniform", 2), n, reps, 7)
    # k=2: TV = |counts[1]/n - 1/2|, so the mean is an exact binomial sum
    exact = binom_mean_abs_dev(n, "1/2")
    assert abs(rep.mean_tv - exact) <= 3 * rep.std_error
    assert exact == pytest.approx(math.sqrt(1 / (2 * math.pi * n)), rel=0.01)


def test_self_golden_regression():
    rep = mc_risk("greedy-binary+monotonize", family("harmonic-zipf", 64), 1000, 50, 11)
    assert rep.mean_tv == GOLDEN_MEAN_TV


def test_risk_in_unit_interval_all_estimators():
    f = family("harmonic-zipf", 27)
    for name in estimator_names():
        rep = mc_risk(name, f, 200, 5, 3)
        assert 0.0 <= rep.mean_tv <= 1.0 + 1e-12, name
        assert rep.std_error >= 0.0


def test_thread_count_does_not_change_mean():
    f = family("harmonic-zipf", 64)
    a = mc_risk("greedy-binary", f, 500, 16, 9, threads=1)
    b = mc_risk("greedy-binary", f, 500, 16, 9, threads=8)
    assert a.mean_tv == b.mean_tv
    assert a.std_error == b.std_error


def test_threaded_calls_reuse_their_worker_threads():
    f = family("uniform", 8)
    names = []

    def est(f, sc):
        names.append(threading.current_thread().name)
        return f.mass

    mc_risk(est, f, 50, 6, 0, threads=3)
    kept = {t.name for t in threading.enumerate()} - {threading.current_thread().name}
    for seed in range(1, 5):
        names.clear()
        mc_risk(est, f, 50, 6, seed, threads=3)
        assert len(names) == 6
        assert 1 <= len(set(names)) <= 3
        assert set(names) <= kept
    names.clear()
    mc_risk(est, f, 50, 2, 0, threads=8)
    assert 1 <= len(set(names)) <= 2


def test_threaded_call_raises_a_replication_error():
    def est(f, sc):
        raise ValueError("bad fit")

    with pytest.raises(ValueError, match="bad fit"):
        mc_risk(est, family("uniform", 8), 50, 5, 0, threads=2)


def test_single_replication_std_error_zero():
    rep = mc_risk("empirical-histogram", family("uniform", 4), 100, 1, 0)
    assert rep.std_error == 0.0


def test_monotonize_never_hurts_paired_seeds():
    f = family("harmonic-zipf", 64)
    raw = mc_risk("greedy-binary", f, 1000, 30, 13)
    fixed = mc_risk("greedy-binary+monotonize", f, 1000, 30, 13)
    assert fixed.mean_tv <= raw.mean_tv + 1e-12


def test_sup_risk_single_density_equals_mc_risk():
    f = family("uniform", 8)
    a = sup_risk("empirical-histogram", [("uniform", f)], 100, 10, 3)
    b = mc_risk("empirical-histogram", f, 100, 10, 3, density_name="uniform")
    assert a == b


def test_sup_risk_names_an_unnamed_member_by_its_position():
    top = sup_risk("oracle", [family("uniform", 4)], 10, 1, 0)
    assert top.density_name == "member-0"


def test_sup_risk_empty_family():
    with pytest.raises(EmptyFamily):
        sup_risk("oracle", [], 10, 2, 0)


def test_sup_risk_dominates_each_member():
    n, k = 1000, 64
    r, eps = assouad_default_params(Regime.MONOTONE_SMALL_K, n, k)
    rng = np.random.default_rng(4)
    members = [(0,) * r, (1,) * r] + [tuple(rng.integers(0, 2, r)) for _ in range(8)]
    fam = [
        (f"assouad-{i}", assouad_density(HypercubeSpec(Regime.MONOTONE_SMALL_K, n, k, r, eps, th)))
        for i, th in enumerate(members)
    ]
    top = sup_risk("greedy-binary", fam, n, 5, 21)
    for label, f in fam:
        rep = mc_risk("greedy-binary", f, n, 5, 21, density_name=label)
        assert top.mean_tv >= rep.mean_tv - 1e-15


@pytest.mark.parametrize("k, n", [(64, 1000), (64, 10_000), (512, 100_000)])
def test_sup_risk_f64_family_dominates_uniform(k, n):
    fam = default_sup_family(k, n)
    assert [name for name, _ in fam] == [
        "uniform",
        "harmonic-zipf",
        "trunc-geometric",
        "linear-decreasing",
    ]
    top = sup_risk("greedy-binary", fam, n, 5, 2)
    uni = mc_risk("greedy-binary", family("uniform", k), n, 5, 2)
    assert top.mean_tv >= uni.mean_tv - 1e-15


def test_default_sup_family_is_the_four_shapes_at_every_n():
    for k, n in ((2, 1), (64, 1000), (64, 10_000), (4096, 10**6), (64, 10**400)):
        assert default_sup_family(k, n) == [(name, family(name, k)) for name in FAMILY_NAMES]
    for bad in (0, -1, 1.5, "1000", None):
        with pytest.raises(BadParam, match="n must be"):
            default_sup_family(64, bad)


def test_mc_risk_refuses_a_custom_estimate_with_non_finite_values():
    f = family("uniform", 8)
    for value in (math.nan, math.inf):
        def bad(f, sc, value=value):
            return np.full(f.k, value)

        for threads in (1, 2):
            with pytest.raises(BadParam, match="atom values must be finite"):
                mc_risk(bad, f, 100, 3, 0, threads=threads)


def test_rate_scaling_oracle_nan_flag():
    res = rate_scaling("oracle", "uniform", [100, 200, 400], 4, 3, 0)
    assert not res.slope_valid
    assert math.isnan(res.slope)


def test_rate_scaling_grid_validation():
    with pytest.raises(DegenerateGrid):
        rate_scaling("oracle", "uniform", [100, 200], 4, 3, 0)
    with pytest.raises(DegenerateGrid):
        rate_scaling("oracle", "uniform", [100, 100, 200], 4, 3, 0)


def test_rate_scaling_rejects_non_integral_grid_points():
    # int() truncated them: this grid ran at n = 10, 20, 40
    for bad in (10.5, float("nan"), float("inf"), "10"):
        with pytest.raises(BadParam, match="grid points must be integers"):
            rate_scaling("oracle", "uniform", [bad, 20.2, 40.9], 8, 2, 0)
    got = rate_scaling("oracle", "uniform", [10.0, np.float64(20), np.int32(40)], 8, 2, 0)
    assert [r.n for r in got.reports] == [10, 20, 40]
    assert got.reports == rate_scaling("oracle", "uniform", [10, 20, 40], 8, 2, 0).reports


def test_rate_scaling_rejects_a_bool_grid_point():
    # True was read as n = 1, so this grid ran at n = 1, 2, 3
    with pytest.raises(BadParam, match="grid points must be integers"):
        rate_scaling("oracle", "uniform", [True, 2, 3], 4, 2, 0)


@pytest.mark.parametrize("builder", [None, 3, b"uniform"])
def test_rate_scaling_rejects_a_builder_that_is_neither_name_nor_callable(builder):
    # each was a bare TypeError from calling it
    with pytest.raises(BadParam, match="density_builder"):
        rate_scaling("oracle", builder, [10, 20, 30], 8, 2, 0)


def test_rate_scaling_empirical_slope_near_half():
    res = rate_scaling(
        "empirical-histogram", "uniform", [100, 1000, 10000], 2, 100, 12
    )
    assert res.slope_valid
    assert -0.65 <= res.slope <= -0.35
    assert res.to_csv().splitlines()[0] == "n,mean_tv,std_error"


def test_rate_scaling_prefix_stability():
    # adding a grid point must not change earlier points' reports
    short = rate_scaling("empirical-histogram", "uniform", [50, 100, 200], 2, 5, 31)
    long = rate_scaling("empirical-histogram", "uniform", [50, 100, 200, 400], 2, 5, 31)
    assert short.reports == long.reports[:3]


def test_report_serialization():
    rep = mc_risk("oracle", family("uniform", 2), 10, 2, 1, density_name="uniform")
    payload = json.loads(rep.to_json())
    assert payload["estimator_name"] == "oracle"
    assert payload["density_name"] == "uniform"
    assert RiskReport.CSV_HEADER == "n,k,mean_tv,std_error,reps,seed"
    assert rep.to_csv_row().split(",")[0] == "10"


def test_fit_estimate_artifacts():
    f = family("harmonic-zipf", 64)
    sc = sample(f, 1000, 7)
    tree, est = fit_estimate("greedy-binary", f, sc)
    assert tree is not None
    assert est.domain_k == 64
    tree2, est2 = fit_estimate("oracle", f, sc)
    assert tree2 is None
    assert np.array_equal(est2.atom_values(), f.mass)
    with pytest.raises(UnknownEstimator):
        fit_estimate("nope", f, sc)


@pytest.mark.parametrize("name", estimator_names())
def test_table_views_agree(name):
    fn = ESTIMATORS[name]
    for fam in ("harmonic-zipf", "trunc-geometric"):
        for k in (1, 5, 64, 100):
            f = family(fam, k)
            sc = sample(f, 500, k)
            got, want = fn(f, sc), fit_estimate(name, f, sc)[1].atom_values()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (fam, k)
            by_name = mc_risk(name, f, 300, 4, k, density_name=fam)
            by_object = mc_risk(fn, f, 300, 4, k, density_name=fam)
            assert by_object == replace(by_name, estimator_name=by_object.estimator_name)


def test_registry_callables_report_distinct_names():
    f = family("harmonic-zipf", 8)
    names = {mc_risk(fn, f, 50, 2, 0).estimator_name for fn in ESTIMATORS.values()}
    assert len(names) == len(ESTIMATORS)


def test_mc_risk_validation():
    f = family("uniform", 2)
    with pytest.raises(BadParam):
        mc_risk("oracle", f, 10, 0, 0)
    with pytest.raises(BadParam):
        mc_risk("oracle", f, 10, 2, 0, threads=0)


def _draw_no_sample(*args, **kwargs):
    raise AssertionError("a count-free estimator drew a sample")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "name, fam",
    [
        ("oracle", "harmonic-zipf"),
        ("idealized-binary", "harmonic-zipf"),
        ("idealized-binary", "trunc-geometric"),
        ("idealized-ternary", "harmonic-zipf"),
        ("idealized-ternary", "trunc-geometric"),
    ],
)
def test_count_free_estimators_fit_once(monkeypatch, name, fam, threads):
    f = family(fam, 64)
    n, reps, seed = 1000, 7, 13
    # the per-replication loop that mc_risk runs for sample-driven estimators
    fn = ESTIMATORS[name]
    losses = [tv(f.mass, fn(f, sample(f, n, derive_seed(seed, i)))) for i in range(reps)]
    mean = math.fsum(losses) / reps
    var = math.fsum((x - mean) ** 2 for x in losses) / (reps - 1)
    want = RiskReport(name, fam, n, 64, reps, mean, math.sqrt(var / reps), seed)
    monkeypatch.setattr(risk_lab, "sample", _draw_no_sample)
    assert mc_risk(name, f, n, reps, seed, density_name=fam, threads=threads) == want
    # the registry function object itself takes the same path
    by_object = mc_risk(fn, f, n, reps, seed, density_name=fam, threads=threads)
    assert by_object == replace(want, estimator_name=fn.__name__)


def test_count_free_estimators_keep_their_errors(monkeypatch):
    monkeypatch.setattr(risk_lab, "sample", _draw_no_sample)
    f = family("harmonic-zipf", 64)
    for name in ("oracle", "idealized-binary", "idealized-ternary"):
        with pytest.raises(BadParam):
            mc_risk(name, f, -1, 3, 0)
    with pytest.raises(BadParam):
        mc_risk("idealized-binary", f, 0, 3, 0)
    # non-increasing but strictly concave: 65**2 - x**2 on 1..64
    w = 65.0**2 - np.arange(1, 65, dtype=float) ** 2
    with pytest.raises(NotConvex):
        mc_risk("idealized-ternary", make_density(w / w.sum()), 1000, 3, 0)


def test_custom_callable_runs_every_replication():
    seen = []

    def oracle(f, sc):  # shares a registry name, but is not the registry function
        seen.append(sc.counts.copy())
        return f.mass

    f = family("harmonic-zipf", 16)
    rep = mc_risk(oracle, f, 100, 5, 3)
    assert rep.estimator_name == "oracle" and rep.mean_tv == 0.0
    assert len(seen) == 5
    for i, counts in enumerate(seen):
        assert np.array_equal(counts, sample(f, 100, derive_seed(3, i)).counts)


def test_a_wrapped_registry_callable_runs_every_replication():
    # functools.wraps copies the entry's _fit and _count_free, but only the
    # entry itself is fit once
    calls = []

    @functools.wraps(ESTIMATORS["oracle"])
    def oracle(f, sc):
        calls.append(sc.n)
        return ESTIMATORS["oracle"](f, sc)

    assert oracle._count_free
    rep = mc_risk(oracle, family("harmonic-zipf", 16), 100, 5, 3)
    assert rep.estimator_name == "oracle" and rep.mean_tv == 0.0
    assert calls == [100] * 5


@pytest.mark.parametrize(
    "call",
    [
        lambda: sup_risk("oracle", [1], 10, 1, 0),
        lambda: sup_risk("oracle", [("a", "x")], 10, 1, 0),
        lambda: mc_risk("oracle", "x", 10, 1, 0),
        lambda: rate_scaling("oracle", lambda k: 3, [1, 2, 3], 5, 1, 0),
    ],
)
def test_risk_functions_reject_a_truth_that_is_not_a_density(call):
    # a bare TypeError or AttributeError before
    with pytest.raises(BadParam):
        call()


def _never_fit(f, sc):
    raise AssertionError("a replication ran")


@pytest.mark.parametrize("estimator", ["oracle", "greedy-binary", _never_fit])
@pytest.mark.parametrize(
    "n, reps, threads", [(100, 2.5, 1), (100.5, 2, 1), (100, 2, 1.5), (100, 10**20, 1)]
)
def test_mc_risk_rejects_non_integer_sizes_before_any_fit(estimator, n, reps, threads):
    # a float reps was a bare TypeError, a float n gave a report with that
    # n from the count-free oracle, and a float thread count was accepted
    with pytest.raises(BadParam, match="must be an integer"):
        mc_risk(estimator, family("uniform", 8), n, reps, 0, threads=threads)


def test_fit_estimate_rejects_a_sample_over_another_domain():
    # it returned an estimate over 1..5 for a truth over 1..4 before
    f = family("uniform", 4)
    with pytest.raises(DomainMismatch):
        fit_estimate("greedy-binary", f, sample(family("uniform", 5), 10, 0))
    for truth, sc in ((f, "x"), (f, [3, 3, 2, 2]), (f.mass, sample(f, 10, 0))):
        with pytest.raises(BadParam):
            fit_estimate("greedy-binary", truth, sc)


def test_sup_risk_rejects_a_family_that_is_not_iterable():
    # a bare TypeError from iterating the int before
    with pytest.raises(BadParam):
        sup_risk("oracle", 5, 10, 1, 0)
