"""Acceptance gate: eleven criteria, one test and one printed verdict each.

Each test states its tolerance inline and fails loudly past it; runtime
caps are asserted where the criterion carries one.  Run with -s to see the
per-criterion verdict lines.
"""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import pava_all_merge_orders, random_convex_mass, random_monotone_mixture
from treedens import (
    CandidateSet,
    HypercubeSpec,
    Piece,
    PiecewiseEstimate,
    Regime,
    assouad_alpha_beta,
    assouad_default_params,
    assouad_density,
    assouad_lower_bound,
    build_greedy_binary,
    build_idealized_binary,
    build_idealized_ternary,
    empirical_sup_deviation,
    family,
    hellinger_affinity,
    histogram_estimate,
    hypercube_bins,
    idealized_pc_estimate,
    idealized_pl_estimate,
    is_convex_non_increasing,
    is_non_increasing,
    make_density,
    mc_risk,
    minimum_distance_estimate,
    monotonize,
    rate_scaling,
    sample,
    tv,
    tv_sup_bruteforce,
    vc_unions_intervals_brute,
    yatracos_class,
)
from treedens.cli import run


def _verdict(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_tv_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        a = rng.dirichlet(np.ones(k))
        b = rng.dirichlet(np.ones(k))
        worst = max(worst, abs(tv(a, b) - tv_sup_bruteforce(a, b)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    _verdict(1, f"tv vs brute force, 1000 pairs, max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_idealized_pc_tv_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    slack = []
    for _ in range(200):
        k = int(rng.integers(4, 1025))
        n = int(round(10 ** rng.uniform(math.log10(16), 5)))
        n = min(max(n, 16), 10**5)
        f = make_density(random_monotone_mixture(rng, k))
        assert is_non_increasing(f)
        t = build_idealized_binary(f, n)
        est = idealized_pc_estimate(t, f)
        m = t.nonsingleton_leaf_count()
        bound = 2.5 * math.sqrt(m / n) + 1e-12
        d = tv(est, f)
        assert d <= bound, (k, n, d, bound)
        slack.append(bound - d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _verdict(2, f"TV <= 2.5 sqrt(m/n) on 200 monotone f, min slack {min(slack):.1e}, {elapsed:.1f}s")


def test_criterion_03_binary_leaf_count_bound():
    checked = 0
    for n in (64, 216, 1000, 4096, 59049, 100000):
        cube = n ** (1.0 / 3.0)
        kmin = math.ceil(2 * cube)
        shapes = [
            family("harmonic-zipf", 1024),
            family("trunc-geometric", 1024, 0.5),
            family("trunc-geometric", 1024, 0.95),
            family("linear-decreasing", 1024),
        ]
        for k in sorted({kmin, kmin + 5, 64, 128, 333, 512, 1024}):
            if not kmin <= k <= 1024:
                continue
            bound = 12 * cube * math.log2(k / cube) ** (2.0 / 3.0)
            for base in shapes:
                f = make_density(base.mass[:k] / base.mass[:k].sum())
                leaves = len(build_idealized_binary(f, n).leaves())
                assert leaves <= bound, (n, k, leaves, bound)
                checked += 1
    _verdict(3, f"idealized binary leaf bound exact on {checked} (n, k, f) points")


def test_criterion_04_idealized_pl_suite():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        k = int(rng.integers(3, 730))
        n = int(round(10 ** rng.uniform(math.log10(16), 5)))
        n = min(max(n, 16), 10**5)
        f = make_density(random_convex_mass(rng, k))
        assert is_convex_non_increasing(f)
        t = build_idealized_ternary(f, n)
        est = idealized_pl_estimate(t, f)
        m = t.nonsingleton_leaf_count()
        d = tv(est, f)
        assert d <= (41.0 / 48.0) * math.sqrt(m / n) + 1e-12, (k, n, d, m)
        # stated scale: estimate values stay nonnegative up to float grime
        if n >= 3**10:
            assert est.atom_values().min() >= -1e-12
    counted = 0
    for n in (3**10, 3**11):
        fifth = n ** (1.0 / 5.0)
        for k in (27, 81, 243, 729):
            if k < 3 * fifth:
                continue
            bound = 34 * fifth * (math.log(k / fifth, 3)) ** (4.0 / 5.0)
            shapes = [
                family("harmonic-zipf", k),
                family("trunc-geometric", k, 0.5),
                family("trunc-geometric", k, 0.9),
                family("linear-decreasing", k),
                family("uniform", k),
                make_density(random_convex_mass(rng, k)),
            ]
            for f in shapes:
                leaves = len(build_idealized_ternary(f, n).leaves())
                assert leaves <= bound, (n, k, leaves, bound)
                counted += 1
    _verdict(4, f"pl TV bound on 100 convex f; ternary leaf bound on {counted} points")


def test_criterion_05_monotonize():
    rng = np.random.default_rng(1005)
    for _ in range(500):
        npieces = int(rng.integers(1, 7))
        lengths = [int(v) for v in rng.integers(1, 5, size=npieces)]
        values = [float(v) for v in rng.random(npieces)]
        pieces, pos = [], 1
        for l, v in zip(lengths, values):
            pieces.append(Piece(pos, l, "constant", v))
            pos += l
        est = PiecewiseEstimate(pos - 1, tuple(pieces))
        got = monotonize(est)
        want = pava_all_merge_orders(list(zip(lengths, values)))
        assert [(p.length, p.value) for p in got.pieces] == [
            (l, float(v)) for l, v in want
        ]
        again = monotonize(got)
        assert [(p.length, p.value) for p in again.pieces] == [
            (p.length, p.value) for p in got.pieces
        ]
        assert abs(got.total_mass() - est.total_mass()) <= 1e-12
        exact_in = sum(Fraction(v) * l for l, v in zip(lengths, values))
        exact_out = sum(Fraction(p.value) * p.length for p in got.pieces)
        assert abs(float(exact_out - exact_in)) <= 1e-12
    # paired-seed risk: pooling never hurts against a monotone truth
    trials = 0
    for fam_seed in range(20):
        frng = np.random.default_rng(50_000 + fam_seed)
        k = int(frng.integers(8, 257))
        f = make_density(random_monotone_mixture(frng, k))
        for rep in range(3):
            sc = sample(f, int(frng.integers(100, 3000)), 60_000 + 10 * fam_seed + rep)
            raw = histogram_estimate(build_greedy_binary(sc), sc)
            assert tv(monotonize(raw), f) <= tv(raw, f) + 1e-12
            trials += 1
    _verdict(5, f"500 merge-order oracle matches; risk never up in {trials} paired trials")


def _flip(spec: HypercubeSpec, i: int) -> HypercubeSpec:
    th = list(spec.theta)
    th[i] ^= 1
    return dataclasses.replace(spec, theta=tuple(th))


def test_criterion_06_assouad_constructions():
    n = 10**6
    mlk_k = math.ceil(math.e**8 * 100)
    points = [
        (Regime.MONOTONE_LARGE_K, mlk_k, None, None, True),
        (Regime.MONOTONE_SMALL_K, 64, None, None, True),
        # the large-k convex range needs k >= e^40 n^{1/5}: delivered at
        # explicit parameters instead; its alpha is a floor, not an equality
        (Regime.CONVEX_LARGE_K, 400, 8, 0.3, False),
        (Regime.CONVEX_SMALL_K, 9, None, None, True),
        (Regime.CONVEX_SMALL_K, 9, 3, 0.3, True),
    ]
    for regime, k, r, eps, alpha_is_exact in points:
        if r is None:
            r, eps = assouad_default_params(regime, n, k)
        rng = np.random.default_rng(hash((regime.value, k)) % 2**32)
        thetas = [(0,) * r, (1,) * r] + [
            tuple(int(b) for b in rng.integers(0, 2, r)) for _ in range(4)
        ]
        for theta in thetas:
            spec = HypercubeSpec(regime, n, k, r, eps, theta)
            f = assouad_density(spec)
            assert abs(f.mass.sum() - 1.0) <= 1e-9
            assert is_non_increasing(f)
            if regime.is_convex():
                assert is_convex_non_increasing(f)
        spec = HypercubeSpec(regime, n, k, r, eps, (0,) * r)
        f0 = assouad_density(spec)
        alpha, beta = assouad_alpha_beta(spec)
        bins = hypercube_bins(spec)
        for i in range(r):
            g = assouad_density(_flip(spec, i))
            s, length = bins[i]
            sep = float(np.abs(f0.mass[s - 1 : s - 1 + length] - g.mass[s - 1 : s - 1 + length]).sum())
            assert sep >= alpha - 1e-9, (regime, i, sep, alpha)
            if alpha_is_exact:
                assert abs(sep - alpha) <= 1e-9, (regime, i, sep, alpha)
            assert hellinger_affinity(f0, g) >= beta - 1e-9, (regime, i)
    # two-point lower-bound arithmetic at the monotone large-k point
    r, eps = assouad_default_params(Regime.MONOTONE_LARGE_K, n, mlk_k)
    spec = HypercubeSpec(Regime.MONOTONE_LARGE_K, n, mlk_k, r, eps, (0,) * r)
    alpha, beta = assouad_alpha_beta(spec)
    bound = assouad_lower_bound(r, alpha, beta, n)
    target = (1.0 / 32.0) * (math.log(mlk_k / n ** (1.0 / 3.0)) / n) ** (1.0 / 3.0)
    assert bound >= target * 0.95, (bound, target)
    _verdict(6, f"four regimes valid; lower bound {bound:.3e} >= 0.95 * {target:.3e}")


def test_criterion_07_small_k_rate_scaling():
    t0 = time.perf_counter()
    res = rate_scaling(
        "empirical-histogram", "uniform", [100, 1000, 10000, 100000], 2, 200, 2026
    )
    elapsed = time.perf_counter() - t0
    assert res.slope_valid
    assert -0.6 <= res.slope <= -0.4, res.slope
    assert elapsed < 60.0
    _verdict(7, f"k=2 risk slope {res.slope:.3f} in [-0.6, -0.4], {elapsed:.1f}s")


def test_criterion_08_vc_brute_force():
    t0 = time.perf_counter()
    assert vc_unions_intervals_brute(1, 4) == 2
    assert vc_unions_intervals_brute(2, 8) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _verdict(8, f"vc(1,4)=2 and vc(2,8)=4, {elapsed:.1f}s")


def test_criterion_09_selection_envelope():
    k, n = 16, 1000
    cands = []
    for atom in (1, 4, 7, 10, 13):
        m = np.full(k, 0.5 / k)
        m[atom - 1] += 0.5
        cands.append(make_density(m))
    for i in range(5):
        for j in range(i + 1, 5):
            assert tv(cands[i], cands[j]) >= 0.2
    truth = cands[2]
    cs = CandidateSet(cands)
    sets = yatracos_class(cs)
    best = min(tv(c, truth) for c in cands)
    for seed in range(100):
        sc = sample(truth, n, seed)
        chosen = minimum_distance_estimate(cs, sc)
        dev = empirical_sup_deviation(sc, truth, sets)
        lhs = tv(cands[chosen], truth)
        rhs = 3.0 * best + 2.0 * dev + 1.5 / n + 1e-12
        assert lhs <= rhs, (seed, lhs, rhs)
    _verdict(9, "per-trial selection envelope held in all 100 trials")


def test_criterion_10_figure_reproduction(tmp_path):
    greedy = [
        "estimate", "--family", "harmonic-zipf", "--k", "64", "--n", "1000",
        "--estimator", "greedy-binary", "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(greedy + ["--out", str(a)]) == 0
    assert run(greedy + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ideal = {}
    for seed in ("7", "99"):
        p = tmp_path / f"ideal-{seed}.json"
        code = run(
            [
                "estimate", "--family", "harmonic-zipf", "--k", "64", "--n", "1000",
                "--estimator", "idealized-binary", "--seed", seed,
                "--format", "json", "--out", str(p),
            ]
        )
        assert code == 0
        ideal[seed] = json.loads(p.read_text())
    assert ideal["7"]["tree"] == ideal["99"]["tree"]
    assert ideal["7"]["estimate"] == ideal["99"]["estimate"]
    rerun = tmp_path / "ideal-again.json"
    assert run(
        [
            "estimate", "--family", "harmonic-zipf", "--k", "64", "--n", "1000",
            "--estimator", "idealized-binary", "--seed", "7",
            "--format", "json", "--out", str(rerun),
        ]
    ) == 0
    assert rerun.read_text() == (tmp_path / "ideal-7.json").read_text()
    _verdict(10, "greedy estimate byte-identical; idealized tree seed-independent")


def test_criterion_11_thread_determinism():
    f = family("harmonic-zipf", 64)
    one = mc_risk("greedy-binary+monotonize", f, 500, 24, 314, threads=1)
    eight = mc_risk("greedy-binary+monotonize", f, 500, 24, 314, threads=8)
    assert one.mean_tv == eight.mean_tv
    assert one == eight
    _verdict(11, f"mean_tv {one.mean_tv:.6f} identical at 1 and 8 threads")
