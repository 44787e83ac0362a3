import math
import tracemalloc

import numpy as np
import pytest

from oracles import ref_vc_interval_unions, tv_by_events
from treedens import (
    BadParam,
    BadParams,
    DomainMismatch,
    NegativeMass,
    RateBranch,
    TooLarge,
    assouad_lower_bound,
    family,
    hellinger_affinity,
    make_density,
    rate_convex,
    rate_monotone,
    tv,
    tv_sup_bruteforce,
    vc_unions_intervals_brute,
)


def test_tv_basic():
    f = family("uniform", 4)
    assert tv(f, f) == 0.0
    assert tv([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]) == pytest.approx(0.3, abs=1e-15)


def test_tv_accepts_mixed_argument_types():
    f = family("harmonic-zipf", 8)
    assert tv(f, f.mass) == 0.0


def test_tv_domain_mismatch():
    with pytest.raises(DomainMismatch):
        tv([0.5, 0.5], [1.0])


@pytest.mark.parametrize("distance", [tv, tv_sup_bruteforce, hellinger_affinity])
def test_distances_take_only_atom_vectors(distance):
    # a (2, 2) pair once scored 0.0 in tv
    for bad in (np.ones((2, 2)), 0.5, ["a", "b"], [[0.5], [0.5, 0.0]]):
        with pytest.raises(BadParam, match="atom values must be"):
            distance(bad, bad)
    with pytest.raises(DomainMismatch, match="domain sizes differ: 2 vs 1"):
        distance([0.5, 0.5], [1.0])
    # tv and hellinger_affinity returned nan here, tv_sup_bruteforce nan
    # after a matmul warning
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0]):
        for pair in ((bad, [0.5, 0.5]), ([0.5, 0.5], bad)):
            with pytest.raises(BadParam, match="atom values must be finite"):
                distance(*pair)


def test_tv_refuses_what_numpy_warns_of_after_the_warning():
    # tv checks only its result, so inf - inf and an overflowing sum warn
    # inside numpy first
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(BadParam, match="atom values must be finite"):
            tv([math.inf, 0.0], [math.inf, 1.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(BadParam, match="atom values must be finite"):
            tv([1e308, 1e308], [0.0, 0.0])


def test_bruteforce_matches_event_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        a = rng.dirichlet(np.ones(k))
        b = rng.dirichlet(np.ones(k))
        assert tv_sup_bruteforce(a, b) == pytest.approx(tv_by_events(a, b), abs=1e-12)


def test_bruteforce_equals_tv_for_densities():
    rng = np.random.default_rng(18)
    for _ in range(50):
        k = int(rng.integers(1, 11))
        a = rng.dirichlet(np.ones(k))
        b = rng.dirichlet(np.ones(k))
        assert abs(tv(a, b) - tv_sup_bruteforce(a, b)) <= 1e-12


def test_bruteforce_cap():
    with pytest.raises(TooLarge):
        tv_sup_bruteforce(np.ones(21) / 21, np.ones(21) / 21)


def test_bruteforce_peak_memory_is_the_subset_sums():
    # the 2^k final sums, the half-size array before them and one temporary
    # make 2^(k+4) bytes
    k = 20
    rng = np.random.default_rng(19)
    a, b = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    slack = 2**16  # numpy array headers and Python objects
    tracemalloc.start()
    try:
        got = tv_sup_bruteforce(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** (k + 4) + slack, peak
    assert abs(got - tv(a, b)) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "distance, f, g",
    [
        (hellinger_affinity, [1e200, 1.0], [1e200, 0.5]),
        (tv_sup_bruteforce, [1e308, 1e308], [-1e308, 0.0]),
    ],
    ids=["hellinger_affinity", "tv_sup_bruteforce"],
)
def test_slow_distances_refuse_a_result_past_the_float_range(distance, f, g):
    # finite atom values whose product or difference overflows
    msg = r"^atom values must be finite, with a distance in the float range; got (inf|nan)$"
    with pytest.raises(BadParam, match=msg):
        distance(f, g)


def test_hellinger_affinity_values():
    f = family("uniform", 3)
    assert hellinger_affinity(f, f) == pytest.approx(1.0, abs=1e-12)
    assert hellinger_affinity([1.0, 0.0], [0.0, 1.0]) == 0.0
    got = hellinger_affinity([0.5, 0.5], [0.25, 0.75])
    assert got == pytest.approx(math.sqrt(0.125) + math.sqrt(0.375), abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, g", [([0.5, 0.5], [-0.5, 1.5]), ([-1, 2], [-1, 0])])
def test_hellinger_affinity_rejects_a_negative_atom(f, g):
    # the first was a RuntimeWarning and nan, the second 1.0
    for a, b in ((f, g), (g, f)):
        with pytest.raises(NegativeMass):
            hellinger_affinity(a, b)


def test_assouad_lower_bound_arithmetic():
    assert assouad_lower_bound(4, 0.1, 1.0, 50) == pytest.approx(0.1, abs=1e-15)
    # 1 - beta >= 1/(2n) makes the bracket nonpositive: clamped to zero
    assert assouad_lower_bound(4, 0.1, 1.0 - 1.0 / 100.0, 50) == 0.0
    n = 50
    got = assouad_lower_bound(4, 0.1, 1.0 - 1.0 / (8 * n), n)
    assert got == pytest.approx(0.05, abs=1e-15)


def test_assouad_lower_bound_validation():
    with pytest.raises(BadParams):
        assouad_lower_bound(0, 0.1, 0.9, 10)
    with pytest.raises(BadParams):
        assouad_lower_bound(1, 0.0, 0.9, 10)
    with pytest.raises(BadParams):
        assouad_lower_bound(1, 0.1, 1.5, 10)
    with pytest.raises(BadParams):
        assouad_lower_bound(1, 0.1, 0.9, 0)


def test_assouad_lower_bound_refuses_an_r_past_the_float_range():
    with pytest.raises(BadParams, match="^r or n is past the float range of the bound$"):
        assouad_lower_bound(10**400, 0.5, 0.9, 1)


def test_assouad_lower_bound_rejects_alpha_past_one():
    # alpha is a TV separation, at most 1; a larger one gave inf here
    with pytest.raises(BadParams, match="alpha"):
        assouad_lower_bound(10**300, 1e10, 1.0, 1)
    with pytest.raises(BadParams, match="alpha"):
        assouad_lower_bound(1, math.nextafter(1.0, 2.0), 0.9, 10)
    assert assouad_lower_bound(4, 1.0, 1.0, 1) == 1.0


@pytest.mark.parametrize("alpha, beta", [("x", 0.5), (0.5, "x"), (None, 0.5), (0.5, [1.0])])
def test_assouad_lower_bound_rejects_a_non_number(alpha, beta):
    # each was a bare TypeError from the range comparison
    with pytest.raises(BadParams, match="alpha" if alpha != 0.5 else "beta"):
        assouad_lower_bound(2, alpha, beta, 10)


def test_rate_monotone_small_branch():
    reg = rate_monotone(10**6, 2)
    assert reg.branch == RateBranch.SMALL_K
    assert reg.value == pytest.approx(math.sqrt(2e-6), rel=1e-12)


def test_rate_monotone_mid_branch():
    reg = rate_monotone(64, 32)
    assert reg.branch == RateBranch.MID_K
    assert reg.value == pytest.approx((3.0 / 64.0) ** (1.0 / 3.0), rel=1e-12)


def test_rate_monotone_large_branch():
    reg = rate_monotone(2, 2**64)
    # threshold is n^{1/3} 2^n = 2^{2/3} * 4: far exceeded
    assert reg.branch == RateBranch.LARGE_K
    assert reg.value == 1.0


def test_rate_monotone_huge_k_no_overflow():
    # the upper threshold must be compared in log space; 2**n overflows
    # floats for n this large
    reg = rate_monotone(10**4, 10**9)
    assert reg.branch == RateBranch.MID_K


def test_rate_convex_branches():
    reg = rate_convex(10**6, 2)
    assert reg.branch == RateBranch.SMALL_K
    assert reg.value == pytest.approx(math.sqrt(2e-6), rel=1e-12)
    n = 3**10
    reg = rate_convex(n, 3**9)
    assert reg.branch == RateBranch.MID_K
    assert reg.value == pytest.approx((7.0 / n) ** 0.4, rel=1e-12)


def test_convex_rate_below_monotone_in_shared_mid_band():
    # more shape constraint, faster rate: check across a numeric sweep
    for n in (10**4, 10**5, 10**6):
        for k in (10**3, 10**4):
            rm = rate_monotone(n, k)
            rc = rate_convex(n, k)
            if rm.branch == RateBranch.MID_K and rc.branch == RateBranch.MID_K:
                assert rc.value <= rm.value + 1e-12


def test_rate_validation():
    with pytest.raises(BadParams):
        rate_monotone(0, 4)
    with pytest.raises(BadParams):
        rate_monotone(4, 1)


def test_vc_known_values():
    assert vc_unions_intervals_brute(1, 4) == 2
    assert vc_unions_intervals_brute(2, 8) == 4
    assert vc_unions_intervals_brute(2, 3) == 3  # ground set smaller than 2*ell
    assert vc_unions_intervals_brute(1, 1) == 1


def test_vc_matches_reference_search():
    for ell in (1, 2, 3):
        for m in (1, 2, 3, 4, 5, 6):
            assert vc_unions_intervals_brute(ell, m) == ref_vc_interval_unions(ell, m)


def test_vc_equals_closed_form():
    # every input under the caps ell <= 4, m <= 24
    for ell in range(1, 5):
        for m in range(1, 25):
            assert vc_unions_intervals_brute(ell, m) == min(m, 2 * ell), (ell, m)


def test_vc_caps_and_validation():
    with pytest.raises(TooLarge):
        vc_unions_intervals_brute(5, 10)
    with pytest.raises(TooLarge):
        vc_unions_intervals_brute(2, 25)
    with pytest.raises(BadParams):
        vc_unions_intervals_brute(0, 4)
