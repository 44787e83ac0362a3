import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_convex_grid, ref_convex_scale
from treedens import (
    BadParam,
    HypercubeSpec,
    InfeasibleSpec,
    OutOfRegime,
    Regime,
    assouad_alpha_beta,
    assouad_default_params,
    assouad_density,
    hypercube_bins,
    is_convex_non_increasing,
    is_non_increasing,
)
from treedens.hypercubes import _convex_grid, _convex_scale, _triple_bins

RNG = np.random.default_rng(2024)


def _spec(regime, n, k, theta=None, r=None, eps=None):
    if r is None:
        r, eps = assouad_default_params(regime, n, k)
    if theta is None:
        theta = (0,) * r
    return HypercubeSpec(regime, n, k, r, eps, tuple(theta))


def test_monotone_large_all_ones_is_piecewise_uniform():
    spec = _spec(Regime.MONOTONE_LARGE_K, 10**6, math.ceil(math.e**8 * 100), theta=None)
    spec = HypercubeSpec(
        spec.regime, spec.n, spec.k, spec.r, spec.epsilon, (1,) * spec.r
    )
    f = assouad_density(spec)
    for start, length in hypercube_bins(spec):
        seg = f.mass[start - 1 : start - 1 + length]
        assert np.all(seg == 1.0 / (spec.r * length))


def test_monotone_small_max_atom_value():
    # k=4 gives r=2; the tallest atom across the family is (1+eps)/(2r),
    # attained by any member whose first bit is 0.
    r, eps = assouad_default_params(Regime.MONOTONE_SMALL_K, 1000, 4)
    assert r == 2
    tallest = max(
        assouad_density(
            HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 4, r, eps, theta)
        ).mass.max()
        for theta in [(0, 0), (0, 1), (1, 0), (1, 1)]
    )
    assert tallest == pytest.approx((1 + eps) / (2 * r), rel=1e-15)


def test_convex_small_default_r():
    r, _ = assouad_default_params(Regime.CONVEX_SMALL_K, 10**6, 9)
    assert r == 3


def test_monotone_large_default_r_floor():
    n, k = 10**6, math.ceil(math.e**8 * 100)
    r, _ = assouad_default_params(Regime.MONOTONE_LARGE_K, n, k)
    assert r >= 0.25 * (n * math.log(k / n ** (1 / 3)) ** 2) ** (1 / 3)


@pytest.mark.parametrize("regime", list(Regime))
def test_random_members_are_valid(regime):
    pts = {
        Regime.MONOTONE_LARGE_K: (10**6, math.ceil(math.e**8 * 100)),
        Regime.MONOTONE_SMALL_K: (10**6, 64),
        Regime.CONVEX_SMALL_K: (10**6, 9),
        # the large-k convex regime needs k >= e^40 n^{1/5}: not a buildable
        # array, so exercise the construction at explicit modest parameters
        Regime.CONVEX_LARGE_K: None,
    }[regime]
    for _ in range(5):
        if pts is None:
            r, eps = 8, 0.3
            spec = HypercubeSpec(
                regime, 10**6, 400, r, eps, tuple(RNG.integers(0, 2, size=r))
            )
        else:
            spec = _spec(regime, *pts, theta=None)
            spec = HypercubeSpec(
                spec.regime,
                spec.n,
                spec.k,
                spec.r,
                spec.epsilon,
                tuple(RNG.integers(0, 2, size=spec.r)),
            )
        f = assouad_density(spec)
        assert abs(f.mass.sum() - 1.0) < 1e-9
        assert is_non_increasing(f)
        if regime.is_convex():
            assert is_convex_non_increasing(f)


def test_bins_fit_and_grow():
    spec = _spec(Regime.MONOTONE_LARGE_K, 10**6, math.ceil(math.e**8 * 100))
    bins = hypercube_bins(spec)
    assert len(bins) == spec.r
    assert bins[0][0] == 1
    assert bins[-1][0] + bins[-1][1] - 1 <= spec.k
    assert all(s + l == s2 for (s, l), (s2, _) in zip(bins, bins[1:]))
    lengths = [l for _, l in bins]
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))


def test_out_of_regime_rejected():
    with pytest.raises(OutOfRegime):
        assouad_default_params(Regime.MONOTONE_LARGE_K, 10**6, 100)  # k too small
    with pytest.raises(OutOfRegime):
        assouad_default_params(Regime.MONOTONE_SMALL_K, 10**6, 10**9)  # k too large
    with pytest.raises(OutOfRegime):
        assouad_default_params(Regime.CONVEX_SMALL_K, 10**6, 2)  # below k >= 3


def test_bad_theta_rejected():
    with pytest.raises(BadParam):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 4, 2, 0.01, (0, 2))
    with pytest.raises(BadParam):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 4, 2, 0.01, (0,))


def test_epsilon_range_enforced():
    with pytest.raises(InfeasibleSpec):
        HypercubeSpec(Regime.MONOTONE_LARGE_K, 10**6, 10**6, 10, 0.9, (0,) * 10)
    with pytest.raises(InfeasibleSpec):
        HypercubeSpec(Regime.CONVEX_SMALL_K, 10**6, 9, 3, 0.6, (0, 0, 0))


def test_infeasible_bins_raise():
    # r bins of growing length cannot fit in a tiny domain
    with pytest.raises(InfeasibleSpec):
        HypercubeSpec(Regime.MONOTONE_LARGE_K, 10**6, 8, 20, 0.01, (0,) * 20)


def test_alpha_beta_formulas():
    spec = _spec(Regime.MONOTONE_LARGE_K, 10**6, math.ceil(math.e**8 * 100))
    alpha, beta = assouad_alpha_beta(spec)
    assert alpha == pytest.approx(spec.epsilon / spec.r, rel=1e-15)
    assert beta == pytest.approx(1 - spec.epsilon**2 / (2 * spec.r), rel=1e-15)


# --- the numpy convex grid against the per-atom reference -------------------

_EPS = st.one_of(st.floats(1e-9, 0.5), st.sampled_from([0.5, 0.25, 0.1, 1e-6]))


@st.composite
def _convex_layout(draw, small=False):
    """(regime, bin_lengths, eps): both regimes' own bin layouts and
    arbitrary multiples of 3 under either regime's targets."""
    eps = draw(_EPS)
    kind = draw(st.sampled_from(["convex-small-k", "convex-large-k", "arbitrary"]))
    if kind == "convex-small-k":
        r = draw(st.integers(1, 20 if small else 60))
        return Regime.CONVEX_SMALL_K, (3,) * r, eps
    if kind == "convex-large-k":
        r = draw(st.integers(1, 6 if small else 10))
        return Regime.CONVEX_LARGE_K, _triple_bins(r, eps), eps
    lengths = tuple(
        3 * m for m in draw(st.lists(st.integers(1, 12), min_size=1, max_size=15))
    )
    return draw(st.sampled_from([Regime.CONVEX_SMALL_K, Regime.CONVEX_LARGE_K])), lengths, eps


def _q(r: int) -> int:
    return 49 + int(math.floor(math.log2(r)))


@settings(max_examples=300, deadline=None)
@given(layout=_convex_layout(), data=st.data())
def test_convex_grid_equals_reference(layout, data):
    regime, lengths, eps = layout
    r, q = len(lengths), _q(len(lengths))
    k = sum(lengths) + data.draw(st.integers(0, 40))
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=r, max_size=r)))
    top = 32.0 / r
    which = data.draw(st.sampled_from(["zero", "tuned", "top", "tie", "any"]))
    if which == "zero":
        scale = 0.0
    elif which == "tuned":
        try:
            scale = _convex_scale(regime, lengths, k, eps)[0]
        except InfeasibleSpec:
            scale = top
    elif which == "top":
        scale = top
    elif which == "tie":
        # scale * 2**q is a half-integer: the rounding of the top atom is a tie
        scale = (2 * data.draw(st.integers(0, 2**20)) + 1) * 2.0 ** -(q + 1)
    else:
        scale = data.draw(st.floats(0.0, top))
    large = regime == Regime.CONVEX_LARGE_K
    got = _convex_grid(regime, lengths, k, eps, bits, scale, q)
    assert got.tolist() == ref_convex_grid(large, lengths, k, eps, bits, scale, q)


@settings(max_examples=40, deadline=None)
@given(layout=_convex_layout(small=True), slack=st.integers(0, 30))
def test_convex_scale_equals_reference(layout, slack):
    regime, lengths, eps = layout
    k = sum(lengths) + slack
    want = ref_convex_scale(regime == Regime.CONVEX_LARGE_K, lengths, k, eps)
    if want is None:
        with pytest.raises(InfeasibleSpec):
            _convex_scale(regime, lengths, k, eps)
    else:
        assert _convex_scale(regime, lengths, k, eps) == want


def test_convex_grid_rounds_ties_to_even():
    # scale * 2**q = 2.5 rounds to 2, as Python's round() does
    q = _q(1)
    grid = _convex_grid(Regime.CONVEX_SMALL_K, (3,), 3, 0.5, (0,), 2.5 * 2.0**-q, q)
    assert grid[0] == 2
    assert grid.tolist() == ref_convex_grid(False, (3,), 3, 0.5, (0,), 2.5 * 2.0**-q, q)
