import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_convex_grid, ref_convex_scale, ref_growing_bins, ref_monotone_small
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
from treedens.hypercubes import (
    _convex_scale,
    _even_bins,
    _grid_at_scale,
    _monotone_small,
    _triple_bins,
)

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


@pytest.mark.parametrize("regime", ["convex-small-k", "monotone-small-k"])
def test_a_regime_given_as_its_string_builds_a_density(regime):
    # the spec stored the string, and assouad_density called .is_convex on it
    spec = HypercubeSpec(regime, 100, 30, 10, 0.1, (0,) * 10)
    assert spec.regime is Regime(regime)
    want = assouad_density(HypercubeSpec(Regime(regime), 100, 30, 10, 0.1, (0,) * 10))
    assert np.array_equal(assouad_density(spec).mass, want.mass)


def test_an_unknown_regime_is_a_bad_param():
    # assouad_default_params raised a bare ValueError
    for regime in ("bogus", None, [1]):
        with pytest.raises(BadParam, match="unknown regime"):
            assouad_default_params(regime, 10, 10)
        with pytest.raises(BadParam, match="unknown regime"):
            HypercubeSpec(regime, 100, 30, 10, 0.1, (0,) * 10)


def test_bad_theta_rejected():
    with pytest.raises(BadParam):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 4, 2, 0.01, (0, 2))
    with pytest.raises(BadParam):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 4, 2, 0.01, (0,))
    # a bit string with a non-digit was a ValueError, and None a TypeError
    with pytest.raises(BadParam):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 4, 2, 0.01, "0a")
    with pytest.raises(BadParam):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 4, 2, 0.01, None)
    # int() truncated 0.9 and 1.7 to (0, 1), parsed "1" and let True pass
    for theta in ((0.9, 1.7), ("1", True), (True, False)):
        with pytest.raises(BadParam, match="theta bit must be an integer"):
            HypercubeSpec(Regime.MONOTONE_SMALL_K, 100, 10, 2, 0.5, theta)


def test_theta_bits_are_stored_as_python_ints():
    spec = HypercubeSpec(Regime.MONOTONE_SMALL_K, 100, 10, 2, 0.5, (np.int64(1), np.uint8(0)))
    assert spec.theta == (1, 0) and all(type(b) is int for b in spec.theta)


@pytest.mark.parametrize(
    "n, k, r, eps",
    [
        (100.5, 6, 3, 0.5),
        (100, 6.5, 3, 0.5),
        (100, 6, 3.0, 0.5),
        (100, 6, 3, "x"),
        (100, 6, 3, None),
        (100, 6, 3, "0.5"),
    ],
)
def test_non_integer_sizes_and_non_real_epsilon_rejected(n, k, r, eps):
    # a float n or k constructed and flowed on, r=3.0 and epsilon=None or
    # "x" ended in a bare TypeError or ValueError, and "0.5" was kept as a str
    with pytest.raises(BadParam, match="must be"):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, n, k, r, eps, (0, 0, 0))


def test_epsilon_range_enforced():
    with pytest.raises(InfeasibleSpec):
        HypercubeSpec(Regime.MONOTONE_LARGE_K, 10**6, 10**6, 10, 0.9, (0,) * 10)
    with pytest.raises(InfeasibleSpec):
        HypercubeSpec(Regime.CONVEX_SMALL_K, 10**6, 9, 3, 0.6, (0, 0, 0))


def test_infeasible_bins_raise():
    # r bins of growing length cannot fit in a tiny domain
    with pytest.raises(InfeasibleSpec):
        HypercubeSpec(Regime.MONOTONE_LARGE_K, 10**6, 8, 20, 0.01, (0,) * 20)
    with pytest.raises(InfeasibleSpec, match="^bins need 12 atoms but the support has only 10$"):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 100, 10, 6, 0.2, (0,) * 6)


class _Unread:
    """A theta of r bits that fails the test if it is ever iterated."""

    def __init__(self, r):
        self.r = r

    def __len__(self):
        return self.r

    def __iter__(self):
        raise AssertionError("theta was read before the bins' fit was checked")


def test_bins_that_cannot_fit_are_rejected_before_theta_is_read():
    # theta was checked first: O(r) work before the O(1) fit check
    with pytest.raises(InfeasibleSpec, match="^bins need 20000000 atoms"):
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 100, 10, 10**7, 0.5, _Unread(10**7))
    with pytest.raises(InfeasibleSpec, match="^bins need at least 30 atoms"):
        HypercubeSpec(Regime.CONVEX_LARGE_K, 10**6, 10, 10, 0.5, _Unread(10))


MLK, CLK = Regime.MONOTONE_LARGE_K, Regime.CONVEX_LARGE_K


@pytest.mark.parametrize("regime, width", [(MLK, 2), (CLK, 3)])
def test_too_many_bins_rejected_before_any_bin_is_built(monkeypatch, regime, width):
    import treedens.hypercubes as hc

    def unreachable(*args):
        raise AssertionError("bins built for an r that cannot fit")

    # the regime table holds _even_bins and _triple_bins themselves, so the
    # patch goes on the builder they both look up at call time
    monkeypatch.setattr(hc, "_growing_bins", unreachable)
    r = 10**6
    message = f"^bins need at least {width * r} atoms but the support has only 10$"
    with pytest.raises(InfeasibleSpec, match=message):
        HypercubeSpec(regime, 100, 10, r, 1e-9, (0,) * r)


@pytest.mark.parametrize("regime, eps", [(MLK, 0.3), (CLK, 0.5)])
def test_growing_bins_stop_once_past_k(regime, eps):
    # without the stop, 10**5 bins grow until float arithmetic overflows
    r = 10**5
    message = "^bins need more than 1000000 atoms but the support has only 1000000$"
    with pytest.raises(InfeasibleSpec, match=message):
        HypercubeSpec(regime, 100, 10**6, r, eps, (0,) * r)


@pytest.mark.parametrize("regime, eps, r", [(MLK, 0.1, 5000), (CLK, 0.5, 2000)])
def test_bin_length_overflow_is_infeasible(regime, eps, r):
    # k is past any float, so the lengths overflow before their total passes k
    with pytest.raises(InfeasibleSpec, match="overflow"):
        HypercubeSpec(regime, 100, 10**400, r, eps, (0,) * r)


@pytest.mark.parametrize("regime, build", [(MLK, _even_bins), (CLK, _triple_bins)])
def test_full_sum_message_where_the_sum_is_computed(regime, build):
    lengths = build(5, 0.2)
    need = sum(lengths)
    message = f"^bins need {need} atoms but the support has only {need - 1}$"
    with pytest.raises(InfeasibleSpec, match=message):
        HypercubeSpec(regime, 100, need - 1, 5, 0.2, (0,) * 5)
    assert HypercubeSpec(regime, 100, need, 5, 0.2, (0,) * 5).bin_lengths == lengths


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 40), eps=st.one_of(st.floats(1e-12, 0.7), st.sampled_from([0.5, 0.1])))
def test_bin_lengths_equal_the_stepping_reference(r, eps):
    def even_target(i, last):
        return max(2.0 * math.exp(4.0 * eps * i), last * (1 + eps) / (1 - eps))

    e = Fraction(eps)
    assert _even_bins(r, eps) == tuple(ref_growing_bins(r, 2, even_target, (1 + e) / (1 - e)))
    e3 = min(eps, 0.5)

    def triple_target(i, last):
        return max(3.0 / (1.0 - e3) ** i, last * (1.0 + e3))

    assert _triple_bins(r, e3) == tuple(ref_growing_bins(r, 3, triple_target, 1 + Fraction(e3)))


def test_bins_past_float_precision_take_one_step_each():
    # these lengths pass 2**53, where the float target falls short of the
    # exact ratio by up to 3 * 10**7 widths; stepping one width at a time
    # would take minutes, so the spec is built in a child with a deadline
    r, eps = 1837, 0.028
    code = (
        "import json; from treedens import HypercubeSpec, Regime; "
        f"print(json.dumps(HypercubeSpec(Regime.CONVEX_LARGE_K, 100, 10**30, {r}, {eps}, "
        f"(0,) * {r}).bin_lengths))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    lengths = json.loads(proc.stdout)
    assert len(lengths) == r and lengths[0] == 3 and lengths[-1] > 2**70
    ratio = 1 + Fraction(eps)
    for i in range(1, r):
        prev, nxt = lengths[i - 1], lengths[i]
        floor = 3 * math.ceil(max(3.0 / (1.0 - eps) ** i, prev * (1.0 + eps)) / 3.0)
        # a multiple of 3, at least ratio * prev, and the least such above the float target
        assert nxt % 3 == 0 and nxt >= prev * ratio
        assert nxt >= floor and (nxt == floor or nxt - 3 < prev * ratio)


def test_alpha_beta_formulas():
    spec = _spec(Regime.MONOTONE_LARGE_K, 10**6, math.ceil(math.e**8 * 100))
    alpha, beta = assouad_alpha_beta(spec)
    assert alpha == pytest.approx(spec.epsilon / spec.r, rel=1e-15)
    assert beta == pytest.approx(1 - spec.epsilon**2 / (2 * spec.r), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, 200),
    eps=st.one_of(st.floats(5e-324, 1.0, exclude_max=True), st.sampled_from([0.5, 1e-12])),
    slack=st.integers(0, 5),
    data=st.data(),
)
def test_monotone_small_equals_reference(r, eps, slack, data):
    theta = tuple(data.draw(st.lists(st.integers(0, 1), min_size=r, max_size=r)))
    spec = HypercubeSpec(Regime.MONOTONE_SMALL_K, 100, 2 * r + slack, r, eps, theta)
    assert _monotone_small(spec).tolist() == ref_monotone_small(spec.k, r, eps, theta)


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
    got = _grid_at_scale(regime, lengths, k, eps, bits, q)(scale)
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


@settings(max_examples=300, deadline=None)
@given(layout=_convex_layout(), data=st.data())
def test_convex_total_equals_grid_sum(layout, data):
    regime, lengths, eps = layout
    r, q = len(lengths), _q(len(lengths))
    k = sum(lengths) + data.draw(st.integers(-2, 40))
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
        scale = (2 * data.draw(st.integers(0, 2**20)) + 1) * 2.0 ** -(q + 1)
    else:
        scale = data.draw(st.floats(0.0, top))
    at = _grid_at_scale(regime, lengths, k, eps, (0,) * r, q)
    assert at.total(scale) == sum(at(scale).tolist())


def test_convex_scale_memory_does_not_grow_with_k():
    # each bisection step once built a k-atom int64 grid and a k-int list
    tracemalloc.start()
    try:
        _convex_scale(Regime.CONVEX_SMALL_K, (3, 3, 3), 10**6, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_convex_grid_rounds_ties_to_even():
    # scale * 2**q = 2.5 rounds to 2, as Python's round() does
    q = _q(1)
    grid = _grid_at_scale(Regime.CONVEX_SMALL_K, (3,), 3, 0.5, (0,), q)(2.5 * 2.0**-q)
    assert grid[0] == 2
    assert grid.tolist() == ref_convex_grid(False, (3,), 3, 0.5, (0,), 2.5 * 2.0**-q, q)


@pytest.mark.parametrize(
    "regime, r, eps",
    [(Regime.MONOTONE_SMALL_K, 3, 0.5), (MLK, 30, 0.5), (CLK, 70, 0.5)],
)
def test_assouad_density_rejects_a_k_past_the_array_range(regime, r, eps):
    # the spec and its bins need no array, but the density did: numpy's
    # ValueError or an int64 OverflowError escaped
    spec = HypercubeSpec(regime, 100, 10**30, r, eps, (0,) * r)
    assert len(hypercube_bins(spec)) == r
    with pytest.raises(InfeasibleSpec, match="^k must be an integer of at most"):
        assouad_density(spec)
