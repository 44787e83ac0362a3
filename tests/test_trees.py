import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    pava_all_merge_orders,
    random_convex_mass,
    random_monotone_mass,
    random_monotone_mixture,
    ref_greedy_binary_leaves,
    ref_greedy_ternary_leaves,
    ref_idealized_binary_leaves,
    ref_idealized_ternary_leaves,
    ref_monotonize,
)
from treedens import (
    BadParam,
    DomainMismatch,
    NotConvex,
    NotMonotone,
    Piece,
    PiecewiseEstimate,
    SampleCounts,
    build_greedy_binary,
    build_greedy_ternary,
    build_idealized_binary,
    build_idealized_ternary,
    family,
    greedy_pl_estimate,
    greedy_split_decision,
    greedy_ternary_split_decision,
    histogram_estimate,
    idealized_pc_estimate,
    idealized_pl_estimate,
    make_density,
    monotonize,
    pad_to_power,
    sample,
    tv,
)

# Frozen output of the direct-recursion oracle on the library sample
# (harmonic-zipf, k=64, n=1000, seed=7).  Pins sampler and builder together.
GOLDEN_GREEDY_LEAVES = [
    (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 2), (9, 4), (13, 2),
    (15, 2), (17, 4), (21, 1), (22, 1), (23, 2), (25, 4), (29, 4), (33, 16),
    (49, 8), (57, 4), (61, 4),
]
GOLDEN_IDEALIZED_LEAVES = [
    (1, 1), (2, 1), (3, 1), (4, 1), (5, 2), (7, 2), (9, 4), (13, 4), (17, 8),
    (25, 8), (33, 16), (49, 16),
]


def test_pad_to_power():
    assert pad_to_power(64, 2) == 64
    assert pad_to_power(5, 2) == 8
    assert pad_to_power(10, 3) == 27
    assert pad_to_power(1, 2) == 1


def test_binary_split_decision():
    assert not greedy_split_decision(5, 5)
    assert greedy_split_decision(8, 0)
    assert greedy_split_decision(0, 8)  # absolute difference: symmetric
    assert greedy_split_decision(5, 2)  # 9 > 7
    assert not greedy_split_decision(2, 1)  # 1 > 3 is false
    assert not greedy_split_decision(3, 1)  # exact boundary: 4 > 4 is false


def test_ternary_split_decision():
    assert not greedy_ternary_split_decision(3, 3, 3)
    assert greedy_ternary_split_decision(9, 0, 0)
    assert greedy_ternary_split_decision(4, 1, 1)  # 3 > sqrt(6)
    # one-sided: a large negative second difference must NOT split
    assert not greedy_ternary_split_decision(0, 9, 0)
    assert not greedy_ternary_split_decision(9, 9, 0)


def test_all_mass_at_first_atom_splits_fully():
    sc = SampleCounts(k=2, n=10, counts=np.array([10, 0]))
    t = build_greedy_binary(sc)
    assert t.leaf_intervals() == [(1, 1), (2, 1)]


def test_equal_counts_single_leaf():
    sc = SampleCounts(k=4, n=8, counts=np.array([2, 2, 2, 2]))
    t = build_greedy_binary(sc)
    assert t.leaf_intervals() == [(1, 4)]


def test_greedy_tree_matches_oracle_and_golden():
    f = family("harmonic-zipf", 64)
    sc = sample(f, 1000, 7)
    t = build_greedy_binary(sc)
    assert t.leaf_intervals() == ref_greedy_binary_leaves(sc.counts)
    assert t.leaf_intervals() == GOLDEN_GREEDY_LEAVES


def test_greedy_tree_matches_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        k = int(rng.integers(2, 200))
        n = int(rng.integers(1, 5000))
        f = make_density(random_monotone_mixture(rng, k))
        sc = sample(f, n, int(rng.integers(0, 2**63)))
        assert build_greedy_binary(sc).leaf_intervals() == ref_greedy_binary_leaves(
            sc.counts
        )


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(
        st.one_of(st.integers(0, 5), st.integers(0, 10**9)), min_size=1, max_size=100
    ).filter(any)
)
def test_greedy_builders_match_oracles_on_any_counts(counts):
    sc = SampleCounts(k=len(counts), n=sum(counts), counts=np.array(counts))
    assert build_greedy_binary(sc).leaf_intervals() == ref_greedy_binary_leaves(counts)
    assert build_greedy_ternary(sc).leaf_intervals() == ref_greedy_ternary_leaves(counts)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 100), n=st.integers(1, 10**9))
def test_idealized_builders_match_oracles_on_random_shapes(seed, k, n):
    rng = np.random.default_rng(seed)
    f = make_density(random_monotone_mass(rng, k))
    assert build_idealized_binary(f, n).leaf_intervals() == ref_idealized_binary_leaves(
        f.mass, n
    )
    g = make_density(random_convex_mass(rng, k))
    assert build_idealized_ternary(g, n).leaf_intervals() == ref_idealized_ternary_leaves(
        g.mass, n
    )


def _assert_tiles_padded_domain(t, k):
    spans = t.leaf_intervals()
    assert t.padded_k == pad_to_power(k, t.arity)
    assert spans[0][0] == 1
    assert all(s + l == s2 for (s, l), (s2, _) in zip(spans, spans[1:]))
    assert spans[-1][0] + spans[-1][1] - 1 == t.padded_k
    # every leaf is a node of the arity-ary tree: a power-of-arity block
    # aligned to its own length
    for s, l in spans:
        assert pad_to_power(l, t.arity) == l and (s - 1) % l == 0


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(
        st.one_of(st.integers(0, 5), st.integers(0, 10**9)), min_size=1, max_size=100
    ).filter(any),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10**9),
)
def test_leaves_tile_the_padded_domain(counts, seed, n):
    k = len(counts)
    sc = SampleCounts(k=k, n=sum(counts), counts=np.array(counts))
    _assert_tiles_padded_domain(build_greedy_binary(sc), k)
    _assert_tiles_padded_domain(build_greedy_ternary(sc), k)
    rng = np.random.default_rng(seed)
    f = make_density(random_monotone_mass(rng, k))
    _assert_tiles_padded_domain(build_idealized_binary(f, n), k)
    if k >= 2:
        g = make_density(random_convex_mass(rng, k))
        _assert_tiles_padded_domain(build_idealized_ternary(g, n), k)


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(
        st.one_of(st.integers(0, 5), st.integers(0, 10**9)), min_size=1, max_size=100
    ).filter(any)
)
def test_histogram_mass_at_most_one(counts):
    # k = len(counts) is a power of the arity or not: padded leaves lose mass
    sc = SampleCounts(k=len(counts), n=sum(counts), counts=np.array(counts))
    for t in (build_greedy_binary(sc), build_greedy_ternary(sc)):
        assert histogram_estimate(t, sc).total_mass() <= 1.0


def test_idealized_tree_uniform_single_leaf():
    t = build_idealized_binary(family("uniform", 16), 1000)
    assert t.leaf_intervals() == [(1, 16)]


def test_idealized_tree_matches_oracle_and_golden():
    f = family("harmonic-zipf", 64)
    t = build_idealized_binary(f, 1000)
    assert t.leaf_intervals() == ref_idealized_binary_leaves(f.mass, 1000)
    assert t.leaf_intervals() == GOLDEN_IDEALIZED_LEAVES


def test_idealized_tree_requires_monotone():
    f = make_density([0.2, 0.5, 0.3, 0.0])
    with pytest.raises(NotMonotone):
        build_idealized_binary(f, 100)


def test_idealized_leaf_count_bound():
    # n=1000, k=64 sits inside [2 n^{1/3}, n^{1/3} 2^n)
    n, k = 1000, 64
    t = build_idealized_binary(family("harmonic-zipf", k), n)
    cube = n ** (1 / 3)
    bound = 12 * cube * math.log2(k / cube) ** (2 / 3)
    assert len(t.leaves()) <= bound


def test_ternary_tree_linear_density_single_leaf():
    t = build_idealized_ternary(family("linear-decreasing", 27), 10**6)
    assert t.leaf_intervals() == [(1, 27)]


def test_ternary_trees_match_oracle():
    f = family("harmonic-zipf", 243)
    sc = sample(f, 1000, 7)
    assert build_greedy_ternary(sc).leaf_intervals() == ref_greedy_ternary_leaves(
        sc.counts
    )
    n = 3**10
    assert build_idealized_ternary(f, n).leaf_intervals() == ref_idealized_ternary_leaves(
        f.mass, n
    )


def test_idealized_ternary_requires_convex():
    f = make_density([0.4, 0.35, 0.25])
    with pytest.raises(NotConvex):
        build_idealized_ternary(f, 100)


def test_ternary_leaf_count_bound():
    n = 3**10
    for k in (27, 81, 243):
        t = build_idealized_ternary(family("harmonic-zipf", k), n)
        fifth = n ** (1 / 5)
        bound = 34 * fifth * (math.log(k / fifth, 3)) ** (4 / 5)
        assert len(t.leaves()) <= bound, k


def test_tree_builders_reject_bad_n():
    f = family("uniform", 4)
    with pytest.raises(BadParam):
        build_idealized_binary(f, 0)


def test_histogram_single_leaf_uniform():
    sc = SampleCounts(k=4, n=8, counts=np.array([2, 2, 2, 2]))
    t = build_greedy_binary(sc)
    est = histogram_estimate(t, sc)
    assert np.allclose(est.atom_values(), 0.25)
    assert est.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_histogram_post_split_point_mass():
    sc = SampleCounts(k=2, n=10, counts=np.array([10, 0]))
    est = histogram_estimate(build_greedy_binary(sc), sc)
    assert list(est.atom_values()) == [1.0, 0.0]


def test_histogram_values_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 100))
        f = make_density(random_monotone_mixture(rng, k))
        sc = sample(f, int(rng.integers(1, 2000)), int(rng.integers(0, 2**63)))
        est = histogram_estimate(build_greedy_binary(sc), sc)
        assert est.atom_values().min() >= 0.0
        assert est.domain_k == k


def test_idealized_pc_single_leaf_uniform_exact():
    f = family("uniform", 16)
    t = build_idealized_binary(f, 50)
    est = idealized_pc_estimate(t, f)
    assert np.array_equal(est.atom_values(), f.mass)


def test_idealized_pc_fully_split_recovers_f():
    # every leaf singleton => estimate equals f atom by atom
    f = make_density([0.6, 0.25, 0.1, 0.05])
    t = build_idealized_binary(f, 10**8)  # huge n forces every split
    assert t.leaf_intervals() == [(1, 1), (2, 1), (3, 1), (4, 1)]
    est = idealized_pc_estimate(t, f)
    assert np.allclose(est.atom_values(), f.mass, atol=1e-15)


def test_idealized_pc_tv_bound_scales():
    f = family("harmonic-zipf", 64)
    n = 1000
    t = build_idealized_binary(f, n)
    est = idealized_pc_estimate(t, f)
    m = t.nonsingleton_leaf_count()
    assert tv(est, f) <= 2.5 * math.sqrt(m / n) + 1e-12


def test_pl_exact_on_linear_leaf():
    f = family("linear-decreasing", 27)
    t = build_idealized_ternary(f, 10**6)  # single leaf, f exactly linear
    est = idealized_pl_estimate(t, f)
    assert np.allclose(est.atom_values(), f.mass, atol=1e-12)


def test_pl_singleton_leaves_copy_f():
    f = family("harmonic-zipf", 9)
    t = build_idealized_ternary(f, 10**9)
    singles = [p for p in idealized_pl_estimate(t, f).pieces if p.length == 1]
    assert singles  # the sharp head must have split to singletons
    for p in singles:
        if p.kind == "constant":
            assert p.value == f(p.start)


def test_pl_tv_bound_scales():
    f = family("harmonic-zipf", 243)
    n = 3**10
    t = build_idealized_ternary(f, n)
    est = idealized_pl_estimate(t, f)
    m = t.nonsingleton_leaf_count()
    assert tv(est, f) <= (41.0 / 48.0) * math.sqrt(m / n) + 1e-12


def test_greedy_pl_valid_estimate():
    f = family("harmonic-zipf", 243)
    sc = sample(f, 1000, 7)
    est = greedy_pl_estimate(build_greedy_ternary(sc), sc)
    assert est.domain_k == 243
    assert est.atom_values().shape == (243,)
    assert est.atom_values().min() >= 0.0  # clamped at zero by construction


def test_estimate_rejects_mismatched_tree():
    f64 = family("harmonic-zipf", 64)
    sc32 = sample(family("uniform", 32), 100, 1)
    t = build_greedy_binary(sc32)
    with pytest.raises(DomainMismatch):
        histogram_estimate(t, sample(f64, 100, 1))


def test_piecewise_estimate_validation():
    with pytest.raises(BadParam):
        PiecewiseEstimate(3, (Piece(1, 1, "constant", 0.5),))  # gap at 2..3
    with pytest.raises(BadParam):
        PiecewiseEstimate(
            2, (Piece(1, 1, "constant", 0.5), Piece(3, 1, "constant", 0.5))
        )
    with pytest.raises(BadParam):
        Piece(1, 1, "quadratic", 0.5)


def test_piecewise_estimate_eval():
    est = PiecewiseEstimate(
        4,
        (
            Piece(1, 2, "constant", 0.3),
            Piece(3, 2, "linear", slope=-0.05, intercept=0.35),
        ),
    )
    assert est(1) == 0.3
    assert est(3) == pytest.approx(0.2)
    assert est(4) == pytest.approx(0.15)
    with pytest.raises(DomainMismatch):
        est(5)


@st.composite
def _mixed_estimates(draw):
    values = st.floats(-1e3, 1e3, allow_subnormal=True)
    pieces, pos = [], 1
    for _ in range(draw(st.integers(1, 10))):
        length = draw(st.integers(1, 8))
        if draw(st.booleans()):
            pieces.append(Piece(pos, length, "constant", value=draw(values)))
        else:
            slope, intercept = draw(values), draw(values)
            pieces.append(Piece(pos, length, "linear", slope=slope, intercept=intercept))
        pos += length
    return PiecewiseEstimate(pos - 1, tuple(pieces))


@settings(max_examples=200, deadline=None)
@given(est=_mixed_estimates())
def test_atom_values_and_call_match_pieces(est):
    got = est.atom_values()
    want = np.concatenate([p.atom_values() for p in est.pieces])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for x in range(1, est.domain_k + 1):
        assert est(x).hex() == float(got[x - 1]).hex()


_PAVA_VALUES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.0**-1022, allow_subnormal=True, exclude_max=True),  # subnormals
    st.floats(0.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),  # every sign and exponent
)


@st.composite
def _pava_pieces(draw):
    out = []
    for _ in range(draw(st.integers(1, 12))):
        length = draw(st.integers(1, 6))
        if out and draw(st.booleans()):
            value = out[-1][1]  # equal neighbours
        else:
            value = draw(_PAVA_VALUES)
        out.append((length, value))
    return out


@settings(max_examples=300, deadline=None)
@given(pieces=_pava_pieces())
def test_monotonize_matches_fraction_pava_bitwise(pieces):
    est, pos = [], 1
    for length, value in pieces:
        est.append(Piece(pos, length, "constant", value=value))
        pos += length
    got = monotonize(PiecewiseEstimate(pos - 1, tuple(est))).pieces
    assert [(p.length, p.value.hex()) for p in got] == [
        (l, v.hex()) for l, v in ref_monotonize(pieces)
    ]
    values = [p.value for p in got]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # mass: each block's value is its exact input mass per atom, rounded once
    it = iter(pieces)
    for p in got:
        mass, covered = Fraction(0), 0
        while covered < p.length:
            length, value = next(it)
            mass += Fraction(value) * length
            covered += length
        assert covered == p.length and float(mass / p.length) == p.value
    again = monotonize(PiecewiseEstimate(pos - 1, got)).pieces
    assert [(p.length, p.value.hex()) for p in again] == [
        (p.length, p.value.hex()) for p in got
    ]


# Values whose pooled blocks join unlike power-of-two denominators (5e-324
# is 2**-1074, 1e300 an integer) and whose rounded averages land on their
# neighbours: a pool of 1 - 2**-53 and 1.0 rounds to 1.0, so the float
# comparison ties and only the exact totals can order the blocks.
_BELOW_ONE, _ABOVE_ONE = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
_MIXED_VALUES = st.sampled_from(
    (0.0, 5e-324, 1e-323, 2.5e-310, 0.1, 0.3, _BELOW_ONE, 1.0, _ABOVE_ONE, 3.0, 1e300, 3e300)
)


def _mixed_pieces(max_pieces):
    return st.lists(st.tuples(st.integers(1, 4), _MIXED_VALUES), min_size=1, max_size=max_pieces)


def _pooled(pieces):
    est, pos = [], 1
    for length, value in pieces:
        est.append(Piece(pos, length, "constant", value=value))
        pos += length
    got = monotonize(PiecewiseEstimate(pos - 1, tuple(est)))
    return [(l, v.hex()) for l, v in zip(got.lengths, got.values)]


@settings(max_examples=400, deadline=None)
@given(pieces=_mixed_pieces(12))
def test_monotonize_pools_mixed_scales_as_fraction_pava(pieces):
    assert _pooled(pieces) == [(l, v.hex()) for l, v in ref_monotonize(pieces)]


@settings(max_examples=150, deadline=None)
@given(pieces=_mixed_pieces(6))
def test_monotonize_pools_mixed_scales_as_every_merge_order(pieces):
    # a lone piece's float is its exact value, so rounding each block's
    # exact average once gives the lone pieces back unchanged
    want = pava_all_merge_orders(pieces)
    assert _pooled(pieces) == [(l, float(v).hex()) for l, v in want]


@pytest.mark.parametrize(
    "pieces, want",
    [
        # the pool's exact average 1 - 2**-54 rounds to 1.0 but is below
        # the next piece's 1.0: a violation, pooled again
        ([(1, _BELOW_ONE), (1, 1.0), (1, 1.0)], [(3, float((3 - Fraction(2) ** -53) / 3))]),
        # the pool's exact average 1 + 2**-53 rounds to 1.0 but is above
        # the next piece's 1.0: no violation
        ([(1, 1.0), (1, _ABOVE_ONE), (1, 1.0)], [(2, 1.0), (1, 1.0)]),
        # lone pieces of equal value never pool
        ([(1, 0.1), (2, 0.1)], [(1, 0.1), (2, 0.1)]),
    ],
    ids=["tie-below", "tie-above", "equal-lone"],
)
def test_monotonize_settles_a_rounded_tie_exactly(pieces, want):
    assert _pooled(pieces) == [(l, v.hex()) for l, v in want]
    assert _pooled(pieces) == [(l, v.hex()) for l, v in ref_monotonize(pieces)]


def test_monotonize_noop_bitwise():
    est = PiecewiseEstimate(
        4, (Piece(1, 2, "constant", 0.3), Piece(3, 2, "constant", 0.2))
    )
    out = monotonize(est)
    assert [(p.length, p.value) for p in out.pieces] == [(2, 0.3), (2, 0.2)]
    # values round-trip bit for bit, not just within tolerance
    assert out.pieces[0].value.hex() == (0.3).hex()


def test_monotonize_pair_average():
    est = PiecewiseEstimate(
        4, (Piece(1, 2, "constant", 0.1), Piece(3, 2, "constant", 0.2))
    )
    out = monotonize(est)
    assert [(p.start, p.length) for p in out.pieces] == [(1, 4)]
    # the merged value is the correctly rounded exact average of the two
    # stored doubles, one ulp above the decimal 0.15
    exact = (Fraction(0.1) * 2 + Fraction(0.2) * 2) / 4
    assert out.pieces[0].value == float(exact)
    assert out.pieces[0].value == pytest.approx(0.15, abs=1e-15)


def test_monotonize_matches_all_order_oracle():
    rng = np.random.default_rng(99)
    for _ in range(60):
        npieces = int(rng.integers(1, 7))
        lengths = rng.integers(1, 5, size=npieces)
        values = rng.random(npieces)
        pieces, pos = [], 1
        for l, v in zip(lengths, values):
            pieces.append(Piece(pos, int(l), "constant", float(v)))
            pos += int(l)
        est = PiecewiseEstimate(pos - 1, tuple(pieces))
        got = monotonize(est)
        want = pava_all_merge_orders([(int(l), float(v)) for l, v in zip(lengths, values)])
        assert [(p.length, p.value) for p in got.pieces] == [
            (l, float(v)) for l, v in want
        ]
        # idempotence, exactly
        again = monotonize(got)
        assert [(p.length, p.value) for p in again.pieces] == [
            (p.length, p.value) for p in got.pieces
        ]
        # mass preservation
        assert got.total_mass() == pytest.approx(est.total_mass(), abs=1e-12)


def test_monotonize_requires_constant_pieces():
    est = PiecewiseEstimate(2, (Piece(1, 2, "linear", slope=0.1, intercept=0.2),))
    with pytest.raises(Exception):
        monotonize(est)


def test_tree_json_shape():
    sc = SampleCounts(k=4, n=8, counts=np.array([8, 0, 0, 0]))
    t = build_greedy_binary(sc)
    import json

    payload = json.loads(t.to_json())
    assert payload["arity"] == 2
    assert payload["padded_k"] == 4
    assert {tuple(sorted(d)) for d in payload["leaves"]} == {("len", "start")}


@pytest.mark.parametrize("build", [build_greedy_binary, build_greedy_ternary])
def test_greedy_trees_refuse_an_empty_sample(build):
    with pytest.raises(BadParam, match="need at least one sample"):
        build(SampleCounts(4, 0, [0, 0, 0, 0]))
