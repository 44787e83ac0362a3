"""What a density or a sample computes once and keeps: a DiscreteDensity's
CDF edges (_cdf) and a SampleCounts' running totals for the padded size
last asked for (_at).  A kept value must give exactly what computing it
afresh gives, whatever was asked before it, and must not show in a
record's equality, repr or pickle."""

import pickle
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import ref_sample_counts
from treedens import (
    BadParam,
    SampleCounts,
    build_greedy_binary,
    build_greedy_ternary,
    family,
    greedy_pl_estimate,
    histogram_estimate,
    mc_risk,
    sample,
)

# each fit step: (name, the step it needs first, step(sample, results))
_STEPS = {
    "binary": (None, lambda sc, r: build_greedy_binary(sc)),
    "ternary": (None, lambda sc, r: build_greedy_ternary(sc)),
    "histogram": ("binary", lambda sc, r: histogram_estimate(r["binary"], sc)),
    "lines": ("ternary", lambda sc, r: greedy_pl_estimate(r["ternary"], sc)),
}
_ORDERS = [
    order
    for order in permutations(_STEPS)
    if all(order.index(_STEPS[s][0]) < order.index(s) for s in order if _STEPS[s][0])
]


def _fresh(sc):
    return SampleCounts(sc.k, sc.n, sc.counts)


def _samples():
    # k = 64 pads to 64 (binary) and to 81 (ternary); k = 1 pads to 1 for
    # both; the last sample's totals pass 2**63 and are kept as Python ints
    for name, k, n, seed in [
        ("harmonic-zipf", 64, 1000, 3),
        ("trunc-geometric", 64, 5000, 11),
        ("uniform", 1, 5, 0),
        ("linear-decreasing", 100, 2000, 7),
    ]:
        yield sample(family(name, k), n, seed)
    yield SampleCounts(4, 3 * 2**62, [2**62, 2**62, 2**61, 2**61])


@pytest.mark.parametrize("order", _ORDERS, ids="-".join)
def test_one_sample_fits_both_trees_in_any_order_as_fresh_copies_do(order):
    for sc in _samples():
        kept = {}
        for step in order:
            kept[step] = _STEPS[step][1](sc, kept)
        for step in order:
            # each result against the same step on copies that kept nothing
            fresh = {}
            for need in (_STEPS[step][0], step):
                if need:
                    fresh[need] = _STEPS[need][1](_fresh(sc), fresh)
            assert kept[step] == fresh[step], (order, step, sc.k)


def test_one_density_sampled_at_several_sizes_and_seeds_counts_as_the_oracle():
    f = family("harmonic-zipf", 257)
    for n, seed in [(0, 0), (1, 5), (1000, 1), (1000, 2), (20000, 9), (3, 2**64 - 1)]:
        assert np.array_equal(sample(f, n, seed).counts, ref_sample_counts(f.mass, n, seed))
    edges = f.__dict__["_cdf"]
    assert sample(f, 10, 0) is not None and f.__dict__["_cdf"] is edges  # computed once
    assert np.array_equal(edges, np.cumsum(f.mass)) and not edges.flags.writeable
    # any other object with k and mass is refused, not sampled from unchecked edges
    with pytest.raises(BadParam, match="must be a DiscreteDensity"):
        sample(SimpleNamespace(k=f.k, mass=f.mass), 1000, 1)


@pytest.mark.parametrize(
    "estimator",
    ["empirical-histogram", "greedy-binary", "greedy-binary+monotonize", "greedy-ternary"],
)
def test_threads_share_one_density_and_report_as_one_thread_does(estimator):
    # the threaded call comes first, so its workers race to the first _cdf
    shared = family("trunc-geometric", 64)
    threaded = mc_risk(estimator, shared, 500, 24, 7, threads=4)
    assert threaded == mc_risk(estimator, family("trunc-geometric", 64), 500, 24, 7, threads=1)
    assert threaded == mc_risk(estimator, shared, 500, 24, 7, threads=1)


def _compared(a, b):
    """a == b, or the type of the error comparing them raises."""
    try:
        return a == b
    except Exception as exc:  # the outcome under test, whatever it is
        return type(exc)


def test_kept_values_do_not_show_in_equality_repr_or_pickle():
    for k in (1, 64):
        used, fresh, other = (family("harmonic-zipf", k) for _ in range(3))
        sc, sc_fresh, sc_other = (sample(f, 100, 4) for f in (used, fresh, other))
        build_greedy_binary(sc)
        build_greedy_ternary(sc)
        assert "_cdf" in used.__dict__ and "_at" in sc.__dict__
        for kept, plain, twin in [(used, fresh, other), (sc, sc_fresh, sc_other)]:
            assert repr(kept) == repr(plain)
            assert pickle.dumps(kept) == pickle.dumps(plain)
            back = pickle.loads(pickle.dumps(kept))
            assert not [name for name in vars(back) if name.startswith("_")]
            assert repr(back) == repr(plain)
            # == answers for a kept record as for two records that kept nothing
            assert _compared(kept, plain) == _compared(twin, plain) == _compared(back, plain)
        assert sample(pickle.loads(pickle.dumps(used)), 100, 4).to_csv() == sc.to_csv()


def test_counts_are_an_own_read_only_copy():
    given = np.array([3, 1, 0, 2])
    sc = SampleCounts(4, 6, given)
    totals_before = histogram_estimate(build_greedy_binary(sc), sc)
    given[:] = [0, 0, 0, 6]  # the caller's array, not the sample's
    assert list(sc.counts) == [3, 1, 0, 2]
    assert histogram_estimate(build_greedy_binary(sc), sc) == totals_before
    for counts in (sc.counts, sample(family("uniform", 4), 6, 0).counts):
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 1
