import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ref_counts_from_uniforms, ref_sample_counts
from treedens import (
    FAMILY_NAMES,
    BadParam,
    CandidateSet,
    DiscreteDensity,
    DomainMismatch,
    NotNormalized,
    OutOfRange,
    SampleCounts,
    build_greedy_binary,
    derive_seed,
    empirical_sup_deviation,
    family,
    interval_count,
    make_density,
    sample,
    subsets_to_masks,
)
from treedens.sampling import _counts_from_uniforms


def test_zero_draws_allowed():
    sc = sample(family("uniform", 4), 0, 123)
    assert sc.n == 0
    assert np.array_equal(sc.counts, np.zeros(4, dtype=np.int64))
    assert np.array_equal(sc.frequencies(), np.zeros(4))


@pytest.mark.parametrize(
    "density",
    [
        SimpleNamespace(k=3, mass=np.array([0.6, -0.4, 0.8])),  # gave a count of -408
        SimpleNamespace(k=5, mass=np.array([0.5, 0.5])),  # gave k = 5 with two counts
        object(),  # a bare AttributeError
        np.array([0.5, 0.5]),
    ],
    ids=["negative-mass", "short-mass", "object", "array"],
)
def test_sample_refuses_anything_but_a_density(density):
    with pytest.raises(BadParam, match="density must be a DiscreteDensity"):
        sample(density, 1000, 1)


def test_negative_draws_rejected():
    with pytest.raises(BadParam):
        sample(family("uniform", 4), -1, 0)


def test_negative_seed_rejected():
    # numpy's PCG64 raised a bare ValueError
    with pytest.raises(BadParam, match="seed must be >= 0"):
        sample(family("uniform", 4), 10, -1)


def test_point_mass_all_in_one_atom():
    f = make_density([1.0, 0.0, 0.0])
    sc = sample(f, 100, 5)
    assert list(sc.counts) == [100, 0, 0]


def test_uniform_k2_law_of_large_numbers():
    sc = sample(family("uniform", 2), 10**6, 42)
    # binomial sd is 0.0005 here; 0.002 is a 4-sigma corridor
    assert abs(sc.counts[0] / 10**6 - 0.5) < 0.002


def test_counts_sum_and_determinism():
    f = family("harmonic-zipf", 64)
    a = sample(f, 1000, 7)
    b = sample(f, 1000, 7)
    c = sample(f, 1000, 8)
    assert a.counts.sum() == 1000
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_derive_seed_spreads():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(0, 3) == derive_seed(0, 3)
    assert derive_seed(0, 3) != derive_seed(1, 3)


def test_sample_counts_validation():
    with pytest.raises(BadParam):
        SampleCounts(k=2, n=3, counts=np.array([1, 1]))  # sum mismatch
    with pytest.raises(BadParam):
        SampleCounts(k=2, n=1, counts=np.array([2, -1]))


def test_sample_counts_reject_a_length_other_than_k():
    with pytest.raises(BadParam, match=r"^expected 3 counts, got shape \(2,\)$"):
        SampleCounts(3, 2, [1, 1])


def test_sample_counts_reject_a_sum_that_wraps_int64():
    # the true total is 2**64 + 5; an int64 sum wraps it around to n = 5
    with pytest.raises(BadParam):
        SampleCounts(k=5, n=5, counts=np.array([2**62] * 4 + [5]))
    big = 2**63 - 1
    assert SampleCounts(k=2, n=big, counts=np.array([big - 1, 1])).n == big


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "counts, n",
    [([1.5, 1.5], 2), ([2.5, 0.5], 2), ([np.nan, 2.0], 2), ([np.inf, 1.0], 1), ([1e300, 0.0], 0)],
)
def test_sample_counts_reject_non_integral_floats(counts, n):
    with pytest.raises(BadParam):
        SampleCounts(k=2, n=n, counts=np.array(counts))


@pytest.mark.parametrize(
    "counts", ["abcd", ["1", "2", "3", "4"], [[1, 2], [3, 4, 0]], {1: 2}, object()]
)
def test_sample_counts_reject_what_is_not_a_vector_of_numbers(counts):
    # "abcd" leaked a bare ValueError from astype(float) before, and text
    # that parses as numbers was taken as counts
    with pytest.raises(BadParam):
        SampleCounts(k=4, n=10, counts=counts)


def test_sample_counts_accept_integral_floats():
    sc = SampleCounts(k=3, n=5, counts=np.array([2.0, 0.0, 3.0]))
    assert sc.counts.dtype == np.int64
    assert list(sc.counts) == [2, 0, 3]


# weights in [0, 1] with many exact zeros, normalized to a valid density
_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False)),
    min_size=1,
    max_size=200,
).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None)
@given(w=_weights, n=st.integers(0, 5000), seed=st.integers(0, 2**64 - 1))
@example(w=[1.0], n=5000, seed=0)
@example(w=[0.0, 1.0, 0.0], n=17, seed=3)
def test_sample_counts_equal_reference(w, n, seed):
    f = make_density(np.array(w) / math.fsum(w))
    assert np.array_equal(sample(f, n, seed).counts, ref_sample_counts(f.mass, n, seed))


@settings(max_examples=200, deadline=None)
@given(
    w=_weights,
    short=st.sampled_from([0.0, 9e-10]),
    n=st.integers(0, 5000),
    seed=st.integers(0, 2**64 - 1),
)
@example(w=[1.0], short=0.0, n=0, seed=0)
@example(w=[1.0], short=9e-10, n=50, seed=2)
@example(w=[0.0, 1.0, 0.0], short=0.0, n=17, seed=3)
@example(w=[0.1] * 10, short=0.0, n=1000, seed=1)  # the edges end a hair under 1
def test_a_sample_is_what_the_checked_constructor_accepts_and_copies_as_itself(w, short, n, seed):
    # short: a total under 1 by less than the tolerance, so the last atom
    # takes every draw past the last edge
    f = make_density(np.array(w) / math.fsum(w) * (1.0 - short))
    sc = sample(f, n, seed)
    assert sc == SampleCounts(f.k, n, sample(f, n, seed).counts)
    if n:
        build_greedy_binary(sc)  # keeps running totals on the sample
    for record in (f, sc):
        back = pickle.loads(pickle.dumps(record))
        assert back == record
        assert not [name for name in vars(back) if name.startswith("_")]


def test_a_copy_is_built_by_the_checked_constructor():
    # records holding what their checks refuse, built around the checks
    bad_counts = SampleCounts._trusted(3, 1, np.array([2, -1, 0]))
    bad_mass = DiscreteDensity.__new__(DiscreteDensity)
    bad_mass.__dict__.update(k=2, mass=np.array([0.6, 0.6]))
    for bad, error in ((bad_counts, BadParam), (bad_mass, NotNormalized)):
        with pytest.raises(error):
            pickle.loads(pickle.dumps(bad))
        with pytest.raises(error):
            copy.deepcopy(bad)


_MASS = [0.5, 0.25, 0.125, 0.125]


@pytest.mark.parametrize(
    "make, equal, unequal",
    [
        (
            lambda: make_density(_MASS),
            lambda: [DiscreteDensity(4, np.array(_MASS))],
            lambda: [make_density(_MASS[::-1]), family("uniform", 2)],
        ),
        (
            lambda: SampleCounts(4, 8, [4, 2, 1, 1]),
            lambda: [SampleCounts(4, 8, np.array([4.0, 2.0, 1.0, 1.0]))],
            lambda: [
                SampleCounts(4, 8, [1, 1, 2, 4]),
                SampleCounts(4, 9, [4, 2, 1, 2]),
                SampleCounts(3, 7, [4, 2, 1]),
            ],
        ),
        (
            lambda: CandidateSet([make_density(_MASS), family("uniform", 4)], ["a", "b"]),
            # the same labels and atom values, whatever the candidates' types
            lambda: [CandidateSet([np.array(_MASS), np.full(4, 0.25)], ["a", "b"])],
            lambda: [
                CandidateSet([make_density(_MASS), family("uniform", 4)], ["a", "c"]),
                CandidateSet([make_density(_MASS), family("uniform", 4)]),
                CandidateSet([family("uniform", 4), make_density(_MASS)], ["a", "b"]),
            ],
        ),
    ],
    ids=["DiscreteDensity", "SampleCounts", "CandidateSet"],
)
def test_records_compare_by_value_and_are_unhashable(make, equal, unequal):
    # == raised "The truth value of an array ... is ambiguous" for k > 1
    record = make()
    for twin in [make(), *equal()]:
        assert record == twin and not record != twin
    for other in unequal():
        assert record != other and not record == other
    assert record != "a record" and record != None  # noqa: E711
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_sample_counts_equal_reference_on_families(name):
    for k in (1, 7, 64, 4096):
        f = family(name, k)
        for n in (0, 1, 1000, 10**4):
            for seed in range(3):
                assert np.array_equal(sample(f, n, seed).counts, ref_sample_counts(f.mass, n, seed))


def test_uniform_on_a_cdf_edge_goes_to_the_next_atom():
    # every edge is exact in binary: 0.25, 0.25, 0.5, 1.0; atom 2 has no mass
    mass = np.array([0.25, 0.0, 0.25, 0.5])
    u = np.array([0.5, 0.25, 0.0, 0.25, np.nextafter(0.25, 0.0), 0.75, np.nextafter(1.0, 0.0)])
    counts = _counts_from_uniforms(np.cumsum(mass), u.copy())
    assert np.array_equal(counts, ref_counts_from_uniforms(mass, u))
    assert list(counts) == [2, 0, 2, 3]


def test_stragglers_past_the_last_edge_go_to_the_last_atom():
    mass = make_density([0.1] * 10).mass
    edges = np.cumsum(mass)
    assert edges[-1] < 1.0  # ten 0.1s add up to a hair under 1
    u = np.array([edges[-1], 0.05, np.nextafter(1.0, 0.0), edges[-2], np.nextafter(edges[-2], 0.0)])
    counts = _counts_from_uniforms(edges, u.copy())
    assert np.array_equal(counts, ref_counts_from_uniforms(mass, u))
    assert counts[0] == 1 and counts[-2] == 1 and counts[-1] == 3


def test_interval_count_examples():
    sc = SampleCounts(k=3, n=12, counts=np.array([3, 4, 5]))
    assert interval_count(sc, 1, 3) == 12
    assert interval_count(sc, 2, 1) == 4
    assert interval_count(sc, 2, 2) == 9
    with pytest.raises(OutOfRange):
        interval_count(sc, 3, 2)
    with pytest.raises(OutOfRange):
        interval_count(sc, 0, 1)


def test_interval_count_past_int64():
    # the int64 sum of 2**62 + 2**62 + 2**61 wrapped to -2**62
    sc = SampleCounts(4, 3 * 2**62, [2**62, 2**62, 2**61, 2**61])
    assert interval_count(sc, 1, 4) == 3 * 2**62
    assert interval_count(sc, 1, 3) == 5 * 2**61
    assert interval_count(sc, 3, 2) == 2**62


def test_sup_deviation_zero_for_exact_counts():
    f = family("uniform", 4)
    sc = SampleCounts(k=4, n=8, counts=np.array([2, 2, 2, 2]))
    sets = [{1}, {2, 3}, {1, 2, 3, 4}]
    assert empirical_sup_deviation(sc, f, sets) == 0.0


def test_sup_deviation_empty_cases():
    f = family("uniform", 2)
    sc = SampleCounts(k=2, n=10, counts=np.array([7, 3]))
    assert empirical_sup_deviation(sc, f, [set()]) == 0.0
    assert empirical_sup_deviation(sc, f, []) == 0.0


def test_sup_deviation_single_atom():
    f = family("uniform", 2)
    sc = SampleCounts(k=2, n=10, counts=np.array([7, 3]))
    assert empirical_sup_deviation(sc, f, [{1}]) == pytest.approx(0.2, abs=1e-15)


def test_subsets_to_masks_accepts_masks_and_indices():
    a = subsets_to_masks([{1, 3}], 3)
    b = subsets_to_masks([[True, False, True]], 3)
    assert np.array_equal(a, b)
    # subsets of different sizes give one row each
    got = subsets_to_masks([[1], [2, 3]], 3)
    assert got.tolist() == [[True, False, False], [False, True, True]]
    with pytest.raises(OutOfRange):
        subsets_to_masks([{0}], 3)
    with pytest.raises(OutOfRange):
        subsets_to_masks([{4}], 3)


@pytest.mark.parametrize(
    "subset", [[1.5], [2.9], [float("nan")], [float("inf")], ["a"], [2**70], [1, 2.5]]
)
def test_subsets_to_masks_reject_non_integral_indices(subset):
    # these were truncated to an atom, warned on the int64 cast, or raised
    # a bare ValueError
    with pytest.raises(BadParam, match="atom indices must be integers"):
        subsets_to_masks([subset], 3)


@pytest.mark.parametrize("subset", [[[1]], np.array([[1, 2]]), [[1], [2]]], ids=repr)
def test_subsets_to_masks_reject_an_index_array_that_is_not_flat(subset):
    # [[1]] was read as the set {1}
    with pytest.raises(BadParam, match="flat"):
        subsets_to_masks([subset], 3)


@pytest.mark.parametrize("sets", [[[1, [2, 3]]], [5], 5, [np.array([True, False])]], ids=repr)
def test_subsets_to_masks_reject_malformed_subsets(sets):
    # a ragged subset was numpy's bare ValueError, and a subset or
    # collection that is not iterable a bare TypeError
    with pytest.raises(BadParam):
        subsets_to_masks(sets, 3)
    f = family("uniform", 3)
    sc = SampleCounts(k=3, n=10, counts=np.array([7, 3, 0]))
    with pytest.raises(BadParam):
        empirical_sup_deviation(sc, f, sets)


def test_sup_deviation_refuses_a_support_mismatch_as_domain_mismatch():
    sc = SampleCounts(k=3, n=10, counts=np.array([7, 3, 0]))
    with pytest.raises(DomainMismatch, match="share the support size"):
        empirical_sup_deviation(sc, family("uniform", 4), [{1}])


def test_sup_deviation_rejects_non_integral_indices():
    f = family("uniform", 3)
    sc = SampleCounts(k=3, n=10, counts=np.array([7, 3, 0]))
    with pytest.raises(BadParam):
        empirical_sup_deviation(sc, f, [[2.9]])


def test_subsets_to_masks_accept_integral_floats_and_numpy_ints():
    want = subsets_to_masks([{1, 3}], 3)
    for subset in ({1.0, 3.0}, [np.int32(1), np.uint8(3)], np.array([1.0, 3.0])):
        assert np.array_equal(subsets_to_masks([subset], 3), want)
    with pytest.raises(OutOfRange):
        subsets_to_masks([{4.0}], 3)


def test_counts_csv():
    sc = SampleCounts(k=2, n=3, counts=np.array([2, 1]))
    assert sc.to_csv() == "index,count\n1,2\n2,1\n"


def _same_counts(got: SampleCounts, want: SampleCounts) -> bool:
    # the dataclass == compares counts arrays with ==, which has no truth value
    return (
        (got.k, got.n) == (want.k, want.n)
        and got.counts.dtype == want.counts.dtype
        and got.counts.shape == want.counts.shape
        and got.counts.tobytes() == want.counts.tobytes()
    )


@settings(max_examples=300, deadline=None)
@given(w=_weights, n=st.integers(0, 5000), seed=st.integers(0, 2**64 - 1))
@example(w=[1.0], n=0, seed=0)
@example(w=[1.0], n=17, seed=1)
@example(w=[0.5, 0.0, 0.25, 0.25, 0.0], n=0, seed=2)
@example(w=[0.1] * 10, n=1000, seed=3)
def test_sample_makes_what_the_public_constructor_accepts(w, n, seed):
    # sample skips SampleCounts' checks; they must all hold anyway
    f = make_density(np.array(w) / math.fsum(w))
    got = sample(f, n, seed)
    assert got.counts.dtype == np.int64 and got.counts.flags.c_contiguous
    assert _same_counts(got, SampleCounts(f.k, n, got.counts.copy()))


@pytest.mark.parametrize("n", [2.5, 10.0, 2**60, 10**20])
def test_sample_rejects_an_n_that_cannot_size_an_array(n):
    # numpy's TypeError or ValueError escaped from Generator.random(n)
    with pytest.raises(BadParam, match="^n must be an integer of at most"):
        sample(family("uniform", 4), n, 0)
