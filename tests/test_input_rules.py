"""The vector rule and the record rule, each checked across every site
that applies it.

Every vector of numbers a caller hands the package (a density's masses,
an estimate's atom values, a distance's or a candidate's atoms, a
sample's counts) passes densities._check_vector, so one input gets one
verdict at every site: the float sites read it as the same float64 bits,
SampleCounts as the same exact ints, or each refuses it with BadParam.
Every function taking a record refuses anything else with BadParam
naming the record's type, before it reads an attribute of it.  Every
collection of items passes densities._check_items, which refuses what
tuple() cannot read with one BadParam per site."""

from fractions import Fraction

import numpy as np
import pytest

from treedens import (
    BadParam,
    CandidateSet,
    HypercubeSpec,
    PiecewiseEstimate,
    Regime,
    SampleCounts,
    assouad_alpha_beta,
    assouad_density,
    build_greedy_binary,
    build_greedy_ternary,
    build_idealized_binary,
    build_idealized_ternary,
    empirical_sup_deviation,
    family,
    fit_estimate,
    greedy_pl_estimate,
    histogram_estimate,
    hypercube_bins,
    idealized_pc_estimate,
    idealized_pl_estimate,
    interval_count,
    is_convex_non_increasing,
    is_non_increasing,
    make_density,
    minimum_distance_estimate,
    monotonize,
    rate_scaling,
    sample,
    subsets_to_masks,
    sup_risk,
    tv,
    yatracos_class,
)

_BIG = 3 * 2**61  # two of these counts sum past the int64 range

# (id, vector, its atoms, the float64 values the float sites read or None
# for a refusal, the exact ints SampleCounts reads or None for a refusal)
_ROWS = [
    ("text", ["0.5", "0.5"], 2, None, None),
    ("object-text", np.array(["1", "0"], dtype=object), 2, None, None),
    ("scalar", 2, 1, None, None),
    ("str", "0.5", 1, None, None),
    ("bytes", b"1", 1, None, None),
    ("none-item", [None, 1.0], 2, None, None),
    ("ragged", [[1.0], [0.5, 0.5]], 2, None, None),
    ("matrix", np.eye(2), 2, None, None),
    ("int-list", [1, 0], 2, [1.0, 0.0], [1, 0]),
    ("float-list", [0.25, 0.75], 2, [0.25, 0.75], None),
    ("float32", np.array([0.25, 0.75], dtype=np.float32), 2, [0.25, 0.75], None),
    ("object-floats", np.array([0.25, 0.75], dtype=object), 2, [0.25, 0.75], None),
    ("fractions", [Fraction(1, 4), Fraction(3, 4)], 2, [0.25, 0.75], None),
    ("bool-array", np.array([True, False]), 2, [1.0, 0.0], None),
    ("bool-item", [True, 0], 2, [1.0, 0.0], None),
    ("integral-floats", [1.0, 0.0], 2, [1.0, 0.0], [1, 0]),
    ("past-2**62", [_BIG, _BIG], 2, [float(_BIG)] * 2, [_BIG, _BIG]),
    ("big-int-beside-a-float", [1.0, 2**62 + 1], 2, [1.0, float(2**62 + 1)], [1, 2**62 + 1]),
    ("uint64-past-int64", np.array([2**63, 0], dtype=np.uint64), 2, [2.0**63, 0.0], None),
]


def _tv_read(v, k, want):
    """want as a float64 vector when tv puts v at distance 0 from it: tv
    read v as exactly want.  A refused row meets zeros instead."""
    w = np.zeros(k) if want is None else np.array(want, dtype=np.float64)
    return w if tv(v, w) == 0.0 else None


# site -> call(vector, atoms, float values wanted) giving the float64 vector read
_FLOAT_SITES = {
    "make_density": lambda v, k, want: make_density(v).mass,
    "from_atom_values": lambda v, k, want: PiecewiseEstimate.from_atom_values(k, v).atom_values(),
    "tv": _tv_read,
    "CandidateSet": lambda v, k, want: CandidateSet([v, np.zeros(k)]).atom_values[0],
}

# make_density applies where the row is refused or its values are a mass
_CASES = [
    pytest.param(row, site, id=f"{row[0]}-{site}")
    for row in _ROWS
    for site in (*_FLOAT_SITES, "SampleCounts")
    if site != "make_density" or row[3] is None or sum(row[3]) == 1.0
]


@pytest.mark.parametrize("row, site", _CASES)
def test_one_vector_gets_one_verdict_at_every_site(row, site):
    _, v, k, floats, ints = row
    if site == "SampleCounts":
        want = ints
        call = lambda: SampleCounts(k, sum(ints or [1]), v).counts  # noqa: E731
    else:
        want = floats
        call = lambda: _FLOAT_SITES[site](v, k, floats)  # noqa: E731
    if want is None:
        with pytest.raises(BadParam, match=r"must be (numbers|finite integers) in a 1-D vector: "):
            call()
        return
    got = call()
    if site == "SampleCounts":
        assert got.dtype == np.int64 and got.tolist() == want
    else:
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_a_float64_vector_is_read_uncopied_and_kept_as_a_copy():
    from treedens.densities import _check_vector

    v = np.array([0.25, 0.75])
    assert _check_vector("v", v) is v
    f = make_density(v)
    assert not np.shares_memory(f.mass, v)
    # anything else is read into a fresh array
    w = np.array([0.25, 0.75], dtype=np.float32)
    assert not np.shares_memory(_check_vector("w", w), w)
    counts = np.array([1, 0])
    assert not np.shares_memory(_check_vector("c", counts, integer=True), counts)


_F = family("uniform", 4)
_SC = sample(_F, 100, 0)
_T2 = build_greedy_binary(_SC)
_T3 = build_greedy_ternary(_SC)
_CS = CandidateSet([_F, family("harmonic-zipf", 4)])

# (id, call with None where a record belongs, the record type named);
# each raised a bare AttributeError, but fit_estimate, whose one refusal
# for both arguments named neither type
_RECORD_CALLS = [
    ("build_greedy_binary", lambda: build_greedy_binary(None), "SampleCounts"),
    ("build_greedy_ternary", lambda: build_greedy_ternary(None), "SampleCounts"),
    ("build_idealized_binary", lambda: build_idealized_binary(None, 100), "DiscreteDensity"),
    ("build_idealized_ternary", lambda: build_idealized_ternary(None, 100), "DiscreteDensity"),
    ("histogram_estimate-tree", lambda: histogram_estimate(None, _SC), "PartitionTree"),
    ("histogram_estimate-sample", lambda: histogram_estimate(_T2, None), "SampleCounts"),
    ("greedy_pl_estimate-tree", lambda: greedy_pl_estimate(None, _SC), "PartitionTree"),
    ("greedy_pl_estimate-sample", lambda: greedy_pl_estimate(_T3, None), "SampleCounts"),
    ("idealized_pc_estimate-tree", lambda: idealized_pc_estimate(None, _F), "PartitionTree"),
    ("idealized_pc_estimate-density", lambda: idealized_pc_estimate(_T2, None), "DiscreteDensity"),
    ("idealized_pl_estimate-tree", lambda: idealized_pl_estimate(None, _F), "PartitionTree"),
    ("idealized_pl_estimate-density", lambda: idealized_pl_estimate(_T3, None), "DiscreteDensity"),
    ("monotonize", lambda: monotonize(None), "PiecewiseEstimate"),
    ("assouad_density", lambda: assouad_density(None), "HypercubeSpec"),
    ("assouad_alpha_beta", lambda: assouad_alpha_beta(None), "HypercubeSpec"),
    ("hypercube_bins", lambda: hypercube_bins(None), "HypercubeSpec"),
    ("interval_count", lambda: interval_count(None, 1, 1), "SampleCounts"),
    ("yatracos_class", lambda: yatracos_class(None), "CandidateSet"),
    ("mde-candidates", lambda: minimum_distance_estimate(None, _SC), "CandidateSet"),
    ("mde-sample", lambda: minimum_distance_estimate(_CS, None), "SampleCounts"),
    ("sup_deviation-sample", lambda: empirical_sup_deviation(None, _F, [[1]]), "SampleCounts"),
    ("sup_deviation-density", lambda: empirical_sup_deviation(_SC, None, [[1]]), "DiscreteDensity"),
    ("is_non_increasing", lambda: is_non_increasing(None), "DiscreteDensity"),
    ("is_convex_non_increasing", lambda: is_convex_non_increasing(None), "DiscreteDensity"),
    ("fit_estimate-truth", lambda: fit_estimate("oracle", None, _SC), "DiscreteDensity"),
    ("fit_estimate-sample", lambda: fit_estimate("oracle", _F, None), "SampleCounts"),
]


@pytest.mark.parametrize(
    "call, record", [c[1:] for c in _RECORD_CALLS], ids=[c[0] for c in _RECORD_CALLS]
)
def test_every_record_argument_refuses_anything_else(call, record):
    with pytest.raises(BadParam, match=f"must be a {record}, got NoneType$"):
        call()


# (site, call taking the collection, its message); every site had a rule
# of its own, and CandidateSet and rate_scaling none: they raised a bare
# TypeError ('int' object is not iterable)
_COLLECTION_SITES = [
    ("pieces", lambda v: PiecewiseEstimate(1, v), "pieces must be an iterable of Piece records"),
    (
        "theta",
        lambda v: HypercubeSpec(Regime.MONOTONE_SMALL_K, 10, 4, 2, 0.5, v),
        "theta must be an iterable of bits",
    ),
    ("labels", lambda v: CandidateSet([_F], v), "labels must be an iterable of labels"),
    ("candidates", CandidateSet, "candidates must be an iterable of candidate estimates"),
    (
        "family",
        lambda v: sup_risk("oracle", v, 10, 1, 0),
        "the family must be an iterable of densities",
    ),
    ("sets", lambda v: subsets_to_masks(v, 3), "sets must be an iterable of atom subsets"),
    (
        "n_grid",
        lambda v: rate_scaling("oracle", "uniform", v, 8, 1, 0),
        "n_grid must be an iterable of integers",
    ),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in _COLLECTION_SITES], ids=[c[0] for c in _COLLECTION_SITES]
)
@pytest.mark.parametrize(
    "value",
    [5, 2.5, np.float64(2.0), np.array(3), object()],
    ids=["int", "float", "np.float64", "0-d array", "object"],
)
def test_every_collection_refuses_what_is_not_iterable(call, message, value):
    with pytest.raises(BadParam, match=f"^{message}$"):
        call(value)


# text is iterable, but read item by item it was one label per character,
# the bits (0, 1) of b"\x00\x01" and the grid n = 10, 20, 30 of b"\n\x14\x1e"
@pytest.mark.parametrize(
    "call, message", [c[1:] for c in _COLLECTION_SITES], ids=[c[0] for c in _COLLECTION_SITES]
)
@pytest.mark.parametrize("value", ["ab", b"ab", bytearray(b"ab")], ids=["str", "bytes", "bytearray"])
def test_every_collection_refuses_text(call, message, value):
    with pytest.raises(BadParam, match=f"^{message}$"):
        call(value)
