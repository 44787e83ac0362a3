"""Flat piecewise estimates against the Piece-by-Piece reference builders.

The library keeps an estimate as per-piece columns and builds Piece
records only when .pieces is read; tests/oracles.py keeps the builders
that made one Piece per leaf.  Every observable of the two must agree
exactly: ==, hash, the pieces, atom values (bytes and dtype), JSON and
CSV bytes, the value at every atom and the total mass.
"""

import hashlib
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    random_convex_mass,
    random_monotone_mass,
    ref_atom_values,
    ref_eval,
    ref_greedy_binary_leaves,
    ref_greedy_pl_estimate,
    ref_greedy_ternary_leaves,
    ref_histogram_estimate,
    ref_idealized_binary_leaves,
    ref_idealized_pc_estimate,
    ref_idealized_pl_estimate,
    ref_idealized_ternary_leaves,
    ref_monotonize,
    ref_to_csv,
    ref_to_json,
    ref_total_mass,
)
from treedens import (
    BadParam,
    PartitionTree,
    Piece,
    PiecewiseEstimate,
    SampleCounts,
    TreedensError,
    build_greedy_binary,
    build_greedy_ternary,
    build_idealized_binary,
    build_idealized_ternary,
    fit_estimate,
    family,
    greedy_pl_estimate,
    histogram_estimate,
    idealized_pc_estimate,
    idealized_pl_estimate,
    make_density,
    mc_risk,
    monotonize,
    pad_to_power,
    sample,
)
from treedens.cli import run

DATA = Path(__file__).parent / "data"

# (library builder, reference builder, reads the counts rather than the density)
BUILDERS = (
    (histogram_estimate, ref_histogram_estimate, True),
    (greedy_pl_estimate, ref_greedy_pl_estimate, True),
    (idealized_pc_estimate, ref_idealized_pc_estimate, False),
    (idealized_pl_estimate, ref_idealized_pl_estimate, False),
)


def assert_same_estimate(got: PiecewiseEstimate, want: PiecewiseEstimate) -> None:
    """got equals want in every observable; want's pieces are the reference."""
    pieces = want.pieces
    assert got == want and hash(got) == hash(want)
    # repr tells -0.0 from 0.0 and an int from a float
    assert repr(got.pieces) == repr(pieces) and got.pieces == pieces
    vals, ref_vals = got.atom_values(), ref_atom_values(pieces)
    assert vals.dtype == ref_vals.dtype and vals.tobytes() == ref_vals.tobytes()
    assert got.to_json() == ref_to_json(want.domain_k, pieces)
    assert got.to_csv() == ref_to_csv(pieces)
    for x in range(1, got.domain_k + 1):
        assert repr(got(x)) == repr(ref_eval(pieces, x))
    assert got.total_mass().hex() == ref_total_mass(pieces).hex()


def assert_same_outcome(call, ref_call) -> None:
    """Both raise the same error, or both return the same estimate."""
    try:
        want = ref_call()
    except TreedensError as exc:
        with pytest.raises(type(exc)) as got:
            call()
        assert str(got.value) == str(exc)
        return
    assert_same_estimate(call(), want)


@st.composite
def trees(draw, arity: int):
    """(k, tree): a random aligned tree over 1..pad_to_power(k, arity)."""
    k = draw(st.integers(1, 100))
    padded = pad_to_power(k, arity)
    split = st.integers(0, 3).map(bool)  # split three times in four
    spans, stack = [], [(1, padded)]
    while stack:
        start, length = stack.pop()
        if length > 1 and draw(split):
            child = length // arity
            stack += [(start + j * child, child) for j in range(arity - 1, -1, -1)]
        else:
            spans.append((start, length))
    return k, PartitionTree(arity, padded, tuple(spans))


def counts_for(k: int):
    """Counts on 1..k with runs of zeros, small and large counts, n >= 1."""
    atom = st.one_of(st.just(0), st.integers(0, 20), st.integers(0, 10**6))
    return st.lists(atom, min_size=k, max_size=k).map(
        lambda c: c if sum(c) else [1] + c[1:]
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), arity=st.sampled_from((2, 3)), renormalize=st.booleans())
def test_builders_match_piece_references(data, arity, renormalize):
    k, t = data.draw(trees(arity))
    counts = data.draw(counts_for(k))
    sc = SampleCounts(k=k, n=sum(counts), counts=np.array(counts))
    mass = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    f = make_density(mass / mass.sum() if mass.sum() > 0 else np.full(k, 1.0 / k))
    for build, ref, reads_counts in BUILDERS:
        arg = sc if reads_counts else f
        assert_same_outcome(
            lambda: build(t, arg, renormalize=renormalize),
            lambda: ref(t, arg, renormalize=renormalize),
        )


@pytest.mark.parametrize("wrong_domain", [False, True])
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("n", [0, 7])
def test_builders_check_the_tree_domain_then_the_arity_then_n(wrong_domain, arity, n):
    # every combination of a tree over the wrong padded domain, a binary
    # tree handed to a linear builder and an empty sample
    k = 10
    padded = pad_to_power(k, arity) // (arity if wrong_domain else 1)
    t = PartitionTree(arity, padded, ((1, padded),))
    sc = SampleCounts(k=k, n=n, counts=np.array([n] + [0] * (k - 1)))
    f = family("uniform", k)
    for build, ref, reads_counts in BUILDERS:
        arg = sc if reads_counts else f
        assert_same_outcome(lambda: build(t, arg), lambda: ref(t, arg))


def test_greedy_pl_ledges_singletons_and_padding_match_reference():
    # k = 25 on 1..27: leaves (1,9) (10,9) (19,3) (22,3) (25,1) (26,1) (27,1).
    # Leaf 1 rises from an empty left third, leaf 10 falls to an empty
    # right third, atom 25 is a singleton, and 26..27 are padding.
    spans = ((1, 9), (10, 9), (19, 3), (22, 3), (25, 1), (26, 1), (27, 1))
    t = PartitionTree(3, 27, spans)
    counts = [0, 0, 0, 1, 1, 1, 5, 5, 5, 5, 5, 5, 1, 1, 1, 0, 0, 0] + [2] * 6 + [3]
    sc = SampleCounts(k=25, n=sum(counts), counts=np.array(counts))
    for renormalize in (False, True):
        est = greedy_pl_estimate(t, sc, renormalize=renormalize)
        assert_same_estimate(est, ref_greedy_pl_estimate(t, sc, renormalize=renormalize))
        kinds = [(p.start, p.kind) for p in est.pieces]
        assert kinds[:4] == [(1, "constant"), (2, "linear"), (10, "linear"), (18, "constant")]
        assert est.pieces[0].value == 0.0 and est.pieces[3].value == 0.0
        assert est.pieces[-1].start == 25 and est.pieces[-1].length == 1
    f = make_density(np.full(25, 1.0 / 25))
    for renormalize in (False, True):
        assert_same_estimate(
            idealized_pl_estimate(t, f, renormalize=renormalize),
            ref_idealized_pl_estimate(t, f, renormalize=renormalize),
        )


@pytest.mark.parametrize(
    "arity, padded, spans",
    [
        (2, 4, ((1, 2),)),  # a histogram of mass 1.28
        (2, 4, ((1, 2), (2, 2), (4, 1))),  # five atom values for k = 4
        (2, 4, ((1, 8),)),  # a bare IndexError
        (2, 4, ()),  # a bare IndexError
        (3, 9, ((1, 2), (3, 7))),  # a ZeroDivisionError in greedy_pl_estimate
        (2, 4, ((1, 1), (2, 2), (4, 1))),  # length 2 not aligned to start 2
        (3, 9, ((1, 9), (10, 0))),
        (2, 6, ((1, 4), (5, 2))),  # padded_k not a power of the arity
        (4, 4, ((1, 4),)),
        (2.0, 8, ((1, 8),)),  # kept, and written as "arity": 2.0
        (2, 4, ((1.0, 4),)),
        (2, 4, (1, 4)),
        (2, 4, None),
    ],
)
def test_partition_tree_rejects_a_tree_that_does_not_tile_aligned(arity, padded, spans):
    # k = 4, harmonic-zipf, n = 100, seed 0: the estimates of the first
    # five trees were wrong or failed with bare errors
    with pytest.raises(BadParam):
        PartitionTree(arity, padded, spans)


def test_partition_tree_keeps_python_ints():
    # numpy integers leaked a TypeError from json.dumps in to_json
    i = np.int64
    t = PartitionTree(i(2), i(4), [(i(1), i(2)), (i(3), i(1)), (i(4), i(1))])
    assert t == PartitionTree(2, 4, ((1, 2), (3, 1), (4, 1)))
    fields = (t.arity, t.padded_k, *(x for span in t.spans for x in span))
    assert {type(x) for x in fields} == {int} and type(t.spans) is tuple
    assert json.loads(t.to_json())["arity"] == 2


def test_partition_tree_accepts_every_built_tree():
    for k in (1, 4, 10, 64, 100):
        f = family("harmonic-zipf", k)
        sc = sample(f, 1000, 0)
        for t in (build_greedy_binary(sc), build_greedy_ternary(sc), build_idealized_binary(f, 1000)):
            assert PartitionTree(t.arity, t.padded_k, t.spans) == t


def test_renormalize_rejects_a_mass_without_a_finite_reciprocal():
    # the line through the outer thirds of [5e-324, 1.0] on 1..3 has total
    # mass 1e-323, and 1 / 1e-323 overflows to inf
    t = PartitionTree(3, 3, ((1, 3),))
    f = make_density([5e-324, 1.0])
    for build in (idealized_pl_estimate, ref_idealized_pl_estimate):
        with pytest.raises(BadParam, match="1e-323"):
            build(t, f, renormalize=True)


def test_builders_match_references_on_library_trees():
    for name in ("harmonic-zipf", "trunc-geometric", "uniform", "linear-decreasing"):
        for k in (1, 5, 64, 100, 243):
            f = family(name, k)
            sc = sample(f, 500, 3)
            for est_name in ("greedy-binary", "greedy-ternary", "idealized-binary"):
                t, _ = fit_estimate(est_name, f, sc)
                for build, ref, reads_counts in BUILDERS:
                    arg = sc if reads_counts else f
                    for renormalize in (False, True):
                        assert_same_outcome(
                            lambda: build(t, arg, renormalize=renormalize),
                            lambda: ref(t, arg, renormalize=renormalize),
                        )


@st.composite
def given_pieces(draw):
    """(domain_k, pieces) with ints, -0.0, and constants with a slope."""
    value = st.one_of(
        st.floats(-1e3, 1e3, allow_subnormal=True),
        st.integers(-5, 5),
        st.sampled_from((0.0, -0.0)),
    )
    pieces, pos = [], 1
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 5))
        kind = draw(st.sampled_from(("constant", "linear")))
        pieces.append(Piece(pos, length, kind, draw(value), draw(value), draw(value)))
        pos += length
    return pos - 1, pieces


@settings(max_examples=200, deadline=None)
@given(case=given_pieces())
def test_columns_rebuild_the_given_pieces(case):
    domain_k, pieces = case
    est = PiecewiseEstimate(domain_k, pieces)
    assert est.pieces == tuple(pieces)
    # the same columns without the given records: pieces are rebuilt from them
    flat = PiecewiseEstimate._from_columns(
        domain_k, est.starts, est.lengths, est.linear, est.values, est.slopes, est.intercepts
    )
    assert "pieces" not in flat.__dict__
    assert_same_estimate(flat, est)
    assert repr(flat) == repr(est)


@pytest.mark.parametrize("v", [1, np.float64(0.5), -0.0, Fraction(1, 3), Decimal("0.25"), True])
def test_piece_takes_real_numbers(v):
    # a real number is stored as the float it rounds to; Decimal is no
    # numbers.Real, and the estimate's readers could not take it
    if isinstance(v, Decimal):
        with pytest.raises(BadParam, match="piece value must be a real number"):
            Piece(1, 2, "linear", v, v, v)
        return
    p = Piece(1, 2, "linear", v, v, v)
    fields = (p.value, p.slope, p.intercept)
    assert [(type(x), repr(x)) for x in fields] == [(float, repr(float(v)))] * 3


@pytest.mark.parametrize("v", ["x", "0.5", None, [0.5], 1j, np.complex128(1)], ids=repr)
@pytest.mark.parametrize("field", ["value", "slope", "intercept"])
def test_piece_rejects_a_field_that_is_not_a_real_number(field, v):
    # "x" made total_mass raise a bare ValueError and tv numpy's
    # UFuncTypeError; None wrote the CSV row 1,None
    with pytest.raises(BadParam, match=f"piece {field} must be a real number"):
        Piece(1, 1, "constant", **{field: v})


def test_estimates_differ_when_a_field_differs():
    a = PiecewiseEstimate(2, [Piece(1, 2, "constant", 0.5)])
    assert a != PiecewiseEstimate(2, [Piece(1, 1, "constant", 0.5), Piece(2, 1, "constant", 0.5)])
    assert a != PiecewiseEstimate(2, [Piece(1, 2, "constant", 0.25)])
    assert a != PiecewiseEstimate(2, [Piece(1, 2, "constant", 0.5, slope=1.0)])
    assert a != PiecewiseEstimate(2, [Piece(1, 2, "linear", 0.5)])
    assert a == PiecewiseEstimate(2, (Piece(1, 2, "constant", 0.5),))
    assert len({a, PiecewiseEstimate(2, [Piece(1, 2, "constant", 0.5)])}) == 1
    with pytest.raises(AttributeError):
        a.domain_k = 3


def test_from_atom_values():
    est = PiecewiseEstimate.from_atom_values(3, np.array([0.5, 0.25, 0.25]))
    assert est == PiecewiseEstimate(
        3, [Piece(x, 1, "constant", v) for x, v in ((1, 0.5), (2, 0.25), (3, 0.25))]
    )
    for values in ([0.5, 0.5], [0.25] * 4):
        with pytest.raises(BadParam) as flat:
            PiecewiseEstimate.from_atom_values(3, np.array(values))
        with pytest.raises(BadParam) as checked:
            PiecewiseEstimate(3, [Piece(i + 1, 1, "constant", v) for i, v in enumerate(values)])
        assert str(flat.value) == str(checked.value)


@pytest.mark.parametrize("values", [["a", "b"], [[1, 2]]])
def test_from_atom_values_rejects_values_that_are_not_numbers(values):
    # float() raised a bare ValueError or TypeError
    with pytest.raises(BadParam, match="atom values must be numbers"):
        PiecewiseEstimate.from_atom_values(2, values)


# --- monotonize on input that is already non-increasing ---------------------


@st.composite
def non_increasing(draw):
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-10, 10),
        st.sampled_from((0.0, -0.0, 0, 1, 1.0)),
    )
    values = draw(st.lists(value, min_size=1, max_size=10))
    values += [values[i] for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=4))]
    values.sort(reverse=True)  # stable: -0.0 beside 0.0 keeps its drawn order
    lengths = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    return list(zip(lengths, values))


def _constant_estimate(pieces) -> PiecewiseEstimate:
    out, pos = [], 1
    for length, value in pieces:
        out.append(Piece(pos, length, "constant", value=value))
        pos += length
    return PiecewiseEstimate(pos - 1, out)


@settings(max_examples=300, deadline=None)
@given(pieces=non_increasing())
def test_monotonize_fast_path_matches_reference(pieces):
    got = monotonize(_constant_estimate(pieces))
    # Piece stores each value as a float
    want = ref_monotonize([(l, float(v)) for l, v in pieces])
    assert [(p.length, repr(p.value)) for p in got.pieces] == [
        (l, repr(v)) for l, v in want
    ]
    assert all(p.kind == "constant" and p.slope == 0.0 == p.intercept for p in got.pieces)


@pytest.mark.parametrize(
    "pieces",
    [
        [(3, 0.25)],
        [(1, 7)],
        [(2, 0.0), (1, -0.0), (3, 0.0)],
        [(1, -0.0), (2, 0.0)],
        [(2, 3), (1, 3.0), (1, 2), (4, 2)],
    ],
)
def test_monotonize_fast_path_cases(pieces):
    got = monotonize(_constant_estimate(pieces))
    assert [(p.length, repr(p.value)) for p in got.pieces] == [
        (l, repr(v)) for l, v in ref_monotonize([(l, float(v)) for l, v in pieces])
    ]


def test_monotonize_output_has_zero_slopes():
    pieces = [Piece(1, 2, "constant", 0.5, slope=2.0, intercept=-1.0), Piece(3, 1, "constant", 0.25, 1)]
    assert monotonize(PiecewiseEstimate(3, pieces)).pieces == (
        Piece(1, 2, "constant", 0.5),
        Piece(3, 1, "constant", 0.25),
    )


@pytest.mark.parametrize(
    "pieces",
    [
        [(1, float("inf")), (1, 1.0)],
        [(1, 1.0), (1, float("-inf"))],
        [(2, float("nan"))],
        [(1, 1.0), (1, float("nan")), (1, 0.0)],
        [(1, 0.1), (1, np.float64("inf"))],
    ],
)
def test_monotonize_non_finite_values_still_raise(pieces):
    with pytest.raises(BadParam, match="is not finite$"):
        monotonize(_constant_estimate(pieces))


def test_monotonize_refusal_names_the_first_non_finite_value():
    # in piece order, before any pooling: the 2.0 and the nan never meet
    with pytest.raises(BadParam, match="^piece value nan is not finite$"):
        monotonize(_constant_estimate([(1, 2.0), (1, float("nan")), (1, float("inf"))]))


@pytest.mark.parametrize(
    "pieces",
    [
        [(1, np.int64(1)), (2, np.int64(3))],
        [(2, np.int32(0)), (1, 0.5), (3, np.uint8(1)), (1, 0.25)],
        [(1, np.int64(2**62)), (1, np.int64(2**62 + 1)), (2, 7)],
    ],
)
def test_monotonize_pools_numpy_integers_exactly(pieces):
    # exactly on the floats Piece stores: np.int64(2**62 + 1) is 2.0**62
    got = monotonize(_constant_estimate(pieces))
    floats = [(l, float(v)) for l, v in pieces]
    assert [(p.length, repr(p.value)) for p in got.pieces] == [
        (l, repr(v)) for l, v in ref_monotonize(floats)
    ]


@pytest.mark.parametrize(
    "pieces",
    [
        [(1, Fraction(2, 3)), (1, Fraction(3, 5))],
        [(1, Fraction(3, 5)), (2, Fraction(2, 3))],
        [(2, Fraction(1, 3)), (1, 0.5), (1, 0.25)],
        [(1, Decimal("0.3")), (1, Decimal("0.25")), (3, Decimal("0.26"))],
    ],
)
def test_monotonize_pools_rationals_on_their_common_denominator(pieces):
    # the largest denominator once stood for the common one, which
    # mis-scales totals whose denominators do not divide it; Piece now
    # stores a Fraction as its float and refuses a Decimal
    if any(isinstance(v, Decimal) for _, v in pieces):
        with pytest.raises(BadParam, match="piece value must be a real number"):
            _constant_estimate(pieces)
        return
    got = monotonize(_constant_estimate(pieces))
    floats = [(l, float(v)) for l, v in pieces]
    assert [(p.length, repr(p.value)) for p in got.pieces] == [
        (l, repr(v)) for l, v in ref_monotonize(floats)
    ]


def test_monotonize_rejects_a_value_without_an_exact_ratio():
    # a numpy bool is no numbers.Real: Piece refuses it before monotonize
    with pytest.raises(BadParam, match="piece value must be a real number"):
        monotonize(_constant_estimate([(1, np.True_), (1, 2.0)]))


# --- tree-free estimates through the CLI -------------------------------------

# sha256 of `treedens estimate` stdout for the oracle and the empirical
# histogram, recorded when each atom was built as its own Piece record
TREE_FREE = json.loads((DATA / "estimate_tree_free_sha256.json").read_text())


@pytest.mark.parametrize(
    "case", TREE_FREE, ids=lambda c: f"{c['estimator']}-{c['format']}-{c['family']}-k{c['k']}"
)
def test_tree_free_estimate_stdout_unchanged(capsys, case):
    argv = [
        "estimate", "--estimator", case["estimator"], "--format", case["format"],
        "--family", case["family"], "--k", str(case["k"]), "--n", str(case["n"]),
        "--seed", str(case["seed"]),
    ]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# --- no Piece records on the replication path --------------------------------


def test_replications_and_serialization_make_no_piece(monkeypatch):
    made = []
    check = Piece.__post_init__
    monkeypatch.setattr(Piece, "__post_init__", lambda self: made.append(check(self)))
    for name in ("harmonic-zipf", "uniform"):
        f = family(name, 100)
        for est in ("greedy-binary", "greedy-binary+monotonize", "greedy-ternary",
                    "idealized-binary", "oracle", "empirical-histogram"):
            mc_risk(est, f, 500, 3, 1)
            _, fitted = fit_estimate(est, f, sample(f, 500, 2))
            fitted.to_json(), fitted.to_csv(), fitted.total_mass(), fitted(100)
    assert made == []


# --- counts whose total passes int64 -----------------------------------------

# SampleCounts sums counts in Python ints once max * k reaches 2**63, so n
# can pass the int64 range; the builders must then total in Python ints too


def test_greedy_binary_tree_with_a_total_past_int64():
    sc = SampleCounts(k=2, n=2**63, counts=[2**62, 2**62])
    assert build_greedy_binary(sc).spans == ((1, 2),)
    assert build_greedy_binary(sc).leaf_intervals() == ref_greedy_binary_leaves(sc.counts)


def test_greedy_ternary_tree_with_a_total_past_int64():
    sc = SampleCounts(k=3, n=3 * 2**62, counts=[2**62] * 3)
    assert build_greedy_ternary(sc).spans == ((1, 3),)
    assert build_greedy_ternary(sc).leaf_intervals() == ref_greedy_ternary_leaves(sc.counts)


def test_histogram_with_a_leaf_total_past_int64():
    sc = SampleCounts(k=2, n=2**63, counts=[2**62, 2**62])
    est = histogram_estimate(PartitionTree(2, 2, ((1, 2),)), sc)
    assert est.values == (0.5,)
    assert_same_estimate(est, ref_histogram_estimate(PartitionTree(2, 2, ((1, 2),)), sc))


def test_greedy_pl_with_a_third_total_past_int64():
    # the left third holds 3 * 2**62 draws and the right third none
    sc = SampleCounts(k=9, n=3 * 2**62, counts=[2**62] * 3 + [0] * 6)
    t = PartitionTree(3, 9, ((1, 9),))
    est = greedy_pl_estimate(t, sc)
    # the line from 1/3 down to 0 goes negative at atom 9 only
    assert est.slopes == ((0.0 - 1 / 3) / 6.0, 0.0) and est.lengths == (8, 1)
    assert_same_estimate(est, ref_greedy_pl_estimate(t, sc))


# one count on each side of the guards: small, near 2**62 and near 2**63
_big_count = st.one_of(
    st.integers(0, 20),
    st.integers(0, 10**6),
    st.integers(2**62 - 4, 2**62 + 4),
    st.integers(2**63 - 2**40, 2**63 - 1),
    st.integers(0, 2**63 - 1),
)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(_big_count, min_size=1, max_size=40).filter(any),
    seed=st.integers(0, 2**32 - 1),
)
def test_all_builders_match_references_up_to_and_past_the_int64_guard(counts, seed):
    k, n = len(counts), sum(counts)
    sc = SampleCounts(k=k, n=n, counts=np.array(counts, dtype=np.int64))
    binary, ternary = build_greedy_binary(sc), build_greedy_ternary(sc)
    assert binary.leaf_intervals() == ref_greedy_binary_leaves(counts)
    assert ternary.leaf_intervals() == ref_greedy_ternary_leaves(counts)
    assert_same_outcome(
        lambda: histogram_estimate(binary, sc), lambda: ref_histogram_estimate(binary, sc)
    )
    assert_same_outcome(
        lambda: greedy_pl_estimate(ternary, sc), lambda: ref_greedy_pl_estimate(ternary, sc)
    )
    # the idealized builders at the same, possibly huge, sample size
    rng = np.random.default_rng(seed)
    f, g = make_density(random_monotone_mass(rng, k)), make_density(random_convex_mass(rng, k))
    t = build_idealized_binary(f, n)
    assert t.leaf_intervals() == ref_idealized_binary_leaves(f.mass, n)
    assert_same_estimate(idealized_pc_estimate(t, f), ref_idealized_pc_estimate(t, f))
    t = build_idealized_ternary(g, n)
    assert t.leaf_intervals() == ref_idealized_ternary_leaves(g.mass, n)
    assert_same_estimate(idealized_pl_estimate(t, g), ref_idealized_pl_estimate(t, g))


def test_greedy_trees_split_on_the_exact_rule_near_a_square_past_2_53():
    # a difference of 2**32 against sqrt(2**64 - 2) or sqrt(2**64 - 3): the
    # float sqrt of either sum rounds up to 2**32 and would keep one leaf
    d, s = 2**32, 2**64 - 2
    nv = (s + d) // 2
    counts = [nv // 2, nv - nv // 2, (s - nv) // 2, s - nv - (s - nv) // 2]
    sc = SampleCounts(k=4, n=s, counts=counts)
    assert build_greedy_binary(sc).spans == ((1, 2), (3, 2))
    assert build_greedy_binary(sc).leaf_intervals() == ref_greedy_binary_leaves(counts)
    s = 2**64 - 3
    mid = (s - d) // 3  # left - 2 * mid + right = s - 3 * mid = d
    counts = [(s - mid) // 2, mid, s - mid - (s - mid) // 2]
    sc = SampleCounts(k=3, n=s, counts=counts)
    assert build_greedy_ternary(sc).spans == ((1, 1), (2, 1), (3, 1))
    assert build_greedy_ternary(sc).leaf_intervals() == ref_greedy_ternary_leaves(counts)
