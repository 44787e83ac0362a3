import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_yatracos_class
from treedens import (
    BadParam,
    CandidateSet,
    DomainMismatch,
    EmptyCandidates,
    SampleCounts,
    empirical_sup_deviation,
    family,
    make_density,
    minimum_distance_estimate,
    sample,
    tv,
    yatracos_class,
)


def _spiky(k: int, atom: int):
    m = np.full(k, 0.5 / k)
    m[atom - 1] += 0.5
    return make_density(m)


def test_candidate_set_validation():
    with pytest.raises(EmptyCandidates):
        CandidateSet([])
    with pytest.raises(DomainMismatch):
        CandidateSet([family("uniform", 4), family("uniform", 5)])
    with pytest.raises(BadParam):
        CandidateSet([family("uniform", 4)], labels=["a", "b"])
    # scalars and matrices are not atom vectors; scalars once raised a bare
    # IndexError
    for bad in ([1.0, 2.0], [np.ones((2, 4)), family("uniform", 4)]):
        with pytest.raises(BadParam, match="1-D vector"):
            CandidateSet(bad)
    with pytest.raises(DomainMismatch, match="candidate 1 lives on 5 atoms, candidate 0 on 4"):
        CandidateSet([family("uniform", 4), family("uniform", 5)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_candidate_set_rejects_non_finite_values(bad):
    with pytest.raises(BadParam, match="candidate 0"):
        CandidateSet([np.array([bad, 0.5, 0.25, 0.25]), family("uniform", 4).mass])
    with pytest.raises(BadParam, match="candidate 1"):
        CandidateSet([family("uniform", 4), np.array([0.25, 0.25, 0.5, bad])])


@st.composite
def _atom_rows(draw, min_k=0):
    """(m, k) candidate values: small integers (many ties), -0.0 beside
    0.0, and duplicate candidates; k may be 0 unless min_k says not."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(min_k, 64))
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.integers(0, levels, size=(m, k)).astype(float)
    vals[(vals == 0.0) & (rng.random((m, k)) < 0.5)] = -0.0
    for i in range(1, m):
        if rng.random() < 0.25:
            vals[i] = vals[rng.integers(0, i)]
    return vals


@settings(max_examples=300, deadline=None)
@given(vals=_atom_rows())
def test_yatracos_equals_pairwise_reference(vals):
    sets = yatracos_class(CandidateSet(list(vals)))
    assert sets == ref_yatracos_class(vals)
    assert all(type(x) is int for s in sets for x in s)


def _ref_selection(vals, sc) -> int:
    # the score matrix built one set at a time from the reference sets
    sets = ref_yatracos_class(vals)
    if not sets:
        return 0
    masks = np.zeros((len(sets), vals.shape[1]))
    for row, s in enumerate(sets):
        if s:
            masks[row, np.fromiter(s, dtype=np.int64) - 1] = 1.0
    emp = masks @ sc.frequencies()
    scores = np.abs(masks @ vals.T - emp[:, None]).max(axis=0)
    return int(np.flatnonzero(scores <= scores.min() + 1e-12)[0])


@settings(max_examples=150, deadline=None)
@given(vals=_atom_rows(min_k=1), data=st.data())
def test_selection_equals_reference(vals, data):
    k = vals.shape[1]
    counts = data.draw(st.lists(st.integers(0, 20), min_size=k, max_size=k).filter(any))
    sc = SampleCounts(k=k, n=sum(counts), counts=np.array(counts))
    vals = vals / max(1.0, vals.sum(axis=1).max())
    assert minimum_distance_estimate(CandidateSet(list(vals)), sc) == _ref_selection(vals, sc)


def test_yatracos_identical_candidates():
    cs = CandidateSet([family("uniform", 4), family("uniform", 4)])
    assert yatracos_class(cs) == [frozenset()]


def test_yatracos_two_point():
    cs = CandidateSet([make_density([1.0, 0.0]), make_density([0.0, 1.0])])
    assert yatracos_class(cs) == [frozenset({1}), frozenset({2})]


def test_yatracos_fewer_than_two():
    assert yatracos_class(CandidateSet([family("uniform", 3)])) == []


def test_yatracos_first_appearance_order():
    a = make_density([0.6, 0.4])
    b = make_density([0.4, 0.6])
    c = make_density([0.5, 0.5])
    sets = yatracos_class(CandidateSet([a, b, c]))
    # (a,b) yields {1} first; duplicates from later pairs are dropped
    assert sets[0] == frozenset({1})
    assert len(sets) == len(set(sets))


def test_yatracos_sets_are_interval_unions():
    # piecewise-constant candidates with <= L pieces: every comparison set
    # must be a union of at most L intervals
    vals = [
        np.repeat([0.05, 0.0125], [4, 4]),
        np.repeat([0.0375, 0.025], [4, 4]),
        np.repeat([0.0125, 0.025, 0.0375, 0.0125], [2, 2, 2, 2]),
        np.repeat([0.1, 0.0, 0.025, 0.0], [2, 2, 2, 2]),
    ]
    cs = CandidateSet([v / v.sum() for v in vals])
    max_pieces = 4
    for s in yatracos_class(cs):
        if not s:
            continue
        idx = np.sort(np.fromiter(s, dtype=int))
        runs = 1 + int(np.count_nonzero(np.diff(idx) > 1))
        assert runs <= max_pieces


def test_selection_single_candidate():
    cs = CandidateSet([family("uniform", 4)])
    sc = sample(family("uniform", 4), 100, 0)
    assert minimum_distance_estimate(cs, sc) == 0


def test_selection_two_point():
    cs = CandidateSet([make_density([1.0, 0.0]), make_density([0.0, 1.0])])
    sc = SampleCounts(k=2, n=10, counts=np.array([10, 0]))
    assert minimum_distance_estimate(cs, sc) == 0
    sc = SampleCounts(k=2, n=10, counts=np.array([0, 10]))
    assert minimum_distance_estimate(cs, sc) == 1


def test_selection_tie_goes_to_first():
    f = family("uniform", 4)
    cs = CandidateSet([f, f, f])
    sc = sample(f, 50, 3)
    assert minimum_distance_estimate(cs, sc) == 0


def test_selection_validation():
    cs = CandidateSet([family("uniform", 4)])
    with pytest.raises(DomainMismatch):
        minimum_distance_estimate(cs, sample(family("uniform", 5), 10, 0))
    with pytest.raises(BadParam):
        minimum_distance_estimate(cs, sample(family("uniform", 4), 0, 0))


def test_recovery_rate_among_separated_candidates():
    k = 16
    cands = [_spiky(k, atom) for atom in (1, 4, 7, 10, 13)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert tv(cands[i], cands[j]) >= 0.2
    truth = cands[2]
    cs = CandidateSet(cands)
    hits = 0
    for seed in range(100):
        sc = sample(truth, 1000, seed)
        hits += minimum_distance_estimate(cs, sc) == 2
    assert hits >= 90


def test_envelope_inequality_typical_run():
    # selection loss <= 3 min + 2 sup-deviation + 3/(2n), checked per trial
    k = 16
    cands = [_spiky(k, atom) for atom in (1, 4, 7, 10, 13)]
    truth = cands[0]
    cs = CandidateSet(cands)
    sets = yatracos_class(cs)
    n = 400
    for seed in range(20):
        sc = sample(truth, n, seed)
        chosen = minimum_distance_estimate(cs, sc)
        dev = empirical_sup_deviation(sc, truth, sets)
        best = min(tv(c, truth) for c in cands)
        assert tv(cands[chosen], truth) <= 3 * best + 2 * dev + 1.5 / n + 1e-12
