"""Minimum-distance selection among candidate densities.

Given finitely many candidate estimates and one sample, pick the candidate
whose measure best matches the empirical measure uniformly over the
pairwise comparison sets {x : f_i(x) > f_j(x)}.  The winner's TV loss is
within a constant factor of the best candidate's, plus an empirical-process
term, so selection costs little even when the candidate list mixes good and
terrible estimates.

The m candidates' comparison sets come from one (m, k) block of
``vals[i] > vals`` per candidate i, packed to bits and deduplicated by
their bytes.  Extra memory is O(m k) for one block plus the distinct
sets; the (m, m, k) tensor of all pairs is never built.  The sets share
one Python int per atom label, and the selector writes each set straight
into its own row of a (d, k) 0/1 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import _check_type
from .errors import BadParam, DomainMismatch, EmptyCandidates
from .metrics import _atoms
from .sampling import SampleCounts

__all__ = ["CandidateSet", "yatracos_class", "minimum_distance_estimate"]

_TIE_TOL = 1e-12


def _atom_matrix(candidates) -> np.ndarray:
    rows = [_atoms(c) for c in candidates]
    k = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape != (k,):
            raise DomainMismatch(
                f"candidate {i} lives on {row.shape[0]} atoms, candidate 0 on {k}"
            )
    vals = np.stack(rows)
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise BadParam(f"candidate {bad[0]} has a non-finite atom value")
    return vals


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """An ordered list of candidate estimates over a shared domain.

    candidates may be DiscreteDensity, PiecewiseEstimate, or vectors of
    atom values (sub-normalized candidates are allowed; selection does not
    need normalization).  labels, when given, must parallel candidates.  Two
    sets are equal when their labels and atom values are; a set is
    unhashable.
    """

    candidates: tuple = ()
    labels: tuple = None
    atom_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, candidates, labels=None):
        candidates = tuple(candidates)
        if not candidates:
            raise EmptyCandidates("need at least one candidate")
        if labels is not None:
            try:
                labels = tuple(str(s) for s in labels)
            except TypeError:
                raise BadParam(f"labels must be iterable, got {labels!r}") from None
            if len(labels) != len(candidates):
                raise BadParam(
                    f"{len(labels)} labels for {len(candidates)} candidates"
                )
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "atom_values", _atom_matrix(candidates))
        self.atom_values.setflags(write=False)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.atom_values, other.atom_values)

    __hash__ = None

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def k(self) -> int:
        return self.atom_values.shape[1]


def _comparison_masks(vals: np.ndarray) -> np.ndarray:
    """Distinct rows vals[i] > vals[j], i != j, as a (d, k) bool matrix.

    Rows keep the order of their first appearance among the pairs in
    lexicographic (i, j) order.  Candidate i's comparisons are one (m, k)
    block ``vals[i] > vals``, packed to bits as one bytes buffer.  The key
    of pair (i, j) is the buffer's row-j slice; the pairs are scanned in
    (i, j) order, skipping j == i, against one set of the keys seen so far,
    and each block keeps its rows whose key is new.
    """
    m, k = vals.shape
    if m < 2:
        return np.zeros((0, k), dtype=bool)
    width = (k + 7) // 8
    seen: set[bytes] = set()
    out: list[np.ndarray] = []
    for i in range(m):
        block = vals[i] > vals
        buf = np.packbits(block, axis=1).tobytes()
        keep = []
        for j in range(m):
            key = buf[j * width : (j + 1) * width]
            if j != i and key not in seen:
                seen.add(key)
                keep.append(j)
        if keep:
            out.append(block[keep])
    return np.concatenate(out)


def yatracos_class(cs: CandidateSet) -> list[frozenset[int]]:
    """All distinct comparison sets {x : f_i(x) > f_j(x)}, i != j.

    Atoms are 1-based Python ints.  Pairs are visited in lexicographic
    (i, j) order and each distinct set is kept at its first appearance, so
    the output order is deterministic.  Fewer than two candidates compare
    nothing: [].  Extra memory is O(m k) for one candidate's block of
    comparisons plus the distinct sets, never the (m, m, k) tensor.  The
    k atom labels are made once as Python ints and shared by every set,
    so no set allocates an int of its own.
    """
    _check_type("candidates", cs, CandidateSet)
    labels = np.arange(1, cs.k + 1).astype(object)
    return [frozenset(labels[row].tolist()) for row in _comparison_masks(cs.atom_values)]


def minimum_distance_estimate(cs: CandidateSet, sc: SampleCounts) -> int:
    """Index of the selected candidate.

    Selects argmin_i max_A |f_i(A) - mu_n(A)| over the comparison sets A;
    scores within 1e-12 of the minimum tie, and ties go to the smallest
    index, so reordering equal candidates cannot flip the answer.
    """
    _check_type("candidates", cs, CandidateSet)
    _check_type("sample", sc, SampleCounts)
    if sc.k != cs.k:
        raise DomainMismatch(f"sample on {sc.k} atoms, candidates on {cs.k}")
    if sc.n < 1:
        raise BadParam("selection needs at least one observation")
    sets = yatracos_class(cs)
    if not sets:
        return 0
    masks = np.zeros((len(sets), cs.k))  # one C-contiguous row per set
    for row, s in zip(masks, sets):
        row[np.fromiter(s, np.intp, len(s)) - 1] = 1.0
    emp = masks @ sc.frequencies()
    cand = masks @ cs.atom_values.T  # (num_sets, num_candidates)
    scores = np.abs(cand - emp[:, None]).max(axis=0)
    return int(np.flatnonzero(scores <= scores.min() + _TIE_TOL)[0])
