"""Drawing i.i.d. samples and summarizing them as per-atom counts.

Everything downstream (tree builders, risk estimates, the selection rule)
consumes counts, never raw draws, so the sample is reduced immediately.
Determinism contract: a (density, n, seed) triple always yields the same
counts, across runs and platforms, because the only randomness is PCG64
output consumed in one vectorized call.

Counting is inverse-CDF by sort-merge: the n uniforms are sorted in place
and each CDF edge is located among them, so a draw u lands on the atom j
with edges[j-1] <= u < edges[j].  That costs O(n log n + k log n) time and
one 8n-byte buffer (the uniforms themselves); no per-draw index array is
ever built.  The edges are computed once per density, which keeps them.
A sample's counts are its own read-only copy, so the tree builders can
keep their running totals on it (see partition_trees).

sample takes only a DiscreteDensity and wraps its counts with the unchecked
SampleCounts._trusted: they are the differences of a non-decreasing int64
sequence that runs from 0 to n, so they are already a C-contiguous int64
vector of k non-negative entries summing to n, and every check the public
constructor makes holds by construction.  SampleCounts(k, n, counts)
called from anywhere else keeps every check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import DiscreteDensity, _atom_csv, _check_int, _check_type, _check_vector, _quote
from .errors import BadParam, DomainMismatch, OutOfRange

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, replication: int) -> int:
    """Per-replication seed, mixed so that nearby (master, rep) pairs land
    far apart in seed space.  Used by the Monte Carlo driver so replication
    j is reproducible in isolation, without generating j-1 predecessors."""
    master_seed = _check_int("master_seed", master_seed, None, None)
    replication = _check_int("replication", replication, 0)
    x = (master_seed + (replication + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """Counts of n i.i.d. draws over the atoms 1..k, kept as a read-only
    int64 copy.  What is derived from them may be kept under a private
    name.  Equality compares k, n and counts by value, repr shows only
    them, and a sample is unhashable.  Pickling and copying call the
    constructor, so a copy is checked anew and keeps nothing derived."""

    k: int
    n: int
    counts: np.ndarray

    def __post_init__(self):
        k = _check_int("k", self.k, 1)
        n = _check_int("n", self.n, 0, None)  # counts past 2**63 are kept exactly
        counts = _check_vector("counts", self.counts, integer=True)  # an own copy, frozen below
        if counts.size != k:
            raise BadParam(f"expected {k} counts, got shape {counts.shape}")
        # two plain reductions: np.any(counts < 0) costs as much as both
        if counts.min(initial=0) < 0:
            raise BadParam("counts must be non-negative")
        total = _exact_sum(counts)
        if total != n:
            raise BadParam(f"counts sum to {total}, not n={_quote(n)}")
        counts.setflags(write=False)
        self.__dict__.update(k=k, n=n, counts=counts)

    @classmethod
    def _trusted(cls, k: int, n: int, counts: np.ndarray) -> SampleCounts:
        """Counts already known to be k non-negative C-contiguous int64
        entries summing to n, in an array no one else holds, wrapped
        without the checks and frozen."""
        counts.setflags(write=False)
        sc = cls.__new__(cls)
        sc.__dict__.update(k=k, n=n, counts=counts)
        return sc

    def __reduce__(self):
        return type(self), (self.k, self.n, self.counts)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.k, self.n) == (other.k, other.n) and np.array_equal(self.counts, other.counts)

    __hash__ = None

    def frequencies(self) -> np.ndarray:
        """Empirical per-atom probabilities; the zero measure when n = 0."""
        if self.n == 0:
            return np.zeros(self.k)
        return self.counts / self.n

    def to_csv(self) -> str:
        return _atom_csv("index,count", self.counts)


def sample(density: DiscreteDensity, n: int, seed: int) -> SampleCounts:
    """n draws from the density, by inverse CDF on one block of uniforms.

    The uniforms are sorted and merged against the density's kept CDF
    edges (see the module docstring): O(n log n + k log n) time, one
    8n-byte buffer.  Anything but a DiscreteDensity raises BadParam.
    """
    _check_type("density", density, DiscreteDensity)
    n = _check_int("n", n, 0)
    seed = _check_int("seed", seed, 0, None)
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    return SampleCounts._trusted(density.k, n, _counts_from_uniforms(density._cdf, u))


def _counts_from_uniforms(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-atom counts of the uniforms u under the CDF edges, np.cumsum of
    the masses; sorts u in place.

    Atom j < k-1 gets the u with edges[j-1] <= u < edges[j].  The last atom
    gets every u >= edges[-2]: cumulative rounding can leave edges[-1] a hair
    under 1, and the stragglers past it belong to the last atom.  The edges
    never decrease because mass is finite and non-negative, so no count is
    negative.
    """
    u.sort()
    # below[j]: the draws under edges[j]; the last atom takes every draw
    below = np.searchsorted(u, edges, side="left")
    below[-1] = u.size
    counts = below.copy()
    counts[1:] -= below[:-1]
    return counts


def interval_count(sc: SampleCounts, start: int, length: int) -> int:
    """Draws landing in the atoms {start, ..., start+length-1}, 1-based."""
    _check_type("sample", sc, SampleCounts)
    start = _check_int("start", start, 1, sc.k, OutOfRange)
    length = _check_int("length", length, 1, sc.k - start + 1, OutOfRange)
    return _exact_sum(sc.counts[start - 1 : start - 1 + length])


def _exact_sum(counts: np.ndarray) -> int:
    """sum(counts) of non-negative int64 counts, exact where int64 could wrap."""
    if int(counts.max(initial=0)) * counts.size >= 2**63:
        return sum(counts.tolist())
    return int(counts.sum())


def subsets_to_masks(sets, k: int) -> np.ndarray:
    """Normalize a collection of atom subsets to a (num_sets, k) bool matrix.

    Each subset may be an iterable of 1-based atom indices or a length-k
    boolean mask; an empty collection gives a (0, k) matrix.  Indices must
    be integers, though integral floats such as 1.0 are taken as the ints
    they equal.
    """
    rows = []
    try:
        sets = iter(sets)
    except TypeError:
        raise BadParam(f"sets must be a collection of atom subsets, got {sets!r}") from None
    for s in sets:
        try:
            arr = np.asarray(list(s) if not isinstance(s, np.ndarray) else s)
        except (TypeError, ValueError):
            raise BadParam(f"an atom subset must be a flat collection, got {s!r}") from None
        if arr.dtype == bool:
            if arr.shape != (k,):
                raise BadParam(f"boolean mask must have length {k}")
            rows.append(arr)
            continue
        if arr.ndim != 1:
            raise BadParam(f"atom indices must be a flat collection, got {s!r}")
        mask = np.zeros(k, dtype=bool)
        if arr.size:
            # NaN and inf fail the integral test, and the range is checked
            # before the int64 cast, which would wrap a huge index
            if arr.dtype.kind not in "iuf" or (
                arr.dtype.kind == "f" and not np.all(np.isfinite(arr) & (arr == np.trunc(arr)))
            ):
                raise BadParam(f"atom indices must be integers in 1..{k}, got {s!r}")
            if np.any(arr < 1) or np.any(arr > k):
                raise OutOfRange(f"atom indices must lie in 1..{k}")
            mask[arr.astype(np.int64) - 1] = True
        rows.append(mask)
    if not rows:
        return np.zeros((0, k), dtype=bool)
    return np.stack(rows)


def empirical_sup_deviation(sc: SampleCounts, density: DiscreteDensity, sets) -> float:
    """max over the given sets of |empirical mass - density mass|.

    sets is a collection of atom subsets (see subsets_to_masks); an empty
    collection has deviation 0.
    """
    _check_type("sample", sc, SampleCounts)
    _check_type("density", density, DiscreteDensity)
    if sc.k != density.k:
        raise DomainMismatch("counts and density must share the support size")
    masks = subsets_to_masks(sets, sc.k)
    if masks.shape[0] == 0:
        return 0.0
    emp = masks @ sc.frequencies()
    tru = masks @ density.mass
    return float(np.max(np.abs(emp - tru)))
