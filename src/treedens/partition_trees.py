"""Recursive partition trees and the piecewise estimates they induce.

A tree lives on the padded domain {1, ..., padded_k}, padded_k the smallest
power of the arity at least k; padded atoms carry zero mass and zero counts.
Construction walks top-down: a node covering a single atom is a leaf, and
any other node either splits into equal consecutive halves (arity 2) or
thirds (arity 3) when its splitting rule fires, or becomes a leaf.  The
greedy rules consume sample counts and are evaluated in exact integer
arithmetic; the idealized rules consume the true density and are
deterministic in it.  A built tree keeps only its leaves, as (start,
length) spans in left-to-right order.

The estimates are piecewise functions over the leaf intervals, truncated
back to {1, ..., k}.  Truncation can shave off mass that a boundary leaf
spread onto padded atoms, so estimates built on a padded domain may be
sub-normalized; each builder takes a renormalize flag (default off) to
rescale explicitly instead of hiding the adjustment.

monotonize pools adjacent violators in exact arithmetic: the piece values
become integers on one common binary scale, so merged averages are
correctly rounded and independent of merge order.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .densities import DiscreteDensity, is_non_increasing, is_convex_non_increasing
from .errors import (
    BadParam,
    DomainMismatch,
    NotConvex,
    NotMonotone,
    NotPiecewiseConstant,
)
from .sampling import SampleCounts


def pad_to_power(k: int, arity: int) -> int:
    """Smallest power of the arity at least k."""
    if arity not in (2, 3):
        raise BadParam("arity must be 2 or 3")
    if k < 1:
        raise BadParam("k must be >= 1")
    padded = 1
    while padded < k:
        padded *= arity
    return padded


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    """A leaf covering the atoms {start, ..., start + length - 1}, 1-based."""

    start: int
    length: int


@dataclass(frozen=True)
class PartitionTree:
    """A partition tree kept as its leaves: spans holds each leaf's
    (start, length) in left-to-right order, and the spans tile the
    padded domain.  Internal nodes are implied by the arity."""

    arity: int
    padded_k: int
    spans: tuple[tuple[int, int], ...]

    def leaves(self) -> list[TreeNode]:
        """Leaves in left-to-right order; their intervals tile the domain."""
        return [TreeNode(s, l) for s, l in self.spans]

    def leaf_intervals(self) -> list[tuple[int, int]]:
        return list(self.spans)

    def nonsingleton_leaf_count(self) -> int:
        return sum(1 for _, l in self.spans if l > 1)

    def to_json(self) -> str:
        return json.dumps(
            {
                "arity": self.arity,
                "padded_k": self.padded_k,
                "leaves": [{"start": s, "len": l} for s, l in self.spans],
            }
        )


def _build_tree(arity: int, padded_k: int, should_split) -> PartitionTree:
    """Depth-first over an explicit stack, so deep trees cannot hit
    recursion limits; children are pushed right to left, so leaves come
    off the stack in left-to-right order."""
    spans: list[tuple[int, int]] = []
    stack = [(1, padded_k)]
    right_to_left = range(arity - 1, -1, -1)
    while stack:
        start, length = stack.pop()
        if length > 1 and should_split(start, length):
            child = length // arity
            stack += [(start + j * child, child) for j in right_to_left]
        else:
            spans.append((start, length))
    return PartitionTree(arity=arity, padded_k=padded_k, spans=tuple(spans))


def greedy_split_decision(n_left: int, n_right: int) -> bool:
    """|n_left - n_right| > sqrt(n_left + n_right), as exact integers."""
    d = n_left - n_right
    return d * d > n_left + n_right


def greedy_ternary_split_decision(n_left: int, n_mid: int, n_right: int) -> bool:
    """Second difference of the thirds' counts exceeds sqrt of their sum.

    The sign check matters: squaring alone would also split on strongly
    concave count patterns.
    """
    d = n_left - 2 * n_mid + n_right
    return d > 0 and d * d > n_left + n_mid + n_right


def _cumulative(values: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros(1, values.dtype), np.cumsum(values)])


def _interval_lookup(values: np.ndarray):
    """Sum of values over the atoms {start, ..., start + length - 1}.

    Intervals may stick out into the padding, which holds nothing.  Int
    values give a Python int, float values a float equal to the numpy
    difference of cumulative sums.
    """
    at = _cumulative(values).item
    k = values.size

    def total(start: int, length: int):
        lo = start - 1
        hi = lo + length
        if hi > k:
            hi = k
            if lo > k:
                lo = k
        return at(hi) - at(lo)

    return total


def _leaf_totals(cum: np.ndarray, starts, lengths) -> list:
    """The sums of _interval_lookup for many intervals at once, from the
    cumulative array of the values."""
    k = cum.size - 1
    lo = np.minimum(np.asarray(starts) - 1, k)
    hi = np.minimum(lo + np.asarray(lengths), k)
    return (cum[hi] - cum[lo]).tolist()


def build_greedy_binary(sc: SampleCounts) -> PartitionTree:
    """The sample-driven binary tree: split where the halves' counts differ
    by more than a standard deviation's worth."""
    if sc.n < 1:
        raise BadParam("need at least one sample")
    count = _interval_lookup(sc.counts)

    def should_split(start: int, length: int) -> bool:
        half = length // 2
        return greedy_split_decision(count(start, half), count(start + half, half))

    return _build_tree(2, pad_to_power(sc.k, 2), should_split)


def build_idealized_binary(f: DiscreteDensity, n: int) -> PartitionTree:
    """The deterministic binary tree the greedy one imitates: counts are
    replaced by their expectations under f at sample size n."""
    if n < 1:
        raise BadParam("n must be >= 1")
    if not is_non_increasing(f):
        raise NotMonotone("the idealized binary tree needs a non-increasing density")
    mass = _interval_lookup(f.mass)

    def should_split(start: int, length: int) -> bool:
        half = length // 2
        fv = mass(start, half)
        fw = mass(start + half, half)
        return fv - fw > math.sqrt((fv + fw) / n)

    return _build_tree(2, pad_to_power(f.k, 2), should_split)


def build_greedy_ternary(sc: SampleCounts) -> PartitionTree:
    """Sample-driven ternary tree splitting on the thirds' count curvature."""
    if sc.n < 1:
        raise BadParam("need at least one sample")
    count = _interval_lookup(sc.counts)

    def should_split(start: int, length: int) -> bool:
        third = length // 3
        return greedy_ternary_split_decision(
            count(start, third),
            count(start + third, third),
            count(start + 2 * third, third),
        )

    return _build_tree(3, pad_to_power(sc.k, 3), should_split)


def build_idealized_ternary(f: DiscreteDensity, n: int) -> PartitionTree:
    """Deterministic ternary tree splitting where f's interval masses have
    curvature above the sampling noise scale."""
    if n < 1:
        raise BadParam("n must be >= 1")
    if not is_convex_non_increasing(f):
        raise NotConvex("the idealized ternary tree needs a convex non-increasing density")
    mass = _interval_lookup(f.mass)

    def should_split(start: int, length: int) -> bool:
        third = length // 3
        fv = mass(start, third)
        fw = mass(start + third, third)
        fr = mass(start + 2 * third, third)
        return fv - 2.0 * fw + fr > math.sqrt((fv + fw + fr) / n)

    return _build_tree(3, pad_to_power(f.k, 3), should_split)


# ---------------------------------------------------------------------------
# piecewise estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One span of an estimate: constant value, or a line slope*x + intercept
    evaluated at the integer atoms it covers."""

    start: int
    length: int
    kind: str
    value: float = 0.0
    slope: float = 0.0
    intercept: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear"):
            raise BadParam(f"unknown piece kind {self.kind!r}")
        if self.start < 1 or self.length < 1:
            raise BadParam("pieces need start >= 1 and length >= 1")

    def atom_values(self) -> np.ndarray:
        if self.kind == "constant":
            return np.full(self.length, self.value)
        x = np.arange(self.start, self.start + self.length, dtype=float)
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PiecewiseEstimate:
    """A density estimate given piecewise over {1, ..., domain_k}.

    The constructor checks that the pieces tile the domain consecutively.
    It does not police value signs: the estimators here produce values
    >= 0 up to float error at the scales they are specified for, and that
    property is asserted in tests rather than silently repaired.
    """

    domain_k: int
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise BadParam("an estimate needs at least one piece")
        pos = 1
        for p in pieces:
            if p.start != pos:
                raise BadParam(f"piece at {p.start} breaks the tiling (expected {pos})")
            pos += p.length
        if pos != self.domain_k + 1:
            raise BadParam(f"pieces cover 1..{pos - 1}, domain is 1..{self.domain_k}")

    def atom_values(self) -> np.ndarray:
        """Per-atom values over 1..domain_k, equal to concatenating each
        piece's atom_values()."""
        pieces = self.pieces
        lengths = [p.length for p in pieces]
        vals = np.repeat([p.value for p in pieces], lengths)
        linear = [p.kind == "linear" for p in pieces]
        if any(linear):
            x = np.arange(1, self.domain_k + 1, dtype=float)
            slope = np.repeat([p.slope for p in pieces], lengths)
            intercept = np.repeat([p.intercept for p in pieces], lengths)
            vals = np.where(np.repeat(linear, lengths), slope * x + intercept, vals)
        return vals

    @cached_property
    def _starts(self) -> list[int]:
        return [p.start for p in self.pieces]

    def __call__(self, x: int) -> float:
        if not 1 <= x <= self.domain_k:
            raise DomainMismatch(f"atom {x} outside 1..{self.domain_k}")
        p = self.pieces[bisect_right(self._starts, x) - 1]
        if p.kind == "constant":
            return p.value
        return p.slope * x + p.intercept

    def total_mass(self) -> float:
        return math.fsum(self.atom_values().tolist())

    def to_json(self) -> str:
        out = []
        for p in self.pieces:
            d = {"start": p.start, "len": p.length, "kind": p.kind}
            if p.kind == "constant":
                d["value"] = p.value
            else:
                d["slope"] = p.slope
                d["intercept"] = p.intercept
            out.append(d)
        return json.dumps({"domain_k": self.domain_k, "pieces": out})

    def to_csv(self) -> str:
        lines = ["x,value"]
        vals = self.atom_values()
        lines.extend(f"{x + 1},{v!r}" for x, v in enumerate(vals.tolist()))
        return "\n".join(lines) + "\n"


def _truncate(pieces: list[Piece], k: int) -> list[Piece]:
    out = []
    for p in pieces:
        if p.start > k:
            break
        if p.start + p.length - 1 > k:
            out.append(replace(p, length=k - p.start + 1))
        else:
            out.append(p)
    return out


def _scaled(est: PiecewiseEstimate, renormalize: bool) -> PiecewiseEstimate:
    if not renormalize:
        return est
    mass = est.total_mass()
    if mass <= 0.0:
        raise BadParam("cannot renormalize an estimate with no mass")
    c = 1.0 / mass
    scaled = tuple(
        replace(p, value=p.value * c, slope=p.slope * c, intercept=p.intercept * c)
        for p in est.pieces
    )
    return PiecewiseEstimate(est.domain_k, scaled)


def _check_tree_counts(t: PartitionTree, sc: SampleCounts):
    if pad_to_power(sc.k, t.arity) != t.padded_k:
        raise DomainMismatch(
            f"tree over {t.padded_k} padded atoms does not match counts on 1..{sc.k}"
        )


def _check_tree_density(t: PartitionTree, f: DiscreteDensity):
    if pad_to_power(f.k, t.arity) != t.padded_k:
        raise DomainMismatch(
            f"tree over {t.padded_k} padded atoms does not match density on 1..{f.k}"
        )


def histogram_estimate(
    t: PartitionTree, sc: SampleCounts, renormalize: bool = False
) -> PiecewiseEstimate:
    """Leaf-interval histogram: each leaf gets its count spread uniformly
    over the leaf's full padded width."""
    _check_tree_counts(t, sc)
    if sc.n < 1:
        raise BadParam("need at least one sample")
    starts, lengths = zip(*t.spans)
    counts = _leaf_totals(_cumulative(sc.counts), starts, lengths)
    pieces = [
        Piece(s, l, "constant", value=c / (sc.n * l))
        for s, l, c in zip(starts, lengths, counts)
    ]
    return _scaled(PiecewiseEstimate(sc.k, tuple(_truncate(pieces, sc.k))), renormalize)


def _atom(values: np.ndarray, x: int):
    # direct read so singleton leaves reproduce f bit for bit; a difference
    # of cumulative float sums would round the same value twice
    return values.item(x - 1) if x <= values.size else 0.0


def idealized_pc_estimate(
    t: PartitionTree, f: DiscreteDensity, renormalize: bool = False
) -> PiecewiseEstimate:
    """Piecewise-constant projection of f itself onto the leaf partition."""
    _check_tree_density(t, f)
    starts, lengths = zip(*t.spans)
    masses = _leaf_totals(_cumulative(f.mass), starts, lengths)
    pieces = [
        Piece(s, l, "constant", value=_atom(f.mass, s) if l == 1 else m / l)
        for s, l, m in zip(starts, lengths, masses)
    ]
    return _scaled(PiecewiseEstimate(f.k, tuple(_truncate(pieces, f.k))), renormalize)


def _outer_thirds(values: np.ndarray, t: PartitionTree):
    """Per leaf: (start, length, third, left-third total, right-third total).
    Singleton leaves have third 0 and zero totals."""
    cum = _cumulative(values)
    starts, lengths = zip(*t.spans)
    thirds = [l // 3 for l in lengths]
    left = _leaf_totals(cum, starts, thirds)
    right = _leaf_totals(cum, [s + 2 * d for s, d in zip(starts, thirds)], thirds)
    return zip(starts, lengths, thirds, left, right)


def _fitted_line(start: int, third: int, avg_left: float, avg_right: float):
    """Slope and intercept of the line through the left and right thirds'
    (midpoint, average) points; the midpoints sit 2*third apart."""
    mid_left = start + (third - 1) / 2.0
    slope = (avg_right - avg_left) / (2.0 * third)
    intercept = avg_left - slope * mid_left
    return slope, intercept


def idealized_pl_estimate(
    t: PartitionTree, f: DiscreteDensity, renormalize: bool = False
) -> PiecewiseEstimate:
    """Per-leaf line through the outer thirds' average values of f;
    singleton leaves copy f exactly.  Values are not clamped, and the
    fitted lines need not preserve mass, so the estimate's total can
    differ from 1 even before truncation."""
    _check_tree_density(t, f)
    if t.arity != 3:
        raise DomainMismatch("piecewise-linear estimates need a ternary tree")
    pieces = []
    for start, length, third, left, right in _outer_thirds(f.mass, t):
        if length == 1:
            pieces.append(Piece(start, 1, "constant", value=_atom(f.mass, start)))
            continue
        slope, intercept = _fitted_line(start, third, left / third, right / third)
        pieces.append(Piece(start, length, "linear", slope=slope, intercept=intercept))
    return _scaled(PiecewiseEstimate(f.k, tuple(_truncate(pieces, f.k))), renormalize)


def _clamped_linear(start: int, length: int, slope: float, intercept: float) -> list[Piece]:
    """Split a fitted line into a linear part and a zero ledge where it goes
    negative.  The line is >= 0 between the two fitted midpoints, so the
    negative atoms form a run at one end of the leaf.  Rounding is
    monotone, so the computed values are monotone in x too, and a line
    that is not negative at either end is negative nowhere."""
    last = start + length - 1
    if not (slope * start + intercept < 0.0 or slope * last + intercept < 0.0):
        return [Piece(start, length, "linear", slope=slope, intercept=intercept)]
    x = np.arange(start, start + length, dtype=float)
    neg = slope * x + intercept < 0.0
    if slope < 0.0:
        keep = int(np.argmax(neg))
        return [
            Piece(start, keep, "linear", slope=slope, intercept=intercept),
            Piece(start + keep, length - keep, "constant", value=0.0),
        ]
    keep = int(np.argmax(neg[::-1]))
    return [
        Piece(start, length - keep, "constant", value=0.0),
        Piece(start + length - keep, keep, "linear", slope=slope, intercept=intercept),
    ]


def greedy_pl_estimate(
    t: PartitionTree, sc: SampleCounts, renormalize: bool = False
) -> PiecewiseEstimate:
    """Empirical version of the per-leaf line fit, with negative stretches
    clamped to zero: unlike the idealized averages, empirical thirds can
    slope either way.  As in idealized_pl_estimate, the fitted lines need
    not preserve mass."""
    _check_tree_counts(t, sc)
    if t.arity != 3:
        raise DomainMismatch("piecewise-linear estimates need a ternary tree")
    if sc.n < 1:
        raise BadParam("need at least one sample")
    pieces: list[Piece] = []
    for start, length, third, left, right in _outer_thirds(sc.counts, t):
        if length == 1:
            pieces.append(Piece(start, 1, "constant", value=_atom(sc.counts, start) / sc.n))
            continue
        avg_left = left / (sc.n * third)
        avg_right = right / (sc.n * third)
        slope, intercept = _fitted_line(start, third, avg_left, avg_right)
        pieces.extend(_clamped_linear(start, length, slope, intercept))
    return _scaled(PiecewiseEstimate(sc.k, tuple(_truncate(pieces, sc.k))), renormalize)


def monotonize(e: PiecewiseEstimate) -> PiecewiseEstimate:
    """Pool adjacent violators over the pieces, weighted by length.

    Merging two pieces replaces them by their length-weighted average, and
    iterating to a fixed point gives the same answer in every merge order.
    To honor that uniqueness in floats, the pooling arithmetic is exact:
    every value is an integer over one common power-of-two denominator,
    so block totals are Python ints.  Pieces that survive unmerged keep
    their float value bit for bit, and a merged block rounds once at the
    end, by correctly rounded integer division.
    """
    if any(p.kind != "constant" for p in e.pieces):
        raise NotPiecewiseConstant("monotonize applies to piecewise-constant estimates")
    ratios = [p.value.as_integer_ratio() for p in e.pieces]
    den = max(d for _, d in ratios)
    # block: [first piece index, last piece index, atom length, total * den]
    blocks: list[list] = []
    for idx, (p, (num, d)) in enumerate(zip(e.pieces, ratios)):
        blocks.append([idx, idx, p.length, num * (den // d) * p.length])
        while len(blocks) >= 2:
            a, b = blocks[-2], blocks[-1]
            if a[3] * b[2] < b[3] * a[2]:  # average(a) < average(b): violation
                blocks[-2] = [a[0], b[1], a[2] + b[2], a[3] + b[3]]
                blocks.pop()
            else:
                break
    out = []
    pos = 1
    for first, last, length, total in blocks:
        if first == last:
            value = e.pieces[first].value
        else:
            value = total / (den * length)
        out.append(Piece(pos, length, "constant", value=value))
        pos += length
    return PiecewiseEstimate(e.domain_k, tuple(out))
