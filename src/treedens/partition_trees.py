"""Recursive partition trees and the piecewise estimates they induce.

A tree lives on the padded domain {1, ..., padded_k}, padded_k the smallest
power of the arity at least k; padded atoms carry zero mass and zero counts.
One builder makes all four trees.  It walks top-down: a node covering a
single atom is a leaf, and any other node splits into equal consecutive
halves (arity 2) or thirds (arity 3) when a rule over its children's
totals fires.  The greedy trees total the sample counts, and their rules
run in exact Python ints, also past the int64 range; the idealized trees
total the true masses and are deterministic in them.  Each build, and each
leaf walk below, reads every edge from one running-totals array over the
padded domain, held at the full total past atom k.  A built tree keeps
only its leaves, as (start, length) spans in left-to-right order.

The estimates are piecewise functions over the leaf intervals, truncated
back to {1, ..., k}; one walk over the leaves builds all four.  Truncation
can shave off mass that a boundary leaf spread onto padded atoms, so
estimates built on a padded domain may be sub-normalized; each builder
takes a renormalize flag (default off) to rescale explicitly instead of
hiding the adjustment.  Like a tree, an estimate is flat data: one tuple
per piece field, each value kept exactly as given.  The builders and
monotonize read and write those columns; Piece records are made only when
an estimate's .pieces is read.

monotonize pools adjacent violators in exact arithmetic: the piece values
become integers on one common scale, so merged averages are correctly
rounded and independent of merge order.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .densities import (
    DiscreteDensity,
    _atom_csv,
    _check_int,
    _fsum,
    is_convex_non_increasing,
    is_non_increasing,
)
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
    try:
        _check_int("arity", arity, 2, 3)
    except BadParam:
        raise BadParam("arity must be 2 or 3") from None
    _check_int("k", k, 1, None)
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
    padded domain.  Internal nodes are implied by the arity.

    The constructor checks that the tree is one a builder could make:
    padded_k is a power of the arity, and each span's length is a power
    of the arity that divides start - 1.  _build_tree makes its trees
    through the unchecked _trusted."""

    arity: int
    padded_k: int
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_int("padded_k", self.padded_k, 1)
        if pad_to_power(self.padded_k, self.arity) != self.padded_k:  # checks the arity
            raise BadParam(f"padded_k {self.padded_k} is not a power of {self.arity}")
        try:
            spans = [(start, length) for start, length in self.spans]
        except (TypeError, ValueError):
            raise BadParam(f"spans must be (start, length) pairs, got {self.spans!r}") from None
        pos = 1
        for start, length in spans:
            _check_int("span start", start, 1)
            _check_int("span length", length, 1)
            if start != pos or (start - 1) % length or pad_to_power(length, self.arity) != length:
                raise BadParam(f"span {(start, length)} is not an aligned leaf at atom {pos}")
            pos += length
        if pos != self.padded_k + 1:
            raise BadParam(f"spans cover 1..{pos - 1}, padded domain is 1..{self.padded_k}")
        # Python ints, as the builders make them: json writes no numpy integer
        spans = tuple((int(start), int(length)) for start, length in spans)
        self.__dict__.update(arity=int(self.arity), padded_k=int(self.padded_k), spans=spans)

    @classmethod
    def _trusted(cls, arity: int, padded_k: int, spans: tuple) -> PartitionTree:
        """A tree whose spans are already aligned leaves tiling
        1..padded_k, wrapped without the checks."""
        tree = cls.__new__(cls)
        tree.__dict__.update(arity=arity, padded_k=padded_k, spans=spans)
        return tree

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


def _totals(values: np.ndarray, total, padded_k: int):
    """The values' running totals from a leading 0 through padded_k, held
    at the last total from atom k on; total is their sum, n or 1.  Below
    2**63, a memoryview of the cumulative array, so a read costs no ndarray
    method call; from there on Python ints, as int64 would wrap."""
    k = values.size
    if total < 2**63:
        cum = np.zeros(padded_k + 1, values.dtype)
        values.cumsum(out=cum[1 : k + 1])
        if padded_k > k:
            cum[k + 1 :] = cum[k]
        return memoryview(cum)
    cum = list(accumulate(values.tolist(), initial=0))
    return cum + cum[-1:] * (padded_k - k)


def _build_tree(arity: int, values: np.ndarray, total, rule) -> PartitionTree:
    """The tree over the padded domain of the values in which a node splits
    when rule(*totals) holds, totals being its children's sums of values.

    Each node reads its arity + 1 edges of the running totals (_totals)
    once.  The walk is depth-first over an explicit stack, so deep trees
    cannot hit recursion limits; children are pushed right to left, so
    leaves come off the stack in left-to-right order.
    """
    padded_k = pad_to_power(values.size, arity)
    at = _totals(values, total, padded_k)
    spans: list[tuple[int, int]] = []
    stack = [(1, padded_k)]
    while stack:
        start, length = stack.pop()
        if length > 1:
            child = length // arity
            e1 = start - 1 + child
            e2 = e1 + child
            c0, c1, c2 = at[start - 1], at[e1], at[e2]
            if arity == 2:
                if rule(c1 - c0, c2 - c1):
                    stack += ((e1 + 1, child), (start, child))
                    continue
            elif rule(c1 - c0, c2 - c1, at[e2 + child] - c2):
                stack += ((e2 + 1, child), (e1 + 1, child), (start, child))
                continue
        spans.append((start, length))
    return PartitionTree._trusted(arity, padded_k, tuple(spans))


def build_greedy_binary(sc: SampleCounts) -> PartitionTree:
    """The sample-driven binary tree: split where the halves' counts differ
    by more than a standard deviation's worth."""
    if sc.n < 1:
        raise BadParam("need at least one sample")
    return _build_tree(2, sc.counts, sc.n, greedy_split_decision)


def build_idealized_binary(f: DiscreteDensity, n: int) -> PartitionTree:
    """The deterministic binary tree the greedy one imitates: counts are
    replaced by their expectations under f at sample size n."""
    _check_int("n", n, 1, None)
    if not is_non_increasing(f):
        raise NotMonotone("the idealized binary tree needs a non-increasing density")
    return _build_tree(2, f.mass, 1, lambda fv, fw: fv - fw > math.sqrt((fv + fw) / n))


def build_greedy_ternary(sc: SampleCounts) -> PartitionTree:
    """Sample-driven ternary tree splitting on the thirds' count curvature."""
    if sc.n < 1:
        raise BadParam("need at least one sample")
    return _build_tree(3, sc.counts, sc.n, greedy_ternary_split_decision)


def build_idealized_ternary(f: DiscreteDensity, n: int) -> PartitionTree:
    """Deterministic ternary tree splitting where f's interval masses have
    curvature above the sampling noise scale."""
    _check_int("n", n, 1, None)
    if not is_convex_non_increasing(f):
        raise NotConvex("the idealized ternary tree needs a convex non-increasing density")
    return _build_tree(
        3,
        f.mass,
        1,
        lambda fv, fw, fr: fv - 2.0 * fw + fr > math.sqrt((fv + fw + fr) / n),
    )


# ---------------------------------------------------------------------------
# piecewise estimates
# ---------------------------------------------------------------------------


# real numbers: numbers.Real, and the Decimal and numpy bool it leaves out,
# which monotonize pools or rejects itself
_REAL = (numbers.Real, Decimal, np.bool_)


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
        _check_int("start", self.start, 1)
        _check_int("length", self.length, 1)
        for name in ("value", "slope", "intercept"):
            if not isinstance(getattr(self, name), _REAL):
                raise BadParam(f"piece {name} must be a real number, got {getattr(self, name)!r}")

    def atom_values(self) -> np.ndarray:
        if self.kind == "constant":
            return np.full(self.length, self.value)
        x = np.arange(self.start, self.start + self.length, dtype=float)
        return self.slope * x + self.intercept


_COLUMNS = ("starts", "lengths", "linear", "values", "slopes", "intercepts")
_columns = attrgetter(*_COLUMNS)


@dataclass(frozen=True, init=False, repr=False)
class PiecewiseEstimate:
    """A density estimate given piecewise over {1, ..., domain_k}.

    The estimate is kept flat, one tuple per piece field in left-to-right
    order, the fields being the columns below; linear is True for a line
    slope*x + intercept and False for a constant.  Every field is kept
    exactly as given, so a Python int value stays an int, and Piece
    records are built only when .pieces is read.  Equality and hashing
    compare the domain and the columns, which is the same as comparing
    the pieces.

    PiecewiseEstimate(domain_k, pieces) checks that the pieces tile the
    domain consecutively.  It does not police value signs: the estimators
    here produce values >= 0 up to float error at the scales they are
    specified for, and that property is asserted in tests rather than
    silently repaired.
    """

    domain_k: int
    starts: tuple[int, ...]
    lengths: tuple[int, ...]
    linear: tuple[bool, ...]
    values: tuple
    slopes: tuple
    intercepts: tuple

    def __init__(self, domain_k: int, pieces):
        _check_int("domain_k", domain_k, 1)
        pieces = tuple(pieces)
        if not pieces:
            raise BadParam("an estimate needs at least one piece")
        pos = 1
        for p in pieces:
            if p.start != pos:
                raise BadParam(f"piece at {p.start} breaks the tiling (expected {pos})")
            pos += p.length
        if pos != domain_k + 1:
            raise BadParam(f"pieces cover 1..{pos - 1}, domain is 1..{domain_k}")
        rows = (
            (p.start, p.length, p.kind == "linear", p.value, p.slope, p.intercept) for p in pieces
        )
        self.__dict__.update(zip(_COLUMNS, zip(*rows)), domain_k=domain_k, pieces=pieces)

    @classmethod
    def _from_columns(cls, domain_k, *columns):
        """An estimate from columns, in _COLUMNS order, that already tile
        1..domain_k, unchecked."""
        est = cls.__new__(cls)
        est.__dict__.update(zip(_COLUMNS, columns), domain_k=domain_k)
        return est

    @classmethod
    def from_atom_values(cls, domain_k: int, values) -> PiecewiseEstimate:
        """One constant piece per atom, with value float(values[x - 1])."""
        _check_int("domain_k", domain_k, 1)
        try:
            values = tuple(map(float, np.asarray(values).tolist()))
        except (TypeError, ValueError) as exc:
            raise BadParam(f"atom values must be numbers: {exc}") from None
        m = len(values)
        if not m:
            raise BadParam("an estimate needs at least one piece")
        if m != domain_k:
            raise BadParam(f"pieces cover 1..{m}, domain is 1..{domain_k}")
        zeros = (0.0,) * m
        return cls._from_columns(
            domain_k, tuple(range(1, m + 1)), (1,) * m, (False,) * m, values, zeros, zeros
        )

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        """The pieces as Piece records, built on first read."""
        return tuple(
            Piece(s, l, "linear" if lin else "constant", v, sl, ic)
            for s, l, lin, v, sl, ic in zip(*_columns(self))
        )

    def __repr__(self) -> str:
        return f"PiecewiseEstimate(domain_k={self.domain_k!r}, pieces={self.pieces!r})"

    def atom_values(self) -> np.ndarray:
        """Per-atom values over 1..domain_k, equal to concatenating each
        piece's atom_values()."""
        # ndarray.repeat: np.repeat of a tuple costs twice as much
        reps = np.array(self.lengths)
        vals = np.array(self.values).repeat(reps)
        if any(self.linear):
            x = np.arange(1, self.domain_k + 1, dtype=float)
            slope = np.array(self.slopes).repeat(reps)
            intercept = np.array(self.intercepts).repeat(reps)
            vals = np.where(np.array(self.linear).repeat(reps), slope * x + intercept, vals)
        return vals

    def __call__(self, x: int) -> float:
        _check_int("atom", x, 1, self.domain_k, DomainMismatch)
        i = bisect_right(self.starts, x) - 1
        if self.linear[i]:
            return self.slopes[i] * x + self.intercepts[i]
        return self.values[i]

    def total_mass(self) -> float:
        return _fsum(self.atom_values())

    def to_json(self) -> str:
        out = []
        for s, l, lin, v, sl, ic in zip(*_columns(self)):
            if lin:
                out.append({"start": s, "len": l, "kind": "linear", "slope": sl, "intercept": ic})
            else:
                out.append({"start": s, "len": l, "kind": "constant", "value": v})
        return json.dumps({"domain_k": self.domain_k, "pieces": out})

    def to_csv(self) -> str:
        return _atom_csv("x,value", self.atom_values())


# The estimates below are laid out flat, one row of six after another in
# _COLUMNS order: start, length, linear flag, value, slope, intercept.


def _constant_row(start: int, length: int, value) -> tuple:
    return (start, length, False, value, 0.0, 0.0)


def _linear_row(start: int, length: int, slope: float, intercept: float) -> tuple:
    return (start, length, True, 0.0, slope, intercept)


def _clamped_row(start: int, length: int, slope: float, intercept: float) -> tuple:
    """The rows of a fitted line, with a zero ledge where it goes negative.

    The line is >= 0 between the two fitted midpoints, so the negative atoms
    form a run at one end of the leaf.  Rounding is monotone, so the
    computed values are monotone in x too: a line that is not negative at
    either end is negative nowhere and stays one row, and the run's end
    can be found by bisection."""
    if slope * start + intercept < 0.0 or slope * (start + length - 1) + intercept < 0.0:
        atoms = range(start, start + length)
        if slope < 0.0:
            keep = bisect_left(atoms, True, key=lambda x: slope * x + intercept < 0.0)
            return _linear_row(start, keep, slope, intercept) + _constant_row(
                start + keep, length - keep, 0.0
            )
        ledge = bisect_left(atoms, True, key=lambda x: slope * x + intercept >= 0.0)
        return _constant_row(start, ledge, 0.0) + _linear_row(
            start + ledge, length - ledge, slope, intercept
        )
    return _linear_row(start, length, slope, intercept)


def _leaf_walk(t: PartitionTree, values: np.ndarray, scale: int, line):
    """The estimate over t's leaves of the k per-atom values, cut back to 1..k.

    values are sample counts (an integer array, scale n) or masses (a float
    array, scale 1); the leaves read their running totals (_totals).  A
    singleton leaf gets its atom's value / scale, so an idealized one
    copies f bit for bit where a difference of cumulative float sums would
    round twice.  With line None, a wider leaf is constant at its total /
    (scale * width), spread over its full padded width.  Otherwise it gets
    the line through its outer thirds' (midpoint, total / (scale * third))
    points, whose midpoints sit 2*third apart, and line(start, length,
    slope, intercept) gives its rows.  A row starting past k is dropped and
    the last one is shortened to end at k.

    The checks come in the order tree domain, arity, sample size, all
    before the totals are built; scale is n only for counts, so the last
    check passes for masses.
    """
    k = values.size
    if pad_to_power(k, t.arity) != t.padded_k:
        what = "counts" if values.dtype.kind in "iu" else "density"
        raise DomainMismatch(
            f"tree over {t.padded_k} padded atoms does not match {what} on 1..{k}"
        )
    if line is not None and t.arity != 3:
        raise DomainMismatch("piecewise-linear estimates need a ternary tree")
    if scale < 1:
        raise BadParam("need at least one sample")
    at = _totals(values, scale, t.padded_k)
    atom = memoryview(values)
    flat = []
    for start, length in t.spans:
        if start > k:
            break
        if length == 1:
            flat += _constant_row(start, 1, atom[start - 1] / scale)
        elif line is None:
            total = at[start - 1 + length] - at[start - 1]
            flat += _constant_row(start, length, total / (scale * length))
        else:
            third = length // 3
            e1 = start - 1 + third
            e2 = e1 + third
            avg_left = (at[e1] - at[start - 1]) / (scale * third)
            avg_right = (at[e2 + third] - at[e2]) / (scale * third)
            slope = (avg_right - avg_left) / (2.0 * third)
            intercept = avg_left - slope * (start + (third - 1) / 2.0)
            flat += line(start, length, slope, intercept)
    while flat[-6] > k:
        del flat[-6:]
    flat[-5] = k - flat[-6] + 1
    return PiecewiseEstimate._from_columns(k, *[tuple(flat[i::6]) for i in range(6)])


def _scaled(est: PiecewiseEstimate, renormalize: bool) -> PiecewiseEstimate:
    if not renormalize:
        return est
    mass = est.total_mass()
    # a subnormal mass has no finite reciprocal, and NaN fails mass > 0
    c = 1.0 / mass if mass > 0.0 else math.inf
    if c == math.inf:
        raise BadParam(f"cannot renormalize an estimate of total mass {mass!r}")
    # the values, slopes and intercepts scale; starts, lengths and flags stay
    columns = _columns(est)
    return PiecewiseEstimate._from_columns(
        est.domain_k, *columns[:3], *(tuple(v * c for v in col) for col in columns[3:])
    )


def histogram_estimate(
    t: PartitionTree, sc: SampleCounts, renormalize: bool = False
) -> PiecewiseEstimate:
    """Leaf-interval histogram: each leaf gets its count spread uniformly
    over the leaf's full padded width."""
    est = _leaf_walk(t, sc.counts, sc.n, None)
    return _scaled(est, renormalize)


def idealized_pc_estimate(
    t: PartitionTree, f: DiscreteDensity, renormalize: bool = False
) -> PiecewiseEstimate:
    """Piecewise-constant projection of f itself onto the leaf partition."""
    est = _leaf_walk(t, f.mass, 1, None)
    return _scaled(est, renormalize)


def idealized_pl_estimate(
    t: PartitionTree, f: DiscreteDensity, renormalize: bool = False
) -> PiecewiseEstimate:
    """Per-leaf line through the outer thirds' average values of f;
    singleton leaves copy f exactly.  Values are not clamped, and the
    fitted lines need not preserve mass, so the estimate's total can
    differ from 1 even before truncation."""
    est = _leaf_walk(t, f.mass, 1, _linear_row)
    return _scaled(est, renormalize)


def greedy_pl_estimate(
    t: PartitionTree, sc: SampleCounts, renormalize: bool = False
) -> PiecewiseEstimate:
    """Empirical version of the per-leaf line fit, with negative stretches
    clamped to zero: unlike the idealized averages, empirical thirds can
    slope either way.  As in idealized_pl_estimate, the fitted lines need
    not preserve mass."""
    est = _leaf_walk(t, sc.counts, sc.n, _clamped_row)
    return _scaled(est, renormalize)


def _ratio(v) -> tuple[int, int]:
    """v as an exact (numerator, denominator) pair.  Integers without
    as_integer_ratio, such as numpy's, are the ints they equal; infinities
    and NaN have no ratio and are rejected."""
    if hasattr(v, "as_integer_ratio"):
        try:
            return v.as_integer_ratio()
        except (OverflowError, ValueError):
            raise BadParam(f"piece value {v!r} is not finite") from None
    if isinstance(v, numbers.Integral):
        return int(v), 1
    raise BadParam(f"piece value {v!r} has no exact ratio")


def monotonize(e: PiecewiseEstimate) -> PiecewiseEstimate:
    """Pool adjacent violators over the pieces, weighted by length.

    Merging two pieces replaces them by their length-weighted average, and
    iterating to a fixed point gives the same answer in every merge order.
    To honor that uniqueness in floats, the pooling arithmetic is exact:
    every value is an integer over the values' least common denominator
    (a power of two for floats), so block totals are Python ints.  Pieces
    that survive unmerged keep their value exactly as given, and a merged
    block rounds once at the end, by correctly rounded integer division.
    The result's pieces are constant with zero slope and intercept.
    """
    if any(e.linear):
        raise NotPiecewiseConstant("monotonize applies to piecewise-constant estimates")
    values, lengths = e.values, e.lengths
    ratios = [_ratio(v) for v in values]
    den = math.lcm(*[d for _, d in ratios])
    # block: [first piece index, last piece index, atom length, total * den]
    blocks: list[list] = []
    for idx, (length, (num, d)) in enumerate(zip(lengths, ratios)):
        blocks.append([idx, idx, length, num * (den // d) * length])
        while len(blocks) >= 2:
            a, b = blocks[-2], blocks[-1]
            if a[3] * b[2] < b[3] * a[2]:  # average(a) < average(b): violation
                blocks[-2] = [a[0], b[1], a[2] + b[2], a[3] + b[3]]
                blocks.pop()
            else:
                break
    # lists, then tuples: tuple() of a generator resizes as it fills, which
    # raised the peak RSS of long risk runs by about 2 MB
    starts, sizes, out = [], [], []
    pos = 1
    for first, last, length, total in blocks:
        starts.append(pos)
        sizes.append(length)
        out.append(values[first] if first == last else total / (den * length))
        pos += length
    m = len(blocks)
    zeros = (0.0,) * m
    return PiecewiseEstimate._from_columns(
        e.domain_k, tuple(starts), tuple(sizes), (False,) * m, tuple(out), zeros, zeros
    )
