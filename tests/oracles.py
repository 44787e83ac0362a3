"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: python loops,
Fractions, exhaustive enumeration.  Nothing computes with treedens, so an
agreement between a library result and an oracle result is evidence, not
circularity.  The one import is of its record types: the piecewise
estimate references build Piece records and PiecewiseEstimate values
through the checked public constructor, so that their results compare
with the library's by ==.  These were written against the definitions
before the fast paths existed and stay frozen.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from treedens import BadParam, DomainMismatch, Piece, PiecewiseEstimate


# --- total variation by explicit event enumeration -------------------------


def tv_by_events(a, b) -> float:
    """max_A |P_a(A) - P_b(A)| over all subsets A, by direct enumeration."""
    a = list(map(float, a))
    b = list(map(float, b))
    k = len(a)
    best = 0.0
    for size in range(k + 1):
        for idx in combinations(range(k), size):
            gap = abs(math.fsum(a[i] - b[i] for i in idx))
            if gap > best:
                best = gap
    return best


# --- partition trees by direct recursion ------------------------------------


def _pad(k: int, arity: int) -> int:
    p = 1
    while p < k:
        p *= arity
    return p


def ref_greedy_binary_leaves(counts) -> list[tuple[int, int]]:
    """Leaf intervals of the data-driven binary tree, by direct recursion.

    counts are per-atom sample counts, 0-indexed here; returned intervals
    are (start, length) with 1-based starts over the padded domain.
    """
    counts = list(map(int, counts))
    k = len(counts)
    padded = _pad(k, 2)

    def total(lo: int, hi: int) -> int:  # 0-based half-open, clipped
        return sum(counts[i] for i in range(lo, min(hi, k)))

    out: list[tuple[int, int]] = []

    def rec(lo: int, length: int) -> None:
        if length == 1:
            out.append((lo + 1, 1))
            return
        half = length // 2
        nv = total(lo, lo + half)
        nw = total(lo + half, lo + length)
        # an integer exceeds sqrt(s) exactly when it exceeds isqrt(s); the
        # float sqrt rounds once s passes 2**53
        if abs(nv - nw) > math.isqrt(nv + nw):
            rec(lo, half)
            rec(lo + half, half)
        else:
            out.append((lo + 1, length))

    rec(0, padded)
    return out


def ref_idealized_binary_leaves(mass, n: int) -> list[tuple[int, int]]:
    """Leaf intervals of the idealized binary tree for a known density."""
    mass = list(map(float, mass))
    k = len(mass)
    padded = _pad(k, 2)

    def total(lo: int, hi: int) -> float:
        return math.fsum(mass[i] for i in range(lo, min(hi, k)))

    out: list[tuple[int, int]] = []

    def rec(lo: int, length: int) -> None:
        if length == 1:
            out.append((lo + 1, 1))
            return
        half = length // 2
        fv = total(lo, lo + half)
        fw = total(lo + half, lo + length)
        if fv - fw > math.sqrt((fv + fw) / n):
            rec(lo, half)
            rec(lo + half, half)
        else:
            out.append((lo + 1, length))

    rec(0, padded)
    return out


def ref_greedy_ternary_leaves(counts) -> list[tuple[int, int]]:
    counts = list(map(int, counts))
    k = len(counts)
    padded = _pad(k, 3)

    def total(lo: int, hi: int) -> int:
        return sum(counts[i] for i in range(lo, min(hi, k)))

    out: list[tuple[int, int]] = []

    def rec(lo: int, length: int) -> None:
        if length == 1:
            out.append((lo + 1, 1))
            return
        third = length // 3
        nv = total(lo, lo + third)
        nw = total(lo + third, lo + 2 * third)
        nr = total(lo + 2 * third, lo + length)
        d = nv - 2 * nw + nr
        if d > 0 and d > math.isqrt(nv + nw + nr):  # exact, as in the binary rule
            rec(lo, third)
            rec(lo + third, third)
            rec(lo + 2 * third, third)
        else:
            out.append((lo + 1, length))

    rec(0, padded)
    return out


def ref_idealized_ternary_leaves(mass, n: int) -> list[tuple[int, int]]:
    mass = list(map(float, mass))
    k = len(mass)
    padded = _pad(k, 3)

    def total(lo: int, hi: int) -> float:
        return math.fsum(mass[i] for i in range(lo, min(hi, k)))

    out: list[tuple[int, int]] = []

    def rec(lo: int, length: int) -> None:
        if length == 1:
            out.append((lo + 1, 1))
            return
        third = length // 3
        fv = total(lo, lo + third)
        fw = total(lo + third, lo + 2 * third)
        fr = total(lo + 2 * third, lo + length)
        if fv - 2.0 * fw + fr > math.sqrt((fv + fw + fr) / n):
            rec(lo, third)
            rec(lo + third, third)
            rec(lo + 2 * third, third)
        else:
            out.append((lo + 1, length))

    rec(0, padded)
    return out


# --- monotonization by exhaustive merge-order search ------------------------


def pava_all_merge_orders(pieces) -> list[tuple[int, Fraction]]:
    """Merge adjacent increasing pieces in every possible order.

    pieces is a list of (length, value) with exact Fraction-convertible
    values.  Returns the unique fixed point as (length, average) pairs and
    raises if different merge orders disagree, which would falsify the
    order-independence claim the fast implementation relies on.
    """
    start = tuple((int(l), Fraction(v)) for l, v in pieces)
    results = set()
    seen = set()

    def violations(state):
        out = []
        for i in range(len(state) - 1):
            if state[i][1] < state[i + 1][1]:
                out.append(i)
        return out

    def merge(state, i):
        (la, va), (lb, vb) = state[i], state[i + 1]
        merged = (la + lb, (va * la + vb * lb) / (la + lb))
        return state[:i] + (merged,) + state[i + 2 :]

    stack = [start]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        viol = violations(state)
        if not viol:
            results.add(state)
        else:
            stack.extend(merge(state, i) for i in viol)
    if len(results) != 1:
        raise AssertionError(f"merge order changed the fixed point: {results}")
    return [(l, v) for l, v in results.pop()]


def ref_monotonize(pieces) -> list[tuple[int, float]]:
    """Pool adjacent violators in exact Fractions, one left-to-right pass.

    pieces is a list of (length, float value).  Returns (length, value)
    blocks: a block made of one input piece keeps that piece's float, and
    a merged block's exact average is rounded once to the nearest float.
    """
    # block: [first piece index, last piece index, length, exact total]
    blocks: list[list] = []
    for idx, (length, value) in enumerate(pieces):
        blocks.append([idx, idx, length, Fraction(value) * length])
        while len(blocks) >= 2:
            a, b = blocks[-2], blocks[-1]
            if a[3] * b[2] < b[3] * a[2]:  # average(a) < average(b): violation
                blocks[-2] = [a[0], b[1], a[2] + b[2], a[3] + b[3]]
                blocks.pop()
            else:
                break
    return [
        (length, pieces[first][1] if first == last else float(total / length))
        for first, last, length, total in blocks
    ]


# --- exact binomial expectation ---------------------------------------------


def binom_mean_abs_dev(n: int, p: Fraction) -> float:
    """E |Bin(n, p)/n - p| by exact summation over all outcomes."""
    p = Fraction(p)
    q = 1 - p
    total = Fraction(0)
    pmf = q**n  # j = 0
    for j in range(n + 1):
        total += pmf * abs(Fraction(j, n) - p)
        if j < n:
            # ratio step keeps the summation exact without huge recomputation
            pmf = pmf * (n - j) * p / ((j + 1) * q)
    return float(total)


# --- interval-union shattering, first principles ----------------------------


def ref_interval_union_covers(points, selected, ell: int) -> bool:
    """Can a union of <= ell intervals pick exactly `selected` out of `points`?

    Greedy: walk the points in order, opening a new interval whenever a
    selected point follows a gap containing an unselected point.
    """
    points = sorted(points)
    selected = set(selected)
    used = 0
    inside = False
    for p in points:
        if p in selected:
            if not inside:
                used += 1
                inside = True
        else:
            inside = False
    return used <= ell


def ref_vc_interval_unions(ell: int, m: int) -> int:
    """Largest shattered subset of an m-point line, checking every labeling."""
    best = 0
    ground = list(range(m))
    for d in range(1, m + 1):
        ok_any = False
        for subset in combinations(ground, d):
            shattered = True
            for pattern in range(2**d):
                chosen = [subset[i] for i in range(d) if (pattern >> i) & 1]
                if not ref_interval_union_covers(subset, chosen, ell):
                    shattered = False
                    break
            if shattered:
                ok_any = True
                break
        if ok_any:
            best = d
        else:
            break
    return best


# --- inverse-CDF sampling, one binary search per draw -----------------------


def ref_counts_from_uniforms(mass, u) -> np.ndarray:
    """Per-atom counts of the uniforms u under the CDF of mass.

    Each draw is searched among the cumulative edges on its own: it goes to
    the atom j with edges[j-1] <= u < edges[j].  Draws at or past the last
    edge, which cumulative rounding can leave a hair under 1, are clamped
    to the last atom.
    """
    edges = np.cumsum(np.asarray(mass, dtype=float))
    idx = np.searchsorted(edges, u, side="right")
    idx = np.minimum(idx, len(edges) - 1)
    return np.bincount(idx, minlength=len(edges))


def ref_sample_counts(mass, n: int, seed: int) -> np.ndarray:
    """The counts of n draws at this seed: the first n PCG64 uniforms of a
    fresh generator, counted by ref_counts_from_uniforms."""
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    return ref_counts_from_uniforms(mass, u)


# --- Yatracos class by the pairwise loop ------------------------------------


def ref_yatracos_class(vals) -> list[frozenset]:
    """Distinct sets {x : vals[i][x] > vals[j][x]} (1-based atoms), i != j.

    Pairs are visited in lexicographic (i, j) order, one comparison at a
    time, and each distinct set is kept at its first appearance.
    """
    vals = np.asarray(vals, dtype=float)
    m = vals.shape[0]
    out: list[frozenset] = []
    seen: set[frozenset] = set()
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            s = frozenset(np.flatnonzero(vals[i] > vals[j]) + 1)
            if s not in seen:
                seen.add(s)
                out.append(s)
    return out


# --- growing hypercube bins, one width at a time -----------------------------


def ref_growing_bins(r: int, width: int, target, ratio) -> list[int]:
    """Bin lengths from width up: the float target(i, previous length)
    rounded up to a multiple of width, then grown one width at a time until
    it is at least ratio times the previous length, compared in Fractions."""
    lengths = [width]
    for i in range(1, r):
        nxt = width * math.ceil(target(i, lengths[-1]) / width)
        while Fraction(nxt) < Fraction(lengths[-1]) * ratio:
            nxt += width
        lengths.append(nxt)
    return lengths


# --- monotone-small-k hypercube corner, atom by atom -------------------------


def ref_monotone_small(k: int, r: int, eps: float, theta) -> list[float]:
    """Atom masses of one monotone-small-k corner: bin i (from 1) holds atoms
    2i-1 and 2i at top - step*j, with rungs j = 2i-2, 2i for bit 0 and
    j = 2i-1 twice for bit 1; atoms after the last bin are zero."""
    top = (1.0 + eps) / (2.0 * r)
    step = eps / (2.0 * r * r)
    mass = [0.0] * k
    for i in range(1, r + 1):
        if theta[i - 1] == 0:
            j1, j2 = 2 * (i - 1), 2 * i
        else:
            j1 = j2 = 2 * i - 1
        mass[2 * i - 2] = top - step * j1
        mass[2 * i - 1] = top - step * j2
    return mass


# --- convex hypercube grid, one atom at a time -------------------------------


def ref_convex_targets(large_k: bool, r: int, eps: float, scale: float):
    """Real-valued bin anchor chain (beta_i) and dip sizes (Delta_i) of the
    convex hypercube at a given overall scale."""
    if large_k:
        beta = [scale * (1.0 - eps) ** i for i in range(r + 1)]
        delta = [eps * (beta[i] - beta[i + 1]) / 3.0 for i in range(r)]
    else:
        alpha = eps / r**3
        beta = [scale]
        for i in range(1, r + 1):
            beta.append(beta[i - 1] - alpha / 2.0 - alpha * (r - i))
        delta = [alpha / 6.0] * r
    return beta, delta


def ref_convex_grid(large_k: bool, bin_lengths, k: int, eps: float, bits, scale: float, q: int):
    """Integer atom values (units of 2**-q) of one convex hypercube corner.

    Per bin of length 3m, bit 0 steps down by g+2h for m atoms then g-h for
    2m, bit 1 by g+h for 2m then g-2h for m.  The g-chain runs right to
    left, g_i = max(want_i, g_{i+1} + 2h_{i+1} + 2h_i), and after the last
    bin the value ramps down by the last decrement while it is positive.
    Zeros fill the rest of the k atoms.
    """
    r = len(bin_lengths)
    beta, delta = ref_convex_targets(large_k, r, eps, scale)
    grid = float(2**q)
    ms = [length // 3 for length in bin_lengths]
    eta = [round(delta[i] * grid / (2.0 * ms[i])) for i in range(r)]
    g = [0] * r
    g[r - 1] = max(round((beta[r - 1] - beta[r]) * grid / (3.0 * ms[r - 1])), 2 * eta[r - 1])
    for i in range(r - 2, -1, -1):
        want = round((beta[i] - beta[i + 1]) * grid / (3.0 * ms[i]))
        g[i] = max(want, g[i + 1] + 2 * eta[i + 1] + 2 * eta[i])
    vals: list[int] = []
    y = round(beta[0] * grid)
    for i in range(r):
        m, gi, hi = ms[i], g[i], eta[i]
        if bits[i] == 0:
            runs = ((gi + 2 * hi, m), (gi - hi, 2 * m))
        else:
            runs = ((gi + hi, 2 * m), (gi - 2 * hi, m))
        v = y
        for dec, count in runs:
            for _ in range(count):
                vals.append(v)
                v -= dec
        y -= 3 * m * gi
    tail_dec = g[r - 1] - 2 * eta[r - 1]
    v = y
    while len(vals) < k and v > 0:
        vals.append(v)
        v -= tail_dec
        if tail_dec == 0:
            while len(vals) < k:
                vals.append(v)
    vals.extend([0] * (k - len(vals)))
    return vals


def ref_convex_scale(large_k: bool, bin_lengths, k: int, eps: float):
    """(scale, q) that puts the all-zeros corner's total mass at 2**q, by
    the bisection of the library over ref_convex_grid (None when the
    bracket search fails)."""
    r = len(bin_lengths)
    q = 49 + max(0, int(math.floor(math.log2(r))))
    target = 2**q
    zeros = (0,) * r
    lo, hi = 0.0, 4.0 / r
    for _ in range(4):
        if sum(ref_convex_grid(large_k, bin_lengths, k, eps, zeros, hi, q)) >= target:
            break
        hi *= 2.0
    else:
        return None
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if sum(ref_convex_grid(large_k, bin_lengths, k, eps, zeros, mid, q)) > target:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0, q


# --- piecewise estimates built one Piece at a time --------------------------
#
# The estimate builders as they were before estimates went flat: one Piece
# record per leaf (two where a fitted line is clamped), then truncation and
# rescaling piece by piece.  They read the library's tree (arity, padded_k,
# spans), counts (k, n, counts) and density (k, mass) objects.


def ref_atom_values(pieces) -> np.ndarray:
    """Per-atom values: each piece's own atom_values(), concatenated."""
    return np.concatenate([p.atom_values() for p in pieces])


def ref_total_mass(pieces) -> float:
    return math.fsum(ref_atom_values(pieces).tolist())


def ref_to_json(domain_k: int, pieces) -> str:
    out = []
    for p in pieces:
        d = {"start": p.start, "len": p.length, "kind": p.kind}
        if p.kind == "constant":
            d["value"] = p.value
        else:
            d["slope"] = p.slope
            d["intercept"] = p.intercept
        out.append(d)
    return json.dumps({"domain_k": domain_k, "pieces": out})


def ref_to_csv(pieces) -> str:
    lines = ["x,value"]
    lines.extend(f"{x + 1},{v!r}" for x, v in enumerate(ref_atom_values(pieces).tolist()))
    return "\n".join(lines) + "\n"


def ref_eval(pieces, x: int):
    """The value at atom x of the piece that covers it, by linear search."""
    for p in pieces:
        if p.start <= x < p.start + p.length:
            return p.value if p.kind == "constant" else p.slope * x + p.intercept
    raise ValueError(f"no piece covers {x}")


def _ref_check_tree(t, k: int, what: str) -> None:
    if _pad(k, t.arity) != t.padded_k:
        raise DomainMismatch(
            f"tree over {t.padded_k} padded atoms does not match {what} on 1..{k}"
        )


def _ref_interval_totals(values, intervals) -> list:
    """Sum over each (start, length) interval, clipped at k.  Integer
    values are added up in Python ints, so totals past int64 stay exact.
    Float values take the difference of two cumulative sums: the float
    expression the library evaluates, one interval at a time."""
    values = np.asarray(values)
    k = values.size
    exact = values.dtype.kind in "iu"
    ints = values.tolist()
    cum = np.concatenate([np.zeros(1, values.dtype), np.cumsum(values)])
    out = []
    for start, length in intervals:
        lo = min(start - 1, k)
        hi = min(lo + length, k)
        out.append(sum(ints[lo:hi]) if exact else (cum[hi] - cum[lo]).item())
    return out


def _ref_atom(values, x: int):
    values = np.asarray(values)
    return values[x - 1].item() if x <= values.size else 0.0


def ref_truncate(pieces, k: int) -> list:
    out = []
    for p in pieces:
        if p.start > k:
            break
        if p.start + p.length - 1 > k:
            out.append(replace(p, length=k - p.start + 1))
        else:
            out.append(p)
    return out


def ref_scaled(est, renormalize: bool):
    if not renormalize:
        return est
    mass = ref_total_mass(est.pieces)
    # a subnormal mass has no finite reciprocal, and NaN fails mass > 0
    c = 1.0 / mass if mass > 0.0 else math.inf
    if c == math.inf:
        raise BadParam(f"cannot renormalize an estimate of total mass {mass!r}")
    scaled = tuple(
        replace(p, value=p.value * c, slope=p.slope * c, intercept=p.intercept * c)
        for p in est.pieces
    )
    return PiecewiseEstimate(est.domain_k, scaled)


def ref_histogram_estimate(t, sc, renormalize: bool = False):
    _ref_check_tree(t, sc.k, "counts")
    if sc.n < 1:
        raise BadParam("need at least one sample")
    counts = _ref_interval_totals(sc.counts, t.spans)
    pieces = [
        Piece(s, l, "constant", value=c / (sc.n * l)) for (s, l), c in zip(t.spans, counts)
    ]
    return ref_scaled(PiecewiseEstimate(sc.k, tuple(ref_truncate(pieces, sc.k))), renormalize)


def ref_idealized_pc_estimate(t, f, renormalize: bool = False):
    _ref_check_tree(t, f.k, "density")
    masses = _ref_interval_totals(f.mass, t.spans)
    pieces = [
        Piece(s, l, "constant", value=_ref_atom(f.mass, s) if l == 1 else m / l)
        for (s, l), m in zip(t.spans, masses)
    ]
    return ref_scaled(PiecewiseEstimate(f.k, tuple(ref_truncate(pieces, f.k))), renormalize)


def _ref_outer_thirds(values, t):
    """Per leaf: (start, length, third, left-third total, right-third total)."""
    out = []
    for start, length in t.spans:
        third = length // 3
        left, right = _ref_interval_totals(
            values, [(start, third), (start + 2 * third, third)]
        )
        out.append((start, length, third, left, right))
    return out


def _ref_line(start: int, third: int, avg_left: float, avg_right: float):
    mid_left = start + (third - 1) / 2.0
    slope = (avg_right - avg_left) / (2.0 * third)
    return slope, avg_left - slope * mid_left


def ref_idealized_pl_estimate(t, f, renormalize: bool = False):
    _ref_check_tree(t, f.k, "density")
    if t.arity != 3:
        raise DomainMismatch("piecewise-linear estimates need a ternary tree")
    pieces = []
    for start, length, third, left, right in _ref_outer_thirds(f.mass, t):
        if length == 1:
            pieces.append(Piece(start, 1, "constant", value=_ref_atom(f.mass, start)))
            continue
        slope, intercept = _ref_line(start, third, left / third, right / third)
        pieces.append(Piece(start, length, "linear", slope=slope, intercept=intercept))
    return ref_scaled(PiecewiseEstimate(f.k, tuple(ref_truncate(pieces, f.k))), renormalize)


def ref_clamped_linear(start: int, length: int, slope: float, intercept: float) -> list:
    """The line as one linear piece, or split by a zero ledge over the run
    of atoms where it is negative, found by evaluating every atom."""
    x = np.arange(start, start + length, dtype=float)
    neg = slope * x + intercept < 0.0
    if not neg.any():
        return [Piece(start, length, "linear", slope=slope, intercept=intercept)]
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


def ref_greedy_pl_estimate(t, sc, renormalize: bool = False):
    _ref_check_tree(t, sc.k, "counts")
    if t.arity != 3:
        raise DomainMismatch("piecewise-linear estimates need a ternary tree")
    if sc.n < 1:
        raise BadParam("need at least one sample")
    pieces = []
    for start, length, third, left, right in _ref_outer_thirds(sc.counts, t):
        if length == 1:
            pieces.append(Piece(start, 1, "constant", value=_ref_atom(sc.counts, start) / sc.n))
            continue
        avg_left = left / (sc.n * third)
        avg_right = right / (sc.n * third)
        slope, intercept = _ref_line(start, third, avg_left, avg_right)
        pieces.extend(ref_clamped_linear(start, length, slope, intercept))
    return ref_scaled(PiecewiseEstimate(sc.k, tuple(ref_truncate(pieces, sc.k))), renormalize)


# --- random shape generators (exact under the strict predicates) -------------


def random_monotone_mass(rng: np.random.Generator, k: int) -> np.ndarray:
    """A random non-increasing density that passes the exact predicate.

    Integer construction: sorted nonnegative integers divided by their sum.
    Division by one shared positive value preserves every >= exactly.
    """
    v = np.sort(rng.integers(0, 1_000_000, size=k))[::-1].astype(np.int64)
    v[0] += 1  # guard against the all-zero draw
    return v / v.sum()


def random_convex_mass(rng: np.random.Generator, k: int) -> np.ndarray:
    """A random convex non-increasing density, exact under both predicates.

    Gaps c_x = m(x) - m(x+1) are strictly decreasing integers, so every
    second difference is at least 1 before normalization; dividing by the
    integer total leaves a margin that float rounding cannot erase.
    """
    gaps = np.sort(rng.integers(0, 1_000_000, size=k - 1))[::-1]
    gaps = gaps + np.arange(k - 1, 0, -1, dtype=np.int64)  # force strictness
    tail = int(rng.integers(0, 1_000_000))
    m = np.concatenate([[0], np.cumsum(gaps[::-1])])[::-1] + tail
    return m / m.sum()


def random_monotone_mixture(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random convex combination of the four named shapes on {1..k}.

    The harmonic and geometric components get a weight floor so the strict
    inequalities dominate float rounding in the mixture.
    """
    x = np.arange(1, k + 1, dtype=float)
    uni = np.full(k, 1.0 / k)
    har = (1.0 / x) / np.sum(1.0 / x)
    geo = 0.9**x / np.sum(0.9**x)
    lin = (k + 1 - x) / np.sum(k + 1 - x)
    w = rng.dirichlet(np.ones(4))
    w = (w + np.array([0.0, 0.05, 0.05, 0.0])) / (1.0 + 0.1)
    return w[0] * uni + w[1] * har + w[2] * geo + w[3] * lin


# --- densities as first written ----------------------------------------------


def ref_family_mass(name: str, k: int, param: float | None = None) -> np.ndarray:
    """A family member's mass, each normalizing total taken by math.fsum
    over one full Python list; linear-decreasing sits on its dyadic grid."""
    if name == "linear-decreasing":
        total = k * (k + 1) // 2
        q = 30 + total.bit_length()
        return np.arange(k, 0, -1, dtype=float) * (round(2**q / total) * 2.0**-q)
    if name == "uniform":
        w = np.ones(k)
    elif name == "harmonic-zipf":
        w = 1.0 / np.arange(1, k + 1, dtype=float)
    else:
        w = (0.9 if param is None else param) ** np.arange(k, dtype=float)
    return w / math.fsum(w.tolist())


def ref_density_to_csv(mass) -> str:
    """(index, mass) rows through csv.writer, one atom at a time."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "mass"])
    for i, v in enumerate(mass, start=1):
        w.writerow([i, repr(float(v))])
    return buf.getvalue()
