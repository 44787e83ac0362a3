"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: python loops,
Fractions, exhaustive enumeration.  Nothing imports from treedens, so an
agreement between a library result and an oracle result is evidence, not
circularity.  These were written against the definitions before the fast
paths existed and stay frozen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


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
        if abs(nv - nw) > math.sqrt(nv + nw):
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
        if d > 0 and d > math.sqrt(nv + nw + nr):
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
