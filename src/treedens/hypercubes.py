"""Hypercube families of hard densities for minimax lower bounds.

Each regime builds a family {f_theta : theta in {0,1}^r} of densities on
{1, ..., k}.  The support is carved into r disjoint bins; flipping one bit of
theta perturbs the density inside that bin only, by an amount small enough
that samples cannot reliably tell the two versions apart, yet large enough
in total variation that every estimator pays for the ambiguity.  Feeding the
per-bin separation and the pairwise Hellinger affinity into the two-point
machinery (metrics.assouad_lower_bound) yields minimax rate lower bounds.

Numerical contract: every returned density passes the exact shape predicates
in :mod:`treedens.densities`.  The monotone regimes use per-region constant
values whose orderings are certified in exact rational arithmetic.  The
convex regimes are built on a dyadic grid: all atom values are integers
times 2**-Q and all per-step decrements are integers, so the float second
differences the convexity predicate computes are exact.  Naive evaluation of
the defining piecewise-linear interpolations would fail the exact predicate
on collinear stretches, where real second differences are 0 and the sign is
decided by rounding noise.

The convex grid is computed per bin with numpy in int64: one cumulative sum
for the anchor chain, one reversed running maximum for the decrement caps
and one cumulative sum over the per-atom decrements.  The normalization's
bisection never builds it: each step takes the grid's total in closed form
from the same per-bin chain, in O(r) whatever k is.  That total is exact in
Python ints, since the atoms reach about 2**54 at the top of the bracket
and an int64 sum over a few hundred of them could wrap.  The bisection
stops at its fixed point, the first step that leaves its bracket
unchanged: a step depends on the bracket alone, so the steps it skips
would all repeat it and the scale is the one the full step budget gives.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .densities import (
    DiscreteDensity,
    _check_int,
    _check_items,
    _check_type,
    _quote,
    _Record,
    is_convex_non_increasing,
    is_non_increasing,
)
from .errors import BadParam, InfeasibleSpec, OutOfRegime


class Regime(str, Enum):
    MONOTONE_LARGE_K = "monotone-large-k"
    MONOTONE_SMALL_K = "monotone-small-k"
    CONVEX_LARGE_K = "convex-large-k"
    CONVEX_SMALL_K = "convex-small-k"

    def is_convex(self) -> bool:
        return self in (Regime.CONVEX_LARGE_K, Regime.CONVEX_SMALL_K)


def _regime(value) -> Regime:
    """value as a Regime, given as one or as its string value."""
    try:
        return Regime(value)
    except (ValueError, TypeError):
        raise BadParam(f"unknown regime {value!r}") from None


def _growing_bins(r: int, k: int, width: int, target, ratio: Fraction) -> tuple[int, ...]:
    """r bin lengths from width up.  Bin i is the larger of two multiples of
    width: the float target(i, previous length) rounded up, and the least
    one at least ratio times the previous length, found exactly.  Building
    stops with InfeasibleSpec once the total passes k."""
    lengths = [width]
    total = width
    for i in range(1, r):
        if total > k:
            raise InfeasibleSpec(
                f"bins need more than {_quote(k)} atoms but the support has only {_quote(k)}"
            )
        try:
            nxt = width * math.ceil(target(i, lengths[-1]) / width)
        except OverflowError:
            raise InfeasibleSpec("bin lengths overflow float arithmetic") from None
        # past 2**53 the float target can fall short by many widths
        nxt = max(nxt, width * math.ceil(lengths[-1] * ratio / width))
        lengths.append(nxt)
        total += nxt
    return tuple(lengths)


def _even_bins(r: int, eps: float, k: int) -> tuple[int, ...]:
    """Bin lengths for the monotone large-k regime.

    Even lengths starting at 2, growing at least like 2 e^{4 eps (i-1)}.  On
    top of that, the cross-bin monotonicity constraint
    (1-eps) |A_{i+1}| >= (1+eps) |A_i| is enforced in exact rational
    arithmetic; the geometric prescription alone does not survive rounding
    to even integers when eps is small.
    """

    def target(i, last):
        return max(2.0 * math.exp(4.0 * eps * i), last * (1 + eps) / (1 - eps))

    e = Fraction(eps)
    return _growing_bins(r, k, 2, target, (1 + e) / (1 - e))


def _triple_bins(r: int, eps: float, k: int) -> tuple[int, ...]:
    """Bin lengths for the convex large-k regime: multiples of 3 growing
    like 3/(1-eps)^{i-1}, and at least by the factor (1+eps) the cross-bin
    slope ordering asks for."""

    def target(i, last):
        return max(3.0 / (1.0 - eps) ** i, last * (1.0 + eps))

    return _growing_bins(r, k, 3, target, 1 + Fraction(eps))


# regime -> (epsilon test, the range it accepts, shortest bin width, growing
# large-k layout (r, eps, k) -> lengths, or None for r bins of that width)
_REGIMES = {
    Regime.MONOTONE_LARGE_K: (lambda e: 0 < e < 1 / math.sqrt(2), "(0, 1/sqrt(2))", 2, _even_bins),
    Regime.MONOTONE_SMALL_K: (lambda e: 0 < e < 1, "(0, 1)", 2, None),
    Regime.CONVEX_LARGE_K: (lambda e: 0 < e <= 0.5, "(0, 1/2]", 3, _triple_bins),
    Regime.CONVEX_SMALL_K: (lambda e: 0 < e <= 0.5, "(0, 1/2]", 3, None),
}


@dataclass(frozen=True)
class HypercubeSpec(_Record):
    """Validated parameters (regime, n, k, r, epsilon, theta) of one member.

    n is the sample size the family is tuned against; it does not affect
    the construction itself, only default parameter choices and the value
    of the resulting bound.  Validation checks that n, k and r are
    integers and epsilon a real number, stored as the Python ints and float
    they equal, the regime's epsilon range, that the r bins fit inside
    {1, ..., k}, and the bit vector; the bin layout is frozen into
    ``bin_lengths``.  The fit is checked against the shortest possible bins
    (2 or 3 atoms each) before theta is read or any bin is built, so a huge
    r fails in O(1), and the growing large-k layouts stop as soon as their
    running total passes k, so an infeasible r builds at most about k/2
    bins.  A pickle or copy is built and checked anew.
    """

    regime: Regime
    n: int
    k: int
    r: int
    epsilon: float
    theta: tuple[int, ...]
    bin_lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _args = ("regime", "n", "k", "r", "epsilon", "theta")

    def __post_init__(self):
        # no upper bound: a spec builds no array, and specs are built at k = 10**400
        for name in ("n", "k", "r"):
            self.__dict__[name] = _check_int(name, getattr(self, name), 1, None)
        if not isinstance(self.epsilon, numbers.Real):
            raise BadParam(f"epsilon must be a real number, got {self.epsilon!r}")
        # every regime's range lies in (0, 1); float() of a huge int overflows
        eps = float(self.epsilon) if abs(self.epsilon) < 2 else math.inf
        self.__dict__.update(epsilon=eps, regime=_regime(self.regime))
        in_range, accepted, width, layout = _REGIMES[self.regime]
        if not in_range(eps):
            raise InfeasibleSpec(f"epsilon must lie in {accepted}")
        self._fits(width * self.r, at_least=layout is not None)
        bits = _check_items("theta", self.theta, "bits")
        if len(bits) != self.r:
            raise BadParam(f"theta must be a vector of {_quote(self.r)} bits")
        self.__dict__["theta"] = tuple(_check_int("theta bit", b, 0, 1) for b in bits)
        lengths = (width,) * self.r if layout is None else layout(self.r, eps, self.k)
        self._fits(sum(lengths))
        self.__dict__["bin_lengths"] = lengths

    def _fits(self, need: int, at_least: bool = False) -> None:
        if need > self.k:
            bound = "at least " if at_least else ""
            raise InfeasibleSpec(
                f"bins need {bound}{_quote(need)} atoms but the support has only {_quote(self.k)}"
            )


def hypercube_bins(spec: HypercubeSpec) -> list[tuple[int, int]]:
    """The perturbation bins as (start, length) pairs with 1-based starts."""
    _check_type("spec", spec, HypercubeSpec)
    starts = accumulate(spec.bin_lengths, initial=1)
    return list(zip(starts, spec.bin_lengths))


def assouad_default_params(regime: Regime, n: int, k: int) -> tuple[int, float]:
    """The tuned (r, epsilon) for a regime at sample size n, support size k.

    Raises OutOfRegime when (n, k) falls outside the regime's validity
    range, or when n or k is past the float range the tuned formulas are
    evaluated in.  Within each range, epsilon balances per-bin detectability
    against total separation; where a window of admissible r exists, the
    smallest integer in it is returned.
    """
    regime = _regime(regime)
    n = _check_int("n", n, 1, None)
    k = _check_int("k", k, 1, None)
    try:
        if regime == Regime.MONOTONE_LARGE_K:
            n3 = n ** (1.0 / 3.0)
            # the upper limit k <= n^{1/3} e^n is compared in log space so that
            # astronomically large thresholds cannot overflow
            if k < math.e**8 * n3 or math.log(k) > math.log(n) / 3.0 + n:
                raise OutOfRegime("needs e^8 n^{1/3} <= k <= n^{1/3} e^n")
            logratio = math.log(k / n3)
            eps = 0.25 * (logratio / n) ** (1.0 / 3.0)
            r = math.ceil(0.25 * (n * logratio**2) ** (1.0 / 3.0))
        elif regime == Regime.MONOTONE_SMALL_K:
            if k < 2 or k > math.e**8 * n ** (1.0 / 3.0):
                raise OutOfRegime("needs 2 <= k <= e^8 n^{1/3}")
            r = k // 2
            eps = math.e**-12 * r * math.sqrt(k / n)
        elif regime == Regime.CONVEX_LARGE_K:
            n5 = n ** (1.0 / 5.0)
            if k < math.e**40 * n5 or math.log(k) > math.log(n) / 5.0 + n:
                raise OutOfRegime("needs e^40 n^{1/5} <= k <= n^{1/5} e^n")
            logratio = math.log(k / n5)
            eps = 0.5 * (logratio / n) ** (1.0 / 5.0)
            r = math.ceil(n5 * logratio ** (4.0 / 5.0) / 18.0)
        else:
            if k < 3 or k > math.e**40 * n ** (1.0 / 5.0):
                raise OutOfRegime("needs 3 <= k <= e^40 n^{1/5}")
            r = k // 3
            eps = math.e**-100 * r**2 * math.sqrt(k / n)
    except OverflowError:
        raise OutOfRegime(f"n or k is past the float range of {regime.value}") from None
    return r, eps


# ---------------------------------------------------------------------------
# monotone regimes: per-region constants, ordering certified exactly
# ---------------------------------------------------------------------------


def _monotone_large(spec: HypercubeSpec) -> np.ndarray:
    r, eps = spec.r, spec.epsilon
    mass = np.zeros(spec.k)
    for (start, length), bit in zip(hypercube_bins(spec), spec.theta):
        cell = mass[start - 1 : start - 1 + length]  # a view: writes land in mass
        if bit == 0:
            cell[: length // 2] = (1.0 + eps) / (r * length)
            cell[length // 2 :] = (1.0 - eps) / (r * length)
        else:
            cell[:] = 1.0 / (r * length)
    return mass


def _monotone_small(spec: HypercubeSpec) -> np.ndarray:
    r, eps = spec.r, spec.epsilon
    top = (1.0 + eps) / (2.0 * r)  # largest atom value in the family
    step = eps / (2.0 * r * r)
    # every atom value is top - step*j for an integer rung j, so atoms that
    # should coincide across theta get bit-identical floats: bin i (from 1)
    # takes rungs 2i-2 and 2i with bit 0, rung 2i-1 twice with bit 1
    mid = 2 * np.arange(1, r + 1) - 1
    spread = 1 - np.array(spec.theta)
    mass = np.zeros(spec.k)
    mass[0 : 2 * r : 2] = top - step * (mid - spread)
    mass[1 : 2 * r : 2] = top - step * (mid + spread)
    return mass


# ---------------------------------------------------------------------------
# convex regimes: dyadic-grid skeleton with integer decrements
# ---------------------------------------------------------------------------


def _grid_at_scale(
    regime: Regime,
    bin_lengths: tuple[int, ...],
    k: int,
    eps: float,
    bits: tuple[int, ...],
    q: int,
):
    """The map scale -> integer atom values (units of 2**-q) for one corner
    of the hypercube.

    The bins' anchor chain beta_i and dip sizes Delta_i are real-valued at
    the overall scale the map is called with; _convex_scale tunes it so the
    mass is 1.  Within bin i the value walks down by a constant integer decrement
    per step: bit 0 uses [g+2h] x m then [g-h] x 2m, bit 1 the mirror
    [g+h] x 2m then [g-2h] x m, where 3m is the bin length, g the per-step
    chord drop and h the quantized dip.  Both variants consume exactly 3mg
    and carry identical integer mass, so bin anchors and the total are
    theta-independent.  The g-chain is built right-to-left with the caps
    that keep the global decrement sequence non-increasing, which is
    exactly discrete convexity.  After the last bin the value keeps ramping
    down by the final decrement until it crosses zero.  Returns an int64
    array of max(k, sum(bin_lengths)) atoms.

    The returned map's ``total(scale)`` is the exact Python-int sum of that
    array, in closed form from the same per-bin g and eta, without building
    it.  Everything that does not depend on the scale (bin sizes, run
    counts, the bins' weights in the total, the anchor chain's steps, and
    the dips and their caps in the small-k regime) is computed once here,
    so each step of the bisection in _convex_scale costs O(r), whatever k
    is.
    """
    r = len(bin_lengths)
    grid = float(2**q)
    ms = np.array(bin_lengths, dtype=np.int64) // 3
    b = np.array(bits, dtype=np.int64)
    # per bin, bit 0 runs [g+2h] x m then [g-h] x 2m, bit 1 [g+h] x 2m then [g-2h] x m
    counts = np.column_stack(((1 + b) * ms, (2 - b) * ms)).ravel()
    in_bins = int(counts.sum())
    # with either bit, bin i sums to 3m Y_i - 3m(3m-1)/2 g_i - 3m^2 eta_i,
    # where Y_i = y - 3 sum_{l<i} m_l g_l is its top atom; so over all bins
    # g_i also weighs 3 m_i for each of the 3 sum_{l>i} m_l later atoms
    mlist = ms.tolist()
    g_weights = [
        9 * m * (in_bins // 3 - p) + 3 * m * (3 * m - 1) // 2
        for m, p in zip(mlist, accumulate(mlist))
    ]
    h_weights = [3 * m * m for m in mlist]

    def by_eta(eta: np.ndarray) -> tuple[np.ndarray, int]:
        """The caps D_i, suffix sums of the step terms 2 eta_l + 2 eta_{l+1}
        over l >= i with D_r = 0 appended, and the eta terms of the total."""
        step = 2 * eta
        step[:-1] += 2 * eta[1:]
        suffix = np.zeros(r + 1, dtype=np.int64)
        suffix[:-1] = np.cumsum(step[::-1])[::-1]
        return suffix, sum(map(operator.mul, eta.tolist(), h_weights))

    large = regime == Regime.CONVEX_LARGE_K
    if large:
        powers = np.array([(1.0 - eps) ** i for i in range(r + 1)])
    else:
        alpha = eps / r**3
        # beta_i = beta_{i-1} - alpha/2 - alpha (r-i), one add at a time
        steps = np.empty(2 * r + 1)
        steps[1::2] = -alpha / 2.0
        steps[2::2] = -(alpha * np.arange(r - 1, -1, -1, dtype=float))
        small_eta = np.rint(alpha / 6.0 * grid / (2.0 * ms)).astype(np.int64)
        small_by_eta = by_eta(small_eta)

    def chain(scale: float) -> tuple[int, np.ndarray, np.ndarray, int]:
        """The top atom y, the per-bin g and eta, and the eta terms of the
        total at scale."""
        if large:
            beta = scale * powers
            delta = eps * (beta[:-1] - beta[1:]) / 3.0
            eta = np.rint(delta * grid / (2.0 * ms)).astype(np.int64)
            suffix, dips = by_eta(eta)
        else:
            steps[0] = scale
            beta = np.cumsum(steps)[::2]
            eta, (suffix, dips) = small_eta, small_by_eta
        want = np.rint((beta[:-1] - beta[1:]) * grid / (3.0 * ms)).astype(np.int64)
        # g_i = max(want_i, g_{i+1} + 2 eta_{i+1} + 2 eta_i), with g_r = 0 and
        # eta_r = 0: g_i = D_i + max_{j >= i} (want_j - D_j)
        reach = -suffix
        reach[:-1] += want
        g = (np.maximum.accumulate(reach[::-1])[::-1] + suffix)[:-1]
        return int(np.rint(beta[0] * grid)), g, eta, dips

    def ramp(y: int, g: np.ndarray, eta: np.ndarray) -> tuple[int, int, int]:
        """The ramp's first atom v = y - 3 sum m_i g_i (the eta terms cancel),
        its decrement, and how many atoms it fills: while v > 0, up to k."""
        v = y - 3 * int(ms @ g)
        dec = int(g[-1] - 2 * eta[-1])
        room = k - in_bins
        if v <= 0 or room <= 0:
            return v, dec, 0
        return v, dec, room if dec <= 0 else min(room, -(-v // dec))

    def at(scale: float) -> np.ndarray:
        y, g, eta, _ = chain(scale)
        decs = np.column_stack((g + (2 - b) * eta, g - (1 + b) * eta)).ravel()
        drops = np.cumsum(np.repeat(decs, counts))
        vals = np.zeros(max(k, in_bins), dtype=np.int64)
        vals[0] = y
        vals[1:in_bins] = y - drops[:-1]
        v, dec, t = ramp(y, g, eta)
        if t:
            vals[in_bins : in_bins + t] = v - dec * np.arange(t, dtype=np.int64)
        return vals

    def total(scale: float) -> int:
        # in Python ints: atoms reach about 2**54 and weights about in_bins**2
        y, g, eta, dips = chain(scale)
        v, dec, t = ramp(y, g, eta)
        bins = in_bins * y - sum(map(operator.mul, g.tolist(), g_weights)) - dips
        return bins + t * v - dec * (t * (t - 1) // 2)

    at.total = total
    return at


def _convex_scale(total, r: int, q: int) -> float:
    """The overall scale at which total, the map scale -> exact integer
    mass of a grid in units of 2**-q, reads 2**q.

    The total is theta-independent, so the member's own grid settles the
    scale every corner shares.  The bisection runs at most 80 steps but
    stops at its fixed point: once the float midpoint equals the end it
    would replace, the step leaves (lo, hi) unchanged, and since a step
    depends on (lo, hi) alone every remaining step would repeat it.  The
    result is therefore the one all 80 steps give; at the convex-small-k
    specs tried the stop comes after 57 steps.
    """
    target = 2**q
    lo, hi = 0.0, 4.0 / r
    for _ in range(4):
        if total(hi) >= target:
            break
        hi *= 2.0
    else:
        raise InfeasibleSpec("could not normalize the convex construction")
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if total(mid) > target:
            if mid == hi:
                break
            hi = mid
        else:
            if mid == lo:
                break
            lo = mid
    return (lo + hi) / 2.0


def assouad_density(spec: HypercubeSpec) -> DiscreteDensity:
    """The hypercube member f_theta as a validated DiscreteDensity.

    The result passes is_non_increasing (all regimes) and additionally
    is_convex_non_increasing (convex regimes) under the exact comparisons
    those predicates use, and sums to 1 within the densities tolerance.
    Atoms after the last bin carry zero mass in the monotone regimes and
    the convexity-preserving ramp in the convex ones.
    """
    _check_type("spec", spec, HypercubeSpec)
    _check_int("k", spec.k, 1, error=InfeasibleSpec)
    if spec.regime == Regime.MONOTONE_LARGE_K:
        mass = _monotone_large(spec)
    elif spec.regime == Regime.MONOTONE_SMALL_K:
        mass = _monotone_small(spec)
    else:
        # q keeps the largest integer value below 2**51, which keeps the
        # predicate's float arithmetic exact
        q = 49 + int(math.floor(math.log2(spec.r)))
        grid_at = _grid_at_scale(spec.regime, spec.bin_lengths, spec.k, spec.epsilon, spec.theta, q)
        mass = grid_at(_convex_scale(grid_at.total, spec.r, q)).astype(float) * 2.0**-q
    out = DiscreteDensity(k=spec.k, mass=mass)
    ok = is_convex_non_increasing(out) if spec.regime.is_convex() else is_non_increasing(out)
    if not ok:
        raise InfeasibleSpec("parameters too extreme to realize the shape exactly")
    return out


def assouad_alpha_beta(spec: HypercubeSpec) -> tuple[float, float]:
    """Per-coordinate separation alpha and affinity floor beta for the family.

    alpha lower-bounds the L1 distance restricted to one bin between the two
    settings of that bin's bit, which is twice the per-bin TV distance, so a
    bit flip moves the TV by at least alpha / 2; beta lower-bounds the
    Hellinger affinity of the full densities across a single bit flip.  Both
    feed the two-point risk bound reported by assouad_lower_bound.
    """
    _check_type("spec", spec, HypercubeSpec)
    r, eps = spec.r, spec.epsilon
    if spec.regime == Regime.MONOTONE_LARGE_K:
        return eps / r, 1.0 - eps * eps / (2.0 * r)
    if spec.regime == Regime.MONOTONE_SMALL_K:
        return eps / r**2, 1.0 - eps * eps / (2.0 * r**3 * (1.0 - eps))
    if spec.regime == Regime.CONVEX_LARGE_K:
        return eps * eps / (72.0 * r), 1.0 - eps**4 / (9.0 * r)
    return eps / (6.0 * r**3), 1.0 - eps * eps / (48.0 * r**5)
