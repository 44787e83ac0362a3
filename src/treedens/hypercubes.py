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
and one cumulative sum over the per-atom decrements.  Its values stay below
about 2**54 even at the top of the normalization's bisection bracket, where
an int64 total over a few hundred atoms could wrap, so the totals that
decide the bisection are exact Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .densities import DiscreteDensity, is_convex_non_increasing, is_non_increasing
from .errors import BadParam, InfeasibleSpec, OutOfRegime


class Regime(str, Enum):
    MONOTONE_LARGE_K = "monotone-large-k"
    MONOTONE_SMALL_K = "monotone-small-k"
    CONVEX_LARGE_K = "convex-large-k"
    CONVEX_SMALL_K = "convex-small-k"

    def is_convex(self) -> bool:
        return self in (Regime.CONVEX_LARGE_K, Regime.CONVEX_SMALL_K)


def _even_bins(r: int, eps: float) -> tuple[int, ...]:
    """Bin lengths for the monotone large-k regime.

    Even lengths starting at 2, growing at least like 2 e^{4 eps (i-1)}.  On
    top of that, the cross-bin monotonicity constraint
    (1-eps) |A_{i+1}| >= (1+eps) |A_i| is enforced in exact rational
    arithmetic; the geometric prescription alone does not survive rounding
    to even integers when eps is small.
    """
    e = Fraction(eps)
    lengths = [2]
    for i in range(1, r):
        target = max(2.0 * math.exp(4.0 * eps * i), lengths[-1] * (1 + eps) / (1 - eps))
        nxt = 2 * math.ceil(target / 2.0)
        while Fraction(nxt) * (1 - e) < Fraction(lengths[-1]) * (1 + e):
            nxt += 2
        lengths.append(nxt)
    return tuple(lengths)


def _triple_bins(r: int, eps: float) -> tuple[int, ...]:
    """Bin lengths for the convex large-k regime: multiples of 3 growing
    like 3/(1-eps)^{i-1}, and at least by the factor (1+eps) the cross-bin
    slope ordering asks for."""
    e = Fraction(eps)
    lengths = [3]
    for i in range(1, r):
        target = max(3.0 / (1.0 - eps) ** i, lengths[-1] * (1.0 + eps))
        nxt = 3 * math.ceil(target / 3.0)
        while Fraction(nxt) < Fraction(lengths[-1]) * (1 + e):
            nxt += 3
        lengths.append(nxt)
    return tuple(lengths)


@dataclass(frozen=True)
class HypercubeSpec:
    """Validated parameters (regime, n, k, r, epsilon, theta) of one member.

    n is the sample size the family is tuned against; it does not affect
    the construction itself, only default parameter choices and the value
    of the resulting bound.  Validation checks the regime's epsilon range,
    the bit vector, and that the r bins fit inside {1, ..., k}; the bin
    layout is frozen into ``bin_lengths``.
    """

    regime: Regime
    n: int
    k: int
    r: int
    epsilon: float
    theta: tuple[int, ...]
    bin_lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise BadParam("n must be >= 1")
        if self.k < 1 or self.r < 1:
            raise BadParam("k and r must be >= 1")
        bits = tuple(int(b) for b in self.theta)
        if len(bits) != self.r or any(b not in (0, 1) for b in bits):
            raise BadParam(f"theta must be a vector of {self.r} bits")
        object.__setattr__(self, "theta", bits)
        eps = float(self.epsilon)
        if self.regime == Regime.MONOTONE_LARGE_K:
            if not 0.0 < eps < 1.0 / math.sqrt(2.0):
                raise InfeasibleSpec("epsilon must lie in (0, 1/sqrt(2))")
            lengths = _even_bins(self.r, eps)
        elif self.regime == Regime.MONOTONE_SMALL_K:
            if not 0.0 < eps < 1.0:
                raise InfeasibleSpec("epsilon must lie in (0, 1)")
            lengths = (2,) * self.r
        elif self.regime == Regime.CONVEX_LARGE_K:
            if not 0.0 < eps <= 0.5:
                raise InfeasibleSpec("epsilon must lie in (0, 1/2]")
            lengths = _triple_bins(self.r, eps)
        elif self.regime == Regime.CONVEX_SMALL_K:
            if not 0.0 < eps <= 0.5:
                raise InfeasibleSpec("epsilon must lie in (0, 1/2]")
            lengths = (3,) * self.r
        else:
            raise BadParam(f"unknown regime {self.regime!r}")
        if sum(lengths) > self.k:
            raise InfeasibleSpec(
                f"bins need {sum(lengths)} atoms but the support has only {self.k}"
            )
        object.__setattr__(self, "bin_lengths", lengths)


def hypercube_bins(spec: HypercubeSpec) -> list[tuple[int, int]]:
    """The perturbation bins as (start, length) pairs with 1-based starts."""
    out, pos = [], 1
    for length in spec.bin_lengths:
        out.append((pos, length))
        pos += length
    return out


def assouad_default_params(regime: Regime, n: int, k: int) -> tuple[int, float]:
    """The tuned (r, epsilon) for a regime at sample size n, support size k.

    Raises OutOfRegime when (n, k) falls outside the regime's validity
    range.  Within each range, epsilon balances per-bin detectability
    against total separation; where a window of admissible r exists, the
    smallest integer in it is returned.
    """
    regime = Regime(regime)
    if n < 1 or k < 1:
        raise BadParam("n and k must be >= 1")
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
    return r, eps


# ---------------------------------------------------------------------------
# monotone regimes: per-region constants, ordering certified exactly
# ---------------------------------------------------------------------------


def _monotone_large(spec: HypercubeSpec) -> np.ndarray:
    r, eps = spec.r, spec.epsilon
    mass = np.zeros(spec.k)
    pos = 0
    for i, length in enumerate(spec.bin_lengths):
        denom = r * length
        if spec.theta[i] == 0:
            half = length // 2
            mass[pos : pos + half] = (1.0 + eps) / denom
            mass[pos + half : pos + length] = (1.0 - eps) / denom
        else:
            mass[pos : pos + length] = 1.0 / denom
        pos += length
    return mass


def _monotone_small(spec: HypercubeSpec) -> np.ndarray:
    r, eps = spec.r, spec.epsilon
    top = (1.0 + eps) / (2.0 * r)  # largest atom value in the family
    step = eps / (2.0 * r * r)
    # every atom value is top - step*j for an integer rung j, so atoms that
    # should coincide across theta get bit-identical floats
    mass = np.zeros(spec.k)
    pos = 0
    for i in range(1, r + 1):
        if spec.theta[i - 1] == 0:
            j1, j2 = 2 * (i - 1), 2 * i
        else:
            j1 = j2 = 2 * i - 1
        mass[pos] = top - step * j1
        mass[pos + 1] = top - step * j2
        pos += 2
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
    """The map scale -> _convex_grid(regime, bin_lengths, k, eps, bits, scale, q).

    Everything that does not depend on the scale (bin sizes, run counts,
    the anchor chain's steps, and the dips in the small-k regime) is
    computed once here, so the bisection in _convex_scale pays only for
    the scale-dependent part.
    """
    r = len(bin_lengths)
    grid = float(2**q)
    ms = np.array(bin_lengths, dtype=np.int64) // 3
    b = np.array(bits, dtype=np.int64)
    # per bin, bit 0 runs [g+2h] x m then [g-h] x 2m, bit 1 [g+h] x 2m then [g-2h] x m
    counts = np.column_stack(((1 + b) * ms, (2 - b) * ms)).ravel()
    in_bins = int(counts.sum())
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

    def at(scale: float) -> np.ndarray:
        if large:
            beta = scale * powers
            delta = eps * (beta[:-1] - beta[1:]) / 3.0
            eta = np.rint(delta * grid / (2.0 * ms)).astype(np.int64)
        else:
            steps[0] = scale
            beta = np.cumsum(steps)[::2]
            eta = small_eta
        want = np.rint((beta[:-1] - beta[1:]) * grid / (3.0 * ms)).astype(np.int64)
        # g_i = max(want_i, g_{i+1} + 2 eta_{i+1} + 2 eta_i), with g_r = 0 and
        # eta_r = 0: g_i = D_i + max_{j >= i} (want_j - D_j), where D_i is
        # the suffix sum of the step terms 2 eta_l + 2 eta_{l+1}, l >= i
        step = 2 * eta
        step[:-1] += 2 * eta[1:]
        suffix = np.zeros(r + 1, dtype=np.int64)
        suffix[:-1] = np.cumsum(step[::-1])[::-1]
        reach = np.append(want, 0) - suffix
        g = (np.maximum.accumulate(reach[::-1])[::-1] + suffix)[:-1]
        decs = np.column_stack((g + (2 - b) * eta, g - (1 + b) * eta)).ravel()
        drops = np.cumsum(np.repeat(decs, counts))
        y = int(np.rint(beta[0] * grid))
        vals = np.zeros(max(k, in_bins), dtype=np.int64)
        vals[0] = y
        vals[1:in_bins] = y - drops[:-1]
        # after the last bin, ramp down by the last decrement while positive
        v = y - int(drops[-1])
        tail_dec = int(g[-1] - 2 * eta[-1])
        room = k - in_bins
        if v > 0 and room > 0:
            t = room if tail_dec <= 0 else min(room, -(-v // tail_dec))
            vals[in_bins : in_bins + t] = v - tail_dec * np.arange(t, dtype=np.int64)
        return vals

    return at


def _convex_grid(
    regime: Regime,
    bin_lengths: tuple[int, ...],
    k: int,
    eps: float,
    bits: tuple[int, ...],
    scale: float,
    q: int,
) -> np.ndarray:
    """Integer atom values (units of 2**-q) for one corner of the hypercube.

    The bins' anchor chain beta_i and dip sizes Delta_i are real-valued at
    the given overall scale; the scale is tuned afterwards so the mass is
    1.  Within bin i the value walks down by a constant integer decrement
    per step: bit 0 uses [g+2h] x m then [g-h] x 2m, bit 1 the mirror
    [g+h] x 2m then [g-2h] x m, where 3m is the bin length, g the per-step
    chord drop and h the quantized dip.  Both variants consume exactly 3mg
    and carry identical integer mass, so bin anchors and the total are
    theta-independent.  The g-chain is built right-to-left with the caps
    that keep the global decrement sequence non-increasing, which is
    exactly discrete convexity.  After the last bin the value keeps ramping
    down by the final decrement until it crosses zero.  Returns an int64
    array of max(k, sum(bin_lengths)) atoms.
    """
    return _grid_at_scale(regime, bin_lengths, k, eps, bits, q)(scale)


@lru_cache(maxsize=64)
def _convex_scale(
    regime: Regime, bin_lengths: tuple[int, ...], k: int, eps: float
) -> tuple[float, int]:
    """Tune the overall scale so total mass is 1; returns (scale, q).

    Mass is theta-independent, so bisecting with the all-zeros corner
    settles every corner.  The grid exponent q keeps the largest integer
    value below 2**51, which keeps the predicate's float arithmetic exact.
    """
    r = len(bin_lengths)
    q = 49 + max(0, int(math.floor(math.log2(r))))
    target = 2**q
    grid_at = _grid_at_scale(regime, bin_lengths, k, eps, (0,) * r, q)

    def mass(scale: float) -> int:
        # exact: at the bracket top the atoms reach about 2**54, so an int64
        # sum over a few hundred of them could wrap
        return sum(grid_at(scale).tolist())

    lo, hi = 0.0, 4.0 / r
    for _ in range(4):
        if mass(hi) >= target:
            break
        hi *= 2.0
    else:
        raise InfeasibleSpec("could not normalize the convex construction")
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mass(mid) > target:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0, q


def assouad_density(spec: HypercubeSpec) -> DiscreteDensity:
    """The hypercube member f_theta as a validated DiscreteDensity.

    The result passes is_non_increasing (all regimes) and additionally
    is_convex_non_increasing (convex regimes) under the exact comparisons
    those predicates use, and sums to 1 within the densities tolerance.
    Atoms after the last bin carry zero mass in the monotone regimes and
    the convexity-preserving ramp in the convex ones.
    """
    if spec.regime == Regime.MONOTONE_LARGE_K:
        mass = _monotone_large(spec)
    elif spec.regime == Regime.MONOTONE_SMALL_K:
        mass = _monotone_small(spec)
    else:
        scale, q = _convex_scale(spec.regime, spec.bin_lengths, spec.k, spec.epsilon)
        ints = _convex_grid(
            spec.regime, spec.bin_lengths, spec.k, spec.epsilon, spec.theta, scale, q
        )
        mass = ints.astype(float) * 2.0**-q
    out = DiscreteDensity(k=spec.k, mass=mass)
    ok = is_convex_non_increasing(out) if spec.regime.is_convex() else is_non_increasing(out)
    if not ok:
        raise InfeasibleSpec("parameters too extreme to realize the shape exactly")
    return out


def assouad_alpha_beta(spec: HypercubeSpec) -> tuple[float, float]:
    """Per-coordinate separation alpha and affinity floor beta for the family.

    alpha lower-bounds the TV distance restricted to one bin between the two
    settings of that bin's bit; beta lower-bounds the Hellinger affinity of
    the full densities across a single bit flip.  Both feed the two-point
    risk bound reported by assouad_lower_bound.
    """
    r, eps = spec.r, spec.epsilon
    if spec.regime == Regime.MONOTONE_LARGE_K:
        return eps / r, 1.0 - eps * eps / (2.0 * r)
    if spec.regime == Regime.MONOTONE_SMALL_K:
        return eps / r**2, 1.0 - eps * eps / (2.0 * r**3 * (1.0 - eps))
    if spec.regime == Regime.CONVEX_LARGE_K:
        return eps * eps / (72.0 * r), 1.0 - eps**4 / (9.0 * r)
    return eps / (6.0 * r**3), 1.0 - eps * eps / (48.0 * r**5)
