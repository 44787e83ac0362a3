"""Distances, minimax rate curves, and combinatorial helpers.

Total variation is the risk throughout the package.  The brute-force
variants exist as oracles: tv_sup_bruteforce reads TV as a sup over events
and enumerates the 2^k subset sums of the atom differences, and
vc_unions_intervals_brute enumerates the 2^d labelings of d ordered points
and counts the intervals each one needs.  Both are exponential on purpose
and refuse inputs past a hard cap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .densities import DiscreteDensity, _check_int, _check_vector, _fsum
from .errors import BadParam, BadParams, DomainMismatch, NegativeMass, TooLarge
from .partition_trees import PiecewiseEstimate

__all__ = [
    "tv",
    "tv_sup_bruteforce",
    "hellinger_affinity",
    "assouad_lower_bound",
    "RateBranch",
    "RateRegime",
    "rate_monotone",
    "rate_convex",
    "vc_unions_intervals_brute",
]

_BRUTE_K_CAP = 20
_VC_ELL_CAP = 4
_VC_M_CAP = 24


def _atoms(obj) -> np.ndarray:
    """The atom values of a DiscreteDensity, a PiecewiseEstimate, or a
    plain vector of numbers, as a 1-D float array."""
    if isinstance(obj, DiscreteDensity):
        return obj.mass
    if isinstance(obj, PiecewiseEstimate):
        return obj.atom_values()
    return _check_vector("atom values", obj)


def _atom_pair(f, g) -> tuple[np.ndarray, np.ndarray]:
    a = _atoms(f)
    b = _atoms(g)
    if a.shape != b.shape:
        raise DomainMismatch(f"domain sizes differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def _finite_pair(f, g) -> tuple[np.ndarray, np.ndarray]:
    a, b = _atom_pair(f, g)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise BadParam("atom values must be finite")
    return a, b


def _in_float_range(d: float) -> float:
    if not math.isfinite(d):
        raise BadParam(f"atom values must be finite, with a distance in the float range; got {d}")
    return d


def tv(f, g) -> float:
    """Total variation distance: half the L1 distance between atom vectors.

    Accepts DiscreteDensity, PiecewiseEstimate, or a plain array of atom
    values; the two domains must have equal size.  A NaN or infinite atom
    value, or a distance past the float range, raises BadParam.  Only the
    result is checked, as every replication calls this, so infinities of
    one sign at the same atom, or an overflowing sum, make numpy warn
    before the refusal.
    """
    a, b = _atom_pair(f, g)
    d = 0.5 * float(np.abs(a - b).sum())
    if not math.isfinite(d):
        raise BadParam(f"atom values must be finite, with a distance in the float range; got {d}")
    return d


def tv_sup_bruteforce(f, g) -> float:
    """sup_A |f(A) - g(A)| over all 2^k subsets of the domain.

    Enumerates the 2^k subset sums of the differences f(x) - g(x) by
    doubling, so each subset is summed in atom order.  Equal to tv(f, g)
    when both arguments are genuine probability vectors; kept as an
    independent oracle for exactly that identity.  Refuses k > 20 and, with
    BadParam, a NaN or infinite atom value or a distance past the float
    range.
    """
    a, b = _finite_pair(f, g)
    k = a.shape[0]
    if k > _BRUTE_K_CAP:
        raise TooLarge(f"2^{k} subsets is past the brute-force cap of 2^{_BRUTE_K_CAP}")
    sums = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in a - b:
            sums = np.concatenate((sums, sums + d))
        return _in_float_range(float(np.abs(sums).max()))


def hellinger_affinity(f, g) -> float:
    """Sum over atoms of sqrt(f(x) g(x)), in [0, 1] for probability vectors.

    Raises BadParam when an atom value is NaN or infinite, or a product of
    two is past the float range, and NegativeMass when an atom of either
    argument is negative."""
    a, b = _finite_pair(f, g)
    if a.min(initial=0.0) < 0 or b.min(initial=0.0) < 0:
        raise NegativeMass("affinity needs non-negative atom values")
    with np.errstate(over="ignore"):
        return _in_float_range(_fsum(np.sqrt(a * b)))


def assouad_lower_bound(r: int, alpha: float, beta: float, n: int) -> float:
    """Two-point minimax risk bound (r alpha / 4)(1 - sqrt(2 n (1 - beta))).

    r is the number of independent coordinates, alpha the per-coordinate
    separation, a lower bound on the per-bin L1 distance (twice the per-bin
    TV), beta the single-flip affinity floor, n the sample size.  Clamped at
    zero: a vacuous bound is reported as 0 rather than negative.
    """
    r = _check_int("r", r, 1, None, BadParams)
    # open question: alpha is a per-bin L1 distance, which can reach 2, so
    # the cap of 1 below may refuse a valid alpha
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha <= 1.0):
        raise BadParams(f"need alpha in (0, 1], got {alpha!r}")
    if not (isinstance(beta, numbers.Real) and 0.0 < beta <= 1.0):
        raise BadParams(f"need beta in (0, 1], got {beta!r}")
    n = _check_int("n", n, 1, None, BadParams)
    try:
        return max(0.0, (r * alpha / 4.0) * (1.0 - math.sqrt(2.0 * n * (1.0 - beta))))
    except OverflowError:
        raise BadParams("r or n is past the float range of the bound") from None


class RateBranch(str, Enum):
    SMALL_K = "small-k"
    MID_K = "mid-k"
    LARGE_K = "large-k"


@dataclass(frozen=True)
class RateRegime:
    """A point on a minimax rate curve: which branch applies and its value."""

    shape_class: str
    n: int
    k: int
    branch: RateBranch
    value: float


def _rate(shape_class: str, n: int, k: int, root: int, log_base: float, mid_exp: float) -> RateRegime:
    n = _check_int("n", n, 1, None, BadParams)
    k = _check_int("k", k, 2, None, BadParams)
    # only the large-k branch reads an n or k past the float range
    try:
        pivot = n ** (1.0 / root)
        if k <= log_base * pivot:
            return RateRegime(shape_class, n, k, RateBranch.SMALL_K, math.sqrt(k / n))
        # upper threshold k >= pivot * base^n, compared in log space: base^n
        # overflows floats long before the comparison stops being meaningful.
        if math.log(k) >= math.log(pivot) + n * math.log(log_base):
            return RateRegime(shape_class, n, k, RateBranch.LARGE_K, 1.0)
        logratio = math.log(k / pivot) / math.log(log_base)
    except OverflowError:
        raise BadParams(f"n or k is past the float range of the {shape_class} rate") from None
    return RateRegime(shape_class, n, k, RateBranch.MID_K, (logratio / n) ** mid_exp)


def rate_monotone(n: int, k: int) -> RateRegime:
    """Minimax TV rate over non-increasing densities, up to constants.

    sqrt(k/n) while k <= 2 n^{1/3}; (log2(k / n^{1/3}) / n)^{1/3} in the wide
    middle band; constant 1 once k >= n^{1/3} 2^n.
    """
    return _rate("monotone", n, k, 3, 2.0, 1.0 / 3.0)


def rate_convex(n: int, k: int) -> RateRegime:
    """Minimax TV rate over convex non-increasing densities, up to constants.

    sqrt(k/n) while k <= 3 n^{1/5}; (log3(k / n^{1/5}) / n)^{2/5} in the
    middle band; constant 1 once k >= n^{1/5} 3^n.
    """
    return _rate("convex", n, k, 5, 3.0, 2.0 / 5.0)


def vc_unions_intervals_brute(ell: int, m: int) -> int:
    """VC dimension of unions of <= ell intervals on a line, by exhaustion.

    d points on a line are shattered when each of their 2^d labelings is
    realized, and only the points' order matters.  A union of ell intervals
    realizes a labeling whose selected points form at most ell runs; a run
    starts at each set bit whose lower neighbour is clear.  Shattering is
    downward closed, so the search stops at the first d with a labeling of
    more runs.  The answer is min(m, 2 ell); the search exists to certify
    that independently.  Capped at ell <= 4, m <= 24.
    """
    ell = _check_int("ell", ell, 1, None, BadParams)
    m = _check_int("m", m, 1, None, BadParams)
    if ell > _VC_ELL_CAP or m > _VC_M_CAP:
        raise TooLarge(f"caps are ell <= {_VC_ELL_CAP}, m <= {_VC_M_CAP}")
    for d in range(1, m + 1):
        if any(bin(p & ~(p << 1)).count("1") > ell for p in range(2**d)):
            return d - 1
    return m
