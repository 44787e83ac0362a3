"""The paper's minimax sandwich on one family, in tier 1.

On the monotone-large-k hypercube at its default (r, epsilon), the greedy
binary tree estimate, monotonized, must sit between Assouad's lower bound
and the monotone rate, and its risk must fall at the rate's n^{-1/3}.
Every bound below was written down, with its reason, before the test was
first run; none was fitted to the seeds.
"""

import math
import random
import statistics

import numpy as np
import pytest

from treedens import (
    HypercubeSpec,
    Regime,
    assouad_alpha_beta,
    assouad_default_params,
    assouad_density,
    assouad_lower_bound,
    mc_risk,
    rate_monotone,
)

ESTIMATOR = "greedy-binary+monotonize"
N_GRID = (1_000, 10_000, 100_000)
MEMBERS = 4  # theta drawn per n, uniformly from the cube
REPS = 10

# Standard errors the theta-averaged risk may fall short of the bound by.
# Under normality a 4-sigma shortfall has one-sided probability 3e-5.
LOWER_SIGMAS = 4.0
# rate_monotone is the rate up to constants; the check takes the constant
# as 1, so the worst member may not exceed the rate itself.
RATE_CONSTANT = 1.0
# The window runs from halfway to -1/2, the parametric slope sqrt(k/n)
# has at fixed k, to the same distance on the shallow side.
SLOPE_WINDOW = (-5.0 / 12.0, -1.0 / 4.0)


def _k(n: int) -> int:
    # the smallest support past the regime's floor k >= e^8 n^{1/3}
    return math.ceil(math.e**8 * n ** (1.0 / 3.0)) + 1


@pytest.fixture(scope="module")
def grid():
    """Per n: the Assouad bound, the theta-averaged risk and its standard
    error, the worst member's risk, and the rate."""
    rng = random.Random(0)
    rows = []
    for i, n in enumerate(N_GRID):
        k = _k(n)
        r, eps = assouad_default_params(Regime.MONOTONE_LARGE_K, n, k)
        reports = []
        for _ in range(MEMBERS):
            theta = tuple(rng.randrange(2) for _ in range(r))
            spec = HypercubeSpec(Regime.MONOTONE_LARGE_K, n, k, r, eps, theta)
            reports.append(mc_risk(ESTIMATOR, assouad_density(spec), n, REPS, i))
        alpha, beta = assouad_alpha_beta(spec)  # the same for every theta
        means = [rep.mean_tv for rep in reports]
        # The first term is the spread between the theta means, the second
        # the mean of their standard errors, which bounds the error of
        # their average even though the members share replication seeds.
        se = math.hypot(
            statistics.stdev(means) / math.sqrt(MEMBERS),
            statistics.fmean(rep.std_error for rep in reports),
        )
        rows.append({
            "n": n,
            "bound": assouad_lower_bound(r, alpha, beta, n),
            "mean": statistics.fmean(means),
            "se": se,
            "worst": max(means),
            "rate": rate_monotone(n, k).value,
        })
    return rows


def test_the_grid_is_in_the_regime_the_bound_is_tuned_for(grid):
    for row in grid:
        assert rate_monotone(row["n"], _k(row["n"])).branch == "mid-k"
        assert row["bound"] > 0.0  # not vacuous


def test_averaged_risk_is_at_least_the_assouad_bound(grid):
    # Assouad's lemma bounds the risk averaged over theta drawn uniformly
    # from the cube, which the members sample.  alpha is a per-bin L1
    # distance, so the lemma gives an L1 risk of at least
    # (r alpha / 2)(1 - sqrt(2 n (1 - beta))); assouad_lower_bound returns
    # half of that, a bound on the TV risk, which mean_tv measures.
    for row in grid:
        assert row["mean"] - LOWER_SIGMAS * row["se"] >= row["bound"], row


def test_worst_member_risk_is_at_most_the_rate(grid):
    for row in grid:
        assert row["worst"] <= RATE_CONSTANT * row["rate"], row


def test_worst_member_risk_falls_as_n_to_the_minus_one_third(grid):
    # k grows as n^{1/3}, so k / n^{1/3} and the rate's log factor stay
    # fixed, and the rate falls as n^{-1/3}
    slope = np.polyfit(np.log(N_GRID), np.log([row["worst"] for row in grid]), 1)[0]
    assert SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1], slope
