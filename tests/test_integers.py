"""The one integer rule: every size, count, seed and atom index goes
through densities._check_int, and its verdict reaches the caller as a
TreedensError subclass, never as a bare numpy or Python error."""

import math

import numpy as np
import pytest

from treedens import (
    BadParam,
    BadParams,
    DiscreteDensity,
    DomainMismatch,
    OutOfRange,
    Piece,
    PiecewiseEstimate,
    Regime,
    SampleCounts,
    assouad_default_params,
    assouad_lower_bound,
    build_idealized_binary,
    derive_seed,
    family,
    interval_count,
    mc_risk,
    pad_to_power,
    rate_monotone,
    rate_scaling,
    sample,
    vc_unions_intervals_brute,
)
from treedens.densities import _MAX_SIZE, _check_int, density_from_json

F = family("uniform", 4)
SC = sample(F, 10, 0)
EST = PiecewiseEstimate.from_atom_values(4, F.mass)


# (case, call, the error it now raises)
_GAPS = [
    # each ended in a bare TypeError or IndexError
    ("sample seed 2.5", lambda: sample(F, 10, 2.5), BadParam),
    ("sample seed None", lambda: sample(F, 10, None), BadParam),
    ("mc_risk seed 1.5", lambda: mc_risk("greedy-binary", F, 10, 2, 1.5), BadParam),
    ("derive_seed 1.5", lambda: derive_seed(1.5, 0), BadParam),
    (
        "rate_scaling seed 1.5",
        lambda: rate_scaling("oracle", "uniform", [1, 2, 3], 4, 2, 1.5),
        BadParam,
    ),
    ("DiscreteDensity k '2'", lambda: DiscreteDensity("2", [0.5, 0.5]), BadParam),
    ("interval_count start 1.5", lambda: interval_count(SC, 1.5, 1), OutOfRange),
    ("density atom 2.5", lambda: F(2.5), DomainMismatch),
    # each was accepted
    ("mc_risk oracle seed 'a'", lambda: mc_risk("oracle", F, 10, 2, "a"), BadParam),
    ("rate_monotone n 1.5", lambda: rate_monotone(1.5, 10), BadParams),
    ("vc ell 1.5", lambda: vc_unions_intervals_brute(1.5, 3), BadParams),
    ("assouad_lower_bound r 1.5", lambda: assouad_lower_bound(1.5, 0.5, 0.5, 1), BadParams),
    (
        "assouad_default_params n 1500.5",
        lambda: assouad_default_params(Regime.MONOTONE_SMALL_K, 1500.5, 4),
        BadParam,
    ),
    ("build_idealized_binary n nan", lambda: build_idealized_binary(F, math.nan), BadParam),
    ("pad_to_power k 2.5", lambda: pad_to_power(2.5, 2), BadParam),
    ("DiscreteDensity k 2.0", lambda: DiscreteDensity(k=2.0, mass=[0.5, 0.5]), BadParam),
    ("Piece start 1.5", lambda: Piece(1.5, 1, "constant"), BadParam),
    ("estimate atom 2.5", lambda: EST(2.5), DomainMismatch),
    ("SampleCounts k 3.0", lambda: SampleCounts(3.0, 3, np.array([1, 1, 1])), BadParam),
    ("estimate domain_k 2.0", lambda: PiecewiseEstimate(2.0, [Piece(1, 2, "constant")]), BadParam),
    ("atom values domain_k 2.0", lambda: PiecewiseEstimate.from_atom_values(2.0, [1, 0]), BadParam),
    ("density JSON k 1.5", lambda: density_from_json('{"k": 1.5, "mass": [1.0]}'), BadParam),
]


@pytest.mark.parametrize("call, error", [g[1:] for g in _GAPS], ids=[g[0] for g in _GAPS])
def test_non_integers_are_rejected_with_a_treedens_error(call, error):
    with pytest.raises(error, match="must be an integer"):
        call()


def test_bools_are_not_integers():
    # sample(f, True, 1) ended in numpy's bare TypeError; the rule refuses
    # every bool, although bool subclasses int
    with pytest.raises(BadParam, match="^n must be an integer of at most"):
        sample(F, True, 1)
    with pytest.raises(BadParam, match="^k must be an integer"):
        family("uniform", True)
    with pytest.raises(DomainMismatch):
        F(True)


@pytest.mark.parametrize(
    "counts", [[True, False], np.array([True, False]), np.array([1, 0], dtype=bool)], ids=repr
)
def test_bool_counts_are_not_integers(counts):
    # a bool array was taken as counts [1, 0]
    with pytest.raises(BadParam, match="counts must be finite integers"):
        SampleCounts(2, 1, counts)


@pytest.mark.parametrize("arity", [2.0, 3.0, True, "2", None, 4, np.float64(2)], ids=repr)
def test_arity_must_be_the_integer_2_or_3(arity):
    # pad_to_power(5, 2.0) returned 8.0
    with pytest.raises(BadParam, match="^arity must be 2 or 3$"):
        pad_to_power(5, arity)


@pytest.mark.parametrize("v", [3, np.int64(3), np.uint8(3)], ids=repr)
def test_python_and_numpy_integers_pass(v):
    _check_int("v", v, 3, 3)
    assert F(v) == 0.25


@pytest.mark.parametrize(
    "v, low, high, message",
    [
        (2.0, 5, 1, "^v must be an integer of at most 1, got 2.0$"),
        ("2", None, None, "^v must be an integer, got '2'$"),
        (9, 5, 1, "^v must be an integer of at most 1, got 9$"),
        (0, 1, 1, "^v must be >= 1, got 0$"),
        (-1, 0, None, "^v must be >= 0, got -1$"),
        (_MAX_SIZE + 1, 0, _MAX_SIZE, f"^v must be an integer of at most {_MAX_SIZE}"),
    ],
)
def test_rule_checks_the_type_then_the_upper_then_the_lower_bound(v, low, high, message):
    with pytest.raises(OutOfRange, match=message):
        _check_int("v", v, low, high, OutOfRange)


def test_open_bounds_accept_any_integer():
    for v in (-(10**400), 0, 10**400):
        _check_int("v", v, None, None)
    _check_int("v", 10**400, 1, None)
