"""The one integer rule: every size, count, seed and atom index goes
through densities._check_int, and its verdict reaches the caller as a
TreedensError subclass, never as a bare numpy or Python error.  The rule
returns the Python int it validated, and Piece stores the float a real
number rounds to, so a numpy or other numeric type acts as the plain int
or float it equals."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treedens import (
    BadParam,
    BadParams,
    DiscreteDensity,
    DomainMismatch,
    HypercubeSpec,
    InfeasibleSpec,
    OutOfRange,
    Piece,
    PiecewiseEstimate,
    Regime,
    SampleCounts,
    TreedensError,
    assouad_default_params,
    assouad_density,
    assouad_lower_bound,
    build_idealized_binary,
    derive_seed,
    family,
    fit_estimate,
    interval_count,
    make_density,
    mc_risk,
    pad_to_power,
    rate_monotone,
    rate_scaling,
    sample,
    tv,
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


_NUMPY_INTEGERS = sorted({np.dtype(c).type for c in np.typecodes["AllInteger"]}, key=repr)


@given(
    st.one_of(
        st.integers(2**63, 2**200),
        st.integers(-(2**200), -(2**63) - 1),
        st.sampled_from(_NUMPY_INTEGERS).flatmap(
            lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)
        ),
    )
)
def test_rule_returns_the_python_int_it_validated(v):
    r = _check_int("v", v, None, None)
    assert type(r) is int and r == v


@pytest.mark.parametrize(
    "v", [True, False, np.True_, 1.0, np.float64(2.0), np.float32(3.0)], ids=repr
)
def test_rule_still_refuses_bools_and_floats(v):
    with pytest.raises(BadParam, match=f"^v must be an integer, got {re.escape(repr(v))}$"):
        _check_int("v", v, None, None)


def _piece_outputs(v):
    est = PiecewiseEstimate(1, [Piece(1, 1, "constant", v)])
    return est.to_json(), est.to_csv(), tv(est, [1.0])


def _member(regime, n, k, r):
    return lambda eps: assouad_density(HypercubeSpec(regime, n, k, r, eps, (0,) * r)).to_json()


# (case, value, the call it is passed to); each call failed at the parent,
# with a bare error, a NotNormalized or a wrong record
_PLAIN = [
    # a bare OverflowError from the seed mix
    ("derive_seed", np.int64(1), lambda s: derive_seed(s, 0)),
    ("mc_risk seed", np.int64(1), lambda s: mc_risk("greedy-binary", family("uniform", 8), 50, 2, s)),
    (
        "rate_scaling seed",
        np.int64(1),
        lambda s: rate_scaling("greedy-binary", "uniform", [10, 20, 40], 8, 2, s).to_csv(),
    ),
    # "int64 is not JSON serializable" from to_json
    (
        "mc_risk n",
        np.int64(50),
        lambda n: mc_risk("greedy-binary", family("uniform", 8), n, 2, 1).to_json(),
    ),
    ("family k", np.int64(2), lambda k: family("uniform", k).to_json()),
    (
        "fit_estimate k",
        np.int64(4),
        lambda k: fit_estimate("oracle", family("uniform", k), sample(F, 10, 0))[1].to_json(),
    ),
    (
        "estimate domain_k and piece span",
        np.int64(2),
        lambda i: PiecewiseEstimate(i, [Piece(i - 1, i, "constant", 0.5)]).to_json(),
    ),
    # NotNormalized: the member was built in float32 arithmetic
    ("monotone-small-k epsilon", np.float32(0.1), _member(Regime.MONOTONE_SMALL_K, 1000, 64, 4)),
    ("monotone-large-k epsilon", np.float32(0.1), _member(Regime.MONOTONE_LARGE_K, 1000, 400, 3)),
    ("convex-large-k epsilon", np.float32(0.1), _member(Regime.CONVEX_LARGE_K, 1000, 600, 3)),
    # numpy's bare TypeError from rint
    ("convex-large-k Fraction epsilon", Fraction(1, 10), _member(Regime.CONVEX_LARGE_K, 1000, 600, 3)),
    # to_json raised TypeError or wrote true; to_csv wrote Fraction(1, 2) or True
    ("piece value Fraction", Fraction(1, 2), _piece_outputs),
    ("piece value float32", np.float32(0.5), _piece_outputs),
    ("piece value int64", np.int64(1), _piece_outputs),
    ("piece value bool", True, _piece_outputs),
]


@pytest.mark.parametrize("x, call", [c[1:] for c in _PLAIN], ids=[c[0] for c in _PLAIN])
def test_a_number_acts_as_the_plain_int_or_float_it_equals(x, call):
    plain = int(x) if isinstance(x, np.integer) else float(x)
    assert call(x) == call(plain)


def test_a_decimal_piece_value_is_refused():
    # Piece took it, and tv then raised a bare TypeError
    with pytest.raises(BadParam, match="^piece value must be a real number, got Decimal"):
        Piece(1, 1, "constant", Decimal("1"))


_HUGE = 10**400

# (case, call); the last three raised a bare OverflowError, the Piece ones
# were accepted and kept the huge value
_PAST_FLOATS = [
    ("piece slope", lambda: Piece(1, 1, "linear", slope=_HUGE)),
    ("piece value", lambda: Piece(1, 1, "constant", -_HUGE)),
    ("piece intercept ratio", lambda: Piece(1, 1, "linear", intercept=Fraction(_HUGE, 3))),
    ("atom values", lambda: PiecewiseEstimate.from_atom_values(2, [_HUGE, 1])),
    ("density mass", lambda: make_density([_HUGE, 1])),
    ("sample counts", lambda: SampleCounts(2, _HUGE, [_HUGE, 0])),
]


@pytest.mark.parametrize("call", [c[1] for c in _PAST_FLOATS], ids=[c[0] for c in _PAST_FLOATS])
def test_a_number_past_the_float_range_is_a_bad_param(call):
    with pytest.raises(BadParam, match="past the float range|too large to convert to float"):
        call()


@pytest.mark.parametrize("eps", [10**400, -(10**400)], ids=["big", "-big"])
def test_an_epsilon_past_the_float_range_is_out_of_every_regime(eps):
    # float(epsilon) raised a bare OverflowError
    for regime in Regime:
        with pytest.raises(InfeasibleSpec, match="^epsilon must lie in"):
            HypercubeSpec(regime, 100, 10, 1, eps, (0,))


class _Duck:
    """A piece by its attributes only: the CSV row 1,'x' was written for
    it, and its kind "weird" as "constant"."""

    start, length, kind, value, slope, intercept = 1, 1, "weird", "x", 0.0, 0.0


@pytest.mark.parametrize(
    "pieces",
    [5, None, [object()], [(1, 1, "constant", 0.5)], [_Duck()]],
    ids=["int", "None", "object", "tuple", "duck"],
)
def test_an_estimate_takes_only_piece_records(pieces):
    # 5 and None raised a bare TypeError, object() a bare AttributeError,
    # and a duck-typed piece skipped every Piece check
    with pytest.raises(BadParam, match="^pieces must be an iterable of Piece records$"):
        PiecewiseEstimate(1, pieces)


_HUGE = 10**5000  # past Python's 4300-digit int-to-text limit
_HUGE_REFUSALS = [
    (
        "family-k",
        lambda: family("uniform", _HUGE),
        BadParam,
        f"^k must be an integer of at most {_MAX_SIZE}, got <an integer of 5001 digits>$",
    ),
    (
        "negative-seed",
        lambda: derive_seed(0, -_HUGE),
        BadParam,
        "^replication must be >= 0, got -<an integer of 5001 digits>$",
    ),
    (
        "sample-n",
        lambda: SampleCounts(1, _HUGE, [0]),
        BadParam,
        "^counts sum to 0, not n=<an integer of 5001 digits>$",
    ),
    (
        "spec-r",
        lambda: HypercubeSpec(Regime.MONOTONE_SMALL_K, 10, 4, _HUGE, 0.5, (0,)),
        InfeasibleSpec,
        "^bins need <an integer of 5001 digits> atoms but the support has only 4$",
    ),
    (
        "spec-theta",
        lambda: HypercubeSpec(Regime.MONOTONE_SMALL_K, 10, 10**5001, _HUGE, 0.5, (0,)),
        BadParam,
        "^theta must be a vector of <an integer of 5001 digits> bits$",
    ),
]


@pytest.mark.parametrize(
    "call, error, message", [c[1:] for c in _HUGE_REFUSALS], ids=[c[0] for c in _HUGE_REFUSALS]
)
def test_a_refusal_quotes_a_huge_int_by_its_digit_count(call, error, message):
    # each raised a bare ValueError ("Exceeds the limit (4300 digits) for
    # integer string conversion") while writing its message
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: family("uniform", 2**61),
            f"k must be an integer of at most {_MAX_SIZE}, got {2**61}",
        ),
        (lambda: SampleCounts(1, 10**4299, [0]), f"counts sum to 0, not n={10**4299}"),
        (
            lambda: HypercubeSpec(Regime.MONOTONE_SMALL_K, 10, 4, 10**30, 0.5, (0,)),
            f"bins need {2 * 10**30} atoms but the support has only 4",
        ),
    ],
    ids=["family-k", "sample-n", "spec-r"],
)
def test_a_refusal_still_quotes_an_ordinary_int_as_it_is(call, message):
    with pytest.raises(TreedensError) as got:
        call()
    assert str(got.value) == message
