"""One malformed argument at a time, over the whole public API.

Every callable treedens exports is called with valid arguments, then
with each argument, positional or keyword, replaced by each value of
MALFORMED while the others stay valid.  Each call must return or raise a
TreedensError, and so must to_json / to_csv / to_csv_row of whatever it
returns.  PiecewiseEstimate.from_atom_values and the __call__ of a
density and of an estimate are swept too.

Not swept, and why:
- greedy_split_decision and greedy_ternary_split_decision: the tree
  builders call them on every node, so their arguments are not checked.
- An estimator, or a density builder, passed as a callable: the
  callable's own errors are the caller's.  A callable value (a density)
  is therefore not offered where a callable is accepted.
- The exception classes, the two enums (Regime and RateBranch are looked
  up by the interpreter's Enum; every function taking a regime reads it
  through its own check), and the result containers RiskReport,
  RateScalingResult, RateRegime and TreeNode, which the package fills
  and which check nothing.

No value makes an accepted call allocate more than a few MB or start more
than three threads: every size past _MAX_SIZE is refused before numpy
sees it, and the largest size the list offers is np.int64(3).
"""

import inspect
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import treedens
from treedens import (
    CandidateSet,
    DiscreteDensity,
    HypercubeSpec,
    PartitionTree,
    Piece,
    PiecewiseEstimate,
    Regime,
    SampleCounts,
    TreedensError,
    build_greedy_binary,
    build_greedy_ternary,
    family,
    histogram_estimate,
    sample,
)

_F = family("harmonic-zipf", 4)
_SC = sample(_F, 20, 0)
_T2 = build_greedy_binary(_SC)
_T3 = build_greedy_ternary(_SC)
_EST = histogram_estimate(_T2, _SC)
_SPEC = HypercubeSpec(Regime.MONOTONE_SMALL_K, 100, 4, 2, 0.5, (0, 1))
_CS = CandidateSet([_F, family("uniform", 4)], ["a", "b"])

MALFORMED = [
    None,
    -1,
    0,
    2.5,
    True,
    "x",
    b"x",
    10**30,
    10**400,
    math.nan,
    math.inf,
    [],
    [1, 2],
    (None,),
    {"a": 1},
    np.int64(3),
    np.float64(2.0),
    Fraction(10**400, 3),
    Decimal("0.5"),
    object(),
    np.zeros((2, 2)),
    family("uniform", 3),
    sample(family("uniform", 3), 5, 1),
]

# name -> (callable, valid positional arguments, valid keyword arguments,
# names of the arguments that take a callable)
API = {
    "CandidateSet": (CandidateSet, ([_F, [0.25] * 4], ["a", "b"]), {}, ()),
    "DiscreteDensity": (DiscreteDensity, (2, [0.5, 0.5]), {}, ()),
    "HypercubeSpec": (HypercubeSpec, (Regime.MONOTONE_SMALL_K, 100, 4, 2, 0.5, (0, 1)), {}, ()),
    "PartitionTree": (PartitionTree, (2, 4, ((1, 2), (3, 1), (4, 1))), {}, ()),
    "Piece": (Piece, (1, 2, "linear"), {"value": 0.5, "slope": -0.1, "intercept": 0.6}, ()),
    "PiecewiseEstimate": (PiecewiseEstimate, (2, [Piece(1, 2, "constant", 0.5)]), {}, ()),
    "SampleCounts": (SampleCounts, (3, 5, [2, 2, 1]), {}, ()),
    "assouad_alpha_beta": (treedens.assouad_alpha_beta, (_SPEC,), {}, ()),
    "assouad_default_params": (
        treedens.assouad_default_params,
        (Regime.MONOTONE_SMALL_K, 1000, 20),
        {},
        (),
    ),
    "assouad_density": (treedens.assouad_density, (_SPEC,), {}, ()),
    "assouad_lower_bound": (treedens.assouad_lower_bound, (4, 0.1, 0.9, 100), {}, ()),
    "build_greedy_binary": (treedens.build_greedy_binary, (_SC,), {}, ()),
    "build_greedy_ternary": (treedens.build_greedy_ternary, (_SC,), {}, ()),
    "build_idealized_binary": (treedens.build_idealized_binary, (_F, 100), {}, ()),
    "build_idealized_ternary": (
        treedens.build_idealized_ternary,
        (family("linear-decreasing", 4), 100),
        {},
        (),
    ),
    "default_sup_family": (treedens.default_sup_family, (4, 100), {}, ()),
    "density_from_csv": (treedens.density_from_csv, ("index,mass\n1,0.5\n2,0.5\n",), {}, ()),
    "density_from_json": (treedens.density_from_json, ('{"k": 2, "mass": [0.5, 0.5]}',), {}, ()),
    "derive_seed": (treedens.derive_seed, (7, 2), {}, ()),
    "empirical_sup_deviation": (treedens.empirical_sup_deviation, (_SC, _F, [[1, 2]]), {}, ()),
    "estimator_names": (treedens.estimator_names, (), {}, ()),
    "family": (treedens.family, ("trunc-geometric", 4), {"param": 0.5}, ()),
    "fit_estimate": (treedens.fit_estimate, ("greedy-ternary", _F, _SC), {}, ()),
    "greedy_pl_estimate": (treedens.greedy_pl_estimate, (_T3, _SC), {"renormalize": True}, ()),
    "hellinger_affinity": (treedens.hellinger_affinity, (_F, _EST), {}, ()),
    "histogram_estimate": (treedens.histogram_estimate, (_T2, _SC), {"renormalize": True}, ()),
    "hypercube_bins": (treedens.hypercube_bins, (_SPEC,), {}, ()),
    "idealized_pc_estimate": (
        treedens.idealized_pc_estimate,
        (_T2, _F),
        {"renormalize": True},
        (),
    ),
    "idealized_pl_estimate": (
        treedens.idealized_pl_estimate,
        (_T3, _F),
        {"renormalize": True},
        (),
    ),
    "interval_count": (treedens.interval_count, (_SC, 2, 2), {}, ()),
    "is_convex_non_increasing": (treedens.is_convex_non_increasing, (_F,), {}, ()),
    "is_non_increasing": (treedens.is_non_increasing, (_F,), {}, ()),
    "make_density": (treedens.make_density, ([0.25] * 4,), {}, ()),
    "mc_risk": (
        treedens.mc_risk,
        ("greedy-binary", _F, 20, 2, 0),
        {"density_name": "f", "threads": 2},
        ("estimator",),
    ),
    "minimum_distance_estimate": (treedens.minimum_distance_estimate, (_CS, _SC), {}, ()),
    "monotonize": (treedens.monotonize, (_EST,), {}, ()),
    "pad_to_power": (treedens.pad_to_power, (5, 3), {}, ()),
    "rate_convex": (treedens.rate_convex, (1000, 20), {}, ()),
    "rate_monotone": (treedens.rate_monotone, (1000, 20), {}, ()),
    "rate_scaling": (
        treedens.rate_scaling,
        ("greedy-binary", "uniform", [10, 20, 40], 4, 1, 0),
        {"threads": 1},
        ("estimator", "density_builder"),
    ),
    "sample": (treedens.sample, (_F, 10, 3), {}, ()),
    "subsets_to_masks": (treedens.subsets_to_masks, ([[1, 3], [True, False, False]], 3), {}, ()),
    "sup_risk": (
        treedens.sup_risk,
        ("greedy-binary", [_F, ("u", family("uniform", 4))], 20, 1, 0),
        {"threads": 1},
        ("estimator",),
    ),
    "tv": (treedens.tv, (_F, _EST), {}, ()),
    "tv_sup_bruteforce": (treedens.tv_sup_bruteforce, (_F, [0.25] * 4), {}, ()),
    "vc_unions_intervals_brute": (treedens.vc_unions_intervals_brute, (2, 6), {}, ()),
    "yatracos_class": (treedens.yatracos_class, (_CS,), {}, ()),
    "PiecewiseEstimate.from_atom_values": (
        PiecewiseEstimate.from_atom_values,
        (3, [0.5, 0.25, 0.25]),
        {},
        (),
    ),
    "DiscreteDensity.__call__": (_F.__call__, (2,), {}, ()),
    "PiecewiseEstimate.__call__": (_EST.__call__, (2,), {}, ()),
}

NOT_SWEPT = {
    "greedy_split_decision",
    "greedy_ternary_split_decision",
    "Regime",
    "RateBranch",
    "RiskReport",
    "RateScalingResult",
    "RateRegime",
    "TreeNode",
}


def _exported_callables() -> set:
    """The names of every callable treedens exports, its exceptions aside."""
    out = set()
    for name in dir(treedens):
        obj = getattr(treedens, name)
        if name.startswith("_") or not callable(obj):
            continue
        if not (isinstance(obj, type) and issubclass(obj, Exception)):
            out.add(name)
    return out


def test_the_sweep_covers_every_exported_callable():
    swept = {name for name in API if "." not in name}
    assert swept | NOT_SWEPT == _exported_callables()
    assert not swept & NOT_SWEPT


def _write(result) -> None:
    """Every writer of result, and of each item when result is a tuple
    or list."""
    for obj in (result, *(result if isinstance(result, (tuple, list)) else ())):
        for writer in ("to_json", "to_csv", "to_csv_row"):
            if hasattr(obj, writer):
                getattr(obj, writer)()


# (callable name, the argument replaced: a position, a keyword, or None
# for the valid call itself)
_CASES = [
    (name, key)
    for name, (_, args, kwargs, _) in API.items()
    for key in (None, *range(len(args)), *kwargs)
]


@pytest.mark.parametrize("name, key", _CASES, ids=[f"{n}-{k}" for n, k in _CASES])
def test_a_malformed_argument_returns_or_raises_a_treedens_error(name, key):
    fn, args, kwargs, takes_callable = API[name]
    if key is None:
        _write(fn(*args, **kwargs))
        return
    slot = key if isinstance(key, str) else list(inspect.signature(fn).parameters)[key]
    for value in MALFORMED:
        if slot in takes_callable and callable(value):
            continue
        call_args, call_kwargs = list(args), dict(kwargs)
        if isinstance(key, str):
            call_kwargs[key] = value
        else:
            call_args[key] = value
        try:
            _write(fn(*call_args, **call_kwargs))
        except TreedensError:
            pass
        except Exception as exc:
            pytest.fail(f"{name} with {slot} = {value!r}: {type(exc).__name__}: {exc}")
