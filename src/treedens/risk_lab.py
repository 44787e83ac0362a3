"""Seeded Monte Carlo risk estimation and rate-scaling experiments.

One table, ESTIMATORS, defines every named estimator.  Each entry is the
per-replication callable (truth, sample) -> atom values, and it carries
its fit (truth, sample size, sample) -> (tree, estimate), where the
tree-free fits give (None, atom values), as _fit, and as _count_free
whether that fit reads only the truth and the sample size.
fit_estimate, mc_risk and the CLI's --estimator choices all read it.
mc_risk averages TV(estimate, truth) over independently seeded
replications and is bit-deterministic for a fixed master seed no matter
how many worker threads run them; a count-free estimator is fit once and
draws no samples.  Its worker threads come from one pool kept for the
life of the process (see _worker_pool).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from math import fsum

import numpy as np

from .densities import FAMILY_NAMES, DiscreteDensity, _check_int, _json_text, family
from .errors import (
    BadParam,
    DegenerateGrid,
    DomainMismatch,
    EmptyFamily,
    InfeasibleSpec,
    OutOfRegime,
    UnknownEstimator,
)
from .hypercubes import HypercubeSpec, Regime, assouad_default_params, assouad_density
from .metrics import tv
from .partition_trees import (
    PiecewiseEstimate,
    build_greedy_binary,
    build_greedy_ternary,
    build_idealized_binary,
    build_idealized_ternary,
    greedy_pl_estimate,
    histogram_estimate,
    idealized_pc_estimate,
    idealized_pl_estimate,
    monotonize,
)
from .sampling import SampleCounts, derive_seed, sample

__all__ = [
    "ESTIMATORS",
    "estimator_names",
    "fit_estimate",
    "RiskReport",
    "mc_risk",
    "sup_risk",
    "default_sup_family",
    "RateScalingResult",
    "rate_scaling",
]


def _greedy_binary(f: DiscreteDensity, n: int, sc: SampleCounts):
    t = build_greedy_binary(sc)
    return t, histogram_estimate(t, sc)


def _greedy_monotone(f: DiscreteDensity, n: int, sc: SampleCounts):
    t = build_greedy_binary(sc)
    return t, monotonize(histogram_estimate(t, sc))


def _greedy_ternary(f: DiscreteDensity, n: int, sc: SampleCounts):
    t = build_greedy_ternary(sc)
    return t, greedy_pl_estimate(t, sc)


def _idealized_binary(f: DiscreteDensity, n: int, sc: SampleCounts | None):
    t = build_idealized_binary(f, n)
    return t, idealized_pc_estimate(t, f)


def _idealized_ternary(f: DiscreteDensity, n: int, sc: SampleCounts | None):
    t = build_idealized_ternary(f, n)
    return t, idealized_pl_estimate(t, f)


def _atom_values(fitted) -> np.ndarray:
    tree, estimate = fitted
    return estimate if tree is None else estimate.atom_values()


def _estimator(name: str, fit, count_free: bool):
    """The registry callable (truth, sample) -> atom values of one fit,
    carrying the fit as _fit and its count-free flag as _count_free."""

    def values(f: DiscreteDensity, sc: SampleCounts) -> np.ndarray:
        return _atom_values(fit(f, sc.n, sc))

    values.__name__, values._fit, values._count_free = name, fit, count_free
    return values


# name, fit, count_free; mc_risk hands a count-free fit no sample
ESTIMATORS = {
    name: _estimator(name, fit, count_free)
    for name, fit, count_free in (
        ("oracle", lambda f, n, sc: (None, f.mass), True),
        ("empirical-histogram", lambda f, n, sc: (None, sc.frequencies()), False),
        ("greedy-binary", _greedy_binary, False),
        ("greedy-binary+monotonize", _greedy_monotone, False),
        ("greedy-ternary", _greedy_ternary, False),
        ("idealized-binary", _idealized_binary, True),
        ("idealized-ternary", _idealized_ternary, True),
    )
}


def estimator_names() -> list[str]:
    return list(ESTIMATORS)


def _entry(name):
    try:
        return ESTIMATORS[name]
    except (KeyError, TypeError):
        raise UnknownEstimator(
            f"unknown estimator {name!r}; known: {', '.join(ESTIMATORS)}"
        ) from None


def fit_estimate(name: str, f: DiscreteDensity, sc: SampleCounts):
    """Full artifacts for one named estimator on one sample.

    Returns (tree, estimate): the partition tree (None for the two
    tree-free estimators) and the PiecewiseEstimate.  ESTIMATORS[name] is
    the throwaway per-replication view of the same fit; this is the
    inspectable one the CLI serializes.
    """
    fit = _entry(name)._fit
    if not isinstance(f, DiscreteDensity) or not isinstance(sc, SampleCounts):
        raise BadParam("fit_estimate needs a DiscreteDensity truth and a SampleCounts sample")
    if sc.k != f.k:
        raise DomainMismatch(f"the sample is over 1..{sc.k}, the truth over 1..{f.k}")
    tree, estimate = fit(f, sc.n, sc)
    if tree is None:
        estimate = PiecewiseEstimate.from_atom_values(f.k, estimate)
    return tree, estimate


def _resolve(estimator) -> tuple:
    """(report name, per-replication callable, fit to run once or None).

    Only an ESTIMATORS entry, given by name or itself, hands back its _fit,
    and only when it is count-free; any other callable runs per
    replication, a functools.wraps copy of an entry included.
    """
    fn = estimator if callable(estimator) else _entry(estimator)
    name = getattr(fn, "__name__", "custom")
    count_free = ESTIMATORS.get(name) is fn and fn._count_free
    return str(name), fn, fn._fit if count_free else None


@functools.cache
def _worker_pool(pid: int) -> ThreadPoolExecutor:
    """The executor of every threaded mc_risk call in process pid, kept
    between calls; call it as _worker_pool(os.getpid()).

    Fresh threads for every call would make glibc give some of them new
    malloc arenas, ~9 MB each, so peak memory would vary from run to run
    of the same calls; kept threads keep their arenas.  A call submits at
    most `threads` tasks, so the cap never binds.  A forked child asks
    with its own pid and so makes its own pool.
    """
    return ThreadPoolExecutor(max_workers=sys.maxsize, thread_name_prefix="mc_risk")


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo estimate of expected TV error with replication metadata."""

    estimator_name: str
    density_name: str
    n: int
    k: int
    replications: int
    mean_tv: float
    std_error: float
    master_seed: int

    def to_json(self) -> str:
        return _json_text(asdict(self))

    CSV_HEADER = "n,k,mean_tv,std_error,reps,seed"

    def to_csv_row(self) -> str:
        return (
            f"{self.n},{self.k},{self.mean_tv!r},{self.std_error!r},"
            f"{self.replications},{self.master_seed}"
        )


def mc_risk(
    estimator,
    f: DiscreteDensity,
    n: int,
    reps: int,
    master_seed: int,
    *,
    density_name: str = "density",
    threads: int = 1,
) -> RiskReport:
    """Mean and standard error of TV(estimate, f) over seeded replications.

    Replication i draws its sample with derive_seed(master_seed, i), so the
    replication set is fixed by master_seed alone.  With threads > 1, worker
    w of min(threads, reps) runs replications w, w + threads, ...; results
    land in a slot per replication and are summed in index order afterward,
    which keeps mean_tv bit-identical across thread counts and scheduling
    orders.  Every worker is done before the call returns or raises.
    The registry's count-free estimators (oracle and the idealized ones)
    are fit once and their loss is repeated reps times, with no sample
    drawn; a custom callable always runs per replication.
    """
    name, fn, fit = _resolve(estimator)
    _check_int("reps", reps, 1)
    _check_int("threads", threads, 1)
    _check_int("n", n, 0, None)
    _check_int("master_seed", master_seed, None, None)
    if not isinstance(f, DiscreteDensity):
        raise BadParam(f"the truth must be a DiscreteDensity, got {type(f).__name__}")

    if fit is not None:
        losses = [tv(f.mass, _atom_values(fit(f, n, None)))] * reps
    else:
        losses = [0.0] * reps

        def stride(first: int) -> None:
            # no local keeps a sample alive while the next one is drawn
            for i in range(first, reps, threads):
                losses[i] = tv(f.mass, fn(f, sample(f, n, derive_seed(master_seed, i))))

        if threads == 1:
            stride(0)
        else:
            pool = _worker_pool(os.getpid())
            done = [pool.submit(stride, w) for w in range(min(threads, reps))]
            wait(done)
            for fut in done:
                fut.result()

    mean = fsum(losses) / reps
    if reps == 1:
        se = 0.0
    else:
        var = fsum((x - mean) ** 2 for x in losses) / (reps - 1)
        se = math.sqrt(var / reps)
    return RiskReport(
        estimator_name=name,
        density_name=density_name,
        n=n,
        k=f.k,
        replications=reps,
        mean_tv=mean,
        std_error=se,
        master_seed=master_seed,
    )


def _named_members(family_list) -> list[tuple[str, DiscreteDensity]]:
    try:
        members = list(family_list)
    except TypeError:
        name = type(family_list).__name__
        raise BadParam(f"the family must be an iterable of densities, got {name}") from None
    out = []
    for i, member in enumerate(members):
        if isinstance(member, DiscreteDensity):
            member = (f"member-{i}", member)
        try:
            label, f = member
        except (TypeError, ValueError):
            f = None
        if not isinstance(f, DiscreteDensity):
            raise BadParam(f"family member {i} is neither a density nor a (label, density) pair")
        out.append((str(label), f))
    return out


def sup_risk(estimator, family_list, n: int, reps: int, seed: int, *, threads: int = 1) -> RiskReport:
    """Worst-case mc_risk over a finite family of densities.

    family_list holds DiscreteDensity values or (name, density) pairs.
    Returns the report of the member with the largest mean_tv; on an exact
    tie the earliest member wins.  All members share the master seed, so
    the comparison is paired.
    """
    members = _named_members(family_list)
    if not members:
        raise EmptyFamily("sup over an empty family")
    best = None
    for label, f in members:
        rep = mc_risk(
            estimator, f, n, reps, seed, density_name=label, threads=threads
        )
        if best is None or rep.mean_tv > best.mean_tv:
            best = rep
    return best


def default_sup_family(k: int, n: int) -> list[tuple[str, DiscreteDensity]]:
    """The documented finite stand-in for the full non-increasing class.

    Four named shapes plus, when the parameters are in range, the two
    extreme corners of the small-k hypercube family, which are near worst
    case for this problem.
    """
    out = [(name, family(name, k)) for name in FAMILY_NAMES]
    try:
        r, eps = assouad_default_params(Regime.MONOTONE_SMALL_K, n, k)
        for label, bit in (("assouad-zeros", 0), ("assouad-ones", 1)):
            spec = HypercubeSpec(Regime.MONOTONE_SMALL_K, n, k, r, eps, (bit,) * r)
            out.append((label, assouad_density(spec)))
    except (OutOfRegime, InfeasibleSpec):
        pass  # out of regime or degenerate at this (n, k); the named four stand
    return out


@dataclass(frozen=True)
class RateScalingResult:
    """Risk curve over an n grid with its fitted log-log slope.

    slope_valid is False (and slope NaN) when any mean_tv on the grid is
    nonpositive, as happens for the oracle estimator.
    """

    reports: tuple
    slope: float
    slope_valid: bool

    def to_csv(self) -> str:
        lines = ["n,mean_tv,std_error"]
        for r in self.reports:
            lines.append(f"{r.n},{r.mean_tv!r},{r.std_error!r}")
        return "\n".join(lines) + "\n"


def _grid_point(v) -> int:
    """v as an int when it is an integer other than a bool, or an integral float."""
    if not isinstance(v, bool) and (
        isinstance(v, numbers.Integral) or (isinstance(v, numbers.Real) and float(v).is_integer())
    ):
        return int(v)
    raise BadParam(f"grid points must be integers, got {v!r}")


def rate_scaling(
    estimator,
    density_builder,
    n_grid,
    k: int,
    reps: int,
    seed: int,
    *,
    threads: int = 1,
) -> RateScalingResult:
    """Run mc_risk along an n grid and fit log(mean_tv) against log(n).

    density_builder is a family name or a callable k -> DiscreteDensity.
    The grid must be at least 3 strictly increasing integers; integral
    floats count as the ints they equal.  Each grid point gets its own
    derived master seed, so growing the grid does not reshuffle earlier
    points.
    """
    _check_int("seed", seed, None, None)
    n_grid = [_grid_point(v) for v in n_grid]
    if len(n_grid) < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DegenerateGrid(
            f"need a strictly increasing grid of >= 3 points, got {n_grid}"
        )
    if isinstance(density_builder, str):
        fam_name = density_builder
        f = family(fam_name, k)
    elif not callable(density_builder):
        raise BadParam(f"density_builder must be a name or a callable, got {density_builder!r}")
    else:
        f = density_builder(k)
        fam_name = getattr(density_builder, "__name__", "custom")
    reports = []
    for i, n in enumerate(n_grid):
        reports.append(
            mc_risk(
                estimator,
                f,
                n,
                reps,
                derive_seed(seed, i),
                density_name=fam_name,
                threads=threads,
            )
        )
    means = [r.mean_tv for r in reports]
    if min(means) <= 0.0:
        return RateScalingResult(tuple(reports), float("nan"), False)
    slope = float(
        np.polyfit(np.log([float(n) for n in n_grid]), np.log(means), 1)[0]
    )
    return RateScalingResult(tuple(reports), slope, True)
