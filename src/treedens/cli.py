"""Command-line front end: reproducible runs of the library operations.

Six subcommands: estimate, simulate, rates, assouad, vc, mde.  Data goes
to stdout (or --out); diagnostics go to stderr.  Exit codes: 0 success,
2 usage error, 1 runtime error.  Same argv and seed give byte-identical
output.

Output formats: --format csv (default) emits the documented fixed columns;
--format json emits the full structured record.  For rates, vc and mde the
CSV view is the record's keys as the header and its values as one row.  For
assouad the CSV view is the density atoms alone and the scalar parameters
live in the JSON view.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .densities import FAMILY_NAMES, _check_int, _json_text, family
from .errors import BadParam, TreedensError
from .hypercubes import (
    HypercubeSpec,
    Regime,
    assouad_alpha_beta,
    assouad_default_params,
    assouad_density,
)
from .mde import CandidateSet, minimum_distance_estimate
from .metrics import assouad_lower_bound, rate_convex, rate_monotone, vc_unions_intervals_brute
from .risk_lab import ESTIMATORS, RiskReport, fit_estimate, mc_risk, rate_scaling
from .sampling import sample

__all__ = ["main", "run"]


def _positive(name):
    def parse(text):
        v = int(text)
        if v < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {text}")
        return v

    return parse


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treedens",
        description="Tree-based estimation of discrete monotone and convex densities.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, command, *, seed_default=None):
        sp.set_defaults(command=command)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="write data here instead of stdout")
        if seed_default is not None:
            sp.add_argument("--seed", type=int, default=seed_default)

    sp = sub.add_parser("estimate", help="fit one estimator to one sample")
    sp.add_argument("--family", choices=FAMILY_NAMES, required=True)
    sp.add_argument("--k", type=_positive("--k"), required=True)
    sp.add_argument("--n", type=_positive("--n"), required=True)
    sp.add_argument("--estimator", choices=tuple(ESTIMATORS), required=True)
    sp.add_argument("--param", type=float, default=None, help="family shape parameter")
    common(sp, _cmd_estimate, seed_default=0)

    sp = sub.add_parser("simulate", help="Monte Carlo risk of an estimator")
    sp.add_argument("--family", choices=FAMILY_NAMES, required=True)
    sp.add_argument("--k", type=_positive("--k"), required=True)
    grid = sp.add_mutually_exclusive_group(required=True)
    grid.add_argument("--n", type=_positive("--n"))
    grid.add_argument("--n-grid", type=_int_list)
    sp.add_argument("--estimator", choices=tuple(ESTIMATORS), required=True)
    sp.add_argument("--reps", type=_positive("--reps"), default=100)
    sp.add_argument("--threads", type=_positive("--threads"), default=1)
    common(sp, _cmd_simulate, seed_default=0)

    sp = sub.add_parser("rates", help="minimax rate branch and value")
    sp.add_argument("--class", dest="shape_class", choices=("monotone", "convex"), required=True)
    sp.add_argument("--n", type=_positive("--n"), required=True)
    sp.add_argument("--k", type=_positive("--k"), required=True)
    common(sp, _cmd_rates)

    sp = sub.add_parser("assouad", help="hypercube lower-bound construction")
    sp.add_argument("--regime", choices=[r.value for r in Regime], required=True)
    sp.add_argument("--n", type=_positive("--n"), required=True)
    sp.add_argument("--k", type=_positive("--k"), required=True)
    sp.add_argument("--r", type=_positive("--r"), default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument(
        "--theta",
        default="zeros",
        help='bit string like 0110, or "zeros"/"ones" expanded to length r',
    )
    common(sp, _cmd_assouad)

    sp = sub.add_parser("vc", help="VC dimension of interval unions, by brute force")
    sp.add_argument("--ell", type=_positive("--ell"), required=True)
    sp.add_argument("--m", type=_positive("--m"), required=True)
    common(sp, _cmd_vc)

    sp = sub.add_parser("mde", help="minimum-distance selection among family candidates")
    sp.add_argument(
        "--candidates",
        required=True,
        help='comma-separated family names, each optionally name:param, e.g. "uniform,trunc-geometric:0.5"',
    )
    sp.add_argument("--family", choices=FAMILY_NAMES, required=True, help="truth to sample from")
    sp.add_argument("--k", type=_positive("--k"), required=True)
    sp.add_argument("--n", type=_positive("--n"), required=True)
    common(sp, _cmd_mde, seed_default=0)
    return p


def _emit(args, result) -> None:
    """Write a command's result, its CSV text or its record as a dict, to
    --out or stdout.  This is the one place a record is encoded."""
    if isinstance(result, dict):
        if args.format == "json":
            text = _json_text(result) + "\n"
        else:
            text = f"{','.join(result)}\n{','.join(map(str, result.values()))}\n"
    else:
        text = result
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_estimate(args) -> str | dict:
    f = family(args.family, args.k, args.param)
    sc = sample(f, args.n, args.seed)
    tree, est = fit_estimate(args.estimator, f, sc)
    if args.format == "csv":
        return est.to_csv()
    return {
        "family": args.family,
        "k": args.k,
        "n": args.n,
        "seed": args.seed,
        "estimator": args.estimator,
        "tree": None if tree is None else json.loads(tree.to_json()),
        "estimate": json.loads(est.to_json()),
        "mass": est.total_mass(),
    }


def _cmd_simulate(args) -> str | dict:
    if args.n_grid is not None:
        result = rate_scaling(
            args.estimator,
            args.family,
            args.n_grid,
            args.k,
            args.reps,
            args.seed,
            threads=args.threads,
        )
        reports = result.reports
    else:
        f = family(args.family, args.k)
        result = mc_risk(
            args.estimator,
            f,
            args.n,
            args.reps,
            args.seed,
            density_name=args.family,
            threads=args.threads,
        )
        reports = [result]
    if args.format == "json":
        return asdict(result)
    lines = [RiskReport.CSV_HEADER]
    lines.extend(r.to_csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def _cmd_rates(args) -> dict:
    fn = rate_monotone if args.shape_class == "monotone" else rate_convex
    reg = fn(args.n, args.k)
    return {
        "class": reg.shape_class,
        "n": reg.n,
        "k": reg.k,
        "branch": reg.branch.value,
        "value": reg.value,
    }


def _parse_theta(text: str, r: int, k: int) -> tuple:
    if text in ("zeros", "ones"):
        _check_int("r", r, 1)
        # every regime's bins are at least 2 atoms wide, so an r > k never
        # fits, and the spec rejects it before it reads these min(r, k) bits
        return (0 if text == "zeros" else 1,) * min(r, k)
    if not text or set(text) - {"0", "1"}:
        raise TreedensError(f'--theta must be bits or "zeros"/"ones", got {text!r}')
    return tuple(int(c) for c in text)


def _cmd_assouad(args) -> str | dict:
    if (args.r is None) != (args.epsilon is None):
        raise TreedensError("--r and --epsilon must be given together or not at all")
    if args.r is None:
        r, eps = assouad_default_params(args.regime, args.n, args.k)
    else:
        r, eps = args.r, args.epsilon
    # the bound reads n as a float: checked in both formats, though CSV skips the bound
    if args.n > sys.float_info.max:
        raise BadParam("n is past the float range of the bound")
    theta = _parse_theta(args.theta, r, args.k)
    spec = HypercubeSpec(args.regime, args.n, args.k, r, eps, theta)
    f = assouad_density(spec)
    if args.format == "csv":
        return f.to_csv()
    alpha, beta = assouad_alpha_beta(spec)
    bound = assouad_lower_bound(r, alpha, beta, args.n)
    return {
        "regime": args.regime,
        "n": args.n,
        "k": args.k,
        "r": r,
        "epsilon": eps,
        "theta": "".join(str(b) for b in theta),
        "alpha": alpha,
        "beta": beta,
        "lower_bound": bound,
        "density": {"k": f.k, "mass": f.mass.tolist()},
    }


def _cmd_vc(args) -> dict:
    return {"ell": args.ell, "m": args.m, "vc": vc_unions_intervals_brute(args.ell, args.m)}


def _parse_candidates(text: str, k: int) -> CandidateSet:
    labels, members = [], []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, _, param = tok.partition(":")
        try:
            value = float(param) if param else None
        except ValueError:
            raise BadParam(f"candidate {tok!r}: parameter is not a number") from None
        members.append(family(name, k, value))
        labels.append(tok)
    return CandidateSet(members, labels)


def _cmd_mde(args) -> dict:
    cs = _parse_candidates(args.candidates, args.k)
    truth = family(args.family, args.k)
    sc = sample(truth, args.n, args.seed)
    idx = minimum_distance_estimate(cs, sc)
    return {
        "selected_index": idx,
        "selected_label": cs.labels[idx],
        "truth": args.family,
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
    }


# parsing leaves the parser unchanged, so one tree serves every call
_PARSER = _build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _emit(args, args.command(args))
    except (TreedensError, OSError) as exc:
        print(f"treedens {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the shape it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"treedens {args.subcommand}: out of memory{detail}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
