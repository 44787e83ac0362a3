"""The benchmark's workloads: inputs made from the seed, one op each, checks.

Every workload is a closed loop with one caller that repeats a fixed cycle
of ops.  ``op(i)`` returns the key of op i (a string naming all of its
inputs) and a thunk that makes the call; ``digest`` reduces an output to
the string the golden references and the determinism check compare;
``check`` tests the invariants that hold at every seed.  ``tail_percentile``
is the percentile behind ``op_ms_tail``: fixed per workload, as the highest
that had at least ten ops beyond it in every one of the baseline's 30 s
runs, so that a faster program is compared at the same percentile.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

DEFAULT_SEED = 0

TREE_ESTIMATORS = (
    "greedy-binary",
    "greedy-binary+monotonize",
    "greedy-ternary",
    "idealized-binary",
    "idealized-ternary",
)


class RiskWorkload:
    """One op is one ``risk_lab.mc_risk`` call; the cycle is every
    (density, estimator) pair, each with a master seed drawn from the
    workload seed."""

    def __init__(self, td, rng, *, pairs, k, n, reps, threads, tail_percentile):
        self.td, self.k, self.n, self.reps, self.threads = td, k, n, reps, threads
        self.tail_percentile = tail_percentile
        self.densities = {name: td.densities.family(name, k) for _, name in pairs}
        self.ops = [(est, name, rng.getrandbits(32)) for est, name in pairs]
        self.kinds = [f"{est} {name}" for est, name, _ in self.ops]
        self.cycle_len = len(self.ops)
        # the op whose threads=1 rerun must equal its threaded run
        self.recheck = rng.randrange(self.cycle_len) if threads > 1 else None

    def _key(self, est, name, seed, threads):
        return f"mc_risk {est} {name} k={self.k} n={self.n} reps={self.reps} seed={seed} threads={threads}"

    def op(self, i):
        est, name, seed = self.ops[i % self.cycle_len]
        f = self.densities[name]

        def call():
            return self.td.risk_lab.mc_risk(
                est, f, self.n, self.reps, seed, density_name=name, threads=self.threads
            )

        return self._key(est, name, seed, self.threads), call

    @staticmethod
    def out_bytes(report) -> int:
        return 0

    @staticmethod
    def digest(report) -> str:
        return f"{report.mean_tv!r} {report.std_error!r}"

    def check(self, key, report) -> bool:
        return (
            math.isfinite(report.mean_tv)
            and 0.0 <= report.mean_tv <= 1.0 + 1e-12
            and math.isfinite(report.std_error)
            and report.std_error >= 0.0
            and (report.n, report.k, report.replications) == (self.n, self.k, self.reps)
        )

    def post_checks(self, seen: dict) -> list[str]:
        """Rerun one threaded op with threads=1; mc_risk promises equal bits."""
        if self.recheck is None:
            return []
        est, name, seed = self.ops[self.recheck]
        threaded = seen.get(self._key(est, name, seed, self.threads))
        report = self.td.risk_lab.mc_risk(
            est, self.densities[name], self.n, self.reps, seed, density_name=name, threads=1
        )
        if threaded is not None and threaded != self.digest(report):
            return [f"{est} on {name}: threads={self.threads} differs from threads=1"]
        return []


def risk_small(td, seed, tiny=False):
    pairs = [(est, name) for name in ("harmonic-zipf", "trunc-geometric") for est in TREE_ESTIMATORS]
    k, n, reps = (16, 200, 3) if tiny else (64, 1000, 10)
    return RiskWorkload(td, _rng("risk-small", seed), pairs=pairs, k=k, n=n, reps=reps, threads=1,
                        tail_percentile=99.0)


def risk_large(td, seed, tiny=False):
    pairs = [(est, "harmonic-zipf") for est in ("greedy-binary+monotonize", "greedy-ternary")]
    k, n = (1024, 20000) if tiny else (65536, 1_000_000)
    return RiskWorkload(td, _rng("risk-large", seed), pairs=pairs, k=k, n=n, reps=4, threads=2,
                        tail_percentile=75.0)


class CliWorkload:
    """One op is one in-process ``cli.run(argv)`` call with stdout captured.

    The cycle is two ``estimate --format json`` requests, one ``mde``
    request and one ``assouad`` request.  The assouad n grows by one with
    every request, so no (k, n) repeats within a run and each request pays
    the convex normalization that a fresh CLI process would.
    """

    kinds = ["estimate greedy-binary+monotonize", "estimate greedy-ternary", "mde", "assouad"]
    cycle_len = 4
    tail_percentile = 95.0

    def __init__(self, td, rng, *, est_k, est_n, mde_k, mde_n, n_candidates, assouad_k):
        self.td = td
        estimate = ["estimate", "--format", "json", "--k", str(est_k), "--n", str(est_n)]
        ps = sorted(rng.sample(range(8500, 9990), n_candidates))
        self.candidates = [f"trunc-geometric:{p / 10000}" for p in ps]
        self.fixed = [
            estimate + ["--family", "harmonic-zipf", "--estimator", "greedy-binary+monotonize",
                        "--seed", str(rng.getrandbits(32))],
            estimate + ["--family", "trunc-geometric", "--param", "0.999",
                        "--estimator", "greedy-ternary", "--seed", str(rng.getrandbits(32))],
            ["mde", "--candidates", ",".join(self.candidates), "--family", "trunc-geometric",
             "--k", str(mde_k), "--n", str(mde_n), "--seed", str(rng.getrandbits(32))],
        ]
        self.assouad_k = assouad_k
        self.assouad_n = 10_000 + rng.randrange(1_000_000)

    def op(self, i):
        kind = i % self.cycle_len
        if kind < len(self.fixed):
            argv = self.fixed[kind]
        else:
            n = self.assouad_n + i // self.cycle_len
            argv = ["assouad", "--regime", "convex-small-k", "--k", str(self.assouad_k), "--n", str(n)]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.td.cli.run(argv)
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
            return code, out.getvalue()

        return " ".join(argv), call

    @staticmethod
    def out_bytes(output) -> int:
        return len(output[1].encode())

    @staticmethod
    def digest(output) -> str:
        return hashlib.sha256(output[1].encode()).hexdigest()

    def check(self, key, output) -> bool:
        code, text = output
        if code != 0:
            return False
        command = key.split(" ", 1)[0]
        try:
            if command == "estimate":
                return _estimate_ok(json.loads(text))
            if command == "mde":
                row = text.splitlines()[1].split(",")
                idx = int(row[0])
                return 0 <= idx < len(self.candidates) and row[1] == self.candidates[idx]
            f = self.td.density_from_csv(text)
            return f.k == self.assouad_k and self.td.is_convex_non_increasing(f)
        except (ValueError, KeyError, IndexError, self.td.TreedensError):
            return False

    def post_checks(self, seen: dict) -> list[str]:
        return []


def _tiles(intervals, first: int, last: int) -> bool:
    pos = first
    for start, length in intervals:
        if start != pos or length < 1:
            return False
        pos += length
    return pos == last + 1


def _estimate_ok(record) -> bool:
    """Tiling, non-negative values at every piece end, and a finite
    positive mass.  Mass <= 1 holds for piecewise-constant estimates only:
    the line through the outer thirds' averages does not preserve mass."""
    tree, est = record["tree"], record["estimate"]
    k, mass = record["k"], record["mass"]
    ends = []
    for p in est["pieces"]:
        if p["kind"] == "constant":
            ends.append(p["value"])
        else:
            ends += [p["slope"] * x + p["intercept"] for x in (p["start"], p["start"] + p["len"] - 1)]
    constant = all(p["kind"] == "constant" for p in est["pieces"])
    return (
        _tiles([(u["start"], u["len"]) for u in tree["leaves"]], 1, tree["padded_k"])
        and _tiles([(p["start"], p["len"]) for p in est["pieces"]], 1, k)
        and est["domain_k"] == k
        and min(ends) >= 0.0
        and math.isfinite(mass)
        and 0.0 < mass <= (1.0 + 1e-9 if constant else math.inf)
    )


def cli_oneshot(td, seed, tiny=False):
    if tiny:
        sizes = dict(est_k=256, est_n=1000, mde_k=64, mde_n=1000, n_candidates=8, assouad_k=30)
    else:
        sizes = dict(est_k=4096, est_n=10_000, mde_k=1024, mde_n=10_000, n_candidates=40, assouad_k=768)
    return CliWorkload(td, _rng("cli-oneshot", seed), **sizes)


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with sha512, so the inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


WORKLOADS = {"risk-small": risk_small, "risk-large": risk_large, "cli-oneshot": cli_oneshot}
