"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload risk-small --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 20

The first form prints progress-free output whose last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones and nothing in treedens is patched; with
--trace 1 they are the per-layer ones, from cycles run with the span
tracer installed, alternating with untraced cycles that give the tracing
overhead.  The second form runs every workload in both modes, each in a
process of its own, and prints every metric by name and unit.

The full result, with the header (versions, nproc, commit, seed, op
counts, tail percentile), goes to .bench_out/ at the repository root.
The benchmark imports treedens from src/ next to this directory and from
nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

#: fresh set-ups per untraced run, spread evenly over the timed seconds
FRESH_SETUPS = 20
#: the percentile of each op kind's latencies (and of cycle times) that
#: stands for its cost on an undisturbed host
LOW_PERCENTILE = 5.0


def import_treedens():
    src = ROOT / "src"
    if not (src / "treedens" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no treedens sources under {src}")
    sys.path.insert(0, str(src))
    import treedens
    import treedens.cli  # not imported by the package itself

    return treedens


def setup(name: str, seed: int, tiny: bool):
    """Import treedens, build the workload's densities and inputs, run op 0.

    Returns (treedens, workload, (key, output) of op 0, seconds taken)."""
    start = time.perf_counter()
    td = import_treedens()
    workload = WORKLOADS[name](td, seed, tiny)
    key, call = workload.op(0)
    output = call()
    return td, workload, (key, output), time.perf_counter() - start


def fresh_setup_seconds(name: str, seed: int, tiny: bool) -> float:
    argv = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(argv + ["--tiny"] * tiny, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Checker:
    """Output checks behind ``failed``: invariants at every seed, the
    golden references at the default seed, and the same output for the
    same key within a run."""

    def __init__(self, workload, golden: dict):
        self.workload = workload
        self.golden = golden
        self.seen: dict[str, str] = {}
        self.golden_checked = 0
        self.failures: list[str] = []

    def __call__(self, key, output) -> bool:
        digest = self.workload.digest(output)
        ok = self.workload.check(key, output)
        ref = self.golden.get(key)
        if ref is not None:
            self.golden_checked += 1
            ok = ok and ref == digest
        ok = ok and self.seen.setdefault(key, digest) == digest
        if not ok:
            self.failures.append(f"output check failed: {key}")
        return ok


def load_golden(name: str, seed: int, tiny: bool) -> dict:
    if seed != DEFAULT_SEED or tiny:
        return {}
    return json.loads(GOLDEN.read_text())["refs"][name]


def timed_loop(workload, check: Checker, seconds: float, out_bytes: dict, tracer=None, between=None):
    """Run whole cycles until `seconds` of cycle time have passed.  In
    traced mode every other cycle runs with the tracer installed, starting
    untraced.  ``between(done)``, if given, runs after each cycle with the
    share of the seconds done so far; its time does not count.

    Returns (cycles, attempted, failed); each cycle is (traced, first op
    id, per-op latencies in ns).  out_bytes gets each op's output size."""
    cycles, attempted, failed, i = [], 0, 0, 0
    started, paused = time.perf_counter(), 0.0
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        first, lat = i, []
        for _ in range(workload.cycle_len):
            key, call = workload.op(i)
            if traced:
                tracer.op = i
                tracer.samples.clear()
            start = time.perf_counter_ns()
            try:
                output = call()
            except Exception as exc:  # a failing op is counted, the run goes on
                lat.append(time.perf_counter_ns() - start)
                check.failures.append(f"{key}: {exc!r}")
                ok = False
            else:
                lat.append(time.perf_counter_ns() - start)
                out_bytes[i] = workload.out_bytes(output)
                ok = check(key, output)
            if traced:
                tracer.op = None
            attempted += 1
            failed += not ok
            i += 1
        if traced:
            tracer.uninstall()
        cycles.append((traced, first, lat))
        done = (time.perf_counter() - started - paused) / seconds
        if done >= 1.0 and (tracer is None or len(cycles) >= 2):
            return cycles, attempted, failed
        if between is not None:
            start = time.perf_counter()
            between(done)
            paused += time.perf_counter() - start


def percentile(values, p: float) -> float:
    """The p-th percentile of values, by nearest rank."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(workload, cycles, attempted, failed, setups):
    """End-to-end metrics from the untraced cycles.

    Every op kind repeats the same work each cycle, so a low percentile of
    a kind's latencies is its cost on an undisturbed host: on a shared
    2-vCPU host, outside load slows interpreter-bound code by 1.3-1.8x in
    phases of seconds to minutes, which moved plain medians by over a third
    between two sets of runs.  op_ms_p50 is the median over kinds of that
    percentile; ops_per_s is the cycle length over the same percentile of
    whole cycles' op time, so costs that land on some ops only still count
    there.  op_ms_tail is the workload's fixed percentile of all ops,
    disturbed ones included.
    """
    per_kind = [[] for _ in range(workload.cycle_len)]
    cycle_ms = []
    for traced, _, lat in cycles:
        if not traced:
            cycle_ms.append(sum(lat) / 1e6)
            for kind, ns in enumerate(lat):
                per_kind[kind].append(ns / 1e6)
    all_ms = [ms for kind in per_kind for ms in kind]
    low = [percentile(kind, LOW_PERCENTILE) for kind in per_kind]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (workload.cycle_len / (percentile(cycle_ms, LOW_PERCENTILE) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(low), "ms"),
        "op_ms_tail": (percentile(all_ms, workload.tail_percentile), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    details = {
        "tail": {"metric": "op_ms_tail", "percentile": workload.tail_percentile, "ops": len(all_ms),
                 "ops_beyond": sum(ms > metrics["op_ms_tail"][0] for ms in all_ms)},
        "kinds": {
            label: {"ops": len(kind), "best_ms": min(kind), "low_ms": lq, "median_ms": statistics.median(kind),
                    "latencies_ms": [round(ms, 4) for ms in kind]}
            for label, kind, lq in zip(workload.kinds, per_kind, low)
        },
        "fail_frac": failed / attempted,
        "op_ms_median_all_ops": statistics.median(all_ms),
        "ops_per_s_whole_run": len(all_ms) / (sum(all_ms) / 1e3),
    }
    return {name: {"value": v, "unit": u, "kind": "measured"} for name, (v, u) in metrics.items()}, details


#: per-layer time metrics: (metric name, span name, "busy" or "self")
LAYER_TIMES = [
    ("sampling.sample.busy_ms", "sampling.sample", "busy"),
    ("partition_trees.build.busy_ms", "partition_trees.build", "busy"),
    ("partition_trees.estimate.busy_ms", "partition_trees.estimate", "busy"),
    ("partition_trees.monotonize.busy_ms", "partition_trees.monotonize", "busy"),
    ("partition_trees.atom_values.busy_ms", "partition_trees.atom_values", "busy"),
    ("partition_trees.serialize.busy_ms", "partition_trees.serialize", "busy"),
    ("metrics.tv.busy_ms", "metrics.tv", "busy"),
    ("densities.family.busy_ms", "densities.family", "busy"),
    ("densities.shape_check.busy_ms", "densities.shape_check", "busy"),
    ("hypercubes.spec.busy_ms", "hypercubes.spec", "busy"),
    ("hypercubes.assouad_density.busy_ms", "hypercubes.assouad_density", "busy"),
    ("mde.candidate_set.busy_ms", "mde.candidate_set", "busy"),
    ("mde.yatracos_class.busy_ms", "mde.yatracos_class", "busy"),
    ("mde.select.self_ms", "mde.select", "self"),
    ("risk_lab.fit_estimate.self_ms", "risk_lab.fit_estimate", "self"),
    ("risk_lab.mc_risk.self_ms", "risk_lab.mc_risk", "self"),
    ("cli.run.self_ms", "cli.run", "self"),
]

#: per-layer counters, exact and repeatable: (metric name, span name, counter)
LAYER_COUNTS = [
    ("sampling.sample.calls", "sampling.sample", "calls"),
    ("sampling.sample.draws", "sampling.sample", "draws"),
    ("sampling.sample.bytes_computed", "sampling.sample", "bytes_computed"),
    ("partition_trees.build.nodes_tested", "partition_trees.build", "nodes_tested"),
    ("partition_trees.build.leaves", "partition_trees.build", "leaves"),
    ("partition_trees.monotonize.blocks_merged", "partition_trees.monotonize", "blocks_merged"),
    ("mde.yatracos_class.pairs", "mde.yatracos_class", "pairs"),
]


def per_layer(tracer, cycles, out_bytes):
    """Per-layer metrics from the traced cycles, per op, and details for
    the result file only."""
    ops = {first + j for traced, first, lat in cycles if traced for j in range(len(lat))}
    n_ops = len(ops)
    summary = tracing.summarize(tracer.spans, ops)

    def total(span, field):
        return summary.get(span, {}).get(field, 0)

    def counted(span, key):
        return summary.get(span, {}).get("counts", {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name, span, field in LAYER_TIMES:
        metrics[name] = (total(span, field + "_ns") / 1e6 / n_ops, "ms/op", "measured")
    for layer in tracing.LAYERS:
        self_ns = sum(e["self_ns"] for s, e in summary.items() if s.split(".")[0] == layer)
        metrics[f"{layer}.self_ms"] = (self_ns / 1e6 / n_ops, "ms/op", "measured")
    for name, span, key in LAYER_COUNTS:
        metrics[name] = (counted(span, key) / n_ops, "B/op" if "bytes" in key else "count/op", "computed")
    metrics["sampling.sample.useful_frac"] = (
        ratio(counted("sampling.sample", "useful_draws"), counted("sampling.sample", "draws")),
        "frac", "computed")
    metrics["mde.yatracos_class.distinct_frac"] = (
        ratio(counted("mde.yatracos_class", "distinct"), counted("mde.yatracos_class", "pairs")),
        "frac", "computed")
    metrics["cli.out_bytes"] = (sum(out_bytes.get(i, 0) for i in ops) / n_ops, "B/op", "computed")
    metrics["risk_lab.mc_risk.cpu_util"] = (
        ratio(counted("risk_lab.mc_risk", "cpu_ns"), total("risk_lab.mc_risk", "busy_ns")),
        "cpu/wall", "measured")
    traced = statistics.median(sum(lat) for t, _, lat in cycles if t)
    untraced = statistics.median(sum(lat) for t, _, lat in cycles if not t)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac", "measured")
    details = {
        "spans": len(tracer.spans),
        "spans_per_op": sum(e["spans"] for e in summary.values()) / n_ops,
        "trace_count_ms_per_op": total("trace.count", "busy_ns") / 1e6 / n_ops,
        "setup_densities_family_ms": tracing.summarize(tracer.spans, {-1})
        .get("densities.family", {}).get("busy_ns", 0) / 1e6,
    }
    return {name: {"value": v, "unit": u, "kind": k} for name, (v, u, k) in metrics.items()}, details


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: set-up, timed loop, checks.  Returns the full result; in
    traced mode the tracer rides along under "tracer"."""
    tracer = None
    if trace:
        tracer = tracing.Tracer(import_treedens())
        tracer.op = -1
        tracer.install()
    td, workload, (key0, out0), own_setup = setup(name, seed, tiny)
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
    setups = [own_setup]

    def fresh_setups(done):
        # the j-th fresh set-up runs after the first cycle past j/(FRESH_SETUPS+1)
        # of the run, so the set-ups sample the host over the whole run
        while len(setups) <= FRESH_SETUPS and done >= len(setups) / (FRESH_SETUPS + 1):
            setups.append(fresh_setup_seconds(name, seed, tiny))

    check = Checker(workload, load_golden(name, seed, tiny))
    warm_failed = not check(key0, out0)
    out_bytes: dict[int, int] = {}
    cycles, attempted, failed = timed_loop(workload, check, seconds, out_bytes, tracer,
                                           None if trace else fresh_setups)
    if not trace:
        fresh_setups(math.inf)
    post = workload.post_checks(check.seen)
    check.failures.extend(post)
    attempted += 1
    failed += warm_failed + len(post)

    if trace:
        metrics, details = per_layer(tracer, cycles, out_bytes)
    else:
        metrics, details = end_to_end(workload, cycles, attempted, failed, setups)
    import numpy

    return {
        "header": {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "tiny": tiny,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "treedens": td.__version__,
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "ops": {"attempted": attempted, "failed": failed, "cycles": len(cycles),
                    "per_kind": dict.fromkeys(workload.kinds, len(cycles))},
            "tail": details.pop("tail", None),
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": check.failures[:20],
        "golden_checked": check.golden_checked,
        "setup_runs_s": setups,
        "cycles": len(cycles),
        "metrics": metrics,
        **details,
        "tracer": tracer,
    }


def save(result: dict) -> Path:
    """Write the result, and in traced mode its spans, under .bench_out/."""
    h = result["header"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{h['workload']}-seed{h['seed']}-trace{h['trace']}{'-tiny' * h['tiny']}"
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl.gz")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    })


def report(seed: int, seconds: float, tiny: bool) -> int:
    """Run every workload in both modes, one process each, and print a table."""
    bad = 0
    print(f"{'workload':<12} {'metric':<42} {'value':>14}  unit")
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)] + ["--tiny"] * tiny
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                bad += 1
                continue
            line = json.loads(done.stdout.splitlines()[-1])
            bad += not line["correct"]
            rows = dict(line["metrics"])
            if not trace:
                rows["fail_frac"] = {"value": line["failed"] / line["attempted"], "unit": "frac"}
            for metric, m in rows.items():
                print(f"{name:<12} {metric:<42} {m['value']:>14.6g}  {m['unit']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return report(args.seed, args.seconds, args.tiny)
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed, args.tiny)[-1]}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    path = save(result)
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    print(f"result: {path.relative_to(ROOT)}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
