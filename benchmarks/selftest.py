"""Fast self-test of the benchmark itself.

    python3 benchmarks/selftest.py

1. Every workload at tiny size, untraced and then traced: no op fails, the
   tracer records the spans the workload should reach, and tracing changes
   no output.
2. The first cycle of every workload at full size and the default seed
   matches golden.json.
3. The checks reject wrong outputs.
4. run.py end to end, both modes, tiny: the last line carries exactly the
   metrics BENCHMARK.json names, with the same units.
Exits 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS

#: span names each workload must reach when traced
EXPECTED_SPANS = {
    "risk-small": {"risk_lab.mc_risk", "sampling.sample", "partition_trees.build",
                   "partition_trees.estimate", "partition_trees.monotonize",
                   "partition_trees.atom_values", "metrics.tv", "densities.shape_check"},
    "risk-large": {"risk_lab.mc_risk", "sampling.sample", "partition_trees.build",
                   "partition_trees.monotonize", "metrics.tv"},
    "cli-oneshot": {"cli.run", "risk_lab.fit_estimate", "sampling.sample", "partition_trees.serialize",
                    "densities.family", "mde.candidate_set", "mde.select", "mde.yatracos_class",
                    "hypercubes.spec", "hypercubes.assouad_density", "densities.shape_check"},
}

SEED = 1
CYCLES = 3


def outputs(td, name, tracer=None):
    """Digest per key for CYCLES cycles at tiny size, and the check's verdict."""
    workload = WORKLOADS[name](td, SEED, tiny=True)
    check = run.Checker(workload, {})
    ok = True
    if tracer is not None:
        tracer.install()
    try:
        for i in range(CYCLES * workload.cycle_len):
            key, call = workload.op(i)
            if tracer is not None:
                tracer.op = i
            ok = check(key, call()) and ok
    finally:
        if tracer is not None:
            tracer.uninstall()
    return check.seen, ok and not workload.post_checks(check.seen)


def main() -> int:
    problems = []
    td = run.import_treedens()

    for name in WORKLOADS:
        plain, ok = outputs(td, name)
        if not ok:
            problems.append(f"{name}: output check failed untraced")
        tracer = tracing.Tracer(td)
        traced, ok = outputs(td, name, tracer)
        if not ok:
            problems.append(f"{name}: output check failed traced")
        if traced != plain:
            problems.append(f"{name}: tracing changed an output")
        missing = EXPECTED_SPANS[name] - {span[1] for span in tracer.spans}
        if missing:
            problems.append(f"{name}: no spans for {sorted(missing)}")

    for name, make in WORKLOADS.items():
        workload = make(td, DEFAULT_SEED)
        check = run.Checker(workload, run.load_golden(name, DEFAULT_SEED, False))
        for i in range(workload.cycle_len):
            key, call = workload.op(i)
            check(key, call())
        if check.failures or check.golden_checked != workload.cycle_len:
            problems.append(f"{name}: golden check {check.golden_checked}/{workload.cycle_len}, {check.failures}")

    risk = WORKLOADS["risk-small"](td, SEED, tiny=True)
    key, call = risk.op(0)
    report = call()
    if risk.check(key, report.__class__(**{**report.__dict__, "mean_tv": float("nan")})):
        problems.append("risk check accepts mean_tv = nan")
    if run.Checker(risk, {key: "0.5 0.0"})(key, report):
        problems.append("golden check accepts a wrong digest")
    cli = WORKLOADS["cli-oneshot"](td, SEED, tiny=True)
    for i in range(cli.cycle_len):
        key, call = cli.op(i)
        code, text = call()
        if cli.check(key, (1, text)) or cli.check(key, (0, text[: len(text) // 2])):
            problems.append(f"cli check accepts a failed or cut output: {key.split()[0]}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            argv = [sys.executable, str(Path(run.__file__)), "--workload", name, "--tiny",
                    "--seconds", "0.5", "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                problems.append(f"run.py {name} --trace {trace}: exit {done.returncode}: {done.stderr}")
                continue
            line = json.loads(done.stdout.splitlines()[-1])
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            if got != want or not line["correct"] or line["failed"]:
                problems.append(f"run.py {name} --trace {trace}: metrics {sorted(set(got) ^ set(want))}, "
                                f"correct={line['correct']}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
