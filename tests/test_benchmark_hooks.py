"""The benchmark's tracer still sees every layer of the replication path.

benchmarks/tracing.py wraps entry points at the names their callers look
them up by (risk_lab.histogram_estimate, PiecewiseEstimate.atom_values,
...).  A refactor that stops calling one of those names would leave its
layer silently empty in traced runs; this test catches that in tier 1.
The tracer is compiled from its source and never imported, so nothing is
written under benchmarks/.
"""

import json
import types
from pathlib import Path

import treedens
import treedens.cli  # noqa: F401  (the tracer wraps names in cli too)
from treedens import (
    build_greedy_binary,
    derive_seed,
    family,
    histogram_estimate,
    monotonize,
    sample,
)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

GREEDY = ("greedy-binary", "greedy-binary+monotonize", "greedy-ternary")
IDEALIZED = ("idealized-binary", "idealized-ternary")
K, N, REPS, SEED = 64, 300, 3, 17


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("benchmark_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_sees_each_layer_of_a_greedy_replication():
    f = family("harmonic-zipf", K)
    plain = {est: treedens.risk_lab.mc_risk(est, f, N, REPS, SEED) for est in GREEDY}
    tracer = load_tracing().Tracer(treedens)
    tracer.install()
    try:
        traced = {}
        for op, est in enumerate(GREEDY):
            tracer.op = op
            traced[est] = treedens.risk_lab.mc_risk(est, f, N, REPS, SEED)
    finally:
        tracer.uninstall()
    assert traced == plain

    calls = {}
    merged = 0
    for _, name, _, _, _, op, counts in tracer.spans:
        calls[name, op] = calls.get((name, op), 0) + 1
        if name == "partition_trees.monotonize":
            merged += counts["blocks_merged"]
    for op, est in enumerate(GREEDY):
        assert calls["risk_lab.mc_risk", op] == 1
        for layer in ("sampling.sample", "partition_trees.build", "partition_trees.estimate",
                      "partition_trees.atom_values", "metrics.tv"):
            assert calls.get((layer, op)) == REPS, (est, layer)
        pooled = calls.get(("partition_trees.monotonize", op))
        assert pooled == (REPS if est == "greedy-binary+monotonize" else None), est

    want = 0
    for i in range(REPS):
        sc = sample(f, N, derive_seed(SEED, i))
        hist = histogram_estimate(build_greedy_binary(sc), sc)
        want += len(hist.pieces) - len(monotonize(hist).pieces)
    assert merged == want


def test_tracer_sees_the_fit_once_path_and_a_cli_estimate(capsys):
    f = family("harmonic-zipf", K)
    argv = ["estimate", "--family", "harmonic-zipf", "--k", str(K), "--n", str(N),
            "--estimator", "greedy-binary", "--seed", str(SEED), "--format", "json"]
    tracer = load_tracing().Tracer(treedens)
    tracer.install()
    try:
        for op, est in enumerate(IDEALIZED):
            tracer.op = op
            treedens.risk_lab.mc_risk(est, f, N, REPS, SEED)
        cli_op = tracer.op = len(IDEALIZED)
        assert treedens.cli.run(argv) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["estimator"] == "greedy-binary"

    calls = {}
    for _, name, _, _, _, op, _ in tracer.spans:
        calls[name, op] = calls.get((name, op), 0) + 1
    for op, est in enumerate(IDEALIZED):
        # count-free: fit once per op, and no sample drawn
        for layer in ("partition_trees.build", "partition_trees.estimate"):
            assert calls.get((layer, op)) == 1, (est, layer)
        assert ("sampling.sample", op) not in calls, est
    for layer in ("risk_lab.fit_estimate", "partition_trees.build", "partition_trees.estimate"):
        assert calls.get((layer, cli_op)) == 1, layer
    # the JSON record embeds PartitionTree.to_json and PiecewiseEstimate.to_json,
    # one serialize span each; benchmarks/selftest.py needs the layer on cli-oneshot
    assert calls.get(("partition_trees.serialize", cli_op)) == 2


def test_tracer_sees_an_mde_and_an_assouad_request(capsys):
    candidates = ",".join(f"trunc-geometric:{p}" for p in (0.85, 0.9, 0.95, 0.99))
    requests = [
        ["mde", "--candidates", candidates, "--family", "trunc-geometric",
         "--k", str(K), "--n", str(N), "--seed", str(SEED)],
        ["assouad", "--regime", "convex-small-k", "--k", "30", "--n", str(N)],
    ]
    plain = []
    for argv in requests:
        assert treedens.cli.run(argv) == 0
        plain.append(capsys.readouterr().out)

    tracer = load_tracing().Tracer(treedens)
    tracer.install()
    try:
        traced = []
        for op, argv in enumerate(requests):
            tracer.op = op
            assert treedens.cli.run(argv) == 0
            traced.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert traced == plain

    names = {op: set() for op in range(len(requests))}
    for _, name, _, _, _, op, _ in tracer.spans:
        names[op].add(name)
    assert {"mde.candidate_set", "mde.select", "mde.yatracos_class",
            "densities.family"} <= names[0]
    assert {"hypercubes.spec", "hypercubes.assouad_density",
            "densities.shape_check"} <= names[1]
