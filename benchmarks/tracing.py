"""In-memory span tracer for the benchmark's traced mode.

A Tracer wraps each layer's public entry points at the names their callers
look them up by (module globals such as ``risk_lab.sample``, or class
attributes such as ``PiecewiseEstimate.atom_values``).  ``install()`` swaps
the wrappers in and ``uninstall()`` puts the originals back, so a cycle run
between the two calls is traced and any other cycle runs the library as
imported.

A span is the tuple (id, name, start_ns, end_ns, parent id, op id, counts).
Spans stay in a list until the run ends.  Counters are computed after the
wrapped call returns, inside a ``trace.count`` span of their own, so the
time they take is tracer overhead and never a layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time

#: The package modules; every span name starts with one of them or "trace".
LAYERS = (
    "sampling",
    "densities",
    "partition_trees",
    "metrics",
    "risk_lab",
    "mde",
    "hypercubes",
    "cli",
)


def _consume(arg_index):
    """Counter for a call that reads the counts of the sample at args[arg_index]."""

    def count(tracer, args, result):
        tracer.consume(args[arg_index])
        return None

    return count


def _count_sample(tracer, args, result):
    # computed: 8n bytes of uniforms, 8n of atom indices, 8k of counts
    counts = {
        "calls": 1,
        "draws": result.n,
        "bytes_computed": 16 * result.n + 8 * result.k,
        "useful_draws": 0,
    }
    tracer.samples[id(result)] = counts
    return counts


def _count_tree(tracer, args, result):
    # computed from the leaves: every internal node and every leaf wider
    # than one atom had its split rule evaluated once
    leaves = result.leaves()
    wide = sum(1 for u in leaves if u.length > 1)
    internal = (len(leaves) - 1) // (result.arity - 1)
    return {"leaves": len(leaves), "nodes_tested": internal + wide}


def _count_greedy_tree(tracer, args, result):
    tracer.consume(args[0])
    return _count_tree(tracer, args, result)


def _count_merged(tracer, args, result):
    return {"blocks_merged": len(args[0].pieces) - len(result.pieces)}


def _count_pairs(tracer, args, result):
    m = len(args[0])
    return {"pairs": m * (m - 1), "distinct": len(result)}


def _targets(td):
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    rl, cli, pt = td.risk_lab, td.cli, td.partition_trees
    pe, tree = pt.PiecewiseEstimate, pt.PartitionTree
    return [
        (rl, "mc_risk", "risk_lab.mc_risk", None),
        (cli, "run", "cli.run", None),
        (cli, "fit_estimate", "risk_lab.fit_estimate", None),
        (rl, "sample", "sampling.sample", _count_sample),
        (cli, "sample", "sampling.sample", _count_sample),
        (rl, "build_greedy_binary", "partition_trees.build", _count_greedy_tree),
        (rl, "build_greedy_ternary", "partition_trees.build", _count_greedy_tree),
        (rl, "build_idealized_binary", "partition_trees.build", _count_tree),
        (rl, "build_idealized_ternary", "partition_trees.build", _count_tree),
        (rl, "histogram_estimate", "partition_trees.estimate", _consume(1)),
        (rl, "greedy_pl_estimate", "partition_trees.estimate", _consume(1)),
        (rl, "idealized_pc_estimate", "partition_trees.estimate", None),
        (rl, "idealized_pl_estimate", "partition_trees.estimate", None),
        (rl, "monotonize", "partition_trees.monotonize", _count_merged),
        (pe, "atom_values", "partition_trees.atom_values", None),
        (tree, "to_json", "partition_trees.serialize", None),
        (pe, "to_json", "partition_trees.serialize", None),
        (pe, "to_csv", "partition_trees.serialize", None),
        (rl, "tv", "metrics.tv", None),
        (td.densities, "family", "densities.family", None),
        (cli, "family", "densities.family", None),
        (pt, "is_non_increasing", "densities.shape_check", None),
        (pt, "is_convex_non_increasing", "densities.shape_check", None),
        (td.hypercubes, "is_non_increasing", "densities.shape_check", None),
        (td.hypercubes, "is_convex_non_increasing", "densities.shape_check", None),
        (cli, "CandidateSet", "mde.candidate_set", None),
        (cli, "minimum_distance_estimate", "mde.select", _consume(1)),
        (td.mde, "yatracos_class", "mde.yatracos_class", _count_pairs),
        (cli, "assouad_default_params", "hypercubes.spec", None),
        (cli, "HypercubeSpec", "hypercubes.spec", None),
        (cli, "assouad_density", "hypercubes.assouad_density", None),
    ]


class Tracer:
    def __init__(self, td):
        self.spans: list[tuple] = []
        self.op = None
        # sample id -> its span's counts, so a consumer can mark the draws read
        self.samples: dict[int, dict] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._root = None
        self._patches = []
        for owner, attr, name, counter in _targets(td):
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, counter, cpu=attr == "mc_risk")
            self._patches.append((owner, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def consume(self, sc) -> None:
        counts = self.samples.get(id(sc))
        if counts is not None:
            counts["useful_draws"] = sc.n

    def _wrap(self, name, fn, counter, cpu):
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(tracer._ids)
            # spans opened by a worker thread hang off the op's root span
            parent = stack[-1] if stack else tracer._root
            on_main = threading.get_ident() == tracer._main
            if parent is None and on_main:
                tracer._root = sid
            stack.append(sid)
            cpu0 = time.process_time_ns() if cpu else 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                cpu_ns = time.process_time_ns() - cpu0 if cpu else None
                stack.pop()
                if tracer._root == sid and on_main:
                    tracer._root = None
            counts = None
            if counter is not None:
                counts = counter(tracer, args, result)
                tracer.spans.append(
                    (next(tracer._ids), "trace.count", end, time.perf_counter_ns(),
                     parent, tracer.op, None)
                )
            elif cpu:
                counts = {"cpu_ns": cpu_ns}
            tracer.spans.append((sid, name, start, end, parent, tracer.op, counts))
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "op", "counts"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(start: int, end: int, intervals) -> int:
    """Length of the union of the intervals, clipped to [start, end]."""
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, ops: set) -> dict:
    """Busy time, self time and summed counters per span name, over the
    spans whose op id is in ``ops``.

    Self time is a span's duration minus the part of it that its child
    spans cover; under threads the children's intervals can overlap, so
    their union is what is subtracted.
    """
    children: dict[int, list] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _, op, counts in spans:
        if op not in ops:
            continue
        entry = out.setdefault(name, {"spans": 0, "busy_ns": 0, "self_ns": 0, "counts": {}})
        entry["spans"] += 1
        entry["busy_ns"] += end - start
        entry["self_ns"] += end - start - _covered(start, end, children.get(sid, ()))
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out
