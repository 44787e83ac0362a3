"""Each committed benchmark comparison, BENCH_*.json at the repository root,
agrees with BENCHMARK.json and with its own runs.

A file holds, per workload, alternating pairs of runs of a parent commit
and a change: each run's header and end-to-end metrics block, as
benchmarks/run.py wrote them, and per metric a summary of both sides.
The summary's statistics are recomputed here from the runs.  A file that
claims a gain names one workload and one end-to-end metric, and records
whether the runs meet the claim: the change better in at least nine of ten
pairs, and its median better than the parent's by more than the parent's
q3 - q1.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: p.name)
SIDES = ("parent", "change")
MIN_PAIRS = 10


def _load(path):
    return json.loads(path.read_text())


def _values(pairs, side, metric):
    return [pair[side]["metrics"][metric]["value"] for pair in pairs]


def _sign(metric):
    """+1 where a larger value is better, -1 where a smaller one is."""
    return 1 if END_TO_END[metric]["better"] == "higher" else -1


def _quartiles(values):
    """(q1, median, q3), the rule every file's header names."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def _verdict(metric, parent, change):
    """unresolved when the parent's own quartile spread is wider than the
    metric's bound; otherwise worse when the change's median is worse than
    the parent's by more than the bound, else within bound."""
    spec = END_TO_END[metric]
    q1, med, q3 = _quartiles(parent)
    if (q3 - q1) > spec["bound"] * abs(med):
        return "unresolved"
    loss = _sign(metric) * (med - statistics.median(change))
    return "worse" if loss > spec["bound"] * abs(med) else "within bound"


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_names_only_benchmark_workloads_and_metrics(path):
    data = _load(path)
    assert data["workloads"] and set(data["workloads"]) <= WORKLOADS
    for name, entry in data["workloads"].items():
        assert set(entry["summary"]) == set(entry["pairs"][0]["parent"]["metrics"]), name
        for metric, summary in entry["summary"].items():
            assert summary["unit"] == END_TO_END[metric]["unit"], (name, metric)
        for pair in entry["pairs"]:
            for side in SIDES:
                assert pair[side]["header"]["workload"] == name
                for metric, m in pair[side]["metrics"].items():
                    assert m["unit"] == END_TO_END[metric]["unit"], (name, metric)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_pairs_are_enough_and_alternate(path):
    for name, entry in _load(path)["workloads"].items():
        pairs = entry["pairs"]
        assert len(pairs) >= MIN_PAIRS, name
        firsts = [pair["first"] for pair in pairs]
        assert set(firsts) <= set(SIDES), name
        assert all(a != b for a, b in zip(firsts, firsts[1:])), (name, firsts)
        # one seed, one run length and untraced runs on both sides
        runs = {
            (h["seed"], h["seconds"], h["trace"])
            for h in (pair[side]["header"] for pair in pairs for side in SIDES)
        }
        assert len(runs) == 1 and runs.pop()[2] == 0, name


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_summaries_match_the_runs(path):
    for name, entry in _load(path)["workloads"].items():
        pairs = entry["pairs"]
        for metric, summary in entry["summary"].items():
            parent, change = (_values(pairs, side, metric) for side in SIDES)
            for side, values in zip(SIDES, (parent, change)):
                q1, med, q3 = _quartiles(values)
                got = summary[side]
                assert (got["q1"], got["median"], got["q3"]) == (q1, med, q3), (name, metric, side)
            # a tie counts for neither side
            assert summary["pairs_change_better"] == _wins(metric, parent, change), (name, metric)
            assert summary["verdict"] == _verdict(metric, parent, change), (name, metric)
            q1, med, q3 = _quartiles(parent)
            assert summary["parent_spread_frac"] == (q3 - q1) / med, (name, metric)
            change_med = statistics.median(change)
            assert summary["change_vs_parent_frac"] == (change_med - med) / med, (name, metric)
            ratio = statistics.median(c / p for p, c in zip(parent, change))
            assert summary["median_pair_ratio"] == ratio, (name, metric)


def _wins(metric, parent, change):
    """Pairs whose change run reads better than its parent run."""
    return sum(_sign(metric) * (c - p) > 0 for p, c in zip(parent, change))


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_a_claim_names_a_measured_metric_and_is_judged_from_the_runs(path):
    data = _load(path)
    claim = data["claim"]
    if claim is None:
        return
    workload, metric = claim["workload"], claim["metric"]
    assert workload in data["workloads"] and metric in END_TO_END, claim
    entry = data["workloads"][workload]
    assert metric in entry["summary"], claim
    parent, change = (_values(entry["pairs"], side, metric) for side in SIDES)
    q1, med, q3 = _quartiles(parent)
    gain = _sign(metric) * (statistics.median(change) - med)
    met = 10 * _wins(metric, parent, change) >= 9 * len(parent) and gain > q3 - q1
    assert claim["claim_met"] == met, claim
