"""Record the golden references the benchmark checks at the default seed.

    python3 benchmarks/record_golden.py

For each workload, runs every distinct op among the first GOLDEN_OPS ops at
the default seed and full size, and writes the digest of its output
(mean_tv and std_error by repr for mc_risk ops, sha256 of stdout for CLI
ops) to golden.json.  The references pin treedens's byte-identical
promise, so re-record only for a deliberate change of outputs.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, import_treedens
from workloads import DEFAULT_SEED, WORKLOADS

GOLDEN_OPS = 256


def main() -> int:
    td = import_treedens()
    refs = {}
    for name, make in WORKLOADS.items():
        workload = make(td, DEFAULT_SEED)
        refs[name] = {}
        for i in range(GOLDEN_OPS):
            key, call = workload.op(i)
            if key in refs[name]:
                continue
            output = call()
            if not workload.check(key, output):
                raise SystemExit(f"output fails its invariants: {key}")
            refs[name][key] = workload.digest(output)
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": GOLDEN_OPS, "refs": refs}, indent=1) + "\n")
    print(f"{GOLDEN.name}: {sum(map(len, refs.values()))} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
