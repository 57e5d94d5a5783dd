"""Record the per-seed reference results that the benchmark's output check uses.

Trains every seed of the pool once for every workload and writes each run's
final eval score and expert parameter variance to ``perfbench/reference.json``,
replacing the whole file. Rerun it only when a change is meant to alter these
numbers:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Allowed distance from the reference: eval scores are accuracies over 400
# eval points (one point is 0.0025); parameter variance is compared relatively.
TOLERANCE = {"eval_score_abs": 0.01, "param_variance_rel": 0.01}


def main() -> int:
    import run  # pins BLAS threads and puts the checkout's src/ on sys.path
    run.prepare_environment()
    from workloads import POOL_SIZE, WORKLOADS

    doc = {"tolerance": TOLERANCE, "pool_size": POOL_SIZE, "workloads": {}}
    for name in sorted(WORKLOADS):
        runs = WORKLOADS[name].op(list(range(POOL_SIZE)))
        doc["workloads"][name] = {
            label: {str(rec["seed"]): [rec["final_eval_score"], rec["final_param_variance"]]
                    for rec in report["per_seed"]}
            for label, _cfg, report in runs}
        print(f"{name}: {len(runs)} runs x {POOL_SIZE} seeds", file=sys.stderr)
    tmp = REFERENCE_PATH.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    tmp.replace(REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
