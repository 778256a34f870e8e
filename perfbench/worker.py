"""One repeat of one workload, in a fresh process.

``run.py`` starts this script once per repeat, so every repeat pays its own
interpreter start, imports and rank launch -- the set-up a user pays --
and its peak RSS is its own.  The result goes to ``--out`` as JSON.

    python3 perfbench/worker.py --workload osc-inline --size full \
        --inputs inputs.npz --work DIR --out result.json --trace 0 \
        --t-spawn <time.monotonic() before the spawn>
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    try:
        import numpy as np

        from inputs import SIZES
        from workloads import RUNNERS

        with np.load(args.inputs) as npz:
            inputs = {k: npz[k] for k in npz.files}
        cfg = SIZES[args.workload][args.size]
        os.makedirs(args.work, exist_ok=True)
        rec = RUNNERS[args.workload](cfg, inputs, bool(args.trace), args.work)
        t_first = rec.pop("t_first")
        rec["setup_s"] = t_first - args.t_spawn
        rec["ttl_s"] = rec.pop("t_done") - t_first
        rec["checks"] = {k: bool(v) for k, v in rec["checks"].items()}
        rec["step_s"] = [float(s) for s in rec["step_s"]]
        rec["layers"] = {k: float(v) for k, v in rec["layers"].items()}
    except Exception:  # noqa: BLE001 - run.py reports the failed repeat
        rec = {"error": traceback.format_exc()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return 1 if "error" in rec else 0


if __name__ == "__main__":
    sys.exit(main())
