"""The benchmark's own smoke test, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with the ``tiny``
sizes and asserts that:

- the last line of output is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
- every end-to-end metric (untraced) and every per-layer metric (traced)
  named in ``BENCHMARK.json`` is printed, with the unit given there;
- the output checks pass and no operation failed;
- the per-layer self times on rank 0 cover all but 5% of the step time.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from inputs import WORKLOADS  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    host = json.loads(lines[-2])["host"]
    assert host["cpus"] >= 1 and host["numpy"] and host["scipy"], host
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    assert declared[0] == END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
    assert declared[1] == PER_LAYER, "BENCHMARK.json per_layer differs from run.py"
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, (workload, trace, result)
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            metrics = result["metrics"]
            assert set(metrics) == set(declared[trace]), (workload, sorted(metrics))
            for name, unit in declared[trace].items():
                assert metrics[name]["unit"] == unit, (workload, name)
                assert isinstance(metrics[name]["value"], float), (workload, name)
            if trace:
                unattributed = metrics["trace.unattributed_frac"]["value"]
                assert 0.0 <= unattributed < 0.05, (workload, unattributed)
            else:
                assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)
            print(f"ok {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
