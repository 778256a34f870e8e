"""The repository benchmark: four in situ workloads, one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (sizes in ``inputs.SIZES``; inputs generated from ``--seed``):

- ``osc-inline``: the paper's Sec. 4.1 study.  The oscillator miniapp on
  2 thread-backend ranks behind one Bridge with histogram,
  autocorrelation, a Catalyst slice, a Libsim slice, ADIOS BP and GLEAN.
  Render and PNG do most of the work; storage writes run beside slice
  reads of the same field.
- ``osc-staged``: the same simulation on one writer rank streaming through
  FlexPath to one endpoint rank (process backend).  The endpoint runs a
  histogram and a small Catalyst slice with slack to spare, so the
  writer's step measures what the simulation pays: advance plus ship.
- ``nbody-halos``: the particle-mesh app on 2 process-backend ranks with
  density projection and P(k) every step, friends-of-friends every 8th
  step and a Catalyst density slice.  FoF dominates the time to solution
  while the simulation bounds the median step.
- ``service-mix``: one in-process ServiceServer with render on; an
  in-line tenant (credit window 1, a closed loop) and a staged tenant
  (window 4) stream pre-generated frames over AF_UNIX from two threads.

Each repeat runs in a fresh worker process (``worker.py``) and repeats
continue until ``--seconds`` have been measured.  End-to-end metrics
(``--trace 0``) are medians over repeats:

- ``setup_s``: worker process start to the first timed step (for
  service-mix: to both tenants WELCOMEd);
- ``time_to_solution_s``: first timed step until the job has finalized
  (service-mix: until both tenants had BYE);
- ``step_p50_ms``: median step time the simulation pays on rank 0 (for
  service-mix: the in-line tenant's submit-to-ACK period);
- ``peak_rss_mb``: VmHWM, summed over rank processes on the process
  backend.

``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of the traced ones (see ``tracing.py``).  Every repeat
checks its outputs; the last line of standard output is the JSON result.
A fixed-work host probe runs before and after the workload and is
reported as a diagnostic only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from inputs import WORKLOADS, make_inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "step_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "miniapp.advance_ms": "ms",
    "apps.nbody.advance_ms": "ms",
    "apps.nbody.migrated_per_step": "count",
    "core.execute_self_ms": "ms",
    "core.map_ms": "ms",
    "data.zero_copy_frac": "fraction",
    "analysis.fof_ms": "ms",
    "analysis.histogram_ms": "ms",
    "analysis.autocorrelation_ms": "ms",
    "analysis.pk_ms": "ms",
    "analysis.projection_ms": "ms",
    "infrastructure.catalyst_ms": "ms",
    "infrastructure.libsim_ms": "ms",
    "infrastructure.adios_bp_ms": "ms",
    "infrastructure.glean_ms": "ms",
    "infrastructure.flexpath_ship_ms": "ms",
    "infrastructure.endpoint_analysis_ms": "ms",
    "infrastructure.endpoint_busy_frac": "fraction",
    "render.raster_ms": "ms",
    "render.composite_ms": "ms",
    "render.png_ms": "ms",
    "render.png_bytes": "B",
    "mpi.bytes_per_step": "B",
    "mpi.shm_bytes_frac": "fraction",
    "mpi.rank_skew_ms": "ms",
    "storage.bytes_per_step": "B",
    "storage.write_mb_per_s": "MB/s",
    "service.server_step_ms": "ms",
    "service.frame_bytes_per_step": "B",
    "service.retransmits": "count",
    "service.shed_steps": "count",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
    "memory.declared_peak_mb": "MB",
    "run.step_p90_ms": "ms",
    "host.probe_ms": "ms",
    "host.cpus": "count",
}

#: Fewest repeats of each kind a run makes, whatever ``--seconds`` says.
MIN_REPEATS = {"full": 3, "tiny": 1}
#: A repeat that has not finished by then is killed and counted as failed.
REPEAT_TIMEOUT_S = 120.0


def host_probe(rounds: int = 5) -> list[float]:
    """Milliseconds per round of fixed single-threaded work: a Gaussian
    over a 64^3 grid (the miniapp's kernel), a deflate, a Python loop."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    d2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    blob = bytes(range(256)) * 2048
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(4):
            np.exp(-d2 / 0.02)
        zlib.compress(blob, 6)
        sum(i * i for i in range(60000))
        times.append(1e3 * (time.perf_counter() - t0))
    return times


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def live_members(pgid: int) -> list[int]:
    """Processes of group ``pgid`` that have not ended (zombies have)."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a repeat's process group, then wait for
    the worker and until every other member (rank processes included)
    has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while live_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.01)


def run_repeat(args, index: int, traced: bool, inputs_path: str, work: str) -> dict:
    """One repeat in a fresh worker process; a crash or timeout is a failed
    repeat, not an exception."""
    rep_dir = os.path.join(work, f"r{index}")
    out = os.path.join(work, f"r{index}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--size", args.size,
        "--inputs", inputs_path, "--work", rep_dir, "--out", out,
        "--trace", str(int(traced)),
    ]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], start_new_session=True)
    try:
        proc.wait(timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        stop_group(proc)
    try:
        with open(out, encoding="utf-8") as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        rec = {"error": f"worker exited with {proc.returncode} and no result"}
    shutil.rmtree(rep_dir, ignore_errors=True)
    rec["traced"] = traced
    return rec


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(args, repeats: list[dict], probes: list[float], host: dict) -> dict:
    good = [r for r in repeats if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    attempted = failed = 0
    for r in repeats:
        if "error" in r:
            print(r["error"], file=sys.stderr)
            attempted += 1
            failed += 1
        else:
            attempted += r["attempted"]
            failed += r["failed"]
    digests = {r["digest"] for r in good if r.get("digest")}
    correct = (
        len(good) == len(repeats)
        and bool(plain)
        and all(all(r["checks"].values()) for r in good)
        and len(digests) <= 1
        and (not args.trace or bool(traced))
    )
    for r in good:
        bad = [k for k, ok in r["checks"].items() if not ok]
        if bad:
            print(f"output check failed: {bad}", file=sys.stderr)
    if len(digests) > 1:
        print(f"digests differ across repeats of one seed: {sorted(digests)}", file=sys.stderr)
    steps_ms = [1e3 * s for r in plain for s in r["step_s"]]
    if args.trace:
        values = {name: median([r["layers"].get(name, 0.0) for r in traced]) for name in PER_LAYER}
        plain_ttl = median([r["ttl_s"] for r in plain])
        values["trace.overhead_frac"] = (
            median([r["ttl_s"] for r in traced]) / plain_ttl - 1.0 if plain_ttl else 0.0
        )
        values["run.step_p90_ms"] = (
            statistics.quantiles(steps_ms, n=10)[-1] if len(steps_ms) > 1 else median(steps_ms)
        )
        values["host.probe_ms"] = median(probes)
        values["host.cpus"] = float(host["cpus"])
        units = PER_LAYER
    else:
        values = {
            "setup_s": median([r["setup_s"] for r in plain]),
            "time_to_solution_s": median([r["ttl_s"] for r in plain]),
            "step_p50_ms": median(steps_ms),
            "peak_rss_mb": median([r["rss_mb"] for r in plain]),
        }
        units = END_TO_END
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's sizes")
    args = parser.parse_args()
    # Unwind on SIGTERM too, so the running repeat's processes are stopped
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    import compileall

    # Byte-compile once up front, so no repeat's set-up pays for it.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        host = host_record()
        probes = host_probe()
        import numpy as np

        inputs_path = os.path.join(work, "inputs.npz")
        np.savez(inputs_path, **make_inputs(args.workload, args.seed, args.size))
        repeats: list[dict] = []
        t0 = time.monotonic()
        minimum = MIN_REPEATS[args.size]
        while True:
            plain = sum(not r["traced"] for r in repeats)
            traced = len(repeats) - plain
            if time.monotonic() - t0 >= args.seconds and plain >= minimum and (
                not args.trace or traced >= minimum
            ):
                break
            with_trace = bool(args.trace) and traced < plain
            repeats.append(run_repeat(args, len(repeats), with_trace, inputs_path, work))
        probes += host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    result = summarize(args, repeats, probes, host)
    host["probe_ms"] = {"before": probes[:5], "after": probes[5:]}
    host["repeats"] = len(repeats)
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
