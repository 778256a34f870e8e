"""The four benchmark workloads, each run once per call in this process.

Every ``run_*`` function takes the workload's sizes, its generated inputs,
whether to trace, and a scratch directory; it returns one repeat's raw
record (see :func:`record`).  Rank 0 is the rank whose steps are timed;
``step_s`` is what the simulation pays per step there.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

import numpy as np

from inputs import OSC_DT, TENANTS, field_at, oscillators_from_table
from tracing import SpannedAnalysis, SpannedDataAdaptor, Spans

from repro.util.memory import MemoryTracker
from repro.util.timers import TimerRegistry


def vm_hwm_mb() -> float:
    """This process's peak resident set size (VmHWM) in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def record(t_first, t_done, step_s, rss_mb, checks, attempted, failed,
           layers=None, digest=None) -> dict:
    return {
        "t_first": t_first, "t_done": t_done, "step_s": list(step_s),
        "rss_mb": rss_mb, "checks": checks, "attempted": attempted,
        "failed": failed, "layers": layers or {}, "digest": digest,
    }


def run_steps(comm, spans: Spans, advance_label: str, advance, execute, n: int):
    """The timed step loop shared by the simulation workloads.

    Ranks line up on a barrier first, so the first timed step starts at the
    same moment everywhere.  Returns (t_first, wall seconds per step, thread
    CPU seconds per step).
    """
    comm.barrier()
    t_first = time.monotonic()
    wall, cpu = [], []
    for _ in range(n):
        c0 = time.thread_time()
        t0 = time.perf_counter()
        with spans.span("step"):
            with spans.span(advance_label):
                advance()
            with spans.span("core.execute"):
                execute()
        wall.append(time.perf_counter() - t0)
        cpu.append(time.thread_time() - c0)
    return t_first, wall, cpu


def make_bridge(comm, sim, analyses, spans: Spans, timers, memory):
    """A Bridge over ``sim``'s data adaptor with ``(adaptor, span label)``
    analyses, initialized.  When tracing, the data adaptor and every
    analysis are wrapped so their calls are spanned."""
    from repro.core import Bridge

    data = sim.make_data_adaptor()
    if spans.enabled:
        data = SpannedDataAdaptor(data, spans)
    bridge = Bridge(comm, data, timers=timers, memory=memory)
    for analysis, label in analyses:
        bridge.add_analysis(
            SpannedAnalysis(analysis, label, spans) if spans.enabled else analysis
        )
    bridge.initialize()
    return bridge


def span_layers(spans: Spans, steps: int, bridge=None) -> dict:
    """Per-step self times (ms) of every span on this rank, the share of
    step time no child span covers, and the zero-copy share of mapped bytes."""
    own = spans.self_totals()
    total_step = sum(spans.durations("step"))
    out = {f"{name}_ms": 1e3 * sec / steps for name, sec in own.items() if name != "step"}
    out["trace.unattributed_frac"] = own.get("step", 0.0) / total_step if total_step else 0.0
    out["core.execute_self_ms"] = out.pop("core.execute_ms", 0.0)
    data = getattr(bridge, "data_adaptor", None)
    if isinstance(data, SpannedDataAdaptor):
        mapped = data.bytes_zero_copy + data.bytes_copied
        out["data.zero_copy_frac"] = data.bytes_zero_copy / mapped if mapped else 0.0
    return out


def timer_ms(snap: dict, steps: int, *names: str) -> float:
    """Per-step milliseconds of the named phases in a timer snapshot."""
    return 1e3 * sum(snap.get(n, {}).get("total", 0.0) for n in names) / steps


def render_layers(snap: dict, steps: int, png_bytes: int) -> dict:
    return {
        "render.raster_ms": timer_ms(snap, steps, "catalyst::render", "libsim::render"),
        "render.composite_ms": timer_ms(snap, steps, "catalyst::composite", "libsim::composite"),
        "render.png_ms": timer_ms(snap, steps, "catalyst::png", "libsim::save"),
        "render.png_bytes": float(png_bytes),
    }


def mpi_layers(session, steps: int) -> dict:
    """Bytes per step through the communicators and the share carried by
    shared memory, from the byte counters a traced job records."""
    total = shm = 0.0
    for rank in session.ranks:
        rec = session.recorder(rank)
        for name in rec.counter_names():
            if name.startswith("mpi::") and name.endswith("::bytes"):
                total += rec.total(name)
            elif name.startswith("mpi::") and name.endswith("::bytes::shm"):
                shm += rec.total(name)
    return {
        "mpi.bytes_per_step": total / steps,
        "mpi.shm_bytes_frac": shm / total if total else 0.0,
    }


def rank_skew_ms(cpu_per_rank: list[list[float]]) -> float:
    """Median over steps of (max - min) per-rank busy CPU time, in ms."""
    per_step = [max(c) - min(c) for c in zip(*cpu_per_rank)]
    return 1e3 * float(np.median(per_step)) if per_step else 0.0


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


# -- osc-inline ----------------------------------------------------------------

def run_osc_inline(cfg: dict, inputs: dict, traced: bool, work: str) -> dict:
    from repro.analysis import AutocorrelationAnalysis, HistogramAnalysis
    from repro.analysis.slice_ import SlicePlane
    from repro.infrastructure import CatalystAdaptor, LibsimAdaptor, write_session_file
    from repro.infrastructure.adios import AdiosBPAdaptor
    from repro.infrastructure.glean import GleanAdaptor
    from repro.miniapp import OscillatorSimulation
    from repro.mpi import run_spmd
    from repro.render import decode_png
    from repro.trace import TraceSession

    g, n = cfg["grid"], cfg["steps"]
    oscillators = oscillators_from_table(inputs["oscillators"])
    session_file = os.path.join(work, "session.json")
    write_session_file(
        session_file, [{"type": "pseudocolor_slice", "axis": 2, "index": g // 2}],
        resolution=(cfg["libsim"], cfg["libsim"]),
    )
    storage = os.path.join(work, "storage")
    session = TraceSession("osc-inline") if traced else None

    def program(comm):
        spans = Spans(traced)
        timers, memory = TimerRegistry(), MemoryTracker()
        sim = OscillatorSimulation(comm, (g, g, g), oscillators, dt=OSC_DT,
                                   timers=timers, memory=memory)
        hist = HistogramAnalysis(bins=cfg["bins"])
        catalyst = CatalystAdaptor(SlicePlane(2, g // 2), resolution=cfg["catalyst"])
        libsim = LibsimAdaptor(session_file)
        bridge = make_bridge(comm, sim, (
            (hist, "analysis.histogram"),
            (AutocorrelationAnalysis(window=cfg["window"], k=3), "analysis.autocorrelation"),
            (catalyst, "infrastructure.catalyst"),
            (libsim, "infrastructure.libsim"),
            (AdiosBPAdaptor(os.path.join(storage, "steps.bp")), "infrastructure.adios_bp"),
            (GleanAdaptor(os.path.join(storage, "glean"), ranks_per_aggregator=2),
             "infrastructure.glean"),
        ), spans, timers, memory)
        t_first, wall, cpu = run_steps(
            comm, spans, "miniapp.advance", sim.advance,
            lambda: bridge.execute(sim.time, sim.step), n,
        )
        bridge.finalize()
        out = {"t_first": t_first, "wall": wall, "cpu": cpu,
               "timers": timers.as_dict(), "declared_mb": memory.peak / 1e6}
        if comm.rank == 0:
            pngs = [catalyst.last_png, libsim.last_png]
            out["hist_totals"] = [h.total for h in hist.history]
            out["png_shapes"] = [decode_png(p).shape for p in pngs]
            out["png_bytes"] = sum(len(p) for p in pngs)
            out["layers"] = span_layers(spans, n, bridge)
        return out

    per_rank = run_spmd(cfg["ranks"], program, trace=session, backend="thread")
    t_done = time.monotonic()
    root = per_rank[0]
    verified = sum(t == g ** 3 for t in root["hist_totals"])
    checks = {
        "histogram_totals": verified == n and len(root["hist_totals"]) == n,
        "png_decode": root["png_shapes"] == [
            (cfg["catalyst"][1], cfg["catalyst"][0], 3),
            (cfg["libsim"], cfg["libsim"], 3),
        ],
    }
    layers = {}
    if traced:
        snaps = [r["timers"] for r in per_rank]
        written = tree_bytes(storage)
        write_s = sum(
            s.get(k, {}).get("total", 0.0) for s in snaps for k in ("adios::write", "glean::write")
        )
        layers = dict(root["layers"])
        layers.update(render_layers(root["timers"], n, root["png_bytes"]))
        layers.update(mpi_layers(session, n))
        layers.update({
            "mpi.rank_skew_ms": rank_skew_ms([r["cpu"] for r in per_rank]),
            "storage.bytes_per_step": written / n,
            "storage.write_mb_per_s": written / 1e6 / write_s if write_s else 0.0,
            "memory.declared_peak_mb": sum(r["declared_mb"] for r in per_rank),
        })
    return record(root["t_first"], t_done, root["wall"], vm_hwm_mb(), checks,
                  attempted=n, failed=n - verified, layers=layers)


# -- osc-staged ----------------------------------------------------------------

def run_osc_staged(cfg: dict, inputs: dict, traced: bool, work: str) -> dict:
    from repro.core.configurable import ConfigurableAnalysis
    from repro.infrastructure.adios import run_flexpath_job
    from repro.miniapp import OscillatorSimulation
    from repro.trace import TraceSession
    from repro.util.config import Configuration

    g, n, bins = cfg["grid"], cfg["steps"], cfg["bins"]
    table = inputs["oscillators"]
    oscillators = oscillators_from_table(table)
    session = TraceSession("osc-staged") if traced else None
    width, height = cfg["catalyst"]

    def writer_program(group, writer):
        spans = Spans(traced)
        timers, memory = TimerRegistry(), MemoryTracker()
        sim = OscillatorSimulation(group, (g, g, g), oscillators, dt=OSC_DT,
                                   timers=timers, memory=memory)
        bridge = make_bridge(group, sim, ((writer, "infrastructure.flexpath_ship"),),
                             spans, timers, memory)
        t_first, wall, cpu = run_steps(
            group, spans, "miniapp.advance", sim.advance,
            lambda: bridge.execute(sim.time, sim.step), n,
        )
        bridge.finalize()
        return {"t_first": t_first, "wall": wall, "cpu": cpu,
                "rss_mb": vm_hwm_mb(), "declared_mb": memory.peak / 1e6,
                "layers": span_layers(spans, n, bridge)}

    class EndpointProbe(SpannedAnalysis):
        """The endpoint's pipeline, reporting its busy CPU time per step,
        its last PNG and its process's peak RSS when it finalizes."""

        def __init__(self, inner, label, spans) -> None:
            super().__init__(inner, label, spans)
            self.cpu: list[float] = []

        def execute(self, data) -> bool:
            c0 = time.thread_time()
            keep_going = super().execute(data)
            self.cpu.append(time.thread_time() - c0)
            return keep_going

        def finalize(self):
            result = self.inner.finalize()
            histogram, catalyst = self.inner.analyses
            return {"result": result, "cpu": self.cpu, "rss_mb": vm_hwm_mb(),
                    "png_bytes": len(catalyst.last_png or b""),
                    "last_hist": histogram.history[-1] if histogram.history else None}

    def analysis_factory(comm):
        pipeline = ConfigurableAnalysis(Configuration({"analyses": [
            {"type": "histogram", "bins": bins},
            {"type": "catalyst", "axis": 2, "index": g // 2,
             "width": width, "height": height},
        ]}))
        return EndpointProbe(pipeline, "infrastructure.endpoint", Spans(False))

    job = run_flexpath_job(1, 1, writer_program, analysis_factory,
                           trace=session, backend="process")
    t_done = time.monotonic()
    writer = job.writer_results[0]
    endpoint = job.endpoint_results[0]
    probe = endpoint["result"]
    hist = probe["last_hist"]
    field = field_at(table, g, n)
    expect, _ = np.histogram(field, bins=bins, range=(field.min(), field.max()))
    checks = {
        "endpoint_steps": endpoint["steps_analyzed"] == n,
        "final_histogram": hist is not None
        and (hist.vmin, hist.vmax) == (field.min(), field.max())
        and np.array_equal(hist.counts, expect),
    }
    verified = endpoint["steps_analyzed"] - (0 if checks["final_histogram"] else 1)
    layers = {}
    if traced:
        esnap = endpoint["timers"]
        analysis_s = esnap.get("endpoint::analysis", {}).get("total", 0.0)
        busy_s = analysis_s + esnap.get("endpoint::receive", {}).get("total", 0.0)
        layers = dict(writer["layers"])
        layers.update(render_layers(esnap, n, probe["png_bytes"]))
        layers.update(mpi_layers(session, n))
        layers.update({
            "infrastructure.endpoint_analysis_ms": 1e3 * analysis_s / n,
            "infrastructure.endpoint_busy_frac": analysis_s / busy_s if busy_s else 0.0,
            "mpi.rank_skew_ms": rank_skew_ms([writer["cpu"], probe["cpu"]]),
            "memory.declared_peak_mb": writer["declared_mb"],
        })
    return record(writer["t_first"], t_done, writer["wall"],
                  writer["rss_mb"] + probe["rss_mb"], checks,
                  attempted=n, failed=n - verified, layers=layers)


# -- nbody-halos ---------------------------------------------------------------

def run_nbody(cfg: dict, inputs: dict, traced: bool, work: str) -> dict:
    import zlib

    from repro.analysis.particles import (
        DensityProjectionAnalysis,
        FriendsOfFriendsAnalysis,
        PowerSpectrumAnalysis,
    )
    from repro.analysis.slice_ import SlicePlane
    from repro.apps.nbody import NBodyDataAdaptor, NBodySimulation
    from repro.data import ParticleSet
    from repro.infrastructure import CatalystAdaptor
    from repro.mpi import run_spmd
    from repro.trace import TraceSession

    grid, n, count = cfg["grid"], cfg["steps"], cfg["particles"]
    ids, pos, vel, mass = (inputs[k] for k in ("ids", "positions", "velocities", "masses"))
    session = TraceSession("nbody-halos") if traced else None
    linking_length = 0.2 / count ** (1.0 / 3.0)

    def program(comm):
        spans = Spans(traced)
        timers, memory = TimerRegistry(), MemoryTracker()
        sim = NBodySimulation(comm, grid=grid, n_particles=1, timers=timers)
        mine = (pos[:, 0] >= sim.x_lo / grid) & (pos[:, 0] < sim.x_hi / grid)
        sim.particles = ParticleSet(ids[mine], pos[mine].copy(), vel[mine].copy(), mass[mine])
        sim.total_mass_global = float(mass.sum())
        memory.track_array(sim.particles.positions, label="nbody::particles")
        memory.track_array(sim.density, label="nbody::density")
        catalyst = CatalystAdaptor(SlicePlane(2, grid // 2), array=NBodyDataAdaptor.DENSITY,
                                   resolution=cfg["catalyst"])
        bridge = make_bridge(comm, sim, (
            (DensityProjectionAnalysis(grid=grid), "analysis.projection"),
            (PowerSpectrumAnalysis(grid=grid), "analysis.pk"),
            (FriendsOfFriendsAnalysis(linking_length=linking_length,
                                      frequency=cfg["fof_every"]), "analysis.fof"),
            (catalyst, "infrastructure.catalyst"),
        ), spans, timers, memory)
        t_first, wall, cpu = run_steps(
            comm, spans, "apps.nbody.advance", sim.advance,
            lambda: bridge.execute(sim.time, sim.step), n,
        )
        results = bridge.finalize()
        p = sim.particles
        return {
            "t_first": t_first, "wall": wall, "cpu": cpu, "timers": timers.as_dict(),
            "rss_mb": vm_hwm_mb(), "declared_mb": memory.peak / 1e6,
            "ids": p.ids.copy(), "mass": float(p.masses.sum()),
            "migrated": sim.migrated_out, "results": results,
            "catalyst_crc": zlib.crc32(catalyst.last_png) if catalyst.last_png else None,
            "png_bytes": len(catalyst.last_png or b""),
            "layers": span_layers(spans, n, bridge),
        }

    per_rank = run_spmd(cfg["ranks"], program, trace=session, backend="process")
    t_done = time.monotonic()
    root = per_rank[0]
    res = root["results"]
    digest = hashlib.blake2b(repr((
        res["DensityProjectionAnalysis"]["png_crcs"],
        res["PowerSpectrumAnalysis"]["power"],
        res["FriendsOfFriendsAnalysis"]["halo_counts"],
        res["FriendsOfFriendsAnalysis"]["halo_sizes"],
        root["catalyst_crc"],
    )).encode(), digest_size=16).hexdigest()
    all_ids = np.sort(np.concatenate([r["ids"] for r in per_rank]))
    checks = {
        "particle_count": np.array_equal(all_ids, ids),
        "total_mass": sum(r["mass"] for r in per_rank) == float(mass.sum()),
        "analysis_steps": len(res["DensityProjectionAnalysis"]["png_crcs"]) == n
        and len(res["FriendsOfFriendsAnalysis"]["halo_counts"]) == n // cfg["fof_every"],
    }
    layers = {}
    if traced:
        layers = dict(root["layers"])
        layers.update(render_layers(root["timers"], n, root["png_bytes"]))
        layers.update(mpi_layers(session, n))
        layers.update({
            "apps.nbody.migrated_per_step": sum(r["migrated"] for r in per_rank) / n,
            "mpi.rank_skew_ms": rank_skew_ms([r["cpu"] for r in per_rank]),
            "memory.declared_peak_mb": sum(r["declared_mb"] for r in per_rank),
        })
    ok = all(checks.values())
    return record(root["t_first"], t_done, root["wall"], sum(r["rss_mb"] for r in per_rank),
                  checks, attempted=n, failed=0 if ok else n, layers=layers, digest=digest)


# -- service-mix ---------------------------------------------------------------

def run_service(cfg: dict, inputs: dict, traced: bool, work: str) -> dict:
    import json

    from repro.service import protocol
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceServer
    from repro.service.tenancy import QuotaSpec, TenantRegistry, TenantSpec, issue_token
    from repro.trace import TraceSession

    n = cfg["steps"]
    secret = "perfbench"
    out_dir = os.path.join(work, "service")
    # AF_UNIX paths are short; bind relative to the working directory.
    sock = os.path.relpath(os.path.join(work, "svc.sock"))
    registry = TenantRegistry([
        TenantSpec(name, QuotaSpec(credits=credits), placement)
        for name, placement, credits in TENANTS
    ])
    session = TraceSession("service-mix") if traced else None
    server = ServiceServer(sock, registry, secret, out_dir, trace=session,
                           expect=len(TENANTS), render=True)
    server.start()
    welcomed = threading.Barrier(len(TENANTS))
    t_first: list[float] = []
    state: dict[str, dict] = {}
    spans = Spans(traced)

    def tenant(slot: int, name: str) -> None:
        frames = inputs[f"frames_{name}"]
        rec = session.recorder(100 + slot, label=f"client-{name}") if traced else None
        client = ServiceClient(sock, name, issue_token(secret, name), trace=rec)
        mine = state[name] = {}
        try:
            client.connect()
            if welcomed.wait(timeout=60.0) == 0:
                t_first.append(time.monotonic())
            returns = [time.perf_counter()]
            for k in range(n):
                # The in-line tenant's window is one credit, so each submit
                # after the first waits for the previous step's ACK.
                if name == "inline":
                    with spans.span("step"), spans.span("service.submit"):
                        client.submit(k, k * 0.01, {"data": frames[k % len(frames)]})
                else:
                    client.submit(k, k * 0.01, {"data": frames[k % len(frames)]})
                returns.append(time.perf_counter())
            mine["summary"] = client.finish()
            mine["t_bye"] = time.monotonic()
            mine["verdicts"] = [v for _, v in client.verdicts]
            mine["step_s"] = list(np.diff(returns[1:]))
        finally:
            client.close()

    threads = [threading.Thread(target=tenant, args=(slot, name), name=f"tenant-{name}")
               for slot, (name, _, _) in enumerate(TENANTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=100.0)
    server.wait(timeout=30.0)
    server.stop()
    alive = any(t.is_alive() for t in threads)
    done = [state.get(name, {}) for name, _, _ in TENANTS]
    if alive or not all("step_s" in s for s in done):
        raise RuntimeError("a service tenant did not finish")
    t_done = max(s["t_bye"] for s in done)
    failed = 0
    histograms_ok = True
    for (name, _, _), s in zip(TENANTS, done):
        failed += sum(v != protocol.VERDICT_ADMIT for v in s["verdicts"])
        failed += n - len(s["verdicts"])
        with open(os.path.join(out_dir, "tenants", name, "histograms.json"), encoding="utf-8") as fh:
            hists = json.load(fh)
        size = inputs[f"frames_{name}"][0].size
        histograms_ok &= len(hists) == n and all(sum(h["counts"]) == size for h in hists)
    checks = {
        "verdicts_admit": all(v == protocol.VERDICT_ADMIT for s in done for v in s["verdicts"]),
        "bye_counts": all(s["summary"]["steps_admitted"] == n and s["summary"]["steps_shed"] == 0
                          for s in done),
        "histograms": histograms_ok,
    }
    layers = {}
    if traced:
        counters: dict[str, float] = {}
        busy: dict[str, float] = {}
        for rank in session.ranks:
            rec = session.recorder(rank)
            for cname in rec.counter_names():
                counters[cname] = counters.get(cname, 0.0) + rec.total(cname)
            for sp in rec.spans:
                busy[sp.name] = busy.get(sp.name, 0.0) + sp.duration
        steps = len(TENANTS) * n
        layers = {
            "service.server_step_ms": 1e3 * counters.get("service::analysis::seconds", 0.0) / steps,
            "service.frame_bytes_per_step": counters.get("service::bytes::sent", 0.0) / steps,
            "service.retransmits": counters.get("service::frames::retransmitted", 0.0),
            "service.shed_steps": counters.get("service::steps::shed", 0.0),
            "render.raster_ms": 1e3 * busy.get("catalyst::render", 0.0) / steps,
            "render.composite_ms": 1e3 * busy.get("catalyst::composite", 0.0) / steps,
            "render.png_ms": 1e3 * busy.get("catalyst::png", 0.0) / steps,
            "render.png_bytes": counters.get("catalyst::png_bytes", 0.0) / steps,
        }
        layers.update(mpi_layers(session, steps))
        layers["trace.unattributed_frac"] = span_layers(spans, n)["trace.unattributed_frac"]
    return record(t_first[0], t_done, state["inline"]["step_s"], vm_hwm_mb(), checks,
                  attempted=len(TENANTS) * n, failed=failed, layers=layers)


RUNNERS = {
    "osc-inline": run_osc_inline,
    "osc-staged": run_osc_staged,
    "nbody-halos": run_nbody,
    "service-mix": run_service,
}
