"""Leapfrog particle-mesh N-body miniapp over a ragged particle population.

The missing workload family from the ROADMAP: every other app is
grid-shaped, while the paper's Nyx use case is fundamentally
particle-based, with per-rank payload sizes that vary step to step as
particles migrate between domain slabs.  This miniapp makes that shape a
first-class citizen:

- particle state lives in a :class:`~repro.data.ParticleSet` (ids,
  positions, velocities, masses) with a *variable* per-rank count --
  including legitimately zero;
- domain decomposition is by x-slab; migration after each drift moves
  departing particles over the point-to-point reliable transport
  (``comm.send``/``recv``), so outboxes are gatherv-style ragged ndarray
  payloads that ride the shared-memory path when large enough and inline
  pickling when tiny or empty;
- gravity is cloud-in-cell particle-mesh: masses deposit in *fixed-point
  int64* (exact, order-independent sums), one ``allreduce`` replicates
  the global density, and an FFT Poisson solve + CIC gather produce
  per-particle accelerations.  Because the deposit is exact-integer, the
  density grid -- and everything downstream of it, including particle
  trajectories -- is bit-identical across rank counts and SPMD backends.

The injected ``sim.step`` fault site sits *inside* migration, after the
ownership decision but before the first send of the step: a death there
leaves no torn communication, so checkpoint restore plus one re-issued
step replays particle ownership exactly while surviving peers simply
block until the recovered rank's sends arrive.
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.core.adaptors import DataAdaptor
from repro.data import Association, DataArray, ImageData
from repro.data.particles import (
    DEPOSIT_SCALE,
    PARTICLE_ARRAYS,
    ParticleSet,
    cic_deposit_int,
    cic_gather,
)
from repro.mpi import SUM
from repro.util.decomp import Extent, block_decompose_1d
from repro.util.memory import MemoryTracker
from repro.util.timers import TimerRegistry, timed

#: Point-to-point tag for migration payloads (outside the collective range).
TAG_MIGRATE = 77

#: Dyadic quantum for initial conditions: positions, velocities, and masses
#: start as exact multiples of ``1/IC_QUANT``, so conservation tests can
#: assert *exact* (not approximate) mass totals under any summation order.
IC_QUANT = 4096


def _slab_bounds(grid: int, size: int) -> list[tuple[int, int]]:
    return [block_decompose_1d(grid, size, r) for r in range(size)]


class NBodySimulation:
    """Slab-decomposed leapfrog PM gravity over a ragged particle set.

    Initial conditions are generated *globally* on every rank from the
    seed and then filtered to the local slab, so the global population is
    identical for any rank count -- the precondition for the 1/2/4-rank
    equivalence battery.
    """

    def __init__(
        self,
        comm,
        grid: int = 16,
        n_particles: int = 512,
        seed: int = 42,
        dt: float = 0.05,
        gravity: float = 0.5,
        velocity_scale: float = 1.0 / 16,
        timers: TimerRegistry | None = None,
        memory: MemoryTracker | None = None,
    ) -> None:
        if grid < comm.size:
            raise ValueError("need at least one x-plane of cells per rank")
        if n_particles < 1:
            raise ValueError("need at least one particle")
        self.comm = comm
        self.grid = grid
        self.n_global = n_particles
        self.dt = float(dt)
        self.gravity = float(gravity)
        self.timers = timers if timers is not None else TimerRegistry()
        self.memory = memory
        self.bounds = _slab_bounds(grid, comm.size)
        self.x_lo, self.x_hi = self.bounds[comm.rank]
        #: Slab boundaries in position space; owner via searchsorted.
        self._edges = np.array(
            [lo / grid for lo, _ in self.bounds] + [1.0], dtype=np.float64
        )
        self.time = 0.0
        self.step = 0
        #: Cumulative particles sent away / received by this rank.
        self.migrated_out = 0
        self.migrated_in = 0

        with timed(self.timers, "nbody::init"):
            rng = np.random.Generator(np.random.PCG64(seed))
            q = rng.integers(0, IC_QUANT, size=(n_particles, 3))
            pos = q / IC_QUANT
            v = rng.integers(
                -IC_QUANT // 4, IC_QUANT // 4, size=(n_particles, 3)
            )
            vel = (v / IC_QUANT) * float(velocity_scale)
            mass = rng.integers(1, 17, size=n_particles) / 16.0
            ids = np.arange(n_particles, dtype=np.int64)
            mine = self._owner_ranks(pos[:, 0]) == comm.rank
            self.particles = ParticleSet(
                ids[mine],
                np.ascontiguousarray(pos[mine]),
                np.ascontiguousarray(vel[mine]),
                mass[mine],
            )
            #: Exact global mass (dyadic ICs sum exactly in any order).
            self.total_mass_global = float(mass.sum())
            #: Replicated global density of the last completed deposit.
            self.density = np.zeros((grid, grid, grid), dtype=np.float64)
            self._init_spectral(grid)
            if self.memory is not None:
                self.memory.track_array(
                    self.particles.positions, label="nbody::particles"
                )
                self.memory.track_array(self.density, label="nbody::density")

    # -- ownership -------------------------------------------------------------
    def _owner_ranks(self, x: np.ndarray) -> np.ndarray:
        """Owning rank per x coordinate (slab decomposition)."""
        return np.searchsorted(self._edges, x, side="right") - 1

    @property
    def n_local(self) -> int:
        return self.particles.num_particles

    def owned_extent(self) -> Extent:
        g = self.grid
        return Extent(self.x_lo, self.x_hi - 1, 0, g - 1, 0, g - 1)

    def whole_extent(self) -> Extent:
        g = self.grid
        return Extent(0, g - 1, 0, g - 1, 0, g - 1)

    # -- fault hook ------------------------------------------------------------
    def _consult_injector(self) -> None:
        inj = getattr(self.comm, "fault_injector", None)
        if inj is None:
            return
        action = inj.draw(
            "sim.step",
            self.comm._draw_rank(),
            step=self.step + 1,
            trace=self.timers.trace,
        )
        if action is None:
            return
        if action.kind == "die":
            from repro.faults.injector import InjectedRankDeath

            raise InjectedRankDeath(self.comm.rank, self.step + 1)
        if action.kind == "stall":
            _time.sleep(float(action.params.get("seconds", 0.002)))

    # -- migration -------------------------------------------------------------
    def _migrate(self) -> None:
        """Exchange particles that drifted out of the local slab.

        Outboxes are computed first (the ownership decision), then the
        fault site is consulted -- *before the first send* -- so an
        injected death leaves zero bytes on the wire for this step: after
        a checkpoint restore, re-running the step regenerates the exact
        same outboxes and the surviving ranks' blocked receives complete
        with the payloads they were always going to get.  Sends are
        buffered, so send-all-then-receive-all cannot deadlock, and a
        rank owning zero particles still sends its (empty) outboxes --
        empty ndarrays stay on the inline pickle path rather than
        allocating 0-byte shm segments.
        """
        p = self.particles
        owner = self._owner_ranks(p.positions[:, 0])
        outboxes = {
            dest: p.select(owner == dest)
            for dest in range(self.comm.size)
            if dest != self.comm.rank
        }
        self._consult_injector()
        if self.comm.size == 1:
            return
        for dest in range(self.comm.size):
            if dest == self.comm.rank:
                continue
            out = outboxes[dest]
            self.comm.send(
                (out.ids, out.positions, out.velocities, out.masses),
                dest,
                tag=TAG_MIGRATE,
            )
        parts = [p.select(owner == self.comm.rank)]
        sent = sum(o.num_particles for o in outboxes.values())
        received = 0
        for src in range(self.comm.size):
            if src == self.comm.rank:
                continue
            ids, pos, vel, mass = self.comm.recv(src, tag=TAG_MIGRATE)
            parts.append(ParticleSet(ids, pos, vel, mass))
            received += parts[-1].num_particles
        self.particles = ParticleSet.concatenate(parts)
        self.migrated_out += sent
        self.migrated_in += received
        rec = self.timers.trace
        if rec is not None:
            rec.count("nbody::migrated_out", sent)
            rec.count("nbody::migrated_in", received)

    # -- gravity ---------------------------------------------------------------
    def _init_spectral(self, g: int) -> None:
        """Wavenumbers and work arrays of the Poisson solve, built once.

        A 32^3 grid makes every spectral array ~256 KB, above glibc's
        default mmap threshold, so allocating them per step would map and
        fault in fresh pages every step.
        """
        kx = 2.0 * np.pi * np.fft.fftfreq(g, d=1.0 / g)
        kz = 2.0 * np.pi * np.fft.rfftfreq(g, d=1.0 / g)
        ks = (kx[:, None, None], kx[None, :, None], kz[None, None, :])
        k2 = ks[0] ** 2 + ks[1] ** 2 + ks[2] ** 2
        k2[0, 0, 0] = 1.0  # zero mode: potential gauge, forced to 0
        self._k2 = k2
        #: Spectral gradient factors, one per axis.
        self._ik = tuple(-1j * k for k in ks)
        spectral = (g, g, g // 2 + 1)
        self._work = {
            "delta": np.empty((g, g, g), dtype=np.float64),
            "fk": np.empty(spectral, dtype=np.complex128),
            "grad": np.empty(spectral, dtype=np.complex128),
            "acc": [np.empty((g, g, g), dtype=np.float64) for _ in range(3)],
        }

    def _solve_gravity(self) -> np.ndarray:
        """Accelerations at local particle positions from the global grid.

        Deposit is exact int64 (order-independent), the allreduce
        replicates the global grid, and the FFT Poisson solve runs
        identically on every rank -- so ``self.density`` and the returned
        accelerations are bit-identical functions of the global
        population, independent of decomposition.
        """
        p = self.particles
        g = self.grid
        with timed(self.timers, "nbody::deposit"):
            local = cic_deposit_int(p.positions, p.masses, g)
        with timed(self.timers, "nbody::reduce"):
            total = self.comm.allreduce(local, SUM)
        with timed(self.timers, "nbody::solve"):
            rho = self.density
            np.copyto(rho, total)
            rho /= DEPOSIT_SCALE
            mean = rho.mean()
            if mean > 0:
                delta = np.divide(rho, mean, out=self._work["delta"])
                delta -= 1.0
            else:
                delta = rho
            fk = np.fft.rfftn(delta, out=self._work["fk"])
            phi_k = np.multiply(-self.gravity, fk, out=fk)
            phi_k /= self._k2
            phi_k[0, 0, 0] = 0.0
            grad = self._work["grad"]
            acc = []
            for ik, out in zip(self._ik, self._work["acc"]):
                # irfftn(ik * phi_k) written out axis by axis so that every
                # stage lands in a buffer reused across steps.
                np.multiply(ik, phi_k, out=grad)
                np.fft.ifft(grad, axis=0, out=grad)
                np.fft.ifft(grad, axis=1, out=grad)
                acc.append(np.fft.irfft(grad, n=g, axis=2, out=out))
        with timed(self.timers, "nbody::gather"):
            return cic_gather(acc, p.positions)

    # -- time integration ------------------------------------------------------
    def advance(self) -> None:
        """One leapfrog step: migrate, deposit+solve, kick, drift.

        Migration runs *first* (and holds the fault site) so that a death
        recovery never has to replay a partially communicated step; see
        :meth:`_migrate`.
        """
        rec = self.timers.trace
        if rec is not None:
            rec.set_step(self.step + 1)
        with timed(self.timers, "nbody::advance"):
            with timed(self.timers, "nbody::migrate"):
                self._migrate()
            a = self._solve_gravity()
            with timed(self.timers, "nbody::kick_drift"):
                p = self.particles
                p.velocities += a * self.dt
                pos = p.positions
                pos += p.velocities * self.dt
                pos %= 1.0
                # float64 wrap pitfall: (x % 1.0) rounds to exactly 1.0
                # for tiny negative x; clamp back into [0, 1).
                pos[pos >= 1.0] = 0.0
            self.time += self.dt
            self.step += 1

    def run(self, n_steps: int, bridge=None) -> None:
        for _ in range(n_steps):
            self.advance()
            if bridge is not None:
                bridge.execute(self.time, self.step)

    # -- checkpoint/restart ----------------------------------------------------
    def snapshot(self) -> dict:
        """Value-semantics checkpoint, including exact particle ownership."""
        return {
            "time": self.time,
            "step": self.step,
            "particles": self.particles.copy(),
            "density": self.density.copy(),
            "migrated_out": self.migrated_out,
            "migrated_in": self.migrated_in,
        }

    def restore(self, snap: dict) -> None:
        self.time = snap["time"]
        self.step = snap["step"]
        self.particles = snap["particles"].copy()
        np.copyto(self.density, snap["density"])
        self.migrated_out = snap["migrated_out"]
        self.migrated_in = snap["migrated_in"]

    def make_data_adaptor(self) -> "NBodyDataAdaptor":
        return NBodyDataAdaptor(self)


class NBodyDataAdaptor(DataAdaptor):
    """SENSEI adaptor over the nbody state: grid mesh + ragged particles.

    Two kinds of data behind one adaptor:

    - the mesh is this rank's x-slab of the (replicated) density grid as
      an :class:`ImageData` -- the shape all four infrastructure
      endpoints (Catalyst slice, libsim session, ADIOS BP/FlexPath,
      GLEAN aggregation) already consume;
    - the ``position`` / ``velocity`` / ``mass`` / ``id`` point arrays
      are zero-copy views of the rank's *ragged* particle population,
      whose length has nothing to do with the mesh and varies per rank
      and per step.  Particle analyses fetch them by name; the
      sanitizer's write guard leases and fingerprints them like any
      other array.
    """

    #: Mesh-attached scalar the infrastructure endpoints render/ship.
    DENSITY = "density"

    def __init__(self, sim: NBodySimulation) -> None:
        super().__init__(sim.comm)
        self.sim = sim
        self._mesh: ImageData | None = None
        self._mapped: dict[tuple[Association, str], DataArray] = {}

    def _density_view(self) -> np.ndarray:
        """Zero-copy x-slab of the replicated global density grid."""
        return self.sim.density[self.sim.x_lo : self.sim.x_hi]

    def get_mesh(self, structure_only: bool = False) -> ImageData:
        if self._mesh is None:
            h = 1.0 / self.sim.grid
            self._mesh = ImageData(
                self.sim.owned_extent(),
                spacing=(h, h, h),
                whole_extent=self.sim.whole_extent(),
            )
        # Consumers attach the arrays they fetch (via get_array, so the
        # sanitizer sees every access); the mesh itself is geometry only.
        return self._mesh

    def get_array(self, association: Association, name: str) -> DataArray:
        if association is not Association.POINT:
            raise KeyError("nbody adaptor exposes point data only")
        key = (association, name)
        cached = self._mapped.get(key)
        if cached is not None:
            return cached
        if name == self.DENSITY:
            arr = DataArray.from_numpy(self.DENSITY, self._density_view())
        elif name in PARTICLE_ARRAYS:
            arr = self.sim.particles.get_array(Association.POINT, name)
        else:
            raise KeyError(f"unknown nbody array {name!r}")
        self._mapped[key] = arr
        rec = getattr(self.comm, "trace_recorder", None)
        if rec is not None:
            if arr.is_zero_copy:
                rec.count("sensei::bytes_zero_copy", arr.nbytes)
            else:
                rec.count("sensei::bytes_copied", arr.nbytes_copied)
        return arr

    def get_number_of_arrays(self, association: Association) -> int:
        if association is Association.POINT:
            return 1 + len(PARTICLE_ARRAYS)
        return 0

    def get_array_name(self, association: Association, index: int) -> str:
        return ((self.DENSITY,) + PARTICLE_ARRAYS)[index]

    def release_data(self) -> None:
        """Drop per-step mappings; migration replaces the particle arrays
        every step, so stale views must not survive into the next one."""
        self._mesh = None
        self._mapped.clear()


#: The four infrastructure endpoints the harness can attach.
INFRASTRUCTURES = ("catalyst", "libsim", "adios", "glean")


def run_nbody(
    out_dir: str,
    ranks: int = 2,
    steps: int = 4,
    grid: int = 16,
    n_particles: int = 400,
    seed: int = 42,
    backend: str | None = None,
    infrastructures: tuple[str, ...] = INFRASTRUCTURES,
    sanitize: bool = True,
    trace=None,
    dt: float = 0.05,
    gravity: float = 0.5,
    linking_length: float = 0.06,
    timeout: float = 120.0,
) -> dict:
    """The nbody miniapp through the bridge with every requested endpoint.

    One SPMD world runs the simulation with the three particle analyses
    plus any of the four infrastructure endpoints, all behind a single
    (optionally sanitized) SENSEI bridge.  Returns a manifest of artifact
    checksums -- density-projection PNG CRCs, the final power spectrum,
    per-step halo counts, and the Catalyst/libsim image CRCs -- which is
    what the cross-backend / cross-rank-count equivalence tests compare,
    and writes it to ``out_dir/manifest.json``.
    """
    import json
    import os
    import zlib

    from repro.analysis.particles import (
        DensityProjectionAnalysis,
        FriendsOfFriendsAnalysis,
        PowerSpectrumAnalysis,
    )
    from repro.analysis.slice_ import SlicePlane
    from repro.core.bridge import Bridge
    from repro.mpi import run_spmd

    unknown = set(infrastructures) - set(INFRASTRUCTURES)
    if unknown:
        raise ValueError(f"unknown infrastructures: {sorted(unknown)}")
    os.makedirs(out_dir, exist_ok=True)
    session_path = os.path.join(out_dir, "libsim_session.json")
    if "libsim" in infrastructures:
        from repro.infrastructure.libsim import write_session_file

        write_session_file(
            session_path,
            [{"type": "pseudocolor_slice", "axis": 2, "index": grid // 2}],
            resolution=(200, 200),
        )

    def program(comm):
        timers = TimerRegistry()
        sim = NBodySimulation(
            comm,
            grid=grid,
            n_particles=n_particles,
            seed=seed,
            dt=dt,
            gravity=gravity,
            timers=timers,
        )
        bridge = Bridge(
            comm, sim.make_data_adaptor(), timers=timers, sanitize=sanitize
        )
        projection = DensityProjectionAnalysis(
            grid=grid, output_dir=out_dir
        )
        bridge.add_analysis(projection)
        bridge.add_analysis(
            PowerSpectrumAnalysis(grid=grid, output_dir=out_dir)
        )
        bridge.add_analysis(
            FriendsOfFriendsAnalysis(
                linking_length=linking_length, output_dir=out_dir
            )
        )
        catalyst = None
        if "catalyst" in infrastructures:
            from repro.infrastructure.catalyst import CatalystAdaptor

            catalyst = CatalystAdaptor(
                plane=SlicePlane(2, grid // 2),
                array=NBodyDataAdaptor.DENSITY,
                resolution=(200, 200),
                output_dir=os.path.join(out_dir, "catalyst"),
            )
            bridge.add_analysis(catalyst)
        libsim = None
        if "libsim" in infrastructures:
            from repro.infrastructure.libsim import LibsimAdaptor

            libsim = LibsimAdaptor(
                session_path,
                array=NBodyDataAdaptor.DENSITY,
                output_dir=os.path.join(out_dir, "libsim"),
            )
            bridge.add_analysis(libsim)
        if "adios" in infrastructures:
            from repro.infrastructure.adios import AdiosBPAdaptor

            bridge.add_analysis(
                AdiosBPAdaptor(
                    os.path.join(out_dir, "steps.bp"),
                    array=NBodyDataAdaptor.DENSITY,
                )
            )
        if "glean" in infrastructures:
            from repro.infrastructure.glean import GleanAdaptor

            bridge.add_analysis(
                GleanAdaptor(
                    os.path.join(out_dir, "glean"),
                    array=NBodyDataAdaptor.DENSITY,
                    ranks_per_aggregator=2,
                )
            )
        bridge.initialize()
        sim.run(steps, bridge)
        results = bridge.finalize()
        out = {
            "rank": comm.rank,
            "n_local": sim.n_local,
            "migrated_out": sim.migrated_out,
            "migrated_in": sim.migrated_in,
            "results": results,
        }
        if catalyst is not None and catalyst.last_png is not None:
            out["catalyst_png_crc"] = zlib.crc32(catalyst.last_png)
        if libsim is not None and getattr(libsim, "last_png", None) is not None:
            out["libsim_png_crc"] = zlib.crc32(libsim.last_png)
        return out

    per_rank = run_spmd(
        ranks, program, backend=backend, trace=trace, timeout=timeout
    )
    root = per_rank[0]
    manifest = {
        "ranks": ranks,
        "steps": steps,
        "grid": grid,
        "n_particles": n_particles,
        "seed": seed,
        "infrastructures": sorted(infrastructures),
        "density_png_crcs": root["results"]["DensityProjectionAnalysis"][
            "png_crcs"
        ],
        "power_spectrum": root["results"]["PowerSpectrumAnalysis"]["power"][-1],
        "halo_counts": root["results"]["FriendsOfFriendsAnalysis"][
            "halo_counts"
        ],
        "halo_sizes": root["results"]["FriendsOfFriendsAnalysis"]["halo_sizes"][
            -1
        ],
        "migrated": sum(r["migrated_out"] for r in per_rank),
        "final_counts": [r["n_local"] for r in per_rank],
    }
    for key in ("catalyst_png_crc", "libsim_png_crc"):
        if key in root:
            manifest[key] = root[key]
    with open(
        os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
