"""In situ analyses over ragged particle populations.

The three methods the ROADMAP names for the particle workload family,
each stressing a different reduction topology over variable-per-rank
data:

- :class:`DensityProjectionAnalysis` -- CIC mass deposit onto an axis
  projection plane, summed with an exact int64 ``allreduce`` and rendered
  through the same colormap + PNG encoder as the Catalyst/libsim slice
  path.  PNG bytes are identical across rank counts and SPMD backends.
- :class:`PowerSpectrumAnalysis` -- 3-D CIC deposit, int64 ``allreduce``,
  FFT of the (replicated, bit-identical) density contrast, radially
  binned ``P(k)``.
- :class:`FriendsOfFriendsAnalysis` -- ragged ``allgather`` of the global
  population, linked-cell pair search in canonical id order with
  smallest-index component labels (linear time for uniform populations),
  and a min/max halo-count reduction that doubles as a cross-rank
  divergence check.

All three consume ``position`` / ``mass`` / ``id`` attributes from any
data adaptor exposing a :class:`~repro.data.ParticleSet`-shaped
population; none mutates adaptor data, so they run unmodified under the
sanitizer's write guard.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.data import Association
from repro.data.particles import (
    DEPOSIT_SCALE,
    MASS,
    PARTICLE_ID,
    POSITION,
    cic_deposit_int,
    cic_deposit_int_2d,
)
from repro.core.configurable import register_analysis
from repro.mpi import MAX, MIN, SUM
from repro.render import VIRIDIS, Colormap, encode_png
from repro.util.timers import timed


class ParticleAnalysisError(RuntimeError):
    """An analysis-level invariant broke (e.g. rank-divergent halo counts)."""


def _particle_inputs(data: DataAdaptor) -> tuple[np.ndarray, np.ndarray]:
    """(positions (n,3), masses (n,)) from the adaptor, possibly empty."""
    pos = data.get_array(Association.POINT, POSITION).as_aos()
    mass = data.get_array(Association.POINT, MASS).values
    return pos, mass


@register_analysis("density_projection")
def _make_density_projection(config) -> "DensityProjectionAnalysis":
    return DensityProjectionAnalysis(
        grid=config.get_int("grid", 32),
        axis=config.get_int("axis", 0),
        output_dir=config.get("output_dir"),
        frequency=config.get_int("frequency", 1),
    )


class DensityProjectionAnalysis(AnalysisAdaptor):
    """Project particle mass along one axis and render it as a PNG.

    The projection plane is deposited in fixed-point int64 and summed
    with one ``allreduce``, so every rank holds the identical plane and
    the encoded PNG bytes are a pure function of the global particle
    population -- the property the 1/2/4-rank equivalence tests assert.
    """

    def __init__(
        self,
        grid: int = 32,
        axis: int = 0,
        output_dir: str | None = None,
        colormap: Colormap = VIRIDIS,
        frequency: int = 1,
        compression_level: int = 6,
    ) -> None:
        super().__init__()
        if grid <= 0:
            raise ValueError("grid must be positive")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.grid = grid
        self.axis = axis
        self.output_dir = output_dir
        self.colormap = colormap
        self.frequency = frequency
        self.compression_level = compression_level
        self._comm = None
        #: PNG bytes of the most recent projection (every rank).
        self.last_png: bytes | None = None
        #: Per-executed-step CRC-32 of the PNG bytes, in step order.
        self.png_crcs: list[int] = []
        self.images_written = 0

    def initialize(self, comm) -> None:
        self._comm = comm
        if self.output_dir is not None and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        if step % self.frequency != 0:
            return True
        pos, mass = _particle_inputs(data)
        with timed(self.timers, "density_projection::deposit"):
            local = cic_deposit_int_2d(pos, mass, self.grid, axis=self.axis)
        with timed(self.timers, "density_projection::reduce"):
            total = self._comm.allreduce(local, SUM)
        with timed(self.timers, "density_projection::render"):
            plane = total.astype(np.float64) / DEPOSIT_SCALE
            rgb = self.colormap.map(plane)
            self.last_png = encode_png(
                rgb, compression_level=self.compression_level
            )
        self.png_crcs.append(zlib.crc32(self.last_png))
        if self.output_dir is not None and self._comm.rank == 0:
            path = os.path.join(
                self.output_dir, f"density_proj_{step:06d}.png"
            )
            with open(path, "wb") as fh:
                fh.write(self.last_png)
            self.images_written += 1
        return True

    def finalize(self) -> dict:
        return {"steps": len(self.png_crcs), "png_crcs": list(self.png_crcs)}


@register_analysis("power_spectrum")
def _make_power_spectrum(config) -> "PowerSpectrumAnalysis":
    return PowerSpectrumAnalysis(
        grid=config.get_int("grid", 32),
        output_dir=config.get("output_dir"),
        frequency=config.get_int("frequency", 1),
    )


class PowerSpectrumAnalysis(AnalysisAdaptor):
    """Radially binned density power spectrum ``P(k)``.

    Deposit (int64, exact) -> ``allreduce`` -> FFT of the density
    contrast on the replicated grid -> spherical-shell average over
    integer wavenumber bins.  Every rank computes the identical spectrum;
    the per-step spectra are kept and written as JSON at finalize.
    """

    def __init__(
        self,
        grid: int = 32,
        output_dir: str | None = None,
        frequency: int = 1,
    ) -> None:
        super().__init__()
        if grid <= 0:
            raise ValueError("grid must be positive")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.grid = grid
        self.output_dir = output_dir
        self.frequency = frequency
        self._comm = None
        self._bin_index: np.ndarray | None = None
        self._bin_counts: np.ndarray | None = None
        #: Per-executed-step spectra: list of (step, P(k) list).
        self.history: list[tuple[int, list[float]]] = []

    def initialize(self, comm) -> None:
        self._comm = comm
        g = self.grid
        kx = np.fft.fftfreq(g, d=1.0 / g)
        kz = np.fft.rfftfreq(g, d=1.0 / g)
        kmag = np.sqrt(
            kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2
        )
        self._bin_index = np.floor(kmag).astype(np.int64).reshape(-1)
        self._bin_counts = np.bincount(
            self._bin_index, minlength=self.n_bins
        ).astype(np.float64)
        if self.output_dir is not None and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    @property
    def n_bins(self) -> int:
        # Nyquist shell: |k| runs to grid/2 per axis.
        return self.grid // 2 + 1

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        if step % self.frequency != 0:
            return True
        pos, mass = _particle_inputs(data)
        with timed(self.timers, "power_spectrum::deposit"):
            local = cic_deposit_int(pos, mass, self.grid)
        with timed(self.timers, "power_spectrum::reduce"):
            total = self._comm.allreduce(local, SUM)
        with timed(self.timers, "power_spectrum::fft"):
            rho = total.astype(np.float64) / DEPOSIT_SCALE
            mean = rho.mean()
            delta = rho / mean - 1.0 if mean > 0 else rho
            fk = np.fft.rfftn(delta)
            power = (fk.real**2 + fk.imag**2).reshape(-1)
            shell = np.bincount(
                self._bin_index, weights=power, minlength=self._bin_counts.size
            )
            spectrum = shell[: self.n_bins] / self._bin_counts[: self.n_bins]
        self.history.append((step, [float(v) for v in spectrum]))
        return True

    def finalize(self) -> dict:
        result = {
            "k": list(range(self.n_bins)),
            "steps": [s for s, _ in self.history],
            "power": [p for _, p in self.history],
        }
        if self.output_dir is not None and self._comm.rank == 0:
            path = os.path.join(self.output_dir, "power_spectrum.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
        return result


# -- friends-of-friends --------------------------------------------------------


#: Candidate pairs examined per batch: bounds the pair-search temporaries
#: even when a large linking length puts every pair in one cell.
_PAIR_BATCH = 1 << 18


def _merge_components(labels: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Link pairs ``(i, j)`` into ``labels`` in place.

    ``labels`` enters and leaves flat: every particle names the smallest
    index of its component so far, which names itself.  Each round hooks
    the larger root of every pair onto the smaller one, then jumps
    pointers until the labels are flat again.
    """
    while not np.array_equal(labels[i], labels[j]):
        np.minimum.at(labels, labels[i], labels[j])
        np.minimum.at(labels, labels[j], labels[i])
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels[:] = jumped
            jumped = labels[labels]


def friends_of_friends(
    positions: np.ndarray, linking_length: float
) -> np.ndarray:
    """Periodic friends-of-friends labels over a unit box.

    Particles closer than ``linking_length`` (minimum-image metric) are
    linked; connected components are halos.  Returns an ``(n,)`` int64
    label array where each particle's label is the smallest input index
    in its halo -- a canonical labeling, so the result is independent of
    traversal order.

    Linked cells: particles are sorted by a cell at least one linking
    length wide, so each linked pair lies in the same or a periodically
    adjacent cell.  The cell itself and a half shell of 13 neighbours
    visit each cell pair once; the exact ``d² <= ll²`` test filters those
    candidates.  O(n) for a uniform population at fixed ``n * ll³``.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    labels = np.arange(n, dtype=np.int64)
    if n < 2:
        return labels
    ll = abs(float(linking_length))  # the test below only sees ll**2
    # Cells strictly wider than ll, since an accepted pair may be an ulp
    # longer; the floor on ll keeps the int64 key m**3 from overflowing
    # (and sends 0 or NaN to the finest grid).  Below 3 cells the -1/+1
    # offsets alias mod m, so one cell holds everything.
    m = int(1.0 / max(2.0**-20, ll))
    while m * ll > 1.0 - 1e-9:
        m -= 1
    m = m if m >= 3 else 1

    def flat(c: np.ndarray) -> np.ndarray:
        return (c[..., 0] * m + c[..., 1]) * m + c[..., 2]

    wrapped = pos % 1.0
    wrapped[wrapped >= 1.0] = 0.0  # tiny negatives wrap to exactly 1.0
    cell = (wrapped * m).astype(np.int64)
    key = flat(cell)
    order = np.argsort(key, kind="stable")
    skey, scell = key[order], cell[order]

    # Sorted-index partner range [lo, hi) per (offset, sorted particle);
    # the own cell starts just past the particle, so its pairs appear once.
    ranks = np.arange(n, dtype=np.int64)
    lo, hi = ranks + 1, np.searchsorted(skey, skey, side="right")
    if m > 1:
        # The 13 offsets that follow (0, 0, 0) in lexicographic order.
        half = np.argwhere(np.ones((3, 3, 3), dtype=bool))[14:] - 1
        nkey = flat((scell + half[:, None, :]) % m).ravel()
        lo = np.r_[lo, np.searchsorted(skey, nkey, side="left")]
        hi = np.r_[hi, np.searchsorted(skey, nkey, side="right")]
    src, counts = np.tile(ranks, lo.size // n), hi - lo

    # Expand the ranges into (i, j) pairs, about _PAIR_BATCH at a time.
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_PAIR_BATCH, ends[-1], _PAIR_BATCH)) + 1
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, counts.size]):
        c = counts[a:b]
        first = np.cumsum(c) - c
        i = order[np.repeat(src[a:b], c)]
        j = order[np.repeat(lo[a:b] - first, c) + np.arange(c.sum())]
        d = pos[i] - pos[j]
        d -= np.rint(d)  # minimum image on the periodic unit box
        close = (d * d).sum(axis=-1) <= ll**2
        _merge_components(labels, i[close], j[close])
    return labels


def halo_sizes(labels: np.ndarray, min_members: int = 2) -> list[int]:
    """Halo populations (descending) with at least ``min_members``."""
    if labels.size == 0:
        return []
    counts = np.bincount(labels)
    sizes = counts[counts >= min_members]
    return sorted((int(s) for s in sizes), reverse=True)


@register_analysis("fof")
def _make_fof(config) -> "FriendsOfFriendsAnalysis":
    return FriendsOfFriendsAnalysis(
        linking_length=config.get_float("linking_length", 0.05),
        min_members=config.get_int("min_members", 2),
        output_dir=config.get("output_dir"),
        frequency=config.get_int("frequency", 1),
    )


class FriendsOfFriendsAnalysis(AnalysisAdaptor):
    """Friends-of-friends halo finder over the gathered global population.

    The per-rank populations are ragged (and may be empty); an
    ``allgather`` assembles the global set, a stable sort by persistent
    particle id imposes the canonical order, and the smallest-index
    labels are decomposition-independent by construction.  The halo
    *count* is then pushed through min/max reductions -- a cheap
    cross-rank agreement check that turns any divergence into an
    immediate error instead of silently inconsistent artifacts.
    """

    def __init__(
        self,
        linking_length: float = 0.05,
        min_members: int = 2,
        output_dir: str | None = None,
        frequency: int = 1,
    ) -> None:
        super().__init__()
        if linking_length <= 0:
            raise ValueError("linking_length must be positive")
        if min_members < 1:
            raise ValueError("min_members must be >= 1")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.linking_length = linking_length
        self.min_members = min_members
        self.output_dir = output_dir
        self.frequency = frequency
        self._comm = None
        #: Per-executed-step (step, halo_count, sizes descending).
        self.history: list[tuple[int, int, list[int]]] = []

    def initialize(self, comm) -> None:
        self._comm = comm
        if self.output_dir is not None and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        if step % self.frequency != 0:
            return True
        pos = data.get_array(Association.POINT, POSITION).as_aos()
        ids = data.get_array(Association.POINT, PARTICLE_ID).values
        with timed(self.timers, "fof::gather"):
            # Ragged gather: each rank contributes its own (possibly
            # zero-length) block; payload sizes differ per rank.
            parts = self._comm.allgather(
                (np.ascontiguousarray(ids), np.ascontiguousarray(pos))
            )
        with timed(self.timers, "fof::cluster"):
            all_ids = np.concatenate([p[0] for p in parts])
            all_pos = np.concatenate([p[1] for p in parts])
            order = np.argsort(all_ids, kind="stable")
            labels = friends_of_friends(all_pos[order], self.linking_length)
            sizes = halo_sizes(labels, self.min_members)
        count = len(sizes)
        with timed(self.timers, "fof::reduce"):
            lo = self._comm.allreduce(count, MIN)
            hi = self._comm.allreduce(count, MAX)
        if lo != hi:
            raise ParticleAnalysisError(
                f"rank-divergent halo counts at step {step}: min {lo}, max {hi}"
            )
        self.history.append((step, count, sizes))
        return True

    def finalize(self) -> dict:
        result = {
            "steps": [s for s, _, _ in self.history],
            "halo_counts": [c for _, c, _ in self.history],
            "halo_sizes": [sz for _, _, sz in self.history],
            "linking_length": self.linking_length,
            "min_members": self.min_members,
        }
        if self.output_dir is not None and self._comm.rank == 0:
            path = os.path.join(self.output_dir, "halos.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
        return result
