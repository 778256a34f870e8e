"""Workload inputs, generated from ``--seed`` before any timing starts.

The program under test never sees the seed: it receives the oscillator
table, the particle initial conditions and the tenant frames built here.
``field_at`` regenerates the oscillator field independently of the
miniapp, for the staged workload's output check.
"""

from __future__ import annotations

import math

import numpy as np

#: Per-workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: is the smoke test's.  ``steps`` is the work of one solution.
SIZES = {
    "osc-inline": {
        "full": dict(grid=64, oscillators=16, ranks=2, steps=24, bins=64,
                     window=8, catalyst=(960, 540), libsim=540),
        "tiny": dict(grid=16, oscillators=4, ranks=2, steps=4, bins=16,
                     window=2, catalyst=(96, 54), libsim=48),
    },
    "osc-staged": {
        "full": dict(grid=64, oscillators=16, steps=48, bins=64,
                     catalyst=(480, 270)),
        "tiny": dict(grid=16, oscillators=4, steps=4, bins=16,
                     catalyst=(48, 27)),
    },
    "nbody-halos": {
        "full": dict(particles=4096, grid=32, ranks=2, steps=16, fof_every=8,
                     catalyst=(200, 200)),
        "tiny": dict(particles=256, grid=8, ranks=2, steps=8, fof_every=8,
                     catalyst=(32, 32)),
    },
    "service-mix": {
        "full": dict(shape=(128, 128), frames=16, steps=160),
        "tiny": dict(shape=(32, 32), frames=4, steps=6),
    },
}

WORKLOADS = tuple(SIZES)

#: Time resolution of the oscillator workloads.
OSC_DT = 0.01
#: Dyadic quantum of the particle initial conditions (exact mass sums).
IC_QUANT = 4096
#: Tenant names and credit windows of the service workload.
TENANTS = (("inline", "in-line", 1), ("staged", "staged", 4))


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(map(ord, salt))])


def oscillator_table(seed: int, n: int) -> np.ndarray:
    """``(n, 7)`` rows of kind, cx, cy, cz, radius, omega, zeta.

    Kind 0 is periodic, 1 damped, 2 decaying, as in the miniapp input.  The
    kinds cycle and the other parameters vary in narrow ranges, so every
    seed gives a field of similar texture (and PNG cost); the seed moves
    the oscillators around.
    """
    rng = _rng(seed, "oscillators")
    table = np.empty((n, 7))
    table[:, 0] = np.arange(n) % 3
    table[:, 1:4] = rng.uniform(0.15, 0.85, size=(n, 3))
    table[:, 4] = rng.uniform(0.12, 0.16, size=n)
    table[:, 5] = rng.uniform(2.0, 3.0, size=n) * math.pi
    table[:, 6] = rng.uniform(0.1, 0.2, size=n)
    return table


def particle_ics(seed: int, n: int) -> dict[str, np.ndarray]:
    """Dyadic particle initial conditions: ids, positions, velocities, masses."""
    rng = _rng(seed, "particles")
    pos = rng.integers(0, IC_QUANT, size=(n, 3)) / IC_QUANT
    vel = rng.integers(-IC_QUANT // 4, IC_QUANT // 4, size=(n, 3)) / IC_QUANT / 16
    mass = rng.integers(1, 17, size=n) / 16.0
    return {"ids": np.arange(n, dtype=np.int64), "positions": pos,
            "velocities": vel, "masses": mass}


def tenant_frames(seed: int, shape: tuple[int, int], frames: int) -> dict:
    """A bounded set of frames per tenant, ``(frames, nx, ny, 1)``.

    Each frame is a sum of periodic waves with fixed wave vectors whose
    phases come from the seed and advance frame by frame: every seed and
    frame is the same pattern shifted, so the analysis cost does not
    depend on the seed.
    """
    rng = _rng(seed, "tenants")
    nx, ny = shape
    x = np.arange(nx).reshape(nx, 1) / nx
    y = np.arange(ny).reshape(1, ny) / ny
    waves = ((1, 0, 1.0), (0, 1, 1.0), (1, 1, 0.6), (2, -1, 0.4))
    out = {}
    for name, _, _ in TENANTS:
        phases = rng.uniform(0.0, 1.0, size=len(waves))
        stack = np.empty((frames, nx, ny, 1))
        for k in range(frames):
            field = sum(
                a * np.sin(2 * math.pi * (kx * x + ky * y + p + k / frames))
                for (kx, ky, a), p in zip(waves, phases)
            )
            stack[k, :, :, 0] = field
        out[name] = stack
    return out


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """Everything one repeat of ``workload`` needs, as numpy arrays."""
    cfg = SIZES[workload][size]
    if workload in ("osc-inline", "osc-staged"):
        return {"oscillators": oscillator_table(seed, cfg["oscillators"])}
    if workload == "nbody-halos":
        return particle_ics(seed, cfg["particles"])
    frames = tenant_frames(seed, cfg["shape"], cfg["frames"])
    return {f"frames_{name}": stack for name, stack in frames.items()}


def oscillators_from_table(table: np.ndarray) -> list:
    from repro.miniapp.oscillator import Oscillator, OscillatorKind

    kinds = (OscillatorKind.PERIODIC, OscillatorKind.DAMPED, OscillatorKind.DECAYING)
    return [
        Oscillator(kinds[int(k)], (float(cx), float(cy), float(cz)),
                   float(r), float(w), float(z) if int(k) == 1 else 0.0)
        for k, cx, cy, cz, r, w, z in table
    ]


def _time_value(kind: int, omega: float, zeta: float, t: float) -> float:
    if kind == 0:
        return math.cos(omega * t)
    if kind == 1:
        root = math.sqrt(1.0 - zeta * zeta)
        wd = omega * root
        return math.exp(-zeta * omega * t) * (
            math.cos(wd * t) + zeta / root * math.sin(wd * t)
        )
    return math.exp(-omega * t)


def field_at(table: np.ndarray, grid: int, steps: int) -> np.ndarray:
    """The whole oscillator field after ``steps`` steps of ``OSC_DT``,
    computed here from the table rather than by the miniapp."""
    t = 0.0
    for _ in range(steps):
        t += OSC_DT
    h = 1.0 / (grid - 1)
    x = (h * np.arange(grid))[:, None, None]
    y = (h * np.arange(grid))[None, :, None]
    z = (h * np.arange(grid))[None, None, :]
    field = np.zeros((grid, grid, grid))
    for k, cx, cy, cz, r, w, zeta in table:
        d2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        tv = _time_value(int(k), float(w), float(zeta) if int(k) == 1 else 0.0, t)
        field += tv * np.exp(-d2 / (2.0 * r * r))
    return field
