"""GRW jump machinery: collapse operators and flash statistics.

A flash on particle k at continuum position x_f multiplies the wavefunction
by the Gaussian localizer

    L_k(x_f) = (pi r_C^2)^(-dim/4) * exp(-(x_k - x_f)^2 / (2 r_C^2)),

and the squared norm of the unnormalized result is the probability density
for x_f.  The grid is a periodic box: x_k - x_f is the minimum-image
displacement (``GridSpec.offsets``), as in the oracle's kernels and the
gravitational kick.  Flash positions are kept in the continuum (never
snapped to the grid) and drawn from the discrete model's Born law,
sum_i p_i N(x_i, r_C^2/2) wrapped onto the box: a node i with its
probability p_i, plus a Gaussian offset, with no redraws.

Randomness comes from counter-based Philox streams so runs are bitwise
reproducible and trivially parallel: stream i of master seed s is
Philox(key=(s, i)).  Each trajectory draws its flash waiting times,
flashing particles and flash positions from one live generator on its own
stream.  Waiting times for N particles are exponential with total rate
N*lam; the flashing particle is uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import WaveFunction, position_density


@dataclass(frozen=True)
class FlashEvent:
    """One collapse event: when, which particle, where."""

    time: float
    particle: int
    position: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "position", tuple(float(c) for c in np.atleast_1d(self.position))
        )


def rng_stream(master_seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for (master seed, stream id)."""
    key = np.array([master_seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def next_flash(
    rng: np.random.Generator, n_particles: int, lam: float
) -> tuple[float, int]:
    """Draw (waiting time, flashing particle) from the live generator ``rng``.

    Waiting times are exponential with rate N*lam and the particle choice is
    uniform, which together realize N independent rate-lam processes.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if not lam > 0:
        raise ValueError("flash rate must be positive")
    dt = rng.standard_exponential() / (n_particles * lam)
    return float(dt), int(rng.integers(n_particles))


def collapse_factor(offsets, r_C: float) -> np.ndarray:
    """L_k values on the particle grid for flashes at the given ``offsets``.

    ``offsets`` are ``GridSpec.offsets(x_f)``: for x_f of shape (B, dim)
    the result holds B factors stacked on a leading axis, each equal to the
    one of its row alone.
    """
    prefactor = (np.pi * r_C**2) ** (-len(offsets) / 4.0)
    return prefactor * math.prod(np.exp(-(d**2) / (2 * r_C**2)) for d in offsets)


def apply_collapse(psi: WaveFunction, k: int, x_f, r_C: float) -> WaveFunction:
    """Apply L_k(x_f); the result is intentionally unnormalized.

    Its squared norm equals the flash-position density at x_f, which is
    exactly what the jump law requires.  x_f and its periodic images act
    alike.
    """
    if not 0 <= k < psi.n_particles:
        raise IndexError(f"particle index {k} out of range")
    x_f = np.atleast_1d(np.asarray(x_f, dtype=float))
    grid = psi.grid
    if x_f.shape != (grid.dim,):
        raise ValueError(f"flash position must have {grid.dim} components")
    factor = collapse_factor(grid.offsets(x_f), r_C)
    factor = grid.on_particle(factor, k, psi.n_particles)
    return psi.with_amplitudes(psi.amplitudes * factor)


def flash_position_density(psi: WaveFunction, k: int, r_C: float) -> np.ndarray:
    """Density of flash centers for particle k, on the particle grid.

    Equals the position density convolved with a normalized Gaussian of
    variance r_C^2/2 per axis (the squared collapse operator) at
    minimum-image distances, evaluated at the grid nodes.  Integrates to 1
    over the box up to the Gaussian tail beyond half a box length.
    """
    dens = position_density(psi, k)
    grid = psi.grid
    # Per-axis kernel matrix K[j, i] = g(x_j - x_i); the Gaussian is
    # separable, so convolve one axis at a time.
    out = dens
    for a in range(grid.dim):
        xa = grid.axis(a)
        d = grid.min_image(np.subtract.outer(xa, xa))
        kernel = np.exp(-(d**2) / r_C**2) / (np.sqrt(np.pi) * r_C)
        out = np.moveaxis(np.tensordot(kernel, out, axes=(1, a)), 0, a)
    return out * grid.cell_volume


def sample_flash_position(
    psi: WaveFunction, k: int, rng: np.random.Generator, r_C: float
) -> np.ndarray:
    """Draw a flash position for particle k from the discrete Born law.

    The law is sum_i p_i N(x_i, r_C^2/2) per axis, wrapped onto the periodic
    box: one uniform picks node x_i with its probability p_i (the draw of
    ``Generator.choice``), then ``standard_normal(dim)`` gives the offset,
    and the sum is wrapped by ``GridSpec.wrap``.  Integrated over x_f, the
    normalized jump it drives is the oracle's kernel channel K o rho.
    """
    dens = position_density(psi, k)
    grid = psi.grid
    p = (dens * grid.cell_volume).ravel()
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    cell = rng.choice(len(p), p=p)
    node = np.asarray(grid.origin) + grid.spacing * np.array(
        np.unravel_index(cell, dens.shape)
    )
    return grid.wrap(node + r_C / np.sqrt(2.0) * rng.standard_normal(grid.dim))
