"""GRW jump machinery: collapse operators and flash statistics.

A flash on particle k at continuum position x_f multiplies the wavefunction
by the Gaussian localizer

    L_k(x_f) = (pi r_C^2)^(-dim/4) * exp(-(x_k - x_f)^2 / (2 r_C^2)),

and the squared norm of the unnormalized result is the probability density
for x_f.  Flash positions are kept in the continuum (never snapped to the
grid): the Gaussian is evaluated at the exact x_f on grid points, which
avoids grid-artifact bias in kernel estimates.

Randomness comes from counter-based Philox streams so runs are bitwise
reproducible and trivially parallel: stream i of master seed s is
Philox(key=(s, i)).  Each trajectory draws its flash waiting times,
flashing particles and flash positions from one live generator on its own
stream.  Waiting times for N particles are exponential with total rate
N*lam; the flashing particle is uniform.
"""

from __future__ import annotations

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


def collapse_factor(coords: np.ndarray, x_f: np.ndarray, r_C: float) -> np.ndarray:
    """L_k values at per-axis coordinate arrays for a flash at x_f.

    ``x_f`` of shape (B, dim) gives B factors stacked on a leading axis,
    each equal to the one of its row alone.
    """
    x_f = np.atleast_1d(x_f)
    lead = x_f.shape[:-1]
    dim = len(coords)
    prefactor = (np.pi * r_C**2) ** (-dim / 4.0)
    out = None
    for a in range(dim):
        g = np.exp(-((coords[a] - x_f[..., a, None]) ** 2) / (2 * r_C**2))
        out = g if out is None else out[..., None] * g.reshape(lead + (1,) * a + (-1,))
    return prefactor * out


def apply_collapse(psi: WaveFunction, k: int, x_f, r_C: float) -> WaveFunction:
    """Apply L_k(x_f); the result is intentionally unnormalized.

    Its squared norm equals the flash-position density at x_f up to
    discretization, which is exactly what the jump law requires.
    """
    if not 0 <= k < psi.n_particles:
        raise IndexError(f"particle index {k} out of range")
    x_f = np.atleast_1d(np.asarray(x_f, dtype=float))
    grid = psi.grid
    if x_f.shape != (grid.dim,):
        raise ValueError(f"flash position must have {grid.dim} components")
    if not grid.contains(x_f):
        raise ValueError(
            f"flash position {tuple(x_f)} outside the grid extent; "
            "this signals a sampling bug"
        )
    factor = collapse_factor(grid.axes(), x_f, r_C)
    full_shape = [1] * psi.amplitudes.ndim
    for a in psi.particle_axes(k):
        full_shape[a] = grid.n_points
    return psi.with_amplitudes(psi.amplitudes * factor.reshape(full_shape))


def flash_position_density(psi: WaveFunction, k: int, r_C: float) -> np.ndarray:
    """Density of flash centers for particle k, on the particle grid.

    Equals the position density convolved with a normalized Gaussian of
    variance r_C^2/2 per axis (the squared collapse operator), evaluated at
    the grid nodes.  Integrates to 1 up to boundary leakage.
    """
    dens = position_density(psi, k)
    grid = psi.grid
    # Per-axis kernel matrix K[j, i] = g(x_j - x_i); the Gaussian is
    # separable, so convolve one axis at a time.
    out = dens
    for a in range(grid.dim):
        xa = grid.axis(a)
        kernel = np.exp(-np.subtract.outer(xa, xa) ** 2 / r_C**2) / (
            np.sqrt(np.pi) * r_C
        )
        out = np.moveaxis(np.tensordot(kernel, out, axes=(1, a)), 0, a)
    return out * grid.cell_volume


MAX_SAMPLER_TRIES = 1000


def sample_flash_position(
    psi: WaveFunction, k: int, rng: np.random.Generator, r_C: float,
    max_tries: int = MAX_SAMPLER_TRIES,
) -> np.ndarray:
    """Two-step flash-position sampler.

    Draw a grid cell from the position density (uniform within the cell),
    then add Gaussian noise of variance r_C^2/2 per axis.  Rejection outside
    the grid extent preserves normalization without reflecting mass;
    experiments are sized so that rejections are ~1e-6 rare.
    """
    dens = position_density(psi, k)
    grid = psi.grid
    p = (dens * grid.cell_volume).ravel()
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    origin = np.asarray(grid.origin)
    sigma = r_C / np.sqrt(2.0)
    for _ in range(max_tries):
        cell = rng.choice(len(p), p=p)
        node = origin + grid.spacing * np.array(np.unravel_index(cell, dens.shape))
        u = rng.uniform(-grid.spacing / 2, grid.spacing / 2, size=grid.dim)
        x = node + u + sigma * rng.standard_normal(grid.dim)
        if grid.contains(x):
            return x
    raise RuntimeError(
        f"flash position rejected {max_tries} times; grid is far too small "
        "relative to r_C"
    )
