"""Gravitational response to a flash: phase kicks and the smoothed potential.

In the sharp (delta-in-time, delta-in-space) limit the Poisson-sourced field
of a flash acts on the wavefunction as one instantaneous position-diagonal
unitary.  After particle k flashes at x_f, each particle l picks up the phase

    phi_l(x) = r_G(k, l) / |x - x_f|            (sharp sourcing)
    phi_l(x) = r_G(k, l) * erf(|x - x_f| / w) / |x - x_f|   (gaussian, width w)

per point x of its grid, with r_G(k, l) = G m_k m_l / (hbar lam).  The field
itself is never stored: only its time integral (the phase) is physical.
On the periodic grid |x - x_f| is the minimum-image distance of
``GridSpec.offsets``: each point feels the flash's nearest image only.

On a lattice the sharp 1/r is undefined at a node coinciding with x_f, so a
Plummer regulator 1/sqrt(r^2 + a^2) with a of order half a grid cell stands
in; its far-field error is below (a/r)^2/2.  The dim=1 harness keeps the same
radial profile with |x - x_f| the 1D distance (a > 0 mandatory there): it is
a test fixture preserving the 3D kernel structure, not 1D physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import GridSpec, WaveFunction
from .units import PhysicalParams


def softened_inverse_distance(r: np.ndarray, a: float) -> np.ndarray:
    """Plummer-regularized 1/r."""
    return 1.0 / np.sqrt(r**2 + a**2)


def _checked_distance(d, r_C: float) -> np.ndarray:
    """``d`` as a float array, after refusing r_C <= 0 and negative distances."""
    if not r_C > 0:
        raise ValueError("r_C must be positive")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    return d


def smeared_newton_potential(d, r_C: float):
    """Shape of 1/r convolved with the collapse Gaussian; finite at contact.

    Returns erf(d/r_C)/d, with the analytic limit 2/(sqrt(pi) r_C) at d = 0;
    equal to the convolution of 1/r with the normalized Gaussian
    (pi r_C^2)^(-3/2) exp(-r^2/r_C^2).  Strictly decreasing in d and bounded
    by min(1/d, 2/(sqrt(pi) r_C)).
    """
    from scipy.special import erf  # imported here, off the import path

    d = _checked_distance(d, r_C)
    u = d / r_C
    small = u < 1e-6
    # Series of erf(u)/u around 0 keeps the contact value exact.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, (2 / np.sqrt(np.pi)) * (1 - u**2 / 3), erf(u) / u)
    out = out / r_C
    return out if out.shape else float(out)


def smeared_newton_gradient(d, r_C: float):
    """d/dd of :func:`smeared_newton_potential`; negative for d > 0."""
    from scipy.special import erf  # imported here, off the import path

    d = _checked_distance(d, r_C)
    u = d / r_C
    small = u < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            small,
            (2 / np.sqrt(np.pi)) * (-2 * u / 3) / r_C**2,
            ((2 / np.sqrt(np.pi)) * np.exp(-(u**2)) * u - erf(u)) / d**2,
        )
    return out if out.shape else float(out)


@dataclass(frozen=True)
class PhaseProfile:
    """Phase imprinted by one flash: one radial profile, one scale per particle.

    ``shape`` is the radial profile on a particle grid (shape
    (n_points,)*dim); particle l picks up the phase ``pair_scales[l] * shape``
    on its own coordinates.  In sharp mode with zero softening the profile is
    exactly 1/|x - x_f| away from the singularity; with a > 0 it is finite.
    """

    shape: np.ndarray
    pair_scales: tuple[float, ...]


def phase_profile(
    x_f,
    params: PhysicalParams,
    k: int,
    grid: GridSpec,
    softening: float = 0.0,
) -> PhaseProfile:
    """Phase kick of a flash of particle k at x_f, as a profile and scales.

    The profile is 1/sqrt(r^2 + a^2) for sharp smearing and erf(r/w)/r for
    gaussian smearing of width w (already finite at coincidence), with r the
    minimum-image distance to x_f on the periodic particle grid (the same
    distance as the collapse and the oracle's kernels); particle l's scale
    is r_G(k, l).
    Sharp mode with a = 0 is refused whenever a grid point coincides with
    x_f (the phase is undefined there) and always in the 1D harness.
    """
    n = params.n_particles
    if not 0 <= k < n:
        raise IndexError(f"particle index {k} out of range")
    if softening < 0:
        raise ValueError("softening must be nonnegative")
    x_f = np.atleast_1d(np.asarray(x_f, dtype=float))
    if x_f.shape != (grid.dim,):
        raise ValueError(f"flash position must have {grid.dim} components")
    scales = tuple(float(s) for s in params.r_G_matrix()[k])
    return PhaseProfile(
        shape=profile_shape(grid.offsets(x_f), params, softening),
        pair_scales=scales,
    )


def profile_shape(offsets, params: PhysicalParams, softening: float) -> np.ndarray:
    """The radial profile of ``phase_profile`` at the given flash ``offsets``.

    ``offsets`` are ``GridSpec.offsets(x_f)``: for x_f of shape (B, dim)
    the result holds B profiles stacked on a leading axis, each equal to
    the one of its row alone.
    """
    r = np.sqrt(sum(d**2 for d in offsets))
    if params.smearing.kind != "sharp":
        return smeared_newton_potential(r, params.smearing.width)
    if softening == 0.0:
        if len(offsets) == 1:
            raise ValueError("the 1D harness requires softening a > 0")
        if np.min(r) == 0.0:
            raise ValueError(
                "sharp phase undefined: flash position coincides with a "
                "grid point and softening is zero"
            )
    return softened_inverse_distance(r, softening)


def apply_gravitational_kick(psi: WaveFunction, profile: PhaseProfile) -> WaveFunction:
    """Multiply amplitudes by exp(i * sum_l phi_l(x_l)).

    The phase is position-diagonal, so the norm and every position density
    are preserved exactly.
    """
    if len(profile.pair_scales) != psi.n_particles:
        raise ValueError("profile and state disagree on particle count")
    if profile.shape.shape != (psi.grid.n_points,) * psi.grid.dim:
        raise ValueError("profile grid does not match the state grid")
    total = np.zeros(psi.amplitudes.shape)
    for l, scale in enumerate(profile.pair_scales):
        total = total + psi.grid.on_particle(scale * profile.shape, l, psi.n_particles)
    return psi.with_amplitudes(psi.amplitudes * np.exp(1j * total))
