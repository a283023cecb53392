"""Wavefunctions and density matrices on tensor-product spatial grids.

A single grid (dim axes of n_points each, uniform spacing) is shared by all
particles; an N-particle wavefunction lives on the dim*N dimensional tensor
grid.  The discrete L2 norm is the plain spacing-weighted (Riemann) sum,
matching the discretized flash-position integrals in the dynamics module.
The grid is a periodic box, one model for every part of the code: free
flight is spectral, every flash distance is a minimum-image distance
(``GridSpec.min_image``) and sampled flash positions are wrapped into the
box (``GridSpec.wrap``).  Experiments are sized so that wavepacket mass
near the boundary stays negligible.

Density matrices store kernel values rho(x_i, x_j); their trace is the
spacing-weighted diagonal sum.  Full matrices are only supported up to
MAX_DENSITY_BASIS basis points: they serve as the exact oracle for small
problems, not as a scalable representation.

States are immutable snapshots (arrays are frozen); operations return new
values, so sharing across workers is safe.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

MAX_DENSITY_BASIS = 4096

_MAGIC = b"GRWS"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform per-particle grid: dim axes, n_points per axis."""

    dim: int
    n_points: int
    spacing: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError("dim must be 1 or 3")
        if self.n_points < 4:
            raise ValueError("n_points must be at least 4")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        origin = tuple(float(c) for c in np.atleast_1d(self.origin))
        if len(origin) == 1 and self.dim > 1:
            origin = origin * self.dim
        if len(origin) != self.dim:
            raise ValueError("origin must have one component per axis")
        object.__setattr__(self, "origin", origin)

    @staticmethod
    def centered(dim: int, n_points: int, spacing: float) -> "GridSpec":
        """Grid symmetric about 0 (no node at the origin for even n_points)."""
        half = spacing * (n_points - 1) / 2.0
        return GridSpec(dim, n_points, spacing, (-half,) * dim)

    @property
    def extent(self) -> float:
        """Total length per axis, counting one cell per node."""
        return self.n_points * self.spacing

    @property
    def basis_size(self) -> int:
        return self.n_points**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self, a: int = 0) -> np.ndarray:
        return self.origin[a] + self.spacing * np.arange(self.n_points)

    def axes(self) -> list[np.ndarray]:
        return [self.axis(a) for a in range(self.dim)]

    def points(self) -> np.ndarray:
        """All per-particle grid points, shape (basis_size, dim), C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def joint_shape(self, n_particles: int) -> tuple[int, ...]:
        return (self.n_points,) * (self.dim * n_particles)

    def min_image(self, d: np.ndarray) -> np.ndarray:
        """Displacements wrapped to their nearest periodic image, [-L/2, L/2)."""
        length = self.extent
        return (d + length / 2.0) % length - length / 2.0

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Positions (..., dim) mapped into the box [origin - spacing/2, + L)."""
        lo = np.asarray(self.origin) - self.spacing / 2
        return lo + (x - lo) % self.extent


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes over the N-fold tensor grid."""

    grid: GridSpec
    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = self.grid.joint_shape(self.n_particles)
        if amps.shape != expected:
            if amps.size == int(np.prod(expected)):
                amps = amps.reshape(expected)
            else:
                raise ValueError(
                    f"amplitude shape {amps.shape} does not match grid {expected}"
                )
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def volume_element(self) -> float:
        """Joint-configuration-space volume per amplitude."""
        return self.grid.cell_volume**self.n_particles

    def norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.volume_element)
        )

    def particle_axes(self, k: int) -> tuple[int, ...]:
        d = self.grid.dim
        return tuple(range(k * d, (k + 1) * d))

    def with_amplitudes(self, amps: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, self.n_particles, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Kernel values rho(x_I, x_J) over the flattened joint grid basis."""

    grid: GridSpec
    n_particles: int
    entries: np.ndarray

    def __post_init__(self):
        b = self.grid.basis_size**self.n_particles
        if b > MAX_DENSITY_BASIS:
            raise ValueError(
                f"density matrix basis {b} exceeds the {MAX_DENSITY_BASIS} cap"
            )
        ent = np.asarray(self.entries, dtype=np.complex128)
        if ent.shape != (b, b):
            raise ValueError(f"expected {(b, b)} entries, got {ent.shape}")
        object.__setattr__(self, "entries", _freeze(ent))

    @property
    def volume_element(self) -> float:
        return self.grid.cell_volume**self.n_particles

    def trace(self) -> complex:
        return complex(np.trace(self.entries) * self.volume_element)

    def purity(self) -> float:
        return float(
            np.real(np.sum(self.entries * self.entries.T)) * self.volume_element**2
        )

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the density operator (sums to the trace)."""
        h = 0.5 * (self.entries + self.entries.conj().T)
        return np.linalg.eigvalsh(h) * self.volume_element

    def validate(self, herm_tol=1e-10, trace_tol=1e-8, pos_tol=1e-8) -> list[str]:
        diags = []
        asym = np.max(np.abs(self.entries - self.entries.conj().T))
        if asym > herm_tol:
            diags.append(f"hermiticity violated: max asymmetry {asym:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > trace_tol:
            diags.append(f"trace {tr:.12g} differs from 1")
        lo = float(np.min(self.eigenvalues()))
        if lo < -pos_tol:
            diags.append(f"negative eigenvalue {lo:.3e}")
        return diags

    def with_entries(self, entries: np.ndarray) -> "DensityMatrix":
        return DensityMatrix(self.grid, self.n_particles, entries)


class NullStateError(ValueError):
    """Normalization of a numerically null state was requested."""


def normalize(psi: WaveFunction) -> WaveFunction:
    """Rescale to unit discrete L2 norm; direction is unchanged.

    Raises NullStateError below norm 1e-14, which in a jump process signals
    an impossible flash outcome that the caller must reject.
    """
    n = psi.norm()
    if n <= 1e-14:
        raise NullStateError(f"state norm {n:.3e} is numerically null")
    return psi.with_amplitudes(psi.amplitudes / n)


def make_gaussian_packet(grid, n_particles, centers, widths, momenta=None):
    """Normalized product of per-particle Gaussian packets.

    Each factor is proportional to exp(-(x-c)^2/(2 w^2) + i k.x), so the
    position variance per axis is w^2/2.  Widths must be resolvable
    (w >= 2*spacing) and the packet must fit: density mass outside the grid
    is required to stay below 1e-8 per axis.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    if momenta is None:
        momenta = np.zeros((n_particles, grid.dim))
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    if centers.shape != (n_particles, grid.dim):
        centers = centers.reshape(n_particles, grid.dim)
    if momenta.shape != (n_particles, grid.dim):
        momenta = momenta.reshape(n_particles, grid.dim)
    if widths.shape != (n_particles,):
        raise ValueError("need one width per particle")

    for k in range(n_particles):
        w = widths[k]
        if w < 2 * grid.spacing:
            raise ValueError(
                f"particle {k}: width {w} under-resolved for spacing {grid.spacing}"
            )
        for a in range(grid.dim):
            axis = grid.axis(a)
            margin = min(centers[k, a] - axis[0], axis[-1] - centers[k, a])
            if margin < 0 or math.erfc(margin / w) > 1e-8:
                raise ValueError(
                    f"particle {k}: packet at {centers[k, a]} leaks past the "
                    f"grid boundary (margin {margin:.3g}, width {w})"
                )

    amps = np.ones(grid.joint_shape(n_particles), dtype=np.complex128)
    for k in range(n_particles):
        for a in range(grid.dim):
            x = grid.axis(a)
            factor = np.exp(
                -((x - centers[k, a]) ** 2) / (2 * widths[k] ** 2)
                + 1j * momenta[k, a] * x
            )
            shape = [1] * (grid.dim * n_particles)
            shape[k * grid.dim + a] = grid.n_points
            amps = amps * factor.reshape(shape)
    return normalize(WaveFunction(grid, n_particles, amps))


def position_density(psi: WaveFunction, k: int) -> np.ndarray:
    """Marginal probability density of particle k on its grid.

    Shape (n_points,)*dim; nonnegative; sums to 1 when weighted by the
    per-particle cell volume.
    """
    if not 0 <= k < psi.n_particles:
        raise IndexError(f"particle index {k} out of range")
    prob = np.abs(psi.amplitudes) ** 2
    other = tuple(a for a in range(prob.ndim) if a not in psi.particle_axes(k))
    dens = prob.sum(axis=other) * psi.grid.cell_volume ** (psi.n_particles - 1)
    return dens


def expectation_position(psi: WaveFunction, k: int) -> np.ndarray:
    """Spacing-weighted first moment of particle k's position, shape (dim,)."""
    dens = position_density(psi, k)
    grid = psi.grid
    out = np.empty(grid.dim)
    for a in range(grid.dim):
        other = tuple(i for i in range(grid.dim) if i != a)
        marg = dens.sum(axis=other) if other else dens
        out[a] = np.sum(grid.axis(a) * marg) * grid.cell_volume
    return out


def boundary_mass(psi: WaveFunction, cells: int = 3) -> float:
    """Probability mass within `cells` grid cells of any boundary."""
    prob = np.abs(psi.amplitudes) ** 2 * psi.volume_element
    n = psi.grid.n_points
    mask = np.zeros(psi.amplitudes.shape, dtype=bool)
    for axis in range(psi.amplitudes.ndim):
        idx = [slice(None)] * psi.amplitudes.ndim
        idx[axis] = slice(0, cells)
        mask[tuple(idx)] = True
        idx[axis] = slice(n - cells, n)
        mask[tuple(idx)] = True
    return float(prob[mask].sum())


def warn_if_near_boundary(psi: WaveFunction, threshold: float = 1e-6) -> float:
    m = boundary_mass(psi)
    if m > threshold:
        warnings.warn(
            f"wavepacket mass {m:.2e} within 3 cells of the grid boundary; "
            "periodic wrap-around artifacts are possible",
            stacklevel=2,
        )
    return m


def density_from_ensemble(states, weights) -> DensityMatrix:
    """Weighted mixture sum_i w_i |psi_i><psi_i| as a DensityMatrix."""
    states = list(states)
    if not states:
        raise ValueError("empty ensemble")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(states),):
        raise ValueError("one weight per state required")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError(f"weights sum to {weights.sum()}, expected 1")
    grid, n = states[0].grid, states[0].n_particles
    for s in states[1:]:
        if s.grid != grid or s.n_particles != n:
            raise ValueError("all ensemble states must share one grid")
    b = grid.basis_size**n
    acc = np.zeros((b, b), dtype=np.complex128)
    for w, s in zip(weights, states):
        v = s.amplitudes.ravel()
        acc += w * np.outer(v, v.conj())
    return DensityMatrix(grid, n, acc)


def pure_density(psi: WaveFunction) -> DensityMatrix:
    v = psi.amplitudes.ravel()
    return DensityMatrix(psi.grid, psi.n_particles, np.outer(v, v.conj()))


def trace_out(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced density matrix of particle `keep`; trace is preserved."""
    n = rho.n_particles
    if n < 2:
        raise ValueError("trace_out needs at least two particles")
    if not 0 <= keep < n:
        raise IndexError(f"particle index {keep} out of range")
    m = rho.grid.basis_size
    full = rho.entries.reshape((m,) * (2 * n))
    # Contract every particle except `keep` between bra and ket slots.
    for p in reversed([p for p in range(n) if p != keep]):
        ax_ket = p
        ax_bra = full.ndim // 2 + p
        full = np.trace(full, axis1=ax_ket, axis2=ax_bra) * rho.grid.cell_volume
    return DensityMatrix(rho.grid, 1, full)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the trace norm of the difference of two density operators."""
    if rho1.grid != rho2.grid or rho1.n_particles != rho2.n_particles:
        raise ValueError("density matrices live on different grids")
    diff = rho1.entries - rho2.entries
    diff = 0.5 * (diff + diff.conj().T)
    eig = np.linalg.eigvalsh(diff) * rho1.volume_element
    return float(0.5 * np.sum(np.abs(eig)))


def save_state(psi: WaveFunction, path) -> None:
    """Write the documented binary container.

    Layout (little-endian): magic "GRWS", u32 version, u32 dim, u32
    n_particles, u32 n_points, f64 spacing, f64 origin[dim], then the
    amplitudes as interleaved re/im f64 pairs in C order.
    """
    grid = psi.grid
    header = _MAGIC + struct.pack(
        "<IIII", _FORMAT_VERSION, grid.dim, psi.n_particles, grid.n_points
    )
    header += struct.pack("<d", grid.spacing)
    header += struct.pack(f"<{grid.dim}d", *grid.origin)
    payload = np.ascontiguousarray(psi.amplitudes).astype("<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_state(path) -> WaveFunction:
    """Read a ``save_state`` file; one cut short is a ValueError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError("not a grwflash state file")
    try:
        version, dim, n_particles, n_points = struct.unpack_from("<IIII", data, 4)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported state format version {version}")
        spacing, *origin = struct.unpack_from(f"<{1 + dim}d", data, 20)
    except struct.error as exc:
        raise ValueError(f"truncated state file {path}: {exc}") from exc
    grid = GridSpec(dim, n_points, spacing, origin)
    payload = data[20 + 8 * (1 + dim):]
    if len(payload) < 16 * grid.basis_size**n_particles:
        raise ValueError(f"truncated state file {path}: amplitudes cut short")
    amps = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return WaveFunction(grid, n_particles, amps)
