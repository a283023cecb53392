"""Evolution engines: stochastic trajectories and the master-equation oracle.

A trajectory alternates free Schroedinger flight with composite jumps.  At
exponential event times (total rate N*lam) a particle k is drawn uniformly,
a flash position is sampled from the flash density, and the state undergoes

    psi -> U_k(x_f) L_k(x_f) psi / ||L_k(x_f) psi||

(collapse first, then the norm-preserving gravitational kick, following the
operator product U_k L_k).  Everything is deterministic given the Philox
stream (master seed, trajectory index).  Free flight is exact: the periodic
kinetic H0 is diagonal in the grid's DFT basis, so each segment between
flashes, snapshots and T is one FFT, one phase exp(-i E t / hbar) and one
inverse FFT, whatever its length.

Trajectories run in lockstep batches (``_lockstep``): a (B, *joint_shape)
array holds one trajectory per row, and each flash round advances every
running row with one numpy call per step, while each row still draws from
its own stream in the order a lone trajectory would.  ``run_trajectory`` is
the one-row case.  An ensemble batch is reduced to its projector sum
V^T conj(V) and |.|^2 sum with ``einsum``, which makes no BLAS call.

The oracle solves the corresponding master equation

    d rho/dt = -(i/hbar)[H0, rho]
               + lam sum_k ( int dx_f B_k rho B_k^dag - rho )

on the grid: B_k is position-diagonal, so the flash integral collapses to
an elementwise kernel matrix K_k built on a quadrature grid at least 4x
finer than r_C (refused otherwise).  With H0 = 0 the whole generator is
elementwise and rho_T = exp(T lam (sum_k K_k - N)) o rho_0 is exact for any
particle count; only a kinetic H0 is integrated step by step, with RK4,
its commutator applied in the same DFT basis by one FFT pair per stage.
Flash distances are wrapped on the periodic box, which makes the discrete
channel trace preserving up to the Gaussian tail beyond half a box length
L (erfc(L / 2 r_C) per axis: 1.5e-8 at L = 8 r_C); experiments keep
wavepackets away from the boundary so wrapped and open-space models agree
far below Monte Carlo resolution.

Trajectories use the same softening a in the kick phase as the master-side
B_k operators: oracle comparisons are between identical regularized models.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .collapse import MAX_SAMPLER_TRIES, FlashEvent, collapse_factor, rng_stream
from .gravity import profile_shape, smeared_newton_potential, softened_inverse_distance
from .state import (
    MAX_DENSITY_BASIS,
    DensityMatrix,
    GridSpec,
    WaveFunction,
    pure_density,
    trace_distance,
    warn_if_near_boundary,
)

# The per-event primitives of a lone trajectory.  ``_lockstep`` computes
# what they compute, for many trajectories per call; they stay importable
# here because perfbench's tracer rebinds them in this module by name.
from .collapse import apply_collapse, next_flash, sample_flash_position  # noqa: F401
from .gravity import apply_gravitational_kick, phase_profile  # noqa: F401
from .state import expectation_position, normalize  # noqa: F401
from .units import PhysicalParams, validate as validate_params


class TrajectoryError(RuntimeError):
    """A trajectory hit a probability-zero outcome and was aborted."""


class StepControlError(RuntimeError):
    """The master-equation result broke its trace or Hermiticity guard."""


@dataclass(frozen=True)
class FreeHamiltonian:
    """Free evolution generator: none, or the periodic kinetic term.

    The kinetic H0 = sum over particles and axes of -hbar^2 d^2/(2 m_k dx^2)
    is diagonal in the DFT basis of the grid, so both engines apply it
    exactly there (see ``_kinetic_energies``).
    """

    kind: str = "none"                     # "none" | "kinetic"
    masses: tuple[float, ...] | None = None
    hbar: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "kinetic"):
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "kinetic" and not self.masses:
            raise ValueError("kinetic Hamiltonian requires masses")

    @staticmethod
    def none() -> "FreeHamiltonian":
        return FreeHamiltonian("none")

    @staticmethod
    def kinetic(masses, hbar: float = 1.0) -> "FreeHamiltonian":
        return FreeHamiltonian("kinetic", tuple(float(m) for m in masses), hbar)


@dataclass(frozen=True)
class EvolutionConfig:
    """Run description shared by both engines.

    Free flight needs no step size: trajectories propagate exactly once per
    segment between flashes, snapshots and T.  ``softening`` regularizes the
    kick phase (None picks spacing/2 at use time).
    """

    total_time: float
    free_hamiltonian: FreeHamiltonian = FreeHamiltonian.none()
    snapshot_times: tuple[float, ...] = ()
    softening: float | None = None

    def __post_init__(self):
        if self.total_time < 0:
            raise ValueError("total_time must be nonnegative")
        snaps = tuple(sorted(float(t) for t in self.snapshot_times))
        for t in snaps:
            if not 0.0 <= t <= self.total_time:
                raise ValueError(f"snapshot time {t} outside [0, T]")
        object.__setattr__(self, "snapshot_times", snaps)
        if self.softening is not None and self.softening < 0:
            raise ValueError("softening must be nonnegative")

    def softening_for(self, grid: GridSpec) -> float:
        return self.softening if self.softening is not None else grid.spacing / 2


@dataclass(frozen=True)
class Trajectory:
    """One realized unraveling: flash log, optional snapshots, final state."""

    seed: int
    flashes: tuple[FlashEvent, ...]
    snapshots: tuple
    final_state: WaveFunction

    def __post_init__(self):
        times = [f.time for f in self.flashes]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("flash times must be strictly increasing")


def _kinetic_energies(grid: GridSpec, ham: FreeHamiltonian, n_particles: int):
    """E / hbar = sum over particle axes of hbar k^2 / (2 m), on the joint k grid.

    The periodic kinetic operator is diagonal in the DFT basis: these are its
    eigenvalues (over hbar) in the index order of ``np.fft.fftn``.
    """
    k2 = (2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)) ** 2
    energies = np.zeros(grid.joint_shape(n_particles))
    for p in range(n_particles):
        per_axis = ham.hbar * k2 / (2.0 * ham.masses[p])
        for a in range(grid.dim):
            view = [1] * energies.ndim
            view[p * grid.dim + a] = grid.n_points
            energies = energies + per_axis.reshape(view)
    return energies


def free_step(psi: WaveFunction, config: EvolutionConfig, dt: float) -> WaveFunction:
    """Free flight over ``dt``, exact for the periodic kinetic term at any dt.

    One ``fftn``, one multiply by exp(-i E dt / hbar), one ``ifftn``;
    unitary to rounding.
    """
    ham = config.free_hamiltonian
    if ham.kind == "none" or dt == 0.0:
        return psi
    axes = tuple(range(psi.amplitudes.ndim))
    phase = np.exp(-1j * dt * _kinetic_energies(psi.grid, ham, psi.n_particles))
    spectral = np.fft.fftn(psi.amplitudes, axes=axes) * phase
    return psi.with_amplitudes(np.fft.ifftn(spectral, axes=axes))


def _check_start(psi0: WaveFunction, params: PhysicalParams) -> None:
    diags = validate_params(params)
    if diags:
        raise ValueError("invalid params: " + "; ".join(diags))
    if abs(psi0.norm() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    if psi0.n_particles != params.n_particles:
        raise ValueError("params and state disagree on particle count")
    warn_if_near_boundary(psi0)


def _lockstep(psi0, params, config, master_seed, seeds, record=False):
    """Run one trajectory per seed together, one flash round at a time.

    Row r is trajectory seeds[r] on Philox stream (master_seed, seeds[r]).
    Each round, every running row draws its next flash time and particle
    from its own stream (``next_flash``'s draws), flies freely to it (or to
    T) in exact segments split at the snapshot times, and stops if it is
    past T; every other row flashes.  A flashing row draws its position as
    ``sample_flash_position`` does: the single uniform that
    ``Generator.choice(p=...)`` consumes, turned into a cell by the same
    cdf and right-sided search, then the in-cell jitter and the Gaussian
    offset, redrawn while outside the box.  Collapse, normalization, kick
    and free flight are one numpy call over all running rows, with the same
    elementwise operations as the single-state primitives, so each row is
    bitwise the trajectory it would be alone.

    Returns the final amplitudes (len(seeds), *joint_shape), the flash
    counts and, with ``record``, per-row flash logs and snapshots.
    """
    _check_start(psi0, params)
    grid, n = psi0.grid, params.n_particles
    dim, m = grid.dim, grid.n_points
    joint = grid.joint_shape(n)
    space = tuple(range(1, len(joint) + 1))       # the state axes of a row
    column = (-1,) + (1,) * len(joint)            # one value per row
    cell = (m,) * dim

    ham = config.free_hamiltonian
    energies = None if ham.kind == "none" else _kinetic_energies(grid, ham, n)
    total_time = config.total_time
    rate = n * params.lam
    softening = config.softening_for(grid)
    r_gm = params.r_G_matrix() if params.G != 0.0 else None
    coords = nodes = None                         # built at the first flash
    lo, hi = (np.asarray(c) for c in grid.bounds())
    half = grid.spacing / 2
    sigma = params.r_C / np.sqrt(2.0)

    rngs = [rng_stream(master_seed, s) for s in seeds]
    final = np.empty((len(seeds),) + joint, dtype=np.complex128)
    counts = np.zeros(len(seeds), dtype=np.int64)
    logs = [[] for _ in seeds]
    shots = [[] for _ in seeds]
    if record and 0.0 in config.snapshot_times:
        for shot in shots:
            shot.append((0.0, psi0))

    rows = np.arange(len(seeds))                  # running rows, by seed slot
    amps = np.repeat(psi0.amplitudes[None], len(seeds), axis=0)
    t = np.zeros(len(seeds))

    def spread(p):
        """View that lays a per-row particle-grid array on particle p's axes."""
        view = [-1] + [1] * len(joint)
        view[1 + p * dim:1 + (p + 1) * dim] = cell
        return view

    def fly(at, stop):
        """Free flight of rows ``at`` from their times to ``stop``."""
        nonlocal amps
        if energies is not None:
            whole = at.size == rows.size
            sub = amps if whole else amps[at]
            phase = np.exp(-1j * (stop - t[at]).reshape(column) * energies)
            sub = np.fft.ifftn(np.fft.fftn(sub, axes=space) * phase, axes=space)
            if whole:
                amps = sub
            else:
                amps[at] = sub
        t[at] = stop

    while rows.size:
        wait = np.empty(rows.size)
        k = np.empty(rows.size, dtype=np.intp)
        for j, r in enumerate(rows):
            wait[j] = rngs[r].standard_exponential() / rate
            k[j] = rngs[r].integers(n)
        t_event = t + wait
        end = np.minimum(t_event, total_time)
        for stop in config.snapshot_times:
            at = np.flatnonzero((t < stop) & (stop <= end))
            if at.size:
                fly(at, stop)
                if record:
                    for j in at:
                        shots[rows[j]].append(
                            (stop, psi0.with_amplitudes(amps[j].copy()))
                        )
        if energies is not None:
            at = np.flatnonzero(end > t)
            fly(at, end[at])

        done = t_event > total_time
        t = t_event
        if done.any():
            final[rows[done]] = amps[done]
            keep = ~done
            rows, amps, t, k = rows[keep], amps[keep], t[keep], k[keep]
            if not rows.size:
                break

        if nodes is None:
            coords, nodes = grid.axes(), grid.points()
        # Flash positions: per-row Born cdf of the flashing particle.
        prob = np.abs(amps) ** 2
        if n == 1:
            dens = prob
        else:
            dens = np.empty((rows.size,) + cell)
            for p in range(n):
                mine = k == p
                other = tuple(1 + a for a in range(len(joint)) if a // dim != p)
                dens[mine] = prob[mine].sum(axis=other) * grid.cell_volume ** (n - 1)
        weights = np.clip(dens.reshape(rows.size, -1) * grid.cell_volume, 0.0, None)
        weights /= weights.sum(axis=1, keepdims=True)
        cdf = np.cumsum(weights, axis=1)
        cdf /= cdf[:, -1:]
        x_f = np.empty((rows.size, dim))
        todo = np.arange(rows.size)
        for _ in range(MAX_SAMPLER_TRIES):
            u = np.empty(todo.size)
            jitter = np.empty((todo.size, dim))
            noise = np.empty((todo.size, dim))
            for j, i in enumerate(todo):
                rng = rngs[rows[i]]
                u[j] = rng.random()
                jitter[j] = rng.uniform(-half, half, size=dim)
                noise[j] = rng.standard_normal(dim)
            picked = np.count_nonzero(cdf[todo] <= u[:, None], axis=1)
            x = nodes[picked] + jitter + sigma * noise
            inside = np.all((x >= lo) & (x <= hi), axis=1)
            x_f[todo[inside]] = x[inside]
            todo = todo[~inside]
            if not todo.size:
                break
        else:
            raise RuntimeError(
                f"flash position rejected {MAX_SAMPLER_TRIES} times; grid is "
                "far too small relative to r_C"
            )

        factor = collapse_factor(coords, x_f, params.r_C)
        if n == 1:
            amps *= factor
        else:
            for p in range(n):
                mine = k == p
                amps[mine] *= factor[mine].reshape(spread(p))
        norms = np.sqrt(np.sum(np.abs(amps) ** 2, axis=space) * psi0.volume_element)
        null = np.flatnonzero(norms <= 1e-14)
        if null.size:
            j = null[0]
            raise TrajectoryError(
                f"trajectory {seeds[rows[j]]}: normalization failed after "
                f"flash at t={t[j]:.6g}, particle {k[j]}, "
                f"x_f={tuple(float(c) for c in x_f[j])}: state norm "
                f"{norms[j]:.3e} is numerically null"
            )
        amps /= norms.reshape(column)
        if r_gm is not None:
            shape = profile_shape(x_f, params, grid, softening)
            scales = r_gm[k]
            total = np.zeros(amps.shape)
            for l in range(n):
                total = total + (
                    scales[:, l].reshape((-1,) + (1,) * dim) * shape
                ).reshape(spread(l))
            amps *= np.exp(1j * total)
        counts[rows] += 1
        if record:
            for j, r in enumerate(rows):
                logs[r].append(FlashEvent(float(t[j]), int(k[j]), x_f[j]))

    return final, counts, logs, shots


def run_trajectory(
    psi0: WaveFunction,
    params: PhysicalParams,
    config: EvolutionConfig,
    seed: int,
    master_seed: int = 0,
) -> Trajectory:
    """One stochastic trajectory, bitwise deterministic given (seed, master).

    The one-row case of the lockstep stepper, with its flash log and
    snapshots.  With G = 0 the gravitational kick is the identity and
    consumes no randomness, so the run reproduces the vanilla GRW process
    event by event on the same stream.
    """
    final, _, logs, shots = _lockstep(
        psi0, params, config, master_seed, [seed], record=True
    )
    return Trajectory(
        seed=seed,
        flashes=tuple(logs[0]),
        snapshots=tuple(shots[0]),
        final_state=psi0.with_amplitudes(final[0]),
    )


@dataclass(frozen=True)
class EnsembleResult:
    """Equal-weight trajectory average at time T plus error diagnostics.

    Trajectories run in fixed batches (independent of worker count), each
    batch advanced in lockstep and reduced to its projector sum with
    ``einsum``.  ``split_sums[s]`` is the sum over the batches whose index
    has bit s clear, for s < floor(log2(len(batch_sizes))): the half-split
    sums that feed the trace-distance noise estimate, accumulated while the
    run goes, so memory does not grow with the batch count.  ``entry_se``
    is the elementwise Monte Carlo standard error of the density-matrix
    entries.
    """

    rho: DensityMatrix
    flash_counts: np.ndarray
    mean_positions: np.ndarray       # (n_traj, n_particles, dim), final states
    entry_se: np.ndarray
    split_sums: np.ndarray
    batch_sizes: np.ndarray
    n_traj: int
    master_seed: int

    def particle_means(self, k: int = 0) -> np.ndarray:
        return self.mean_positions[:, k, :]


def _position_means(amps: np.ndarray, grid: GridSpec, n_particles: int):
    """``expectation_position`` of every particle, for a stack of states."""
    dim = grid.dim
    prob = np.abs(amps) ** 2
    n_axes = dim * n_particles
    out = np.empty((amps.shape[0], n_particles, dim))
    for k in range(n_particles):
        other = tuple(1 + a for a in range(n_axes) if a // dim != k)
        dens = prob.sum(axis=other) * grid.cell_volume ** (n_particles - 1)
        for a in range(dim):
            rest = tuple(1 + i for i in range(dim) if i != a)
            marg = dens.sum(axis=rest) if rest else dens
            out[:, k, a] = np.sum(grid.axis(a) * marg, axis=1) * grid.cell_volume
    return out


def _trajectory_batch(args):
    """Lockstep-run one batch; reduce it to its projector and |.|^2 sums."""
    psi0, params, config, master_seed, start, stop = args
    final, counts, _, _ = _lockstep(
        psi0, params, config, master_seed, range(start, stop)
    )
    v = final.reshape(stop - start, -1)
    a = np.abs(v) ** 2
    means = _position_means(final, psi0.grid, psi0.n_particles)
    return _projector_sum(v), np.einsum("bi,bj->ij", a, a), counts, means


def _projector_sum(v: np.ndarray) -> np.ndarray:
    """sum_b v_b v_b^dag over the rows of v, exactly Hermitian, without BLAS.

    With v = x + i y, the real part is [x; y]^T [x; y] and the imaginary
    part is w - w^T with w = y^T x: two real ``einsum`` products, cheaper
    than one complex ``einsum``.
    """
    xy = np.concatenate([v.real, v.imag])
    x, y = xy[:len(v)], xy[len(v):]
    out = np.empty((v.shape[1],) * 2, dtype=np.complex128)
    out.real = np.einsum("bi,bj->ij", xy, xy)
    w = np.einsum("bi,bj->ij", y, x)
    np.subtract(w, w.T, out=out.imag)
    return out


def _batches(tasks, workers):
    """Batch results in task order, computed by ``workers`` processes."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_trajectory_batch, tasks)
    else:
        yield from map(_trajectory_batch, tasks)


def run_ensemble(
    psi0: WaveFunction,
    params: PhysicalParams,
    config: EvolutionConfig,
    n_traj: int,
    master_seed: int,
    workers: int = 1,
    batch_size: int = 64,
) -> EnsembleResult:
    """Average of n_traj trajectory projectors, reproducible across workers.

    Trajectory i always runs on Philox stream (master_seed, i); reduction
    happens per fixed-size batch and batches are combined in index order,
    so the result is bitwise independent of the worker count (0 picks one
    worker per core; a negative count is an error).  Batch sums are added
    into the totals as they arrive, so a serial run holds one batch's sums
    at a time.
    """
    if n_traj < 2:
        raise ValueError("need at least 2 trajectories")
    if workers < 0:
        raise ValueError(f"worker count must be nonnegative, got {workers}")
    b = psi0.grid.basis_size**psi0.n_particles
    if b > MAX_DENSITY_BASIS:
        raise ValueError(
            f"state space ({b}) too large for density-matrix accumulation"
        )
    bounds = [
        (s, min(s + batch_size, n_traj)) for s in range(0, n_traj, batch_size)
    ]
    tasks = [(psi0, params, config, master_seed, s, e) for s, e in bounds]
    if workers == 0:
        workers = os.cpu_count() or 1
    n_splits = len(bounds).bit_length() - 1
    outer_total = np.zeros((b, b), dtype=np.complex128)
    abs2_total = np.zeros((b, b))
    split_sums = np.zeros((n_splits, b, b), dtype=np.complex128)
    counts = []
    means = []
    for index, (outer_sum, abs2_sum, cnt, mean) in enumerate(
        _batches(tasks, workers)
    ):
        outer_total += outer_sum
        abs2_total += abs2_sum
        for s in range(n_splits):
            if not (index >> s) & 1:
                split_sums[s] += outer_sum
        counts.append(cnt)
        means.append(mean)

    rho_entries = outer_total / n_traj
    var = np.maximum(abs2_total - n_traj * np.abs(rho_entries) ** 2, 0.0)
    entry_se = np.sqrt(var / (n_traj - 1) / n_traj)
    return EnsembleResult(
        rho=DensityMatrix(psi0.grid, psi0.n_particles, rho_entries),
        flash_counts=np.concatenate(counts),
        mean_positions=np.concatenate(means, axis=0),
        entry_se=entry_se,
        split_sums=split_sums,
        batch_sizes=np.array([e - s for s, e in bounds]),
        n_traj=n_traj,
        master_seed=master_seed,
    )


def trace_distance_se(result: EnsembleResult) -> float:
    """Monte Carlo noise floor of the ensemble in trace distance.

    Disjoint half-ensembles A and B are compared: rho_A - rho_B has twice
    the statistical error of the full mean, so TD(A, B)/2 estimates the
    expected trace distance between the full ensemble and the infinite-n
    limit.  The floor(log2 m) splits by batch-index bit are averaged; B is
    the full sum less A.
    """
    sizes = result.batch_sizes
    if len(sizes) < 2:
        raise ValueError("need at least two batches for a split estimate")
    grid, n_part = result.rho.grid, result.rho.n_particles
    total = result.rho.entries * result.n_traj
    estimates = []
    for s, sum_a in enumerate(result.split_sums):
        n_a = sizes[(np.arange(len(sizes)) >> s) & 1 == 0].sum()
        rho_a = sum_a / n_a
        rho_b = (total - sum_a) / (result.n_traj - n_a)
        td = trace_distance(
            DensityMatrix(grid, n_part, rho_a), DensityMatrix(grid, n_part, rho_b)
        )
        estimates.append(td / 2.0)
    return float(np.mean(estimates))


def _min_image(diff: np.ndarray, length: float) -> np.ndarray:
    return (diff + length / 2.0) % length - length / 2.0


def flash_quadrature_grid(grid: GridSpec, params: PhysicalParams, refine=None):
    """Uniform flash-position nodes on the periodic box, step <= r_C/4."""
    min_refine = max(1, math.ceil(4.0 * grid.spacing / params.r_C - 1e-12))
    if refine is None:
        refine = min_refine
    step = grid.spacing / refine
    if step > params.r_C / 4.0 + 1e-12:
        raise ValueError(
            f"flash quadrature step {step:.4g} coarser than r_C/4 = "
            f"{params.r_C / 4.0:.4g}: kernel under-resolved"
        )
    axes = [
        o + step * np.arange(grid.n_points * refine) for o in grid.origin
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    return nodes, step**grid.dim


def flash_kernel_matrices(
    grid: GridSpec,
    params: PhysicalParams,
    softening: float,
    refine: int | None = None,
) -> list[np.ndarray]:
    """Elementwise Kraus kernels K_k[I, J] = int dx_f B_I(x_f) B_J(x_f)*.

    B_k(x_f) is diagonal in position, so the whole flash integral of the
    master equation reduces to these matrices.  Distances are minimum-image
    on the periodic box, which truncates each Gaussian at half a box length
    L: K_k[I, I] = erf(L / 2 r_C)^dim, so each jump loses about
    erfc(L / 2 r_C) of trace per axis (1.5e-8 at L = 8 r_C).
    """
    n = params.n_particles
    has_sharp_gravity = params.G != 0.0 and params.smearing.kind == "sharp"
    if has_sharp_gravity and not softening > 0:
        raise ValueError(
            "master-side kernels need softening > 0 in sharp mode: the "
            "phase is undefined on quadrature nodes hitting the flash"
        )
    if refine is None and has_sharp_gravity:
        # The phase factor is analytic in a strip of half-width `softening`
        # around the real axis; trapezoid error decays like exp(-2 pi a/h),
        # so resolving a/4 makes the node sum effectively exact.
        refine = max(
            math.ceil(4.0 * grid.spacing / params.r_C - 1e-12),
            math.ceil(4.0 * grid.spacing / softening - 1e-12),
            1,
        )
    nodes, weight = flash_quadrature_grid(grid, params, refine)
    pts = grid.points()                       # (M, dim) per-particle points
    m = pts.shape[0]
    b = m**n
    ext = grid.extent
    r_gm = params.r_G_matrix()
    has_gravity = params.G != 0.0
    prefactor = (np.pi * params.r_C**2) ** (-grid.dim / 4.0)

    # Min-image distance from every grid point to every flash node: (M, F).
    diff = _min_image(pts[:, None, :] - nodes[None, :, :], ext)
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    loc = prefactor * np.exp(-(dist**2) / (2.0 * params.r_C**2))
    if has_gravity:
        if params.smearing.kind == "sharp":
            shape = softened_inverse_distance(dist, softening)
        else:
            shape = smeared_newton_potential(dist, params.smearing.width)

    kernels = []
    n_nodes = nodes.shape[0]
    for k in range(n):
        v = None
        for l in range(n):
            if l == k:
                factor = loc.astype(np.complex128)
                if has_gravity and r_gm[k, l] != 0.0:
                    factor = factor * np.exp(1j * r_gm[k, l] * shape)
            elif has_gravity and r_gm[k, l] != 0.0:
                factor = np.exp(1j * r_gm[k, l] * shape)
            else:
                factor = np.ones((m, n_nodes), dtype=np.complex128)
            # Tensor over particles: v[I, f] with I the joint C-order index.
            v = factor if v is None else (
                v[:, None, :] * factor[None, :, :]
            ).reshape(-1, n_nodes)
        kernels.append(weight * (v @ v.conj().T))
    return kernels


def master_generator(
    rho: DensityMatrix,
    params: PhysicalParams,
    config: EvolutionConfig,
    kernels: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Right-hand side of the master equation, as kernel-value entries.

    Precomputed ``kernels`` may be supplied to amortize the kernel build
    across calls.  A kinetic H0 adds -(i/hbar)[H0, rho], applied as one
    ``fftn`` over all ket and bra axes, a multiply by (E_ket - E_bra)/hbar
    and one ``ifftn``: H0 is real symmetric, so rho H0 is the same filter
    applied on the bra axes.
    """
    if kernels is None:
        kernels = flash_kernel_matrices(
            rho.grid, params, config.softening_for(rho.grid)
        )
    return _generator(
        rho.entries,
        params.lam * (sum(kernels) - params.n_particles),
        _commutator_filter(rho.grid, config.free_hamiltonian, rho.n_particles),
    )


def _commutator_filter(grid: GridSpec, ham: FreeHamiltonian, n_particles: int):
    """(E_ket - E_bra)/hbar over the joint ket and bra k axes; None for H0 = 0."""
    if ham.kind == "none":
        return None
    e = _kinetic_energies(grid, ham, n_particles).ravel()
    return (e[:, None] - e[None, :]).reshape(grid.joint_shape(n_particles) * 2)


def _generator(entries: np.ndarray, q: np.ndarray, filt) -> np.ndarray:
    """Q o rho, minus i times the commutator filter's result when there is one."""
    out = q * entries
    if filt is not None:
        spectral = np.fft.fftn(entries.reshape(filt.shape))
        spectral *= filt
        out = out - 1j * np.fft.ifftn(spectral).reshape(out.shape)
    return out


def master_evolve(
    rho0: DensityMatrix,
    params: PhysicalParams,
    config: EvolutionConfig,
    dt: float | None = None,
) -> DensityMatrix:
    """Evolve the master equation from rho0 to total_time.

    With H0 = 0 the generator acts elementwise, d rho/dt = Q o rho with
    Q = lam (sum_k K_k - N), so rho_T = exp(T Q) o rho0 is exact for any
    particle count and ``dt`` is unused.  That result is returned as is: it
    is Hermitian whenever rho0 is, and the trace it loses to the wrapped
    kernels (see ``flash_kernel_matrices``) belongs to the model.

    A kinetic H0 is integrated with classical RK4 on the generator of
    ``master_generator``, with Q and the commutator filter built once per
    run and one FFT pair per stage, with steps no longer than ``dt`` (when
    given) nor than the stability bound
    0.05 / (2 lam N + sqrt(b) max|H0| / hbar).  H0 is positive
    semidefinite, so max|H0| is a diagonal entry, and each diagonal entry is
    the mean of its eigenvalues over the joint k grid.  The result must keep
    the trace of rho0 to 1e-8, the wrapped kernels' loss included, and
    Hermiticity to 1e-9, else StepControlError.
    """
    diags = validate_params(params)
    if diags:
        raise ValueError("invalid params: " + "; ".join(diags))
    total_time = config.total_time
    if total_time == 0.0:
        return rho0
    kernels = flash_kernel_matrices(
        rho0.grid, params, config.softening_for(rho0.grid)
    )
    q = params.lam * (sum(kernels) - params.n_particles)
    ham = config.free_hamiltonian
    if ham.kind == "none":
        return rho0.with_entries(np.exp(total_time * q) * rho0.entries)

    energies = _kinetic_energies(rho0.grid, ham, rho0.n_particles)
    h_rate = rho0.entries.shape[0] ** 0.5 * float(energies.mean())
    rate_scale = params.lam * params.n_particles * 2.0 + h_rate
    max_step = 0.05 / rate_scale if dt is None else min(dt, 0.05 / rate_scale)
    n_steps = max(1, math.ceil(total_time / max_step))
    step = total_time / n_steps
    filt = _commutator_filter(rho0.grid, ham, rho0.n_particles)
    ent = rho0.entries
    for _ in range(n_steps):
        k1 = _generator(ent, q, filt)
        k2 = _generator(ent + 0.5 * step * k1, q, filt)
        k3 = _generator(ent + 0.5 * step * k2, q, filt)
        k4 = _generator(ent + step * k3, q, filt)
        ent = ent + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    rho = rho0.with_entries(ent)
    trace_drift = abs(rho.trace().real - rho0.trace().real)
    herm_drift = float(np.max(np.abs(rho.entries - rho.entries.conj().T)))
    if not (trace_drift < 1e-8 and herm_drift < 1e-9):
        raise StepControlError(
            f"drift targets not met: trace {trace_drift:.3e}, "
            f"hermiticity {herm_drift:.3e}"
        )
    return rho


def exact_diagonal_solution(
    rho0: DensityMatrix, gamma: np.ndarray, lam: float, t: float
) -> DensityMatrix:
    """Closed-form single-particle solution rho_t = exp(lam t (Gamma-1)) rho_0.

    Valid for H0 = 0; ``gamma`` holds the kernel on all grid pairs (for the
    regularized discrete model, the flash kernel matrix itself).
    """
    if rho0.n_particles != 1:
        raise ValueError("exact solution is single-particle only")
    gamma = np.asarray(gamma)
    if gamma.shape != rho0.entries.shape:
        raise ValueError("kernel matrix shape does not match the state basis")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("kernel matrix has missing (non-finite) entries")
    factor = np.exp(lam * t * (gamma - 1.0))
    return rho0.with_entries(factor * rho0.entries)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the unraveling-vs-master consistency check."""

    trace_dist: float
    std_error: float
    se_limit: float
    n_traj: int
    master_seed: int
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: trace distance {self.trace_dist:.5f} vs 3*SE = "
            f"{3 * self.std_error:.5f} (SE {self.std_error:.5f}, "
            f"limit {self.se_limit}, n={self.n_traj})"
        )


def ensemble_vs_master_check(
    psi0: WaveFunction,
    params: PhysicalParams,
    config: EvolutionConfig,
    n_traj: int,
    master_seed: int,
    se_limit: float = 0.02,
    workers: int = 1,
) -> tuple[VerifyReport, EnsembleResult, DensityMatrix]:
    """Run the ensemble and its deterministic oracle; compare in trace distance.

    Passes when the distance is below 3x the estimated Monte Carlo standard
    error and that standard error is below ``se_limit``.
    """
    result = run_ensemble(psi0, params, config, n_traj, master_seed, workers=workers)
    # dt = T: master_evolve's stability bound alone sets a kinetic run's step
    oracle = master_evolve(pure_density(psi0), params, config, dt=config.total_time)
    td = trace_distance(result.rho, oracle)
    se = trace_distance_se(result)
    report = VerifyReport(
        trace_dist=td,
        std_error=se,
        se_limit=se_limit,
        n_traj=n_traj,
        master_seed=master_seed,
        passed=(td < 3.0 * se and se < se_limit),
    )
    return report, result, oracle
