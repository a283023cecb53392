"""Evolution engines: stochastic trajectories and the master-equation oracle.

A trajectory alternates free Schroedinger flight with composite jumps.  At
exponential event times (total rate N*lam) a particle k is drawn uniformly,
a flash position is sampled from the flash density, and the state undergoes

    psi -> U_k(x_f) L_k(x_f) psi / ||L_k(x_f) psi||

(collapse first, then the norm-preserving gravitational kick, following the
operator product U_k L_k).  Everything is deterministic given the Philox
stream (master seed, trajectory index).  Free flight is exact: the periodic
kinetic H0 is diagonal in the grid's DFT basis, so each segment between
flashes and T is one FFT, one phase exp(-i E t / hbar) and one inverse
FFT, whatever its length.

Trajectories run in lockstep (``_lockstep``): a (B, *joint_shape) array
holds one trajectory per row, and each flash round advances every running
row with one numpy call per step, while each row still draws from its own
stream in the order a lone trajectory would.  The rows draw from a
per-thread pool of Philox generators re-keyed to their streams, not from a
new generator each.  ``run_trajectory`` is the one-row case.  An ensemble
runs one lockstep per group of consecutive BATCH_SIZE-row batches, up to
LOCKSTEP_AMPLITUDES amplitudes, and reduces each batch to its projector sum
V^T conj(V) and |.|^2 sum by BLAS products (dsyrk and dgemm through numpy's
``@``).  OpenBLAS shares these products among its threads by blocks of the
output, so each entry sums the batch's rows in the same order whatever the
thread count; a tier-1 test checks that an ensemble is bitwise the same
under one and two OpenBLAS threads.  A projector sum is Hermitian, so it is
kept packed in one real b x b array, Re on and above the diagonal and Im
below it (``_projector_sum``, ``_unpack``): the totals and the half-split
sums are added in that form and rho is unpacked once, at the end.  Between
batches an ensemble holds (2 + n_splits) real b x b arrays: the packed
total, the |.|^2 total and the n_splits packed half-split sums.

The oracle solves the corresponding master equation

    d rho/dt = -(i/hbar)[H0, rho]
               + lam sum_k ( int dx_f B_k rho B_k^dag - rho )

on the grid: B_k is position-diagonal, so the flash integral collapses to
an elementwise kernel matrix K_k, a sum over flash nodes with step at most
r_C/4 (and softening/4 under sharp gravity).  The kernels take B_k's
factors from the calls a trajectory makes at a flash, ``collapse_factor``
and ``profile_shape`` on ``GridSpec.offsets``, evaluated at the nodes, so
the two engines share one flash operator.  The flash nodes refine the
periodic grid by an integer, so K_k is unchanged when every particle
shifts by one grid step: it is built from its M^(2n-1) distinct values,
M = n_points^dim, not as a dense b x b product.  With H0 = 0 the whole
generator is elementwise and rho_T = exp(T lam (sum_k K_k - N)) o rho_0
is exact for any particle count.  A kinetic H0 adds the commutator, whose
exact flow is one FFT pair around a phase; the oracle composes the two
exact flows by a Yoshida triple jump of Strang stages, doubling the step
count to tolerance.
Both engines run one discrete model on the periodic box of ``GridSpec``:
every flash distance, in the collapse factor, the kick and the kernels, is
a minimum-image distance, and trajectories draw flash positions from the
discrete Born law wrapped onto the box, whose one-jump average is exactly
the kernel channel K_k o rho.  Minimum image truncates each Gaussian at
half a box length L, so the channel keeps trace up to erfc(L / 2 r_C) per
axis (1.5e-8 at L = 8 r_C).  Trajectories use the same softening a in the
kick phase as the master-side B_k operators.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .collapse import FlashEvent, collapse_factor
from .gravity import profile_shape
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
from .units import PhysicalParams


class TrajectoryError(RuntimeError):
    """A trajectory hit a probability-zero outcome and was aborted."""


class StepControlError(RuntimeError):
    """The master-equation result broke its trace or Hermiticity guard."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Run description shared by both engines.

    ``hamiltonian`` is "none" or "kinetic": the periodic kinetic
    H0 = sum over particles and axes of -hbar^2 d^2/(2 m_k dx^2), with the
    masses and hbar of the run's PhysicalParams, diagonal in the grid's DFT
    basis (see ``_kinetic_energies``).  Free flight needs no step size:
    trajectories propagate exactly once per segment between flashes and T.
    ``softening`` regularizes the kick phase (None picks spacing/2 at use
    time).
    """

    total_time: float
    hamiltonian: str = "none"
    softening: float | None = None

    def __post_init__(self):
        if not 0 <= self.total_time < math.inf:  # nan fails it too
            raise ValueError("total_time must be nonnegative and finite, "
                             f"got {self.total_time}")
        if self.hamiltonian not in ("none", "kinetic"):
            raise ValueError(f"unknown hamiltonian {self.hamiltonian!r}")
        if self.softening is not None and not 0 <= self.softening < math.inf:
            raise ValueError("softening must be nonnegative and finite, "
                             f"got {self.softening}")

    def softening_for(self, grid: GridSpec) -> float:
        return self.softening if self.softening is not None else grid.spacing / 2


@dataclass(frozen=True)
class Trajectory:
    """One realized unraveling: flash log and final state."""

    seed: int
    flashes: tuple[FlashEvent, ...]
    final_state: WaveFunction

    def __post_init__(self):
        times = [f.time for f in self.flashes]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("flash times must be strictly increasing")


def _kinetic_energies(grid: GridSpec, params: PhysicalParams):
    """E / hbar = sum over particle axes of hbar k^2 / (2 m), on the joint k grid.

    The periodic kinetic operator is diagonal in the DFT basis: these are its
    eigenvalues (over hbar) in the index order of ``np.fft.fftn``.
    """
    k2 = (2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)) ** 2
    energies = np.zeros(grid.joint_shape(params.n_particles))
    for p, mass in enumerate(params.masses):
        per_axis = params.hbar * k2 / (2.0 * mass)
        for a in range(grid.dim):
            view = per_axis.reshape((1,) * a + (-1,) + (1,) * (grid.dim - 1 - a))
            energies = energies + grid.on_particle(view, p, params.n_particles)
    return energies


def free_step(
    psi: WaveFunction, params: PhysicalParams, config: EvolutionConfig, dt: float
) -> WaveFunction:
    """Free flight over ``dt``, exact for the periodic kinetic term at any dt.

    One ``fftn``, one multiply by exp(-i E dt / hbar), one ``ifftn``;
    unitary to rounding.
    """
    if config.hamiltonian == "none" or dt == 0.0:
        return psi
    axes = tuple(range(psi.amplitudes.ndim))
    phase = np.exp(-1j * dt * _kinetic_energies(psi.grid, params))
    spectral = np.fft.fftn(psi.amplitudes, axes=axes) * phase
    return psi.with_amplitudes(np.fft.ifftn(spectral, axes=axes))


def _check_start(psi0: WaveFunction, params: PhysicalParams) -> None:
    # "not <=": a state with a nan amplitude has a nan norm, refused here
    if not abs(psi0.norm() - 1.0) <= 1e-8:
        raise ValueError("initial state must be normalized")
    if psi0.n_particles != params.n_particles:
        raise ValueError("params and state disagree on particle count")
    warn_if_near_boundary(psi0)


_lanes = threading.local()


def _rekeyed_lanes(master_seed: int, seeds) -> list[np.random.Generator]:
    """One generator per seed, on Philox stream (master_seed, seed) at its start.

    Each is the stream ``rng_stream`` builds: key (master_seed, seed),
    counter 0, an empty buffer and no cached 32-bit half.  The generators
    come from a per-thread pool and are re-keyed in place through the
    public state setter, which costs less than building a new one; they
    stay valid until the thread's next call.
    """
    pool = getattr(_lanes, "pool", None)
    if pool is None:
        pool = _lanes.pool = []
    while len(pool) < len(seeds):
        pool.append(np.random.Generator(np.random.Philox()))
    zero = np.zeros(4, dtype=np.uint64)
    for lane, seed in zip(pool, seeds):
        lane.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": zero,
                "key": np.array([master_seed, seed], dtype=np.uint64),
            },
            "buffer": zero,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    return pool[:len(seeds)]


def _lockstep(psi0, params, config, master_seed, seeds, record=False):
    """Run one trajectory per seed together, one flash round at a time.

    Row r is trajectory seeds[r] on Philox stream (master_seed, seeds[r]),
    drawn from a re-keyed lane (``_rekeyed_lanes``).  Each round, every
    running row draws its next flash time and particle from its own stream
    (``next_flash``'s draws; the particle only when n > 1, since
    ``integers(1)`` consumes no bits), flies freely to it (or to T) in one
    exact segment, and stops if it is past T; every other row flashes.  A
    flashing row draws its position as ``sample_flash_position`` does: the
    single uniform that ``Generator.choice(p=...)`` consumes, turned into a
    node by the same cdf and right-sided search, then the Gaussian offset,
    the sum wrapped onto the box by ``GridSpec.wrap``.  The flash offsets
    (``GridSpec.offsets``) are computed once per round and feed both the
    collapse factor and the kick profile.  The Born marginal and the
    collapse take one numpy call per particle, over the rows it flashes;
    the normalization, kick and free flight one call over all the rows they
    move.  All use the same elementwise operations as the single-state
    primitives, so each row is bitwise the trajectory it would be alone.

    Returns the final amplitudes (len(seeds), *joint_shape), the flash
    counts and, with ``record``, per-row flash logs.
    """
    _check_start(psi0, params)
    grid, n = psi0.grid, params.n_particles
    dim = grid.dim
    joint = grid.joint_shape(n)
    space = tuple(range(1, len(joint) + 1))       # the state axes of a row
    column = (-1,) + (1,) * len(joint)            # one value per row

    energies = (
        None if config.hamiltonian == "none" else _kinetic_energies(grid, params)
    )
    total_time = config.total_time
    rate = n * params.lam
    softening = config.softening_for(grid)
    r_gm = params.r_G_matrix() if params.G != 0.0 else None
    nodes = None                                  # built at the first flash
    sigma = params.r_C / np.sqrt(2.0)

    rngs = _rekeyed_lanes(master_seed, seeds)
    final = np.empty((len(seeds),) + joint, dtype=np.complex128)
    counts = np.zeros(len(seeds), dtype=np.int64)
    logs = [[] for _ in seeds]

    rows = np.arange(len(seeds))                  # running rows, by seed slot
    amps = np.repeat(psi0.amplitudes[None], len(seeds), axis=0)
    t = np.zeros(len(seeds))

    while rows.size:
        wait = np.empty(rows.size)
        k = np.zeros(rows.size, dtype=np.intp)
        for j, r in enumerate(rows):
            wait[j] = rngs[r].standard_exponential() / rate
            if n > 1:
                k[j] = rngs[r].integers(n)
        t_event = t + wait
        if energies is not None:
            end = np.minimum(t_event, total_time)
            at = np.flatnonzero(end > t)
            phase = np.exp(-1j * (end[at] - t[at]).reshape(column) * energies)
            spectral = np.fft.fftn(amps[at], axes=space) * phase
            amps[at] = np.fft.ifftn(spectral, axes=space)

        done = t_event > total_time
        t = t_event
        if done.any():
            final[rows[done]] = amps[done]
            keep = ~done
            rows, amps, t, k = rows[keep], amps[keep], t[keep], k[keep]
            if not rows.size:
                break

        if nodes is None:
            nodes = grid.points()
        # Flash positions: per-row Born cdf of the flashing particle.
        prob = np.abs(amps) ** 2
        dens = np.empty((rows.size,) + grid.joint_shape(1))
        for p in range(n):
            mine = k == p
            dens[mine] = grid.marginal(prob[mine], p, n)
        weights = np.clip(dens.reshape(rows.size, -1) * grid.cell_volume, 0.0, None)
        weights /= weights.sum(axis=1, keepdims=True)
        cdf = np.cumsum(weights, axis=1)
        cdf /= cdf[:, -1:]
        u = np.empty(rows.size)
        noise = np.empty((rows.size, dim))
        for j, r in enumerate(rows):
            u[j] = rngs[r].random()
            noise[j] = rngs[r].standard_normal(dim)
        picked = np.count_nonzero(cdf <= u[:, None], axis=1)
        x_f = grid.wrap(nodes[picked] + sigma * noise)

        offsets = grid.offsets(x_f)
        factor = collapse_factor(offsets, params.r_C)
        for p in range(n):
            mine = k == p
            amps[mine] *= grid.on_particle(factor[mine], p, n)
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
            shape = profile_shape(offsets, params, softening)
            scales = r_gm[k]
            total = np.zeros(amps.shape)
            for l in range(n):
                total = total + grid.on_particle(
                    scales[:, l].reshape((-1,) + (1,) * dim) * shape, l, n
                )
            amps *= np.exp(1j * total)
        counts[rows] += 1
        if record:
            for j, r in enumerate(rows):
                logs[r].append(FlashEvent(float(t[j]), int(k[j]), x_f[j]))

    return final, counts, logs


def run_trajectory(
    psi0: WaveFunction,
    params: PhysicalParams,
    config: EvolutionConfig,
    seed: int,
    master_seed: int = 0,
) -> Trajectory:
    """One stochastic trajectory, bitwise deterministic given (seed, master).

    The one-row case of the lockstep stepper, with its flash log.  With
    G = 0 the gravitational kick is the identity and consumes no
    randomness, so the run reproduces the vanilla GRW process event by
    event on the same stream.
    """
    final, _, logs = _lockstep(psi0, params, config, master_seed, [seed], record=True)
    return Trajectory(
        seed=seed,
        flashes=tuple(logs[0]),
        final_state=psi0.with_amplitudes(final[0]),
    )


@dataclass(frozen=True)
class EnsembleResult:
    """Equal-weight trajectory average at time T plus error diagnostics.

    Trajectories run in fixed batches (independent of worker count),
    advanced in lockstep groups of consecutive batches, each batch reduced
    to its projector and |.|^2 sums by BLAS products.  ``split_sums[s]`` is
    the projector sum over the batches whose index has bit s clear, for
    s < floor(log2(len(batch_sizes))): the half-split sums that feed the
    trace-distance noise estimate, accumulated while the run goes, so
    memory does not grow with the batch count.  Each is packed, one real
    b x b array with Re on and above the diagonal and Im below it
    (``_unpack`` gives the complex sum).  ``entry_se`` is the
    elementwise Monte Carlo standard error of the density-matrix entries.
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


BATCH_SIZE = 64  # trajectories per reduction batch, whatever the worker count
# Amplitudes (rows x basis size) one lockstep group may hold: consecutive
# batches share one lockstep while they fit, and a group holds at least one.
LOCKSTEP_AMPLITUDES = 2**14
# Side of the squares in which a packed sum is built and unpacked: each
# square's transpose is read while it is in cache.
PACK_TILE = 128


def _position_means(prob: np.ndarray, grid: GridSpec, n_particles: int):
    """``expectation_position`` of every particle, for a stack of |psi|^2
    arrays of shape (rows, *joint_shape)."""
    dim = grid.dim
    out = np.empty((prob.shape[0], n_particles, dim))
    for k in range(n_particles):
        dens = grid.marginal(prob, k, n_particles)
        for a in range(dim):
            rest = tuple(1 + i for i in range(dim) if i != a)
            marg = dens.sum(axis=rest) if rest else dens
            out[:, k, a] = np.sum(grid.axis(a) * marg, axis=1) * grid.cell_volume
    return out


def _trajectory_batch(args):
    """Lockstep-run a group of consecutive batches together; reduce each batch
    to its projector and |.|^2 sums, its flash counts and position means."""
    psi0, params, config, master_seed, bounds = args
    first = bounds[0][0]
    final, counts, _ = _lockstep(
        psi0, params, config, master_seed, range(first, bounds[-1][1])
    )
    out = []
    for start, stop in bounds:
        rows = slice(start - first, stop - first)
        v = final[rows].reshape(stop - start, -1)
        a = np.abs(v) ** 2
        means = _position_means(
            a.reshape(final[rows].shape), psi0.grid, psi0.n_particles
        )
        out.append((_projector_sum(v), a.T @ a, counts[rows], means))
    return out


def _projector_sum(v: np.ndarray) -> np.ndarray:
    """sum_b v_b v_b^dag over the rows of v, packed (see ``_unpack``).

    With v = x + i y, the real part is [x; y]^T [x; y] and the imaginary
    part is w - w^T with w = y^T x.  numpy sends xy^T @ xy, an array's
    transpose times itself, to dsyrk and mirrors its upper triangle, so the
    real part is exactly symmetric and its upper triangle (with the
    diagonal) holds all of it.  Its strict lower triangle is overwritten
    with that of w - w^T, one PACK_TILE square at a time so that the
    transposed reads stay in cache.  The other half of w - w^T is the exact
    negative of this one, so the packed sum is exactly Hermitian; one
    complex product would not be.
    """
    xy = np.concatenate([v.real, v.imag])
    x, y = xy[:len(v)], xy[len(v):]
    out = xy.T @ xy
    w = y.T @ x
    for i in range(0, len(out), PACK_TILE):
        rows = slice(i, i + PACK_TILE)
        for j in range(0, i, PACK_TILE):
            cols = slice(j, j + PACK_TILE)
            np.subtract(w[rows, cols], w[cols, rows].T, out=out[rows, cols])
        diff = w[rows, rows] - w[rows, rows].T
        np.copyto(out[rows, rows], diff,
                  where=np.tri(len(diff), k=-1, dtype=bool))
    return out


def _unpack(packed: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The complex Hermitian matrix scale * rho from its packed form P.

    P holds Re rho on and above the diagonal and Im rho below it:
    P[i, j] = Re rho[i, j] for i <= j and P[i, j] = Im rho[i, j] for i > j.
    Each PACK_TILE square below the diagonal fills itself and its mirror
    image.  An exactly zero Im comes out as +0.0 on both sides of the
    diagonal ("+ 0.0" and "0.0 -" make it so).
    """
    b = len(packed)
    out = np.empty((b, b), dtype=np.complex128)
    re, im = out.real, out.imag
    for i in range(0, b, PACK_TILE):
        rows = slice(i, i + PACK_TILE)
        for j in range(0, i, PACK_TILE):
            cols = slice(j, j + PACK_TILE)
            lower = packed[rows, cols] * scale     # Im rho[rows, cols]
            upper = packed[cols, rows] * scale     # Re rho[cols, rows]
            re[rows, cols] = upper.T
            im[rows, cols] = lower + 0.0
            re[cols, rows] = upper
            im[cols, rows] = 0.0 - lower.T
        diag = packed[rows, rows] * scale
        below = np.tri(len(diag), k=-1, dtype=bool)
        re[rows, rows] = np.where(below, diag.T, diag)
        lower = np.where(below, diag, 0.0)
        im[rows, rows] = lower - lower.T + 0.0
    return out


def _batches(tasks, workers):
    """Batch results in batch order, computed group by group by ``workers``
    processes."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for group in pool.map(_trajectory_batch, tasks):
                yield from group
    else:
        for task in tasks:
            yield from _trajectory_batch(task)


def run_ensemble(
    psi0: WaveFunction,
    params: PhysicalParams,
    config: EvolutionConfig,
    n_traj: int,
    master_seed: int,
    workers: int = 1,
    batch_size: int = BATCH_SIZE,
) -> EnsembleResult:
    """Average of n_traj trajectory projectors, reproducible across workers.

    Trajectory i always runs on Philox stream (master_seed, i); reduction
    happens per fixed-size batch and batches are combined in index order,
    so the result is bitwise independent of the worker count (0 picks one
    worker per core; a negative count is an error).  Consecutive batches
    run in one lockstep group while the group holds at most
    LOCKSTEP_AMPLITUDES amplitudes; grouping changes no row, so no result.
    Batch sums are added, packed, into the totals as they arrive, and each
    is dropped before the next batch is computed, so a serial run holds one
    group's sums at a time.
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
    per_group = max(1, LOCKSTEP_AMPLITUDES // (batch_size * b))
    tasks = [
        (psi0, params, config, master_seed, bounds[g:g + per_group])
        for g in range(0, len(bounds), per_group)
    ]
    if workers == 0:
        workers = os.cpu_count() or 1
    n_splits = len(bounds).bit_length() - 1
    outer_total = np.zeros((b, b))
    abs2_total = np.zeros((b, b))
    split_sums = np.zeros((n_splits, b, b))
    counts = []
    means = []
    index = 0
    for outer_sum, abs2_sum, cnt, mean in _batches(tasks, workers):
        outer_total += outer_sum
        abs2_total += abs2_sum
        for s in range(n_splits):
            if not (index >> s) & 1:
                split_sums[s] += outer_sum
        counts.append(cnt)
        means.append(mean)
        # free this batch's sums before the generator computes the next
        del outer_sum, abs2_sum
        index += 1

    # scaled by 1.0 / n, not divided by n: numpy divides a complex array by
    # a real one through the reciprocal, so rho is bitwise the complex mean
    rho = DensityMatrix(psi0.grid, psi0.n_particles,
                        _unpack(outer_total, 1.0 / n_traj))
    del outer_total
    # entry_se = sqrt(max(abs2_total - n |rho|^2, 0) / (n - 1) / n), in place
    entry_se = abs2_total
    entry_se -= n_traj * np.abs(rho.entries) ** 2
    np.maximum(entry_se, 0.0, out=entry_se)
    entry_se /= n_traj - 1
    entry_se /= n_traj
    np.sqrt(entry_se, out=entry_se)
    return EnsembleResult(
        rho=rho,
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
    for s, packed in enumerate(result.split_sums):
        n_a = sizes[(np.arange(len(sizes)) >> s) & 1 == 0].sum()
        rho_a = _unpack(packed)            # sum_A, until divided by n_a
        rho_b = total - rho_a
        rho_b /= result.n_traj - n_a
        rho_a /= n_a
        td = trace_distance(
            DensityMatrix(grid, n_part, rho_a), DensityMatrix(grid, n_part, rho_b)
        )
        estimates.append(td / 2.0)
    return float(np.mean(estimates))


def _check_kernel_softening(params: PhysicalParams, softening: float) -> None:
    """Refuse sharp mode without softening, even with G = 0."""
    if params.smearing.kind == "sharp" and not softening > 0:
        raise ValueError(
            "master-side kernels need softening > 0 in sharp mode: the "
            "phase is undefined on quadrature nodes hitting the flash"
        )


def flash_quadrature_grid(grid: GridSpec, params: PhysicalParams, softening: float):
    """Uniform flash-position nodes on the periodic box, and their weight.

    The nodes refine the grid by the least integer making the step at most
    r_C/4, and at most softening/4 under sharp gravity: the kick phase is
    analytic in a strip of half-width ``softening``, so the trapezoid error
    decays like exp(-2 pi softening / step).  Every grid point is a node.
    """
    _check_kernel_softening(params, softening)
    sharp = params.smearing.kind == "sharp"
    length = min(params.r_C, softening) if sharp and params.G != 0 else params.r_C
    refine = max(1, math.ceil(4.0 * grid.spacing / length - 1e-12))
    fine = GridSpec(grid.dim, grid.n_points * refine, grid.spacing / refine,
                    grid.origin)
    return fine.points(), fine.cell_volume


def _kernel_tables(
    grid: GridSpec, params: PhysicalParams, softening: float
) -> list[np.ndarray]:
    """Per particle k, the rows of K_k with particle 0 on grid point 0.

    In C order particle 0's axes lead, so those rows are the first M^(n-1)
    of the M^n joint indices (M = n_points^dim): T_k = w v0 v^H with v the
    tensor factor v[I, f] = prod_l B_l(x_I, x_f) over the flash nodes f and
    v0 its first M^(n-1) rows, one (M^(n-1) x F)(F x M^n) product.  B_k's
    per-particle factors are the ones a trajectory applies at a flash on
    x_f = f, from one set of ``GridSpec.offsets`` over the nodes: the
    localizer ``collapse_factor`` on particle k and
    exp(i r_G(k, l) ``profile_shape``) on every particle l.
    ``_expand`` recovers every other row from these.
    """
    n = params.n_particles
    nodes, weight = flash_quadrature_grid(grid, params, softening)
    n_nodes, m = nodes.shape[0], grid.basis_size
    # (F, M) as trajectories evaluate them; C-ordered (M, F) rows build v.
    offsets = grid.offsets(nodes)
    loc = collapse_factor(offsets, params.r_C).reshape(n_nodes, m).T.copy()
    profile = profile_shape(offsets, params, softening)
    profile = profile.reshape(n_nodes, m).T.copy()
    r_gm = params.r_G_matrix()
    tables = []
    for k in range(n):
        # Tensor over particles: v[I, f] with I the joint C-order index.
        v = np.ones((1, n_nodes), dtype=np.complex128)
        for l in range(n):
            factor = np.exp(1j * r_gm[k, l] * profile) * (loc if l == k else 1.0)
            v = (v[:, None, :] * factor[None, :, :]).reshape(-1, n_nodes)
        tables.append(weight * (v[:m ** (n - 1)] @ v.conj().T))
    return tables


def _expand(table, grid: GridSpec, n_particles: int, times=None) -> np.ndarray:
    """The b x b matrix K[I, J] = table[rel(I), rel(J)], times ``times``.

    rel shifts every particle of an index by -i0, particle 0's grid point in
    I, per axis and mod n_points.  K is built one block of rows per value of
    i0, each with one permutation of the b joint indices, so no b x b index
    array is ever held.
    """
    joint = np.arange(table.shape[1]).reshape(grid.joint_shape(n_particles))
    per = table.shape[0]
    every_axis = tuple(range(joint.ndim))
    out = np.empty((table.shape[1],) * 2, dtype=np.complex128)
    for s, point in enumerate(np.ndindex(*grid.joint_shape(1))):
        # cols[J] = rel(J): np.roll(a, p)[j] = a[j - p] on every particle axis
        cols = np.roll(joint, point * n_particles, axis=every_axis).ravel()
        block = slice(s * per, (s + 1) * per)
        part = table[np.ix_(cols[block], cols)]
        if times is None:
            out[block] = part
        else:
            np.multiply(part, times[block], out=out[block])
    return out


def _generator_table(grid: GridSpec, params: PhysicalParams, softening: float):
    """lam (sum_k T_k - N): the shift-invariant table of Q = lam (sum_k K_k - N)."""
    tables = _kernel_tables(grid, params, softening)
    return params.lam * (sum(tables) - params.n_particles)


def flash_kernel_matrices(
    grid: GridSpec,
    params: PhysicalParams,
    softening: float,
) -> list[np.ndarray]:
    """Elementwise Kraus kernels K_k[I, J] = int dx_f B_I(x_f) B_J(x_f)*.

    B_k(x_f) is diagonal in position, so the whole flash integral of the
    master equation reduces to these matrices.  Distances are minimum-image
    on the periodic box, which truncates each Gaussian at half a box length
    L: K_k[I, I] = erf(L / 2 r_C)^dim, so each jump loses about
    erfc(L / 2 r_C) of trace per axis (1.5e-8 at L = 8 r_C).

    The collapse Gaussian and the kick phase depend on x - x_f only, and the
    flash nodes refine the grid by an integer on the periodic box, so
    shifting every particle by one grid step permutes the nodes and leaves
    K_k unchanged: K_k takes M^(2n-1) distinct values out of b^2 = M^(2n)
    (M = n_points^dim).  Each K_k is gathered from the table of its rows
    with particle 0 on grid point 0 (``_kernel_tables``, ``_expand``).
    """
    return [
        _expand(table, grid, params.n_particles)
        for table in _kernel_tables(grid, params, softening)
    ]


def master_generator(
    rho: DensityMatrix,
    params: PhysicalParams,
    config: EvolutionConfig,
    kernels: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Right-hand side of the master equation, as kernel-value entries.

    The flash part is Q o rho, Q = lam (sum_k K_k - N), gathered from the
    M^(2n-1) shift-invariant kernel values (see ``flash_kernel_matrices``);
    precomputed ``kernels`` may be supplied instead, to amortize the build
    across calls.  A kinetic H0 adds -(i/hbar)[H0, rho], applied as one
    ``fftn`` over all ket and bra axes, a multiply by (E_ket - E_bra)/hbar
    and one ``ifftn``: H0 is real symmetric, so rho H0 is the same filter
    applied on the bra axes.
    """
    if kernels is None:
        table = _generator_table(rho.grid, params, config.softening_for(rho.grid))
        out = _expand(table, rho.grid, params.n_particles, times=rho.entries)
    else:
        out = params.lam * (sum(kernels) - params.n_particles) * rho.entries
    if config.hamiltonian == "kinetic":
        filt = _commutator_filter(rho.grid, params)
        spectral = np.fft.fftn(rho.entries.reshape(filt.shape)) * filt
        out = out - 1j * np.fft.ifftn(spectral).reshape(out.shape)
    return out


def _commutator_filter(grid: GridSpec, params: PhysicalParams):
    """(E_ket - E_bra)/hbar of the kinetic H0 over the joint ket and bra k axes."""
    e = _kinetic_energies(grid, params).ravel()
    return (e[:, None] - e[None, :]).reshape(grid.joint_shape(params.n_particles) * 2)


# Yoshida's triple jump: Strang stages of w1 h, w0 h, w1 h make a 4th-order step.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
MASTER_TOL = 1e-8  # kinetic step doubling's tolerance, relative to max|rho0|


def _split_flow(entries, q, filt, total_time: float, n_steps: int) -> np.ndarray:
    """n_steps triple jumps of exp(tau Q/2) o, U(tau), exp(tau Q/2) o.

    U(tau), the exact commutator flow, is an FFT pair around exp(-i tau filt).
    Adjacent Q half-steps are merged: a stage is one FFT pair and two
    elementwise multiplies.  The middle weight w0 < 0 amplifies coherences,
    so positivity holds only to the splitting error.  scipy.fft transforms
    in place (``overwrite_x``) and is imported here, off the import path.
    """
    from scipy import fft
    h = total_time / n_steps
    q = q.reshape(filt.shape)
    edge, inner, seam = (np.exp(c * h * q) for c in (_W1 / 2, (_W1 + _W0) / 2, _W1))
    outer, middle = (np.exp(-1j * w * h * filt) for w in (_W1, _W0))
    rho = edge * entries.reshape(filt.shape)
    for step in range(n_steps):
        last = seam if step < n_steps - 1 else edge
        for phase, damp in ((outer, inner), (middle, inner), (outer, last)):
            rho = fft.fftn(rho, overwrite_x=True)
            rho *= phase
            rho = fft.ifftn(rho, overwrite_x=True)
            rho *= damp
    return rho.reshape(entries.shape)


def master_evolve(
    rho0: DensityMatrix,
    params: PhysicalParams,
    config: EvolutionConfig,
    dt: float | None = None,
) -> DensityMatrix:
    """Evolve the master equation from rho0 to total_time.

    With H0 = 0 the generator acts elementwise, d rho/dt = Q o rho with
    Q = lam (sum_k K_k - N), so rho_T = exp(T Q) o rho0 is exact for any
    particle count and ``dt`` is unused.  exp(T Q) is taken on the
    M^(2n-1) shift-invariant values of Q and gathered straight into the
    product with rho0, one block of rows per grid point of particle 0 (see
    ``flash_kernel_matrices``), so no b x b kernel is held.  That result is
    returned as is: it is Hermitian to rounding whenever rho0 is, and the
    trace it loses to the wrapped kernels belongs to the model.

    A kinetic H0 adds -(i/hbar)[H0, rho], whose exact flow is a phase in the
    DFT basis of the ket and bra axes; ``_split_flow`` composes the two
    exact flows, on Q gathered once from its table.  From ceil(T/dt) steps
    (one without ``dt``) the count doubles until successive results differ
    by at most MASTER_TOL max|rho0| and the finer one, ~15x closer to the
    exact flow, is returned.  diag(Q) is one constant on the periodic grid
    and the commutator is traceless, so the model's trace is
    tr(rho0) exp(T Q[0, 0]): the result must keep it to 1e-8, and
    Hermiticity to 1e-9, else StepControlError.
    """
    total_time = config.total_time
    if total_time == 0.0:
        return rho0
    grid, n = rho0.grid, params.n_particles
    table = _generator_table(grid, params, config.softening_for(grid))
    if config.hamiltonian == "none":
        decay = np.exp(total_time * table)
        return rho0.with_entries(_expand(decay, grid, n, times=rho0.entries))

    tol = MASTER_TOL * float(np.max(np.abs(rho0.entries)))
    if not math.isfinite(tol):
        raise ValueError("rho0 has non-finite entries")
    q = _expand(table, grid, n)
    filt = _commutator_filter(grid, params)
    n_steps = 1 if dt is None else max(1, math.ceil(total_time / dt))
    coarse, fine = None, _split_flow(rho0.entries, q, filt, total_time, n_steps)
    # "not <=": an overflowed (non-finite) coarse level means keep doubling
    while coarse is None or not np.max(np.abs(fine - coarse)) <= tol:
        n_steps *= 2
        coarse, fine = fine, _split_flow(rho0.entries, q, filt, total_time, n_steps)
    rho = rho0.with_entries(fine)
    law = rho0.trace().real * math.exp(total_time * table[0, 0].real)
    trace_drift = abs(rho.trace().real - law)
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
    error and that standard error is below ``se_limit``.  That estimate
    compares batches, so n_traj must exceed one batch of BATCH_SIZE; fewer
    are refused before any work, as is a softening the kernels refuse.
    """
    if n_traj <= BATCH_SIZE:
        raise ValueError(
            f"verify needs more than {BATCH_SIZE} trajectories (got {n_traj}): "
            f"its noise estimate compares at least two batches of {BATCH_SIZE}"
        )
    _check_kernel_softening(params, config.softening_for(psi0.grid))
    result = run_ensemble(psi0, params, config, n_traj, master_seed, workers=workers)
    # dt = T: a kinetic oracle starts from one step and doubles to tolerance
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
