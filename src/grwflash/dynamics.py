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

from .collapse import (
    FlashEvent,
    apply_collapse,
    next_flash,
    rng_stream,
    sample_flash_position,
)
from .gravity import (
    apply_gravitational_kick,
    phase_profile,
    smeared_newton_potential,
    softened_inverse_distance,
)
from .state import (
    MAX_DENSITY_BASIS,
    DensityMatrix,
    GridSpec,
    NullStateError,
    WaveFunction,
    expectation_position,
    normalize,
    pure_density,
    trace_distance,
    warn_if_near_boundary,
)
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


def _free_flight(psi, config, t0, t1, snap_times, snapshots):
    """Advance from t0 to t1 in one exact step per segment between snapshots."""
    stops = [t for t in snap_times if t0 < t <= t1]
    if not stops or stops[-1] < t1:
        stops.append(t1)
    t = t0
    for stop in stops:
        if stop > t and config.free_hamiltonian.kind != "none":
            psi = free_step(psi, config, stop - t)
        t = stop
        if t in snap_times:
            snapshots.append((t, psi))
    return psi


def run_trajectory(
    psi0: WaveFunction,
    params: PhysicalParams,
    config: EvolutionConfig,
    seed: int,
    master_seed: int = 0,
) -> Trajectory:
    """One stochastic trajectory, bitwise deterministic given (seed, master).

    With G = 0 the gravitational kick is the identity and consumes no
    randomness, so the run reproduces the vanilla GRW process event by
    event on the same stream.
    """
    diags = validate_params(params)
    if diags:
        raise ValueError("invalid params: " + "; ".join(diags))
    if abs(psi0.norm() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    if psi0.n_particles != params.n_particles:
        raise ValueError("params and state disagree on particle count")
    warn_if_near_boundary(psi0)

    grid = psi0.grid
    softening = config.softening_for(grid)
    has_gravity = params.G != 0.0
    total_time = config.total_time
    snap_times = set(config.snapshot_times)

    rng = rng_stream(master_seed, seed)
    psi = psi0
    t = 0.0
    flashes: list[FlashEvent] = []
    snapshots: list = []
    if 0.0 in snap_times:
        snapshots.append((0.0, psi))

    while True:
        wait, k = next_flash(rng, params.n_particles, params.lam)
        t_event = t + wait
        psi = _free_flight(
            psi, config, t, min(t_event, total_time), snap_times, snapshots
        )
        if t_event > total_time:
            t = total_time
            break
        t = t_event
        x_f = sample_flash_position(psi, k, rng, params.r_C)
        try:
            psi = normalize(apply_collapse(psi, k, x_f, params.r_C))
        except NullStateError as exc:
            raise TrajectoryError(
                f"normalization failed after flash at t={t:.6g}, particle {k}, "
                f"x_f={tuple(x_f)}: {exc}"
            ) from exc
        if has_gravity:
            profile = phase_profile(x_f, params, k, grid, softening)
            psi = apply_gravitational_kick(psi, profile)
        flashes.append(FlashEvent(time=t, particle=k, position=tuple(x_f)))

    return Trajectory(
        seed=seed,
        flashes=tuple(flashes),
        snapshots=tuple(snapshots),
        final_state=psi,
    )


@dataclass(frozen=True)
class EnsembleResult:
    """Equal-weight trajectory average at time T plus error diagnostics.

    ``batch_sums``/``batch_sizes`` hold partial projector sums over fixed
    trajectory batches (independent of worker count); they feed the
    trace-distance noise estimate.  ``entry_se`` is the elementwise Monte
    Carlo standard error of the density-matrix entries.
    """

    rho: DensityMatrix
    flash_counts: np.ndarray
    mean_positions: np.ndarray       # (n_traj, n_particles, dim), final states
    entry_se: np.ndarray
    batch_sums: np.ndarray
    batch_sizes: np.ndarray
    n_traj: int
    master_seed: int

    def particle_means(self, k: int = 0) -> np.ndarray:
        return self.mean_positions[:, k, :]


def _trajectory_batch(args):
    psi0, params, config, master_seed, start, stop, want_moments = args
    b = psi0.grid.basis_size**psi0.n_particles
    outer_sum = np.zeros((b, b), dtype=np.complex128)
    abs2_sum = np.zeros((b, b))
    counts = np.empty(stop - start, dtype=np.int64)
    means = np.empty((stop - start, psi0.n_particles, psi0.grid.dim))
    for i, seed in enumerate(range(start, stop)):
        traj = run_trajectory(psi0, params, config, seed, master_seed)
        v = traj.final_state.amplitudes.ravel()
        proj = np.outer(v, v.conj())
        outer_sum += proj
        abs2_sum += np.abs(proj) ** 2
        counts[i] = len(traj.flashes)
        if want_moments:
            for k in range(psi0.n_particles):
                means[i, k] = expectation_position(traj.final_state, k)
    return outer_sum, abs2_sum, counts, means


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
    worker per core; a negative count is an error).
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
    tasks = [
        (psi0, params, config, master_seed, s, e, True) for s, e in bounds
    ]
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trajectory_batch, tasks))
    else:
        results = [_trajectory_batch(t) for t in tasks]

    outer_total = np.zeros((b, b), dtype=np.complex128)
    abs2_total = np.zeros((b, b))
    counts = []
    means = []
    batch_sums = []
    for outer_sum, abs2_sum, cnt, mean in results:
        outer_total += outer_sum
        abs2_total += abs2_sum
        counts.append(cnt)
        means.append(mean)
        batch_sums.append(outer_sum)

    rho_entries = outer_total / n_traj
    var = np.maximum(abs2_total - n_traj * np.abs(rho_entries) ** 2, 0.0)
    entry_se = np.sqrt(var / (n_traj - 1) / n_traj)
    return EnsembleResult(
        rho=DensityMatrix(psi0.grid, psi0.n_particles, rho_entries),
        flash_counts=np.concatenate(counts),
        mean_positions=np.concatenate(means, axis=0),
        entry_se=entry_se,
        batch_sums=np.array(batch_sums),
        batch_sizes=np.array([e - s for s, e in bounds]),
        n_traj=n_traj,
        master_seed=master_seed,
    )


def trace_distance_se(result: EnsembleResult) -> float:
    """Monte Carlo noise floor of the ensemble in trace distance.

    Disjoint half-ensembles A and B are compared: rho_A - rho_B has twice
    the statistical error of the full mean, so TD(A, B)/2 estimates the
    expected trace distance between the full ensemble and the infinite-n
    limit.  Several deterministic batch splits are averaged.
    """
    sums = result.batch_sums
    sizes = result.batch_sizes.astype(float)
    m = len(sums)
    if m < 2:
        raise ValueError("need at least two batches for a split estimate")
    n_splits = max(1, int(math.log2(m)))
    grid, n_part = result.rho.grid, result.rho.n_particles
    estimates = []
    for s in range(n_splits):
        pick = (np.arange(m) >> s) & 1 == 0
        if pick.all() or (~pick).all():
            continue
        rho_a = sums[pick].sum(axis=0) / sizes[pick].sum()
        rho_b = sums[~pick].sum(axis=0) / sizes[~pick].sum()
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

    Precomputed ``kernels`` may be supplied to amortize setup across
    repeated calls (the integrator does).  A kinetic H0 adds
    -(i/hbar)[H0, rho], applied as one ``fftn`` over all ket and bra axes,
    a multiply by (E_ket - E_bra)/hbar and one ``ifftn``: H0 is real
    symmetric, so rho H0 is the same filter applied on the bra axes.
    """
    if kernels is None:
        kernels = flash_kernel_matrices(
            rho.grid, params, config.softening_for(rho.grid)
        )
    q = params.lam * (sum(kernels) - params.n_particles)
    out = q * rho.entries
    ham = config.free_hamiltonian
    if ham.kind != "none":
        e = _kinetic_energies(rho.grid, ham, rho.n_particles).ravel()
        shape = rho.grid.joint_shape(rho.n_particles) * 2
        spectral = np.fft.fftn(rho.entries.reshape(shape))
        spectral *= (e[:, None] - e[None, :]).reshape(shape)
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

    A kinetic H0 is integrated with classical RK4 on ``master_generator``,
    whose commutator costs one FFT pair per stage, with steps no longer than
    ``dt`` (when given) nor than the stability bound
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
    ham = config.free_hamiltonian
    if ham.kind == "none":
        q = params.lam * (sum(kernels) - params.n_particles)
        return rho0.with_entries(np.exp(total_time * q) * rho0.entries)

    energies = _kinetic_energies(rho0.grid, ham, rho0.n_particles)
    h_rate = rho0.entries.shape[0] ** 0.5 * float(energies.mean())
    rate_scale = params.lam * params.n_particles * 2.0 + h_rate
    max_step = 0.05 / rate_scale if dt is None else min(dt, 0.05 / rate_scale)
    n_steps = max(1, math.ceil(total_time / max_step))
    step = total_time / n_steps
    gen_args = (params, config, kernels)
    rho = rho0
    for _ in range(n_steps):
        ent = rho.entries
        k1 = master_generator(rho, *gen_args)
        k2 = master_generator(rho.with_entries(ent + 0.5 * step * k1), *gen_args)
        k3 = master_generator(rho.with_entries(ent + 0.5 * step * k2), *gen_args)
        k4 = master_generator(rho.with_entries(ent + step * k3), *gen_args)
        rho = rho.with_entries(ent + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
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
