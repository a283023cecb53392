import copy
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2, poisson

import grwflash
from grwflash.collapse import apply_collapse, next_flash, rng_stream, sample_flash_position
from grwflash.dynamics import (
    BATCH_SIZE,
    EvolutionConfig,
    StepControlError,
    TrajectoryError,
    _kernel_tables,
    _lockstep,
    _rekeyed_lanes,
    ensemble_vs_master_check,
    exact_diagonal_solution,
    flash_kernel_matrices,
    flash_quadrature_grid,
    free_step,
    master_evolve,
    master_generator,
    run_ensemble,
    run_trajectory,
    trace_distance_se,
)
from grwflash.gravity import (
    apply_gravitational_kick,
    phase_profile,
    smeared_newton_potential,
    softened_inverse_distance,
)
from grwflash.state import (
    DensityMatrix,
    GridSpec,
    WaveFunction,
    density_from_ensemble,
    expectation_position,
    load_state,
    make_gaussian_packet,
    normalize,
    position_density,
    pure_density,
    save_state,
    trace_distance,
)
from grwflash.units import PhysicalParams, Smearing, dimensionless_params


GRID = GridSpec.centered(1, 64, 0.25)


def packet(width=0.75, center=0.0, grid=GRID):
    return make_gaussian_packet(grid, 1, [[center]], [width])


# ---------------------------------------------------------------- free flight

def test_free_step_none_is_identity():
    psi = packet()
    cfg = EvolutionConfig(total_time=1.0)
    out = free_step(psi, dimensionless_params(), cfg, 0.05)
    assert out is psi


def test_free_step_unitary():
    psi = packet()
    cfg = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    out = free_step(psi, dimensionless_params(), cfg, 0.05)
    assert abs(out.norm() - 1.0) < 1e-10


def test_free_packet_spreading_law():
    grid = GridSpec.centered(1, 128, 0.15)
    w, m, hbar, t = 1.0, 1.0, 1.0, 1.0
    psi = make_gaussian_packet(grid, 1, [[0.0]], [w])
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.0, hbar=hbar, masses=(m,))
    cfg = EvolutionConfig(total_time=t, hamiltonian="kinetic")
    for _ in range(100):
        psi = free_step(psi, params, cfg, t / 100)
    x = grid.axis(0)
    var = float(np.sum(x**2 * position_density(psi, 0)) * grid.spacing)
    exact = (w**2 / 2) * (1 + (hbar * t / (m * w**2)) ** 2)
    assert abs(var - exact) / exact < 1e-3


def test_momentum_eigenstate_density_static():
    grid = GridSpec.centered(1, 64, 0.25)
    k = 2 * math.pi * np.fft.fftfreq(64, d=0.25)[5]
    amps = np.exp(1j * k * grid.axis(0))
    psi = normalize(WaveFunction(grid, 1, amps))
    cfg = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # plane wave touches the boundary
        out = free_step(psi, dimensionless_params(), cfg, 0.05)
    assert np.max(
        np.abs(position_density(out, 0) - position_density(psi, 0))
    ) < 1e-12


def test_free_step_exact_for_any_dt():
    # the spectral propagator composes exactly: one step of t equals 100 of t/100
    psi = make_gaussian_packet(GRID, 1, [[-1.0]], [0.8], [[1.5]])
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.0, hbar=0.7, masses=(1.3,))
    cfg = EvolutionConfig(total_time=2.0, hamiltonian="kinetic")
    t = 2.0
    one = free_step(psi, params, cfg, t)
    many = psi
    for _ in range(100):
        many = free_step(many, params, cfg, t / 100)
    assert np.max(np.abs(one.amplitudes - psi.amplitudes)) > 0.1
    assert np.max(np.abs(one.amplitudes - many.amplitudes)) < 1e-12


# ---------------------------------------------------------------- trajectories

def test_trajectory_deterministic():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    cfg = EvolutionConfig(total_time=2.0)
    a = run_trajectory(packet(), params, cfg, seed=3, master_seed=17)
    b = run_trajectory(packet(), params, cfg, seed=3, master_seed=17)
    assert a.flashes == b.flashes
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
    c = run_trajectory(packet(), params, cfg, seed=4, master_seed=17)
    assert a.flashes != c.flashes


def test_trajectory_zero_gravity_matches_vanilla_reference():
    # independent jump-process loop built from the collapse primitives and
    # one free_step per interval between flashes (the identity for H0 = 0)
    params = dimensionless_params(lam=1.0, r_G=0.0)
    for ham in ("none", "kinetic"):
        cfg = EvolutionConfig(total_time=3.0, hamiltonian=ham)
        for seed in range(5):
            traj = run_trajectory(packet(), params, cfg, seed=seed, master_seed=5)

            psi = packet()
            rng = rng_stream(5, seed)
            t, log = 0.0, []
            while True:
                dt, k = next_flash(rng, 1, params.lam)
                psi = free_step(psi, params, cfg, min(t + dt, cfg.total_time) - t)
                t += dt
                if t > cfg.total_time:
                    break
                x_f = sample_flash_position(psi, k, rng, params.r_C)
                psi = normalize(apply_collapse(psi, k, x_f, params.r_C))
                log.append((t, k, tuple(x_f)))

            assert [(f.time, f.particle, f.position) for f in traj.flashes] == log
            assert np.array_equal(traj.final_state.amplitudes, psi.amplitudes)


def test_trajectory_flash_counts_poisson():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    cfg = EvolutionConfig(total_time=0.01)
    counts = np.array([
        len(run_trajectory(packet(), params, cfg, seed=s, master_seed=8).flashes)
        for s in range(10_000)
    ])
    mu = params.lam * cfg.total_time
    observed = np.array([np.sum(counts == 0), np.sum(counts >= 1)])
    expected = 10_000 * np.array([poisson.pmf(0, mu), 1 - poisson.pmf(0, mu)])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert stat < chi2.isf(0.01, df=1)


def test_trajectory_input_validation():
    params = dimensionless_params(lam=1.0, r_G=0.1)
    cfg = EvolutionConfig(total_time=1.0)
    raw = packet().with_amplitudes(packet().amplitudes * 2.0)
    with pytest.raises(ValueError, match="normalized"):
        run_trajectory(raw, params, cfg, seed=0)
    with pytest.raises(ValueError, match="lambda"):
        bad = PhysicalParams(lam=-1.0, r_C=1.0, G=0.0, hbar=1.0, masses=(1.0,))
        run_trajectory(packet(), bad, cfg, seed=0)
    with pytest.raises(ValueError):
        EvolutionConfig(total_time=-1.0)
    with pytest.raises(ValueError, match="hamiltonian"):
        EvolutionConfig(total_time=1.0, hamiltonian="harmonic")


def test_nan_initial_state_is_refused_as_not_normalized(tmp_path):
    # a nan amplitude makes a nan norm, which no "> tol" test would refuse
    params = dimensionless_params(lam=1.0, r_G=0.1)
    cfg = EvolutionConfig(total_time=1.0)
    amps = packet().amplitudes.copy()
    amps[32] = np.nan
    nan_state = packet().with_amplitudes(amps)
    save_state(nan_state, tmp_path / "nan.grws")
    for psi0 in (nan_state, load_state(tmp_path / "nan.grws")):
        with pytest.raises(ValueError, match="normalized"):
            run_trajectory(psi0, params, cfg, seed=0)
        with pytest.raises(ValueError, match="normalized"):
            run_ensemble(psi0, params, cfg, n_traj=4, master_seed=0)


def _unwrapped_draw(psi, k, rng, r_c):
    """The node plus Gaussian offset that ``sample_flash_position`` wraps.

    Draws from ``rng`` what the sampler draws: one uniform, turned into a
    node by the cdf search of ``Generator.choice``, then ``standard_normal``.
    """
    grid = psi.grid
    dens = position_density(psi, k)
    p = np.clip((dens * grid.cell_volume).ravel(), 0.0, None)
    p /= p.sum()
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    cell = int(np.searchsorted(cdf, rng.random(), side="right"))
    node = np.asarray(grid.origin) + grid.spacing * np.array(
        np.unravel_index(cell, dens.shape)
    )
    return node + r_c / np.sqrt(2.0) * rng.standard_normal(grid.dim)


def _outside_box(grid, x):
    lo = np.asarray(grid.origin) - grid.spacing / 2
    return bool(np.any((x < lo) | (x >= lo + grid.extent)))


def test_sampler_replays_wrapped_node_plus_gaussian():
    grids = [GRID, GridSpec.centered(1, 8, 0.25), GridSpec.centered(3, 8, 0.5)]
    n_outside = 0
    for seed, grid in enumerate(grids):
        psi = _small_box_packet(grid, 0.5 if grid.dim == 1 else 0.8)
        rng = rng_stream(21, seed)
        for _ in range(200):
            raw = _unwrapped_draw(psi, 0, copy.deepcopy(rng), 1.0)
            x_f = sample_flash_position(psi, 0, rng, 1.0)
            assert np.array_equal(x_f, grid.wrap(raw))
            n_outside += _outside_box(grid, raw)
    assert n_outside > 0


@pytest.mark.parametrize("r_g, tol", [(0.0, 1e-12), (0.3, 1e-10)])
def test_sampler_law_integrates_to_the_kernel_channel(r_g, tol):
    # one jump from the criterion-07 packet: the sampler's law, node i with
    # p_i plus a wrapped N(0, r_C^2/2) offset, weights the normalized
    # collapse-and-kick outcomes; integrated over x_f on the torus they must
    # give the oracle's K o rho.  With gravity the kernel's own trapezoid
    # rule, at step a/4 in a phase analytic within a of the real axis, is
    # exp(-8 pi) = 1.2e-11 off.
    params = dimensionless_params(lam=1.0, r_G=r_g)
    softening = GRID.spacing / 2
    psi = packet()
    p = position_density(psi, 0) * GRID.spacing
    x = GRID.axis(0)
    length = GRID.extent
    n_nodes = 2560
    step = length / n_nodes
    x_fs = GRID.origin[0] - GRID.spacing / 2 + step * (np.arange(n_nodes) + 0.5)
    rho = np.zeros((64, 64), dtype=complex)
    for x_f in x_fs:
        d = x_f - x[:, None] + length * np.arange(-2, 3)
        law = p @ np.exp(-(d**2)).sum(axis=1) / math.sqrt(math.pi)
        out = normalize(apply_collapse(psi, 0, [x_f], params.r_C))
        if r_g:
            out = apply_gravitational_kick(
                out, phase_profile([x_f], params, 0, GRID, softening)
            )
        v = out.amplitudes
        rho += step * law * np.outer(v, v.conj())
    rho0 = pure_density(psi)
    kernel = flash_kernel_matrices(GRID, params, softening)[0]
    channel = rho0.with_entries(kernel * rho0.entries)
    assert trace_distance(rho0.with_entries(rho), channel) < tol


def _reference_rows(psi0, params, cfg, master_seed, seeds):
    """Trajectories from the single-state primitives, one at a time.

    Returns the final states, the flash counts, and how many flashes drew a
    node plus offset outside the box, which the sampler wraps.
    """
    grid, n = psi0.grid, params.n_particles
    softening = cfg.softening_for(grid)
    finals, counts, wrapped = [], [], 0
    for seed in seeds:
        rng = rng_stream(master_seed, seed)
        psi, t, count = psi0, 0.0, 0
        while True:
            dt, k = next_flash(rng, n, params.lam)
            psi = free_step(psi, params, cfg, min(t + dt, cfg.total_time) - t)
            t += dt
            if t > cfg.total_time:
                break
            raw = _unwrapped_draw(psi, k, copy.deepcopy(rng), params.r_C)
            wrapped += _outside_box(grid, raw)
            x_f = sample_flash_position(psi, k, rng, params.r_C)
            psi = normalize(apply_collapse(psi, k, x_f, params.r_C))
            if params.G != 0.0:
                profile = phase_profile(x_f, params, k, grid, softening)
                psi = apply_gravitational_kick(psi, profile)
            count += 1
        finals.append(psi.amplitudes)
        counts.append(count)
    return np.array(finals), np.array(counts), wrapped


def _small_box_packet(grid, width):
    """Centred Gaussian on a box of a few r_C, where flashes often land outside."""
    g = np.exp(-(grid.axis(0) ** 2) / (2 * width**2))
    amps = g
    for _ in range(grid.dim - 1):
        amps = np.multiply.outer(amps, g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tails reach the edge
        return normalize(WaveFunction(grid, 1, amps))


_STEPPER_CASES = {
    "1d-one-particle-gravity": (
        packet(),
        dimensionless_params(lam=1.0, r_G=0.3),
        EvolutionConfig(total_time=2.0),
    ),
    "1d-two-kinetic-particles": (
        make_gaussian_packet(GridSpec.centered(1, 24, 0.5), 2, [[-1.5], [1.5]],
                             [1.0, 1.0], [[0.5], [-0.3]]),
        PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 2.0)),
        EvolutionConfig(total_time=2.0, hamiltonian="kinetic"),
    ),
    "3d-small-box": (
        _small_box_packet(GridSpec.centered(3, 8, 0.5), 0.8),
        dimensionless_params(lam=1.0, r_G=0.2),
        EvolutionConfig(total_time=1.5, hamiltonian="kinetic"),
    ),
    "1d-small-box": (
        _small_box_packet(GridSpec.centered(1, 8, 0.25), 0.5),
        dimensionless_params(lam=2.0, r_G=0.3),
        EvolutionConfig(total_time=2.0),
    ),
}


@pytest.mark.parametrize("case", sorted(_STEPPER_CASES))
def test_lockstep_rows_match_primitive_reference_loop(case):
    psi0, params, cfg = _STEPPER_CASES[case]
    n_traj = 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref, ref_counts, wrapped = _reference_rows(psi0, params, cfg, 13, range(n_traj))
        rows, counts, _ = _lockstep(psi0, params, cfg, 13, range(n_traj))
        res = run_ensemble(psi0, params, cfg, n_traj, master_seed=13, batch_size=4)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(res.flash_counts, ref_counts)
    assert ref_counts.sum() > n_traj
    assert np.max(np.abs(rows - ref)) <= 1e-14
    direct = density_from_ensemble(
        [psi0.with_amplitudes(a) for a in ref], [1.0 / n_traj] * n_traj
    )
    assert np.max(np.abs(res.rho.entries - direct.entries)) < 1e-14
    if "box" in case:
        assert wrapped > 0


def _count_min_image(monkeypatch) -> list:
    """Patch ``GridSpec.min_image`` to log each call; returns the log."""
    calls = []
    min_image = GridSpec.min_image

    def counted(self, d):
        calls.append(d.shape)
        return min_image(self, d)

    monkeypatch.setattr(GridSpec, "min_image", counted)
    return calls


@pytest.mark.parametrize("case", ["1d-one-particle-gravity", "3d-small-box"])
def test_lockstep_wraps_flash_offsets_once_per_round(case, monkeypatch):
    # the collapse and the kick share one GridSpec.offsets per flash round
    psi0, params, cfg = _STEPPER_CASES[case]
    assert params.G != 0.0
    calls = _count_min_image(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small box's tails reach the edge
        _, counts, _ = _lockstep(psi0, params, cfg, 13, range(10))
    # every running row flashes in each round but its last
    assert counts.max() > 1
    assert len(calls) == counts.max()


def test_kernel_tables_wrap_flash_offsets_once(monkeypatch):
    psi0, params, cfg = _STEPPER_CASES["1d-one-particle-gravity"]
    calls = _count_min_image(monkeypatch)
    _kernel_tables(psi0.grid, params, cfg.softening_for(psi0.grid))
    assert len(calls) == 1


def test_trajectory_error_names_the_null_flash():
    # r_C far above the box: the collapse prefactor (pi r_C^2)^(-1/4) alone
    # drops the norm to 7.5e-16, below the null-state threshold
    grid = GridSpec.centered(1, 16, 0.25)
    amps = np.zeros(16)
    amps[8] = 1.0 / math.sqrt(grid.spacing)
    psi0 = WaveFunction(grid, 1, amps)
    params = PhysicalParams(lam=50.0, r_C=1e30, G=0.0, hbar=1.0, masses=(1.0,))
    with pytest.raises(TrajectoryError) as info:
        run_trajectory(psi0, params, EvolutionConfig(total_time=1.0), seed=3)
    message = str(info.value)
    assert message.startswith("trajectory 3: normalization failed after flash at t=")
    assert "particle 0, x_f=(" in message
    assert "numerically null" in message


# ------------------------------------------------------------------- ensembles

def test_ensemble_of_identical_trajectories_is_pure():
    # lam*T so small that no flash fires: every trajectory stays psi0
    params = dimensionless_params(lam=1e-9, r_G=0.1)
    cfg = EvolutionConfig(total_time=1e-6)
    res = run_ensemble(packet(), params, cfg, 4, master_seed=0, batch_size=2)
    assert abs(res.rho.purity() - 1.0) < 1e-9
    assert np.allclose(
        res.rho.entries, pure_density(packet()).entries, atol=1e-12
    )
    assert res.flash_counts.tolist() == [0, 0, 0, 0]


def test_ensemble_matches_density_from_ensemble():
    params = dimensionless_params(lam=1.0, r_G=0.2)
    cfg = EvolutionConfig(total_time=1.0)
    n = 8
    res = run_ensemble(packet(), params, cfg, n, master_seed=3, batch_size=4)
    states = [
        run_trajectory(packet(), params, cfg, seed=s, master_seed=3).final_state
        for s in range(n)
    ]
    direct = density_from_ensemble(states, [1.0 / n] * n)
    assert np.max(np.abs(res.rho.entries - direct.entries)) < 1e-14


def test_ensemble_mean_positions_match_expectation_position():
    # the stacked first moments of run_ensemble against the single-state
    # expectation_position of each trajectory's final state
    psi0, params, cfg = _STEPPER_CASES["1d-two-kinetic-particles"]
    n_traj = 6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the packets' tails reach the edge
        res = run_ensemble(psi0, params, cfg, n_traj, master_seed=13, batch_size=4)
        finals = [run_trajectory(psi0, params, cfg, seed, 13).final_state
                  for seed in range(n_traj)]
    assert res.mean_positions.shape == (n_traj, 2, 1)
    for seed, final in enumerate(finals):
        for k in range(2):
            assert np.array_equal(res.mean_positions[seed, k],
                                  expectation_position(final, k))


def test_ensemble_worker_count_invariance():
    params = dimensionless_params(lam=1.0, r_G=0.2)
    cfg = EvolutionConfig(total_time=1.0)
    r1 = run_ensemble(packet(), params, cfg, 8, master_seed=6, workers=1,
                      batch_size=2)
    r2 = run_ensemble(packet(), params, cfg, 8, master_seed=6, workers=2,
                      batch_size=2)
    assert np.array_equal(r1.rho.entries, r2.rho.entries)
    assert np.array_equal(r1.flash_counts, r2.flash_counts)


@pytest.mark.parametrize("b", [1, 64, 1024])
def test_batch_reduction_matches_outer_product_reference(b, monkeypatch):
    # the batch's BLAS products against per-row np.outer sums, on random
    # complex rows standing in for the lockstep's final states
    import grwflash.dynamics as dynamics

    rng = np.random.default_rng(b)
    psi0 = SimpleNamespace(grid=None, n_particles=1)
    monkeypatch.setattr(dynamics, "_position_means", lambda *args: None)
    for n_rows in (1, 2, 63, 64):
        v = rng.normal(size=(n_rows, b)) + 1j * rng.normal(size=(n_rows, b))
        monkeypatch.setattr(dynamics, "_lockstep", lambda *args: (
            v, np.zeros(n_rows, dtype=int), None))
        [(packed, abs2, _, _)] = dynamics._trajectory_batch(
            (psi0, None, None, 0, [(0, n_rows)]))
        proj = dynamics._unpack(packed)
        a = np.abs(v) ** 2
        ref_proj = sum(np.outer(row, row.conj()) for row in v)
        ref_abs2 = sum(np.outer(row, row) for row in a)
        assert np.max(np.abs(proj - ref_proj)) <= 1e-12 * np.max(np.abs(ref_proj))
        assert np.max(np.abs(abs2 - ref_abs2)) <= 1e-12 * np.max(ref_abs2)
        assert np.array_equal(proj, proj.conj().T)
        assert np.array_equal(abs2, abs2.T)


@pytest.mark.parametrize("b", [1, 2, 65, 300])
def test_packed_batch_sum_is_bitwise_the_complex_split(b):
    # the packed sum, unpacked, against the complex layout it replaces: the
    # mirrored dsyrk sum as the real part and w - w^T as the imaginary part
    import grwflash.dynamics as dynamics

    rng = np.random.default_rng(b)
    for n_rows in (1, 64):
        v = rng.normal(size=(n_rows, b)) + 1j * rng.normal(size=(n_rows, b))
        xy = np.concatenate([v.real, v.imag])
        w = xy[n_rows:].T @ xy[:n_rows]
        ref = np.empty((b, b), dtype=np.complex128)
        ref.real = xy.T @ xy
        np.subtract(w, w.T, out=ref.imag)
        got = dynamics._unpack(dynamics._projector_sum(v))
        assert got.tobytes() == ref.tobytes()


def test_real_ensemble_has_no_negative_zero_imaginary_part():
    # G = 0 and no H0 keep every amplitude real, with a negative lobe: each
    # Im rho is exactly zero and must read +0.0 on both triangles.  b = 160
    # spans an off-diagonal PACK_TILE square as well as diagonal ones.
    grid = GridSpec.centered(1, 160, 0.1)
    x = grid.axis(0)
    psi0 = normalize(WaveFunction(grid, 1, np.exp(-(x - 1) ** 2)
                                  - np.exp(-(x + 1) ** 2)))
    params = dimensionless_params(lam=1.0, r_G=0.0)
    res = run_ensemble(psi0, params, EvolutionConfig(total_time=1.0), 130, 3)
    assert np.all(res.rho.entries.imag == 0.0)
    assert not np.signbit(res.rho.entries.imag).any()
    assert np.any(res.rho.entries.real < 0.0)


def test_ensemble_memory_is_bounded():
    # b = 1024 and 130 trajectories: three batches and one half-split sum.
    # Packed, the total, the |.|^2 total and the split sum are three real
    # b x b arrays; a batch in flight adds two and the complex rho two.
    # The bound is 9 of them: complex accumulators, with the previous
    # batch held while the next one is computed, reach 13.
    grid = GridSpec.centered(1, 32, 0.5)
    x = grid.axis(0)
    cat = np.exp(-(x - 2) ** 2 / 2) + np.exp(-(x + 2) ** 2 / 2)
    psi0 = normalize(WaveFunction(grid, 2, np.multiply.outer(cat, np.exp(-x**2 / 2))))
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 1.0))
    tracemalloc.start()
    try:
        res = run_ensemble(psi0, params, EvolutionConfig(total_time=1.0), 130, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    b = res.rho.entries.shape[0]
    assert b == 1024 and len(res.split_sums) == 1
    assert peak < 9 * b * b * 8


_BLAS_PROBE = """
import hashlib
import numpy as np
from grwflash.dynamics import EvolutionConfig, run_ensemble
from grwflash.state import GridSpec, WaveFunction, normalize
from grwflash.units import PhysicalParams

grid = GridSpec.centered(1, 16, 0.5)
x = grid.axis(0)
cat = np.exp(-(x - 1.5) ** 2 / 2) + np.exp(-(x + 1.5) ** 2 / 2)
psi0 = normalize(WaveFunction(grid, 2, np.multiply.outer(cat, np.exp(-x**2 / 2))))
res = run_ensemble(
    psi0, PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 2.0)),
    EvolutionConfig(total_time=1.0, hamiltonian="kinetic"), 130, master_seed=5,
)
for array in (res.rho.entries, res.entry_se, res.split_sums):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_ensemble_is_bitwise_independent_of_blas_threads():
    # b = 16^2 = 256, where OpenBLAS runs the batch products on both threads;
    # 130 trajectories make two full batches and a two-row one
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its thread count at the usable cores")
    src = str(Path(grwflash.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def _ensemble_fields(res):
    return (res.rho.entries, res.entry_se, res.flash_counts, res.mean_positions,
            res.split_sums, res.batch_sizes)


@pytest.mark.parametrize(
    "case", ["1d-one-particle-gravity", "1d-two-kinetic-particles"]
)
def test_ensemble_grouping_is_invisible(case, monkeypatch):
    # one batch per lockstep group against every batch in one group, with a
    # ragged last batch (22 = 5 * 4 + 2), serial and on two workers
    import grwflash.dynamics as dynamics

    psi0, params, cfg = _STEPPER_CASES[case]
    calls = []
    lockstep = dynamics._lockstep

    def counted(*args, **kwargs):
        calls.append(len(args[4]))
        return lockstep(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_lockstep", counted)
    runs = {}
    for budget in (1, 2**40):
        monkeypatch.setattr(dynamics, "LOCKSTEP_AMPLITUDES", budget)
        for workers in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the kinetic pair nears the edge
                runs[budget, workers] = run_ensemble(
                    psi0, params, cfg, 22, master_seed=4, workers=workers,
                    batch_size=4,
                )
    # the serial runs locksteps every batch alone, then all 22 rows at once
    assert calls == [4, 4, 4, 4, 4, 2, 22]
    ref = _ensemble_fields(runs[1, 1])
    assert ref[-1].tolist() == [4, 4, 4, 4, 4, 2]
    for res in runs.values():
        for got, want in zip(_ensemble_fields(res), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _philox_state(rng):
    state = rng.bit_generator.state
    inner = state["state"]
    return (inner["counter"].tolist(), inner["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


def _mixed_draws(rng):
    return np.concatenate([
        [rng.standard_exponential(), rng.integers(2), rng.random()],
        rng.standard_normal(3),
        [rng.integers(2**32, dtype=np.uint32), rng.random()],
    ])


def test_rekeyed_lanes_equal_fresh_streams():
    # leave the lanes part-way through a block with a cached 32-bit half
    for lane in _rekeyed_lanes(3, [0, 1, 2]):
        lane.standard_normal()
        lane.integers(2**32, dtype=np.uint32)
        assert lane.bit_generator.state["has_uint32"] == 1
    lanes = _rekeyed_lanes(2**40 + 5, [7, 2**63, 0])
    assert len(lanes) == 3
    for lane, seed in zip(lanes, [7, 2**63, 0]):
        fresh = rng_stream(2**40 + 5, seed)
        assert _philox_state(lane) == _philox_state(fresh)
        assert np.array_equal(_mixed_draws(lane), _mixed_draws(fresh))
        assert _philox_state(lane) == _philox_state(fresh)


def test_one_particle_clock_skips_a_draw_that_consumes_nothing():
    # _lockstep draws the particle only when n > 1: numpy's integers(1)
    # must consume no bits, or a lone run would shift its stream
    rng = rng_stream(5, 1)
    rng.random()
    before = _philox_state(rng)
    assert rng.integers(1) == 0
    assert _philox_state(rng) == before


def test_concurrent_ensembles_in_threads_match_serial_runs(monkeypatch):
    # each thread re-keys its own lane pool: interleaved runs on different
    # master seeds must reproduce their serial bits.  One batch per group
    # makes every run re-key its lanes twelve times.
    import grwflash.dynamics as dynamics

    monkeypatch.setattr(dynamics, "LOCKSTEP_AMPLITUDES", 1)
    params = dimensionless_params(lam=1.0, r_G=0.3)
    cfg = EvolutionConfig(total_time=2.0)
    seeds = (1, 2, 3)
    serial = {m: run_ensemble(packet(), params, cfg, 48, m, batch_size=4)
              for m in seeds}
    results, errors = {}, []
    barrier = threading.Barrier(len(seeds))

    def run(m):
        try:
            barrier.wait(timeout=30)
            results[m] = run_ensemble(packet(), params, cfg, 48, m, batch_size=4)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(m,)) for m in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for m in seeds:
        for got, want in zip(_ensemble_fields(results[m]),
                             _ensemble_fields(serial[m])):
            assert np.array_equal(got, want)


def test_ensemble_offdiagonal_suppression():
    # wide packet, lam*T = 4: coherence at separations >> r_C must be
    # suppressed at least as exp(-lam T / 2) relative to the initial state
    grid = GridSpec.centered(1, 64, 0.4)
    params = dimensionless_params(lam=2.0, r_G=0.0)
    cfg = EvolutionConfig(total_time=2.0)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [3.0])
    res = run_ensemble(psi, params, cfg, 512, master_seed=12)
    rho0 = pure_density(psi)
    lam_t = params.lam * cfg.total_time
    x = grid.axis(0)
    for i, j in [(12, 52), (16, 48), (20, 44)]:
        assert abs(x[i] - x[j]) > 4.0  # separation >> r_C
        bound = math.exp(-lam_t / 2) * abs(rho0.entries[i, j])
        assert abs(res.rho.entries[i, j]) <= bound + 3 * res.entry_se[i, j]


def test_unraveling_error_scales_like_inverse_sqrt_n():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    cfg = EvolutionConfig(total_time=2.0)
    kernels = flash_kernel_matrices(GRID, params, softening=GRID.spacing / 2)
    oracle = exact_diagonal_solution(
        pure_density(packet()), kernels[0], params.lam, cfg.total_time
    )
    td_small = trace_distance(
        run_ensemble(packet(), params, cfg, 256, master_seed=7).rho, oracle
    )
    td_big = trace_distance(
        run_ensemble(packet(), params, cfg, 1024, master_seed=7).rho, oracle
    )
    assert 1.3 < td_small / td_big < 3.2  # 4x samples: expect about 2x


def test_trace_distance_se_matches_explicit_batch_sums():
    # today's estimate from stored per-batch projector sums, against the
    # half-split sums the ensemble accumulates while it runs
    params = dimensionless_params(lam=1.0, r_G=0.3)
    cfg = EvolutionConfig(total_time=1.0)
    n_traj, batch_size = 22, 4             # six batches, the last one of two
    res = run_ensemble(packet(), params, cfg, n_traj, master_seed=9,
                       batch_size=batch_size)
    sums, sizes = [], []
    for start in range(0, n_traj, batch_size):
        seeds = range(start, min(start + batch_size, n_traj))
        acc = 0
        for seed in seeds:
            v = run_trajectory(packet(), params, cfg, seed, 9).final_state.amplitudes
            acc = acc + np.outer(v.ravel(), v.ravel().conj())
        sums.append(acc)
        sizes.append(len(seeds))
    sums, sizes = np.array(sums), np.array(sizes, dtype=float)
    assert res.batch_sizes.tolist() == sizes.tolist()
    assert res.split_sums.shape == (2,) + res.rho.entries.shape
    estimates = []
    for s in range(int(math.log2(len(sums)))):
        pick = (np.arange(len(sums)) >> s) & 1 == 0
        rho_a = res.rho.with_entries(sums[pick].sum(axis=0) / sizes[pick].sum())
        rho_b = res.rho.with_entries(sums[~pick].sum(axis=0) / sizes[~pick].sum())
        estimates.append(trace_distance(rho_a, rho_b) / 2.0)
    expected = float(np.mean(estimates))
    assert abs(trace_distance_se(res) - expected) <= 1e-12 * expected


def test_ensemble_requires_two_trajectories():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    with pytest.raises(ValueError):
        run_ensemble(packet(), params, EvolutionConfig(total_time=1.0), 1, 0)


# ------------------------------------------------------------ master equation

def test_flash_quadrature_refuses_coarse_grid():
    # the node step is the coarsest grid refinement at most r_C/4, and at
    # most softening/4 under sharp gravity only; every grid point is a node
    one_d, three_d = GridSpec(1, 6, 0.5, (-1.5,)), GridSpec(3, 4, 0.5, (-0.75,))
    softening = 0.1
    for grid, r_C, G, smearing, bound in [
        (one_d, 0.1, 0.0, Smearing.sharp(), 0.1 / 4),
        (one_d, 1.0, 0.0, Smearing.sharp(), 1.0 / 4),
        (one_d, 1.0, 0.3, Smearing.gaussian(0.5), 1.0 / 4),
        (one_d, 1.0, 0.3, Smearing.sharp(), softening / 4),
        (one_d, 0.3, 0.3, Smearing.sharp(), softening / 4),
        (three_d, 1.0, 0.3, Smearing.gaussian(0.5), 1.0 / 4),
    ]:
        params = PhysicalParams(lam=1.0, r_C=r_C, G=G, hbar=1.0, masses=(1.0,),
                                smearing=smearing)
        nodes, w = flash_quadrature_grid(grid, params, softening)
        step = w ** (1 / grid.dim)
        assert bound / 2 < step <= bound * (1 + 1e-12)
        refine = round(grid.spacing / step)
        assert nodes.shape == ((grid.n_points * refine) ** grid.dim, grid.dim)
        on_grid = nodes.reshape((grid.n_points, refine) * grid.dim + (grid.dim,))
        on_grid = on_grid[(slice(None), 0) * grid.dim]
        assert np.allclose(on_grid.reshape(-1, grid.dim), grid.points(),
                           rtol=0, atol=1e-12)


def test_kernel_matrix_diagonal_and_hermiticity():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    k = flash_kernel_matrices(GRID, params, softening=GRID.spacing / 2)[0]
    assert np.max(np.abs(np.diag(k) - 1.0)) < 1e-12
    assert np.max(np.abs(k - k.conj().T)) < 1e-12


def _dense_factors(grid, params, softening):
    """Per k the full tensor factor v[I, f] = prod_l B_l(x_I, x_f), and w."""
    sharp = params.G != 0.0 and params.smearing.kind == "sharp"
    nodes, weight = flash_quadrature_grid(grid, params, softening)
    pts = grid.points()
    dist = np.sqrt(np.sum(grid.min_image(pts[:, None] - nodes[None]) ** 2, axis=-1))
    loc = (np.pi * params.r_C**2) ** (-grid.dim / 4) * np.exp(
        -(dist**2) / (2 * params.r_C**2))
    if params.G == 0.0:
        shape = np.zeros_like(dist)
    elif sharp:
        shape = softened_inverse_distance(dist, softening)
    else:
        shape = smeared_newton_potential(dist, params.smearing.width)
    r_gm = params.r_G_matrix()
    n = params.n_particles
    factors = []
    for k in range(n):
        v = np.ones((1, nodes.shape[0]), dtype=complex)
        for l in range(n):
            factor = np.exp(1j * r_gm[k, l] * shape) * (loc if l == k else 1.0)
            v = (v[:, None, :] * factor[None, :, :]).reshape(-1, nodes.shape[0])
        factors.append(v)
    return factors, weight


def _dense_flash_kernels(grid, params, softening):
    """Reference K_k = w v v^H, one dense b x b product per particle."""
    factors, weight = _dense_factors(grid, params, softening)
    return [weight * (v @ v.conj().T) for v in factors]


_EVEN_1D = GridSpec(1, 12, 0.5, (-3.0,))
_ODD_1D = GridSpec(1, 7, 0.6, (-1.7,))      # odd count, non-dyadic spacing


@pytest.mark.parametrize("grid, n", [
    (_EVEN_1D, 1), (_EVEN_1D, 2), (GridSpec(1, 8, 0.5, (-2.0,)), 3),
    (_ODD_1D, 1), (_ODD_1D, 2), (_ODD_1D, 3),
    (GridSpec(3, 4, 0.5, (-0.75,)), 1), (GridSpec(3, 5, 0.6, (-1.1,)), 1),
], ids=["1d-even-1", "1d-even-2", "1d-even-3", "1d-odd-1", "1d-odd-2",
        "1d-odd-3", "3d-even-1", "3d-odd-1"])
@pytest.mark.parametrize("G, smearing", [
    (0.0, Smearing.sharp()),
    (0.3, Smearing.sharp()),
    (0.3, Smearing.gaussian(0.5)),
], ids=["G0", "sharp", "gaussian"])
def test_kernels_from_shift_tables_match_dense_reference(grid, n, G, smearing):
    # K_k gathered from its M^(2n-1) shift-invariant values against the
    # dense product over the full tensor factor; softening = spacing keeps
    # the sharp 3D node count at (4 n_points)^3
    params = PhysicalParams(lam=1.0, r_C=1.0, G=G, hbar=1.0,
                            masses=(1.0, 1.5, 0.7)[:n], smearing=smearing)
    got = flash_kernel_matrices(grid, params, softening=grid.spacing)
    ref = _dense_flash_kernels(grid, params, grid.spacing)
    assert len(got) == n
    for k_got, k_ref in zip(got, ref):
        assert np.max(np.abs(k_got - k_ref)) <= 1e-14 * np.max(np.abs(k_ref))


def test_kernel_tables_give_row_blocks_in_3d_with_two_particles():
    # b = 4096: particle-0 row blocks of K_k, from the table by a shift of
    # every particle index (per axis, mod n_points), against its dense rows
    grid = GridSpec(3, 4, 0.5, (-0.75,))
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 1.5),
                            smearing=Smearing.gaussian(0.5))
    tables = _kernel_tables(grid, params, grid.spacing / 2)
    factors, weight = _dense_factors(grid, params, grid.spacing / 2)
    m, b = grid.basis_size, grid.basis_size**2
    idx = np.stack(np.unravel_index(np.arange(b), grid.joint_shape(2)), axis=-1)
    for s in (0, 1, 22, 63):
        shift = np.tile(np.unravel_index(s, grid.joint_shape(1)), 2)
        rel = np.ravel_multi_index(((idx - shift) % grid.n_points).T,
                                   grid.joint_shape(2))
        block = slice(s * m, (s + 1) * m)
        for table, v in zip(tables, factors):
            dense_rows = weight * (v[block] @ v.conj().T)
            got = table[np.ix_(rel[block], rel)]
            assert np.max(np.abs(got - dense_rows)) <= 1e-14 * np.max(np.abs(table))


def test_sharp_3d_kernel_tables_hold_no_displacement_array():
    # 32^3 flash nodes against 64 grid points: the per-particle factors take
    # 16 MiB each, where an (M, F, 3) displacement array would take 48 MiB
    grid = GridSpec(3, 4, 0.5, (-0.75,))
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0,))
    tracemalloc.start()
    try:
        tables = _kernel_tables(grid, params, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables[0].shape == (1, 64)
    assert peak < 160 * 2**20


def test_kernel_tables_in_node_blocks_match_one_block(monkeypatch):
    # a budget of 5 x 12^2 tensor elements per block: 96 flash nodes in 20
    # blocks (the last of one node) sum to the one-block tables
    import grwflash.dynamics as dynamics

    grid = GridSpec(1, 12, 0.5, (-3.0,))
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 1.5))
    whole = _kernel_tables(grid, params, 0.25)
    monkeypatch.setattr(dynamics, "KERNEL_TABLE_ELEMENTS", 5 * 12**2)
    calls = _count_min_image(monkeypatch)
    blocked = _kernel_tables(grid, params, 0.25)
    assert len(calls) == 96 // 5 + 1
    for got, ref in zip(blocked, whole):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_sharp_3d_kernel_tables_are_built_in_bounded_blocks():
    # F = 48^3 = 110,592 flash nodes against M = 216 grid points: the whole
    # (M, F) factors and complex v in one block would need over 700 MiB;
    # blocks of KERNEL_TABLE_ELEMENTS peak at 75 MiB under tracemalloc
    grid = GridSpec(3, 6, 0.5, (-1.25,))
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0,))
    assert flash_quadrature_grid(grid, params, 0.25)[0].shape[0] == 110_592
    tracemalloc.start()
    try:
        tables = _kernel_tables(grid, params, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables[0].shape == (1, 216)
    # K[I, I] = erf(L / 2 r_C)^3 on the L = 3 r_C box, to the node rule
    assert abs(tables[0][0, 0] - math.erf(1.5) ** 3) < 1e-3
    assert peak < 96 * 2**20


def test_kernel_matrix_needs_softening_in_sharp_mode():
    for r_G in (0.3, 0.0):
        params = dimensionless_params(lam=1.0, r_G=r_G)
        with pytest.raises(ValueError, match="softening > 0 in sharp mode"):
            flash_kernel_matrices(GRID, params, softening=0.0)


def test_master_generator_unital_fixed_point():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    b = GRID.basis_size
    rho = pure_density(packet()).with_entries(np.eye(b) / (b * GRID.spacing))
    cfg = EvolutionConfig(total_time=1.0)
    out = master_generator(rho, params, cfg)
    assert np.max(np.abs(out)) < 1e-8


def test_master_generator_traceless():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    rng = np.random.default_rng(4)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m = m + m.conj().T
    m /= np.trace(m).real * GRID.spacing
    rho = pure_density(packet()).with_entries(m)
    out = master_generator(rho, params, EvolutionConfig(total_time=1.0))
    assert abs(np.trace(out) * GRID.spacing) < 1e-10


def test_master_generator_diagonal_invariant():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    rho = pure_density(packet())
    out = master_generator(rho, params, EvolutionConfig(total_time=1.0))
    assert np.max(np.abs(np.diag(out))) < 1e-10


def _dense_kinetic_hamiltonian(grid, masses, hbar):
    """Kronecker sum over particle axes of F^dag diag(hbar^2 k^2 / 2m) F."""
    n = grid.n_points
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    f = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
    n_axes = grid.dim * len(masses)
    h = 0
    for p, m in enumerate(masses):
        t1d = f.conj().T @ np.diag(hbar**2 * k**2 / (2 * m)) @ f
        for a in range(grid.dim):
            op = np.ones((1, 1))
            for ax in range(n_axes):
                op = np.kron(op, t1d if ax == p * grid.dim + a else np.eye(n))
            h = h + op
    return h


@pytest.mark.parametrize("grid, masses, hbar", [
    (GridSpec.centered(1, 8, 0.5), (1.0, 2.0), 1.3),
    (GridSpec.centered(3, 4, 0.5), (1.7,), 0.9),
])
def test_master_generator_commutator_matches_dense_hamiltonian(grid, masses, hbar):
    # the FFT commutator against -i/hbar [H, rho] with H built densely
    params = PhysicalParams(lam=0.8, r_C=1.0, G=0.3, hbar=hbar, masses=masses)
    cfg = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    b = grid.basis_size ** len(masses)
    rng = np.random.default_rng(4)
    rho = DensityMatrix(grid, len(masses),
                        rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b)))
    kernels = flash_kernel_matrices(grid, params, softening=grid.spacing / 2)
    q = params.lam * (sum(kernels) - len(masses))
    h = _dense_kinetic_hamiltonian(grid, masses, hbar)
    expected = -1j / hbar * (h @ rho.entries - rho.entries @ h)
    got = master_generator(rho, params, cfg, kernels) - q * rho.entries
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_master_evolve_matches_exact_diagonal_solution():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    cfg = EvolutionConfig(total_time=2.0)
    rho0 = pure_density(packet())
    numeric = master_evolve(rho0, params, cfg)
    kernels = flash_kernel_matrices(GRID, params, softening=GRID.spacing / 2)
    exact = exact_diagonal_solution(rho0, kernels[0], params.lam, 2.0)
    assert np.max(np.abs(numeric.entries - exact.entries)) < 1e-6
    assert not numeric.validate()


def test_master_evolve_exact_for_any_particle_count():
    # H0 = 0: master_evolve returns exp(T Q) o rho0; a fine RK4 loop on
    # master_generator must reach the same state for two particles
    grid = GridSpec(1, 16, 0.5, (-4.0,))
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 1.0))
    rng = np.random.default_rng(11)
    amps = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho0 = pure_density(normalize(WaveFunction(grid, 2, amps)))
    cfg = EvolutionConfig(total_time=0.5)
    kernels = flash_kernel_matrices(grid, params, softening=grid.spacing / 2)

    def generator(entries):
        return master_generator(rho0.with_entries(entries), params, cfg, kernels)

    n_steps = 200
    h = cfg.total_time / n_steps
    ent = rho0.entries
    for _ in range(n_steps):
        k1 = generator(ent)
        k2 = generator(ent + h / 2 * k1)
        k3 = generator(ent + h / 2 * k2)
        k4 = generator(ent + h * k3)
        ent = ent + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    exact = master_evolve(rho0, params, cfg)
    scale = np.max(np.abs(rho0.entries))
    assert np.max(np.abs(exact.entries - ent)) < 1e-8 * scale
    # the evolution visibly decoheres, so the comparison is not trivial
    assert np.max(np.abs(exact.entries - rho0.entries)) > 0.1 * scale

    # one particle: the same path is the closed-form reference
    one = dimensionless_params(lam=1.0, r_G=0.3)
    rho1 = pure_density(packet())
    k = flash_kernel_matrices(GRID, one, softening=GRID.spacing / 2)[0]
    assert np.max(np.abs(
        master_evolve(rho1, one, EvolutionConfig(total_time=2.0)).entries
        - exact_diagonal_solution(rho1, k, one.lam, 2.0).entries
    )) < 1e-12


def test_master_evolve_holds_under_two_dense_matrices():
    # H0 = 0 at b = 576: exp(T Q) is taken on the kernel table and gathered
    # straight into the product with rho0, so besides the result the run
    # holds only blocks of b / M rows, never a b x b kernel
    grid = GridSpec.centered(1, 24, 0.5)
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 1.0))
    rho0 = pure_density(make_gaussian_packet(grid, 2, [[-1.0], [1.0]], [1.0, 1.0]))
    tracemalloc.start()
    try:
        out = master_evolve(rho0, params, EvolutionConfig(total_time=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.entries.shape == (576, 576)
    assert peak < 2 * out.entries.nbytes


def test_master_evolve_unitary_limit_conserves_purity():
    # collapse rate so small the dissipator is numerically absent
    grid = GridSpec.centered(1, 32, 0.4)
    params = dimensionless_params(lam=1e-12, r_G=0.0)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [1.2])
    cfg = EvolutionConfig(total_time=0.5, hamiltonian="kinetic")
    out = master_evolve(pure_density(psi), params, cfg)
    assert abs(out.purity() - 1.0) < 1e-8
    assert abs(out.trace() - 1.0) < 1e-8


def test_master_evolve_zero_time_is_identity():
    params = dimensionless_params(lam=1.0, r_G=0.1)
    rho0 = pure_density(packet())
    out = master_evolve(rho0, params, EvolutionConfig(total_time=0.0))
    assert np.array_equal(out.entries, rho0.entries)


def test_master_evolve_kinetic_split_flow_matches_superoperator_exponential():
    # kinetic H0 with lam = 1: the Taylor flow of master_evolve against expm
    # of the full generator Q o rho - i[H0, rho] acting on the flattened rho
    grid = GridSpec.centered(1, 24, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.3)
    rho0 = pure_density(make_gaussian_packet(grid, 1, [[0.5]], [1.0], [[1.5]]))
    cfg = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    n = grid.n_points
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    h = np.fft.ifft((k**2 / 2)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    kern = flash_kernel_matrices(grid, params, softening=grid.spacing / 2)[0]
    eye = np.eye(n)
    gen = (np.diag(params.lam * (kern - 1).ravel())
           - 1j * (np.kron(h, eye) - np.kron(eye, h.T)))
    ref = (expm(cfg.total_time * gen) @ rho0.entries.ravel()).reshape(n, n)
    scale = np.max(np.abs(rho0.entries))
    assert np.max(np.abs(ref - rho0.entries)) > 0.1 * scale
    # default step, and an explicit finer one
    for dt in (None, 1e-3):
        out = master_evolve(rho0, params, cfg, dt=dt)
        assert np.max(np.abs(out.entries - ref)) < 1e-12 * scale


def test_master_evolve_kinetic_two_particles_match_superoperator_exponential():
    # two particles of different mass: the Taylor flow against expm of the
    # full 1296 x 1296 generator, H0 built densely per particle axis
    grid = GridSpec.centered(1, 6, 0.8)
    masses, hbar = (1.0, 2.0), 1.3
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=hbar, masses=masses)
    cfg = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    rng = np.random.default_rng(6)
    amps = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho0 = pure_density(normalize(WaveFunction(grid, 2, amps)))
    kernels = flash_kernel_matrices(grid, params, softening=grid.spacing / 2)
    q = params.lam * (sum(kernels) - 2)
    h = _dense_kinetic_hamiltonian(grid, masses, hbar)
    eye = np.eye(h.shape[0])
    gen = np.diag(q.ravel()) - 1j / hbar * (np.kron(h, eye) - np.kron(eye, h.T))
    ref = (expm(cfg.total_time * gen) @ rho0.entries.ravel()).reshape(q.shape)
    scale = np.max(np.abs(rho0.entries))
    assert np.max(np.abs(ref - rho0.entries)) > 0.1 * scale
    out = master_evolve(rho0, params, cfg)
    assert np.max(np.abs(out.entries - ref)) < 1e-12 * scale
    # positivity to rounding (the smallest eigenvalue is about +0.016 scale)
    assert float(np.min(out.eigenvalues())) >= -1e-12 * scale


def test_master_evolve_kinetic_ignores_dt():
    # the Taylor step count comes from the generator's norm bound, not dt
    grid = GridSpec.centered(1, 24, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.3)
    rho0 = pure_density(make_gaussian_packet(grid, 1, [[0.5]], [1.0], [[1.5]]))
    cfg = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    ref = master_evolve(rho0, params, cfg)
    for dt in (cfg.total_time, 1e-3):
        out = master_evolve(rho0, params, cfg, dt=dt)
        assert np.array_equal(out.entries, ref.entries)


def test_master_evolve_kinetic_trace_follows_wrapped_kernel_law():
    # on an 8 r_C box the wrapped kernels lose lam N T erfc(4) = 1.5e-8 of
    # trace; the guard compares with that law, tr(rho0) exp(T Q[0, 0])
    grid = GridSpec(1, 16, 0.5, (-4.0,))
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=(1.0, 1.0))
    rng = np.random.default_rng(11)
    amps = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho0 = pure_density(normalize(WaveFunction(grid, 2, amps)))
    cfg = EvolutionConfig(total_time=0.5, hamiltonian="kinetic")
    out = master_evolve(rho0, params, cfg)
    kernels = flash_kernel_matrices(grid, params, softening=grid.spacing / 2)
    q00 = params.lam * (sum(kernels)[0, 0].real - 2)
    law = rho0.trace().real * math.exp(cfg.total_time * q00)
    assert 1e-8 < 1.0 - law < 2e-8
    assert abs(out.trace().real - law) < 1e-12


def test_master_evolve_guard_rejects_non_hermitian_result():
    grid = GridSpec.centered(1, 24, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.3)
    rho0 = pure_density(make_gaussian_packet(grid, 1, [[0.0]], [1.0]))
    skew = rho0.with_entries(rho0.entries + 1e-6j * np.eye(grid.basis_size, k=1))
    cfg = EvolutionConfig(total_time=0.2, hamiltonian="kinetic")
    with pytest.raises(StepControlError, match="hermiticity"):
        master_evolve(skew, params, cfg)


def test_master_evolve_positivity_witness():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    cfg = EvolutionConfig(total_time=1.5)
    states = [packet(0.6, -1.0), packet(0.8, 1.0), packet(1.0, 0.0)]
    rho0 = density_from_ensemble(states, [0.5, 0.3, 0.2])
    out = master_evolve(rho0, params, cfg)
    assert float(np.min(out.eigenvalues())) > -1e-7


def test_exact_diagonal_solution_properties():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    rho0 = pure_density(packet())
    kernels = flash_kernel_matrices(GRID, params, softening=GRID.spacing / 2)
    k = kernels[0]
    assert np.array_equal(
        exact_diagonal_solution(rho0, k, 1.0, 0.0).entries, rho0.entries
    )
    later = exact_diagonal_solution(rho0, k, 1.0, 3.0)
    assert np.allclose(np.diag(later.entries), np.diag(rho0.entries), atol=1e-10)
    # closed-form decay factor for the unsoftened zero-gravity kernel
    x = GRID.axis(0)
    i, j = 20, 40
    factor = math.exp(1.0 * 3.0 * (math.exp(-((x[i] - x[j]) ** 2) / 4.0) - 1.0))
    assert later.entries[i, j] == pytest.approx(
        rho0.entries[i, j] * factor, rel=1e-3
    )


def test_exact_diagonal_solution_validation():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    rho0 = pure_density(packet())
    with pytest.raises(ValueError, match="shape"):
        exact_diagonal_solution(rho0, np.eye(4), 1.0, 1.0)
    bad = np.full((64, 64), np.nan)
    with pytest.raises(ValueError, match="finite"):
        exact_diagonal_solution(rho0, bad, 1.0, 1.0)
    two = GridSpec(1, 8, 0.5, (-2.0,))
    rng = np.random.default_rng(0)
    amps = rng.standard_normal((8, 8)) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        psi2 = normalize(WaveFunction(two, 2, amps))
    with pytest.raises(ValueError, match="single"):
        exact_diagonal_solution(pure_density(psi2), np.eye(64), 1.0, 1.0)


def test_self_attraction_probe_zero_gravity():
    # parity symmetry alone keeps the vanilla process drift-free
    from grwflash.analysis import self_attraction_probe

    grid = GridSpec.centered(1, 64, 0.25)
    x = grid.axis(0)
    amps = np.exp(-((x - 3.0) ** 2) / (2 * 0.8**2)) + np.exp(
        -((x + 3.0) ** 2) / (2 * 0.8**2)
    )
    psi0 = normalize(WaveFunction(grid, 1, amps))
    params = dimensionless_params(lam=1.0, r_G=0.0)
    res = run_ensemble(psi0, params, EvolutionConfig(total_time=2.0), 512, 31)
    probe = self_attraction_probe(res, psi0)
    assert abs(probe.drift[0]) < 3 * probe.std_error[0]


def test_verify_check_runs_on_8_rc_box():
    # the wrapped kernels lose about 2 erfc(4) = 3.1e-8 of trace over T = 2
    # on an 8 r_C box; that is the model's, and the oracle keeps it
    grid = GridSpec.centered(1, 32, 0.25)
    params = dimensionless_params(lam=1.0, r_G=0.3)
    report, _, oracle = ensemble_vs_master_check(
        packet(grid=grid), params, EvolutionConfig(total_time=2.0), 256,
        master_seed=5, se_limit=0.5,
    )
    assert report.passed
    assert 1e-8 < 1.0 - oracle.trace().real < 1e-7


def test_verify_check_kinetic_trajectories_match_oracle():
    # a moving, spreading packet: trajectories with exact free flight
    # against the Taylor-flow oracle with the FFT commutator
    grid = GridSpec.centered(1, 32, 0.4)
    params = dimensionless_params(lam=1.0, r_G=0.3)
    psi0 = make_gaussian_packet(grid, 1, [[0.0]], [1.0], [[1.0]])
    cfg = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    report, _, oracle = ensemble_vs_master_check(
        psi0, params, cfg, 1024, master_seed=11, se_limit=0.05
    )
    assert report.passed, report.summary()
    # the check resolves the kinetic term: without it the oracle is far off
    static = master_evolve(pure_density(psi0), params,
                           EvolutionConfig(total_time=1.0))
    assert trace_distance(oracle, static) > 5 * 3 * report.std_error


def test_verify_check_two_particle_kinetic_trajectories_match_oracle():
    # two particles of different mass flying apart, b = 400: lockstep
    # trajectories against the Taylor-flow oracle
    grid = GridSpec.centered(1, 20, 0.5)
    masses = (1.0, 2.0)
    params = PhysicalParams(lam=1.0, r_C=1.0, G=0.3, hbar=1.0, masses=masses)
    psi0 = make_gaussian_packet(
        grid, 2, [[0.0], [0.0]], [1.0, 1.0], [[1.5], [-1.5]]
    )
    cfg = EvolutionConfig(total_time=0.5, hamiltonian="kinetic")
    report, _, oracle = ensemble_vs_master_check(
        psi0, params, cfg, 2048, master_seed=3, se_limit=0.05
    )
    assert report.passed, report.summary()
    static = master_evolve(pure_density(psi0), params,
                           EvolutionConfig(total_time=0.5))
    assert trace_distance(oracle, static) > 3 * 3 * report.std_error


def test_verify_check_refuses_one_batch_before_any_work(monkeypatch):
    # the noise estimate needs two batches: n_traj <= BATCH_SIZE is refused
    # before the ensemble or the oracle runs
    import grwflash.dynamics as dynamics

    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(dynamics, "run_ensemble", never)
    monkeypatch.setattr(dynamics, "master_evolve", never)
    params = dimensionless_params(lam=1.0, r_G=0.3)
    for n_traj in (2, BATCH_SIZE):
        with pytest.raises(ValueError, match="two batches"):
            ensemble_vs_master_check(packet(), params,
                                     EvolutionConfig(total_time=1.0), n_traj, 0)


def test_verify_check_passes_and_reports():
    params = dimensionless_params(lam=1.0, r_G=0.3)
    cfg = EvolutionConfig(total_time=2.0)
    report, result, oracle = ensemble_vs_master_check(
        packet(), params, cfg, 512, master_seed=21, se_limit=0.2
    )
    assert report.passed
    assert report.trace_dist < 3 * report.std_error
    assert "PASS" in report.summary()
    se = trace_distance_se(result)
    assert se == report.std_error > 0
