import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grwflash.state import (
    DensityMatrix,
    GridSpec,
    NullStateError,
    WaveFunction,
    boundary_mass,
    density_from_ensemble,
    expectation_position,
    load_state,
    make_gaussian_packet,
    normalize,
    position_density,
    pure_density,
    save_state,
    trace_distance,
    trace_out,
)


def grid1d(n=64, h=0.25):
    return GridSpec.centered(1, n, h)


def random_state(seed, grid, n_particles=1):
    rng = np.random.default_rng(seed)
    shape = grid.joint_shape(n_particles)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return normalize(WaveFunction(grid, n_particles, amps))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(2, 8, 0.1, (0.0,))
    with pytest.raises(ValueError):
        GridSpec(1, 3, 0.1, (0.0,))
    with pytest.raises(ValueError):
        GridSpec(1, 8, 0.0, (0.0,))
    g = GridSpec(3, 8, 0.5, (-2.0,))  # scalar origin broadcasts
    assert g.origin == (-2.0, -2.0, -2.0)
    assert g.basis_size == 512
    assert g.extent == 4.0


def test_grid_min_image_and_wrap_ranges():
    g = GridSpec(3, 8, 0.5, (-2.0, 0.0, 1.0))
    lo, length = np.array([-2.25, -0.25, 0.75]), 4.0
    assert g.extent == length
    rng = np.random.default_rng(0)
    x = rng.uniform(-50.0, 50.0, size=(1000, 3))
    for out, low in ((g.wrap(x), lo), (g.min_image(x), -length / 2)):
        # one box per axis, half open, reached by whole box lengths
        assert np.all(out >= low) and np.all(out < low + length)
        turns = (x - out) / length
        assert np.max(np.abs(turns - np.round(turns))) < 1e-12
    inside = lo + length * rng.random((100, 3))
    assert np.max(np.abs(g.wrap(inside) - inside)) < 1e-12
    assert np.array_equal(g.wrap(lo), lo)
    assert np.array_equal(g.wrap(lo + length), lo)
    assert np.array_equal(g.min_image(np.full(3, length / 2)), np.full(3, -length / 2))
    assert np.array_equal(g.min_image(np.array([0.25, -0.5, 1.75])), [0.25, -0.5, 1.75])


def test_packet_centered_moments():
    psi = make_gaussian_packet(grid1d(), 1, [[0.0]], [1.0])
    assert abs(psi.norm() - 1.0) < 1e-10
    assert abs(expectation_position(psi, 0)[0]) < 1e-10


def test_packet_variance_matches_half_width_squared():
    grid = grid1d(96, 0.2)
    w = 1.3
    psi = make_gaussian_packet(grid, 1, [[0.0]], [w])
    dens = position_density(psi, 0)
    x = grid.axis(0)
    var = float(np.sum(x**2 * dens) * grid.spacing)
    assert abs(var - w**2 / 2) / (w**2 / 2) < 0.01


def test_packet_variance_3d():
    grid = GridSpec.centered(3, 20, 0.5)
    psi = make_gaussian_packet(grid, 1, [[0.0, 0.0, 0.0]], [1.1])
    dens = position_density(psi, 0)
    x = grid.axis(0)
    var = float(np.sum(x**2 * dens.sum(axis=(1, 2))) * grid.cell_volume)
    assert abs(var - 1.1**2 / 2) / (1.1**2 / 2) < 0.01


def test_packet_rejects_underresolved_width():
    with pytest.raises(ValueError, match="under-resolved"):
        make_gaussian_packet(grid1d(16, 1.0), 1, [[0.0]], [1.5])


def test_packet_rejects_boundary_leak():
    with pytest.raises(ValueError, match="leak"):
        make_gaussian_packet(grid1d(16, 0.25), 1, [[0.0]], [1.0])


def test_packet_leak_guard_switches_at_the_erfc_threshold():
    # the guard refuses erfc(margin / w) > 1e-8: on either side of the
    # threshold margin erfcinv(1e-8) w ~ 4.05 w it decides as scipy's erfc does
    from scipy.special import erfc, erfcinv

    grid, w = grid1d(64, 0.25), 1.0
    edge = grid.axis()[0]
    threshold = float(erfcinv(1e-8)) * w
    for factor, accepted in ((1 - 1e-10, False), (1 + 1e-10, True)):
        center = edge + factor * threshold
        assert (erfc((center - edge) / w) <= 1e-8) == accepted
        if accepted:
            make_gaussian_packet(grid, 1, [[center]], [w])
        else:
            with pytest.raises(ValueError, match="leak"):
                make_gaussian_packet(grid, 1, [[center]], [w])


def test_normalize_scaling_and_null():
    psi = make_gaussian_packet(grid1d(), 1, [[0.0]], [1.0])
    scaled = psi.with_amplitudes(psi.amplitudes * 3.0)
    back = normalize(scaled)
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-14)
    zero = psi.with_amplitudes(np.zeros_like(psi.amplitudes))
    with pytest.raises(NullStateError):
        normalize(zero)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_normalize_idempotent(seed):
    psi = random_state(seed, grid1d(16, 0.5))
    once = normalize(psi)
    twice = normalize(once)
    assert abs(once.norm() - 1.0) < 1e-12
    assert np.max(np.abs(twice.amplitudes - once.amplitudes)) < 1e-14


def test_position_density_product_state():
    grid = grid1d(32, 0.5)
    psi = make_gaussian_packet(grid, 2, [[-2.0], [1.0]], [1.2, 1.5])
    single = make_gaussian_packet(grid, 1, [[-2.0]], [1.2])
    d0 = position_density(psi, 0)
    assert np.allclose(d0, position_density(single, 0), atol=1e-12)


def test_position_density_even_symmetry():
    psi = make_gaussian_packet(grid1d(), 1, [[0.0]], [1.0])
    dens = position_density(psi, 0)
    assert np.allclose(dens, dens[::-1], atol=1e-12)


def test_position_density_entangled_vs_brute_force():
    grid = GridSpec(1, 8, 0.5, (-2.0,))
    psi = random_state(7, grid, n_particles=2)
    dens = position_density(psi, 1)
    # independent contraction: sum the joint probability over particle 0
    brute = np.zeros(8)
    for j in range(8):
        for i in range(8):
            brute[j] += abs(psi.amplitudes[i, j]) ** 2 * grid.spacing
    assert np.allclose(dens, brute, atol=1e-13)
    assert abs(np.sum(dens) * grid.spacing - 1.0) < 1e-10


def test_position_density_index_error():
    psi = make_gaussian_packet(grid1d(), 1, [[0.0]], [1.0])
    with pytest.raises(IndexError):
        position_density(psi, 1)


def test_expectation_position_center_and_shift():
    grid = grid1d(96, 0.2)
    psi = make_gaussian_packet(grid, 1, [[1.3]], [1.0])
    assert abs(expectation_position(psi, 0)[0] - 1.3) < grid.spacing / 10
    shifted = make_gaussian_packet(grid, 1, [[1.3 + 0.7]], [1.0])
    assert abs(
        expectation_position(shifted, 0)[0] - expectation_position(psi, 0)[0] - 0.7
    ) < 1e-9


def test_ensemble_purity():
    grid = grid1d(32, 0.5)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [1.2])
    rho = density_from_ensemble([psi], [1.0])
    assert abs(rho.purity() - 1.0) < 1e-9
    assert abs(rho.trace() - 1.0) < 1e-10

    # orthogonal pair: odd and even states
    x = grid.axis(0)
    odd = normalize(psi.with_amplitudes(psi.amplitudes * x))
    mix = density_from_ensemble([psi, odd], [0.5, 0.5])
    assert abs(mix.purity() - 0.5) < 1e-9
    assert not mix.validate()

    many = density_from_ensemble([psi] * 100, [0.01] * 100)
    assert np.allclose(many.entries, rho.entries, atol=1e-12)


def test_ensemble_weight_validation():
    psi = make_gaussian_packet(grid1d(32, 0.5), 1, [[0.0]], [1.2])
    with pytest.raises(ValueError):
        density_from_ensemble([psi, psi], [0.9, 0.2])
    with pytest.raises(ValueError):
        density_from_ensemble([psi], [-1.0])


def test_trace_out_product_state():
    grid = GridSpec(1, 8, 0.5, (-2.0,))
    a = random_state(1, grid)
    b = random_state(2, grid)
    joint = WaveFunction(grid, 2, np.tensordot(a.amplitudes, b.amplitudes, axes=0))
    red = trace_out(pure_density(joint), keep=0)
    assert np.max(np.abs(red.entries - pure_density(a).entries)) < 1e-10


def test_trace_out_maximally_entangled():
    grid = GridSpec(1, 4, 1.0, (-1.5,))
    amps = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        amps[i, i] = 1.0
    psi = normalize(WaveFunction(grid, 2, amps))
    red = trace_out(pure_density(psi), keep=0)
    expected = np.eye(4) / (4 * grid.spacing)
    assert np.allclose(red.entries, expected, atol=1e-12)


def test_trace_out_random_vs_brute_force():
    grid = GridSpec(1, 8, 0.5, (-2.0,))
    psi = random_state(11, grid, n_particles=2)
    red = trace_out(pure_density(psi), keep=1)
    v = psi.amplitudes
    brute = np.einsum("ab,ac->bc", v, v.conj()) * grid.spacing
    assert np.max(np.abs(red.entries - brute)) < 1e-13
    assert abs(red.trace() - 1.0) < 1e-10


@given(seed=st.integers(0, 2**31), w=st.floats(0.1, 0.9))
@settings(max_examples=20, deadline=None)
def test_trace_out_linear_and_trace_preserving(seed, w):
    grid = GridSpec(1, 6, 0.5, (-1.5,))
    r1 = pure_density(random_state(seed, grid, 2))
    r2 = pure_density(random_state(seed + 1, grid, 2))
    mixed = r1.with_entries(w * r1.entries + (1 - w) * r2.entries)
    lhs = trace_out(mixed, 0).entries
    rhs = w * trace_out(r1, 0).entries + (1 - w) * trace_out(r2, 0).entries
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(trace_out(mixed, 0).trace() - mixed.trace()) < 1e-10


def test_density_matrix_size_cap():
    grid = GridSpec(1, 128, 0.1, (-6.4,))
    with pytest.raises(ValueError, match="cap"):
        DensityMatrix(grid, 2, np.eye(128**2))


def test_trace_distance_basic():
    grid = grid1d(32, 0.5)
    a = make_gaussian_packet(grid, 1, [[0.0]], [1.2])
    x = grid.axis(0)
    b = normalize(a.with_amplitudes(a.amplitudes * x))  # orthogonal to a
    assert trace_distance(pure_density(a), pure_density(a)) < 1e-12
    assert abs(trace_distance(pure_density(a), pure_density(b)) - 1.0) < 1e-10


def test_serialization_round_trip(tmp_path):
    grid = GridSpec(1, 16, 0.5, (-4.0,))
    psi = random_state(5, grid, n_particles=2)
    path = tmp_path / "state.grws"
    save_state(psi, path)
    back = load_state(path)
    assert back.grid == psi.grid
    assert back.n_particles == psi.n_particles
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "junk.grws"
    path.write_bytes(b"not a state file at all")
    with pytest.raises(ValueError):
        load_state(path)


@pytest.mark.parametrize("cut", [4, 10, 20, 24, 30, 40, 41])
def test_truncated_state_file_is_named(tmp_path, cut):
    # cuts inside the version fields (4, 10), after them in the spacing and
    # origin (20, 24, 30), and inside the amplitudes (40, 41)
    path = tmp_path / "state.grws"
    save_state(WaveFunction(grid1d(8, 0.5), 1, np.ones(8)), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated state file .*state.grws"):
        load_state(path)


def test_boundary_mass_detects_edge_packet():
    grid = grid1d(64, 0.25)
    centered = make_gaussian_packet(grid, 1, [[0.0]], [1.0])
    assert boundary_mass(centered) < 1e-8
    flat = normalize(WaveFunction(grid, 1, np.ones(64)))
    assert boundary_mass(flat) == pytest.approx(6 / 64)
