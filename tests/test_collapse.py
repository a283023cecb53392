import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2, kstwobign

from grwflash.collapse import (
    apply_collapse,
    collapse_factor,
    flash_position_density,
    next_flash,
    rng_stream,
    sample_flash_position,
)
from grwflash.state import GridSpec, WaveFunction, make_gaussian_packet, normalize


R_C = 1.0


def delta_state(grid, index):
    amps = np.zeros(grid.joint_shape(1), dtype=complex)
    amps[index] = 1.0
    return normalize(WaveFunction(grid, 1, amps))


def _per_axis_collapse_factor(grid, x_f, r_c):
    """The localizer with one minimum-image loop of its own, axis by axis."""
    lead = x_f.shape[:-1]
    prefactor = (np.pi * r_c**2) ** (-grid.dim / 4.0)
    out = None
    for a in range(grid.dim):
        d = grid.min_image(grid.axis(a) - x_f[..., a, None])
        g = np.exp(-(d**2) / (2 * r_c**2))
        out = g if out is None else out[..., None] * g.reshape(lead + (1,) * a + (-1,))
    return prefactor * out


@pytest.mark.parametrize("dim", [1, 3])
def test_collapse_factor_from_offsets_is_bitwise_the_per_axis_loop(dim):
    grid = GridSpec.centered(dim, 8, 0.45)
    rng = np.random.default_rng(dim)
    for x_f in (rng.uniform(-4.0, 4.0, size=dim), rng.uniform(-4.0, 4.0, size=(6, dim))):
        for r_c in (R_C, 0.7):
            out = collapse_factor(grid.offsets(x_f), r_c)
            assert np.array_equal(out, _per_axis_collapse_factor(grid, x_f, r_c))


def test_collapse_on_delta_state_peak_value():
    grid = GridSpec.centered(1, 64, 0.25)
    psi = delta_state(grid, 32)
    a = grid.axis(0)[32]
    out = apply_collapse(psi, 0, [a], R_C)
    assert out.norm() ** 2 == pytest.approx((math.pi * R_C**2) ** -0.5, rel=1e-12)


def test_collapse_on_delta_state_peak_value_3d():
    grid = GridSpec.centered(3, 8, 0.6)
    psi = delta_state(grid, (4, 4, 4))
    point = [grid.axis(a)[4] for a in range(3)]
    out = apply_collapse(psi, 0, point, R_C)
    assert out.norm() ** 2 == pytest.approx((math.pi * R_C**2) ** -1.5, rel=1e-12)


def test_collapse_norm_uniform_state_translation_invariant():
    grid = GridSpec.centered(1, 256, 0.125)
    psi = normalize(WaveFunction(grid, 1, np.ones(256)))
    norms = [
        apply_collapse(psi, 0, [xf], R_C).norm() ** 2 for xf in (-3.0, 0.1, 2.7)
    ]
    assert max(norms) - min(norms) < 1e-8


def test_collapse_gaussian_overlap_closed_form():
    # |psi|^2 ~ N(0, w^2/2) against the squared localizer gives
    # norm^2 = 1/sqrt(pi (w^2 + r_C^2)).
    grid = GridSpec.centered(1, 256, 0.1)
    w = 1.5
    psi = make_gaussian_packet(grid, 1, [[0.0]], [w])
    out = apply_collapse(psi, 0, [0.0], R_C)
    expected = 1.0 / math.sqrt(math.pi * (w**2 + R_C**2))
    assert out.norm() ** 2 == pytest.approx(expected, rel=1e-8)


def test_collapse_at_periodic_images_agree():
    # the box is periodic: a flash at x_f and one at x_f + L collapse alike
    for grid, x_f in [
        (GridSpec.centered(1, 64, 0.25), np.array([0.3])),
        (GridSpec.centered(1, 64, 0.25), np.array([-7.9])),
        (GridSpec.centered(3, 8, 0.6), np.array([0.2, -1.9, 2.1])),
    ]:
        amps = np.random.default_rng(grid.dim).standard_normal(grid.joint_shape(1))
        psi = normalize(WaveFunction(grid, 1, amps))
        ref = apply_collapse(psi, 0, x_f, R_C).amplitudes
        for a in range(grid.dim):
            for shift in (grid.extent, -grid.extent, 3 * grid.extent):
                image = x_f.copy()
                image[a] += shift
                out = apply_collapse(psi, 0, image, R_C).amplitudes
                assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


def test_collapse_commutes_across_particles():
    grid = GridSpec(1, 8, 0.5, (-2.0,))
    rng = np.random.default_rng(3)
    amps = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    psi = normalize(WaveFunction(grid, 2, amps))
    ab = apply_collapse(apply_collapse(psi, 0, [0.3], R_C), 1, [-0.4], R_C)
    ba = apply_collapse(apply_collapse(psi, 1, [-0.4], R_C), 0, [0.3], R_C)
    # order changes only the float multiplication order: ulp-level agreement
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-15


def test_povm_completeness():
    grid = GridSpec.centered(1, 128, 0.2)
    psi = make_gaussian_packet(grid, 1, [[1.0]], [1.3])
    total = sum(
        apply_collapse(psi, 0, [xf], R_C).norm() ** 2 for xf in grid.axis(0)
    ) * grid.spacing
    assert abs(total - 1.0) < 1e-8


def test_flash_density_of_point_source_is_gaussian():
    grid = GridSpec.centered(1, 128, 0.2)
    psi = delta_state(grid, 64)
    a = grid.axis(0)[64]
    dens = flash_position_density(psi, 0, R_C)
    x = grid.axis(0)
    expected = np.exp(-((x - a) ** 2) / R_C**2) / (math.sqrt(math.pi) * R_C)
    assert np.allclose(dens, expected, atol=1e-12)
    var = float(np.sum((x - a) ** 2 * dens) * grid.spacing)
    assert var == pytest.approx(R_C**2 / 2, rel=1e-6)


def test_flash_density_mass_and_symmetry():
    grid = GridSpec.centered(1, 128, 0.2)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [1.5])
    dens = flash_position_density(psi, 0, R_C)
    assert abs(np.sum(dens) * grid.spacing - 1.0) < 1e-8
    assert np.allclose(dens, dens[::-1], atol=1e-12)


def test_collapse_norm_equals_flash_density():
    grid = GridSpec.centered(1, 128, 0.2)
    psi = make_gaussian_packet(grid, 1, [[0.5]], [1.2])
    dens = flash_position_density(psi, 0, R_C)
    for idx in (40, 64, 90):
        xf = grid.axis(0)[idx]
        assert apply_collapse(psi, 0, [xf], R_C).norm() ** 2 == pytest.approx(
            dens[idx], rel=1e-10
        )


def _sampler_cdf(psi, k, r_c):
    """CDF on the box of the sampler's law: sum_i p_i N(x_i, r_c^2/2), wrapped.

    The box starts at lo = origin - spacing/2 and has length L; the wrapped
    Gaussian is summed over the images at shifts -L, 0 and L.
    """
    from grwflash.state import position_density

    grid = psi.grid
    p = position_density(psi, k) * grid.spacing
    sigma = r_c / math.sqrt(2.0)
    lo = grid.origin[0] - grid.spacing / 2
    centers = (grid.axis(0)[:, None] + grid.extent * np.arange(-1, 2)).ravel()
    weights = np.repeat(p, 3)

    def cdf(z):
        z = np.asarray(z, dtype=float)[:, None]
        mass = ndtr((z - centers) / sigma) - ndtr((lo - centers) / sigma)
        return mass @ weights

    return cdf


def test_sampler_ks_against_its_law():
    grid = GridSpec.centered(1, 128, 0.25)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [1.4])
    rng = rng_stream(123, 0)
    n = 20_000
    samples = np.sort(
        [sample_flash_position(psi, 0, rng, R_C)[0] for _ in range(n)]
    )
    cdf = _sampler_cdf(psi, 0, R_C)(samples)
    ks = max(
        np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n)
    )
    assert ks < kstwobign.isf(0.01) / math.sqrt(n)


def test_sampler_moments():
    grid = GridSpec.centered(1, 128, 0.25)
    center = 0.8
    psi = delta_state(grid, int(np.argmin(np.abs(grid.axis(0) - center))))
    a = grid.axis(0)[int(np.argmin(np.abs(grid.axis(0) - center)))]
    rng = rng_stream(7, 1)
    n = 20_000
    s = np.array([sample_flash_position(psi, 0, rng, R_C)[0] for _ in range(n)])
    # a node plus N(0, r_C^2/2): no in-cell spread
    var_expected = R_C**2 / 2
    se_mean = math.sqrt(var_expected / n)
    assert abs(s.mean() - a) < 3 * se_mean
    se_var = var_expected * math.sqrt(2.0 / n)
    assert abs(s.var() - var_expected) < 3 * se_var


def test_sampler_deterministic():
    grid = GridSpec.centered(1, 64, 0.25)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [1.0])
    s1 = sample_flash_position(psi, 0, rng_stream(9, 2), R_C)
    s2 = sample_flash_position(psi, 0, rng_stream(9, 2), R_C)
    assert np.array_equal(s1, s2)


def test_next_flash_waiting_time_moment():
    rng = rng_stream(11, 0)
    n = 100_000
    total = 0.0
    for _ in range(n):
        dt, _ = next_flash(rng, 1, 1.0)
        total += dt
    mean = total / n
    assert abs(mean - 1.0) < 3.0 / math.sqrt(n)  # exponential: sd = mean


def test_next_flash_particle_uniformity():
    rng = rng_stream(5, 3)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        _, k = next_flash(rng, 4, 2.0)
        counts[k] += 1
    expected = n / 4
    chi2_stat = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2_stat < chi2.isf(0.01, df=3)


def test_next_flash_replays_from_equal_streams():
    a, b = rng_stream(0, 0), rng_stream(0, 0)
    draws_a = [next_flash(a, 2, 0.5) for _ in range(20)]
    draws_b = [next_flash(b, 2, 0.5) for _ in range(20)]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 20


def test_rng_streams_differ():
    a = rng_stream(42, 0).standard_normal(4)
    b = rng_stream(42, 1).standard_normal(4)
    c = rng_stream(42, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_clock_validation():
    with pytest.raises(ValueError):
        next_flash(rng_stream(0), 0, 1.0)
    with pytest.raises(ValueError):
        next_flash(rng_stream(0), 1, 0.0)
