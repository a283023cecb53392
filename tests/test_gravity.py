import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from grwflash.gravity import (
    apply_gravitational_kick,
    phase_profile,
    profile_shape,
    smeared_newton_gradient,
    smeared_newton_potential,
    softened_inverse_distance,
)
from grwflash.state import GridSpec, WaveFunction, make_gaussian_packet, normalize, position_density
from grwflash.units import PhysicalParams, Smearing, dimensionless_params


def _per_axis_profile_shape(grid, x_f, params, softening):
    """The kick profile with one minimum-image loop of its own, axis by axis."""
    lead = x_f.shape[:-1]
    r2 = None
    for a, xa in enumerate(grid.axes()):
        d2 = grid.min_image(xa - x_f[..., a, None]) ** 2
        r2 = d2 if r2 is None else r2[..., None] + d2.reshape(lead + (1,) * a + (-1,))
    r = np.sqrt(r2)
    if params.smearing.kind != "sharp":
        return smeared_newton_potential(r, params.smearing.width)
    return softened_inverse_distance(r, softening)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("smearing", [Smearing.sharp(), Smearing.gaussian(0.6)])
def test_profile_shape_from_offsets_is_bitwise_the_per_axis_loop(dim, smearing):
    grid = GridSpec.centered(dim, 8, 0.45)
    params = dimensionless_params(lam=1.0, r_G=0.2, smearing=smearing)
    rng = np.random.default_rng(dim)
    for x_f in (rng.uniform(-4.0, 4.0, size=dim), rng.uniform(-4.0, 4.0, size=(6, dim))):
        out = profile_shape(grid.offsets(x_f), params, 0.2)
        assert np.array_equal(out, _per_axis_profile_shape(grid, x_f, params, 0.2))


def test_potential_far_field():
    d = 10.0
    assert smeared_newton_potential(d, 1.0) == pytest.approx(1 / d, rel=1e-8)


def test_potential_contact_value():
    assert smeared_newton_potential(0.0, 1.0) == pytest.approx(
        2 / math.sqrt(math.pi), rel=1e-12
    )
    # r_C scaling
    assert smeared_newton_potential(0.0, 2.0) == pytest.approx(
        1 / math.sqrt(math.pi), rel=1e-12
    )


def test_potential_at_r_c():
    # erf(1) = 0.8427007929497149
    assert smeared_newton_potential(1.0, 1.0) == pytest.approx(
        0.8427007929497149, rel=1e-12
    )


def test_potential_radial_quadrature_oracle():
    # independent oracle: angular-averaged 3D convolution of 1/r with the
    # normalized Gaussian (pi r_C^2)^(-3/2) exp(-r^2/r_C^2)
    def convolved(d, r_c=1.0):
        def angular(r):
            # mean of 1/|d - r n| over directions n  = 1/max(d, r)
            return 1.0 / max(d, r)

        val, _ = integrate.quad(
            lambda r: 4 * math.pi * r**2
            * math.exp(-(r**2) / r_c**2) / (math.pi * r_c**2) ** 1.5
            * angular(r),
            0, 9 * r_c, limit=200, points=[d],
        )
        return val

    for d in (0.05, 0.3, 1.0, 2.5):
        assert smeared_newton_potential(d, 1.0) == pytest.approx(
            convolved(d), rel=1e-9
        )


@given(d=st.floats(0.0, 30.0), r_c=st.floats(0.1, 5.0))
@settings(max_examples=100, deadline=None)
def test_potential_bounds(d, r_c):
    v = smeared_newton_potential(d, r_c)
    cap = 2 / (math.sqrt(math.pi) * r_c)
    assert v <= cap + 1e-12
    if d > 0:
        assert v <= 1 / d + 1e-12
    v2 = smeared_newton_potential(d + 0.1, r_c)
    assert v2 < v  # strictly decreasing


def test_potential_series_switch_is_smooth():
    below = smeared_newton_potential(0.9e-6, 1.0)
    above = smeared_newton_potential(1.1e-6, 1.0)
    assert abs(below - above) < 1e-9


def test_gradient_matches_finite_difference():
    h = 1e-6
    for d in (0.3, 1.0, 4.0):
        fd = (
            smeared_newton_potential(d + h, 1.0)
            - smeared_newton_potential(d - h, 1.0)
        ) / (2 * h)
        assert smeared_newton_gradient(d, 1.0) == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("law", [smeared_newton_potential, smeared_newton_gradient])
def test_smeared_law_rejects_bad_inputs(law):
    for r_c in (0.0, -1.0):
        with pytest.raises(ValueError, match="r_C"):
            law(1.0, r_c)
    for d in (-1.0, np.array([1.0, -0.5])):
        with pytest.raises(ValueError, match="distance"):
            law(d, 1.0)


def test_phase_profile_zero_gravity():
    grid = GridSpec.centered(1, 32, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.0)
    prof = phase_profile([0.3], params, 0, grid, softening=0.25)
    assert np.all(prof.pair_scales[0] * prof.shape == 0.0)


def test_phase_profile_sharp_unit_radian():
    # at |x - x_f| = r_G the unsoftened phase is exactly 1 radian
    grid = GridSpec.centered(3, 8, 1.0)
    r_g = 0.731
    params = dimensionless_params(lam=1.0, r_G=r_g)
    node = np.array([grid.axis(a)[4] for a in range(3)])
    x_f = node - np.array([r_g, 0.0, 0.0])
    prof = phase_profile(x_f, params, 0, grid, softening=0.0)
    assert prof.pair_scales[0] * prof.shape[4, 4, 4] == pytest.approx(1.0, rel=1e-12)


def test_phase_profile_sharp_exact_inverse_distance():
    grid = GridSpec.centered(3, 6, 0.7)
    params = dimensionless_params(lam=2.0, r_G=0.4)
    x_f = np.array([0.123, -0.456, 0.789])
    prof = phase_profile(x_f, params, 0, grid, softening=0.0)
    # minimum-image distances on the periodic box of length 4.2; some open
    # ones exceed half of it
    diff = grid.points() - x_f
    assert np.max(np.abs(diff)) > 2.1
    dist = np.linalg.norm((diff + 2.1) % 4.2 - 2.1, axis=1).reshape(6, 6, 6)
    assert np.allclose(prof.pair_scales[0] * prof.shape * dist, 0.4, rtol=1e-12)


def test_phase_profile_sharp_zero_softening_on_node_rejected():
    grid = GridSpec.centered(3, 8, 1.0)
    params = dimensionless_params(lam=1.0, r_G=0.1)
    node = [grid.axis(a)[3] for a in range(3)]
    with pytest.raises(ValueError, match="coincides"):
        phase_profile(node, params, 0, grid, softening=0.0)


def test_phase_profile_1d_requires_softening():
    grid = GridSpec.centered(1, 16, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.1)
    with pytest.raises(ValueError, match="softening"):
        phase_profile([0.1], params, 0, grid, softening=0.0)


def test_phase_profile_gaussian_contact_limit():
    w = 0.8
    r_g = 0.2
    grid = GridSpec.centered(1, 16, 0.5)
    params = dimensionless_params(
        lam=1.0, r_G=r_g, smearing=Smearing.gaussian(w)
    )
    x_f = [grid.axis(0)[8]]
    prof = phase_profile(x_f, params, 0, grid, softening=0.0)
    assert prof.pair_scales[0] * prof.shape[8] == pytest.approx(
        r_g * 2 / (math.sqrt(math.pi) * w), rel=1e-10
    )
    # cross-check the contact value by quadrature of the smeared 1/r
    val, _ = integrate.quad(
        lambda r: 4 * math.pi * r**2
        * math.exp(-(r**2) / w**2) / (math.pi * w**2) ** 1.5 / r,
        0, 8 * w,
    )
    assert prof.pair_scales[0] * prof.shape[8] == pytest.approx(r_g * val, rel=1e-9)


def test_phase_profile_far_field_softening_error_bound():
    grid = GridSpec.centered(1, 64, 0.5)
    params = dimensionless_params(lam=1.0, r_G=1.0)
    a = 0.25
    prof = phase_profile([0.0], params, 0, grid, softening=a)
    x = grid.axis(0)
    far = np.abs(x) > 4 * a
    exact = 1.0 / np.abs(x[far])
    rel_err = np.abs(prof.pair_scales[0] * prof.shape[far] - exact) / exact
    assert np.all(rel_err < (a / np.abs(x[far])) ** 2 / 2)


def test_smearing_consistency_with_smeared_potential():
    grid = GridSpec.centered(1, 32, 0.5)
    r_g = 0.3
    params = dimensionless_params(
        lam=1.0, r_G=r_g, smearing=Smearing.gaussian(1.0)
    )
    x_f = [0.37]
    prof = phase_profile(x_f, params, 0, grid, softening=0.0)
    # minimum-image distance on the periodic box of length 16; some open
    # ones exceed half of it
    assert np.max(np.abs(grid.axis(0) - 0.37)) > 8.0
    d = np.abs((grid.axis(0) - 0.37 + 8.0) % 16.0 - 8.0)
    expected = r_g * smeared_newton_potential(d, 1.0)
    assert np.max(np.abs(prof.pair_scales[0] * prof.shape - expected)) < 1e-10


def test_kick_identity_when_gravity_off():
    grid = GridSpec.centered(1, 32, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.0)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [1.2])
    prof = phase_profile([0.5], params, 0, grid, softening=0.25)
    out = apply_gravitational_kick(psi, prof)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


@given(seed=st.integers(0, 2**31), xf=st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_kick_unitary_and_density_preserving(seed, xf):
    grid = GridSpec.centered(1, 32, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.7)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    psi = normalize(WaveFunction(grid, 1, amps))
    out = apply_gravitational_kick(
        psi, phase_profile([xf], params, 0, grid, softening=0.25)
    )
    assert abs(out.norm() - psi.norm()) < 1e-14
    assert np.max(
        np.abs(position_density(out, 0) - position_density(psi, 0))
    ) < 1e-14


def test_kick_two_particle_phases_add():
    grid = GridSpec(1, 8, 0.5, (-2.0,))
    params = PhysicalParams(
        lam=1.0, r_C=1.0, G=0.2, hbar=1.0, masses=(1.0, 2.0)
    )
    rng = np.random.default_rng(1)
    amps = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    psi = normalize(WaveFunction(grid, 2, amps))
    prof = phase_profile([0.3], params, 0, grid, softening=0.25)
    out = apply_gravitational_kick(psi, prof)
    expected = psi.amplitudes * np.exp(
        1j * (prof.pair_scales[0] * prof.shape[:, None] + prof.pair_scales[1] * prof.shape[None, :])
    )
    assert np.allclose(out.amplitudes, expected, atol=1e-14)
    # the flashing particle's own scale uses m_0^2, the passive one m_0*m_1
    assert prof.pair_scales[0] == pytest.approx(0.2, rel=1e-14)
    assert prof.pair_scales[1] == pytest.approx(0.4, rel=1e-14)


def test_kick_grid_mismatch_rejected():
    grid = GridSpec.centered(1, 32, 0.5)
    other = GridSpec.centered(1, 16, 0.5)
    params = dimensionless_params(lam=1.0, r_G=0.1)
    psi = make_gaussian_packet(grid, 1, [[0.0]], [1.2])
    prof = phase_profile([0.0], params, 0, other, softening=0.25)
    with pytest.raises(ValueError):
        apply_gravitational_kick(psi, prof)
