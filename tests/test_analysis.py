import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from grwflash import analysis
from grwflash.analysis import (
    QuadratureSpec,
    RegimeError,
    classical_limit_force,
    effective_potential_check,
    excess_rate,
    falsifiability_scan,
    gamma_at_separation,
    gamma_deficit,
    gamma_kernel,
    intrinsic_rate,
    inverse_lambda_check,
    self_attraction_probe,
    short_distance_rate,
    smeared_potential_quadrature,
)
from grwflash.gravity import smeared_newton_potential
from grwflash.quadrature import gaussian_tail_mass, integrate_adaptive
from grwflash.units import Smearing, dimensionless_params

TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-11)


def test_gamma_equals_closed_form_without_gravity():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    for d in np.linspace(0.0, 4.0, 9):
        closed = math.exp(-(d**2) / 4.0)
        if d > 0:
            # the quadrature engine itself, which gamma_at_separation skips
            value, err, _ = analysis._kernel_quadrature(float(d), 0.0, TIGHT, deficit=False)
            assert abs(closed * value - closed) < 1e-9
            assert abs(value.imag) <= err
        pt = gamma_at_separation(float(d), params, TIGHT)
        assert (pt.value, pt.error, pt.n_evals) == (closed + 0.0j, 0.0, 0)


def test_gamma_diagonal_is_exactly_one():
    params = dimensionless_params(lam=1.0, r_G=0.05)
    pt = gamma_kernel([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], params)
    assert pt.value == 1.0 + 0.0j
    assert pt.error == 0.0


def test_gamma_translation_invariance_and_isotropy():
    params = dimensionless_params(lam=1.0, r_G=0.02)
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9)
    a = gamma_kernel([0.0, 0.0, 0.0], [0.0, 0.0, 1.2], params, spec)
    b = gamma_kernel([5.0, -3.0, 2.0], [5.0, -3.0, 3.2], params, spec)
    c = gamma_kernel([1.2 / math.sqrt(2), 1.2 / math.sqrt(2), 0.0],
                     [0.0, 0.0, 0.0], params, spec)
    # separations agree only to the last float bit, so compare within errors
    assert abs(a.value - b.value) <= a.error + b.error
    assert abs(a.value - c.value) <= a.error + c.error + 1e-12
    d = gamma_kernel([5.0, -3.0, 2.0], [5.0, -3.0, 3.2], params, spec)
    assert d.value == b.value  # identical inputs hit the cache


def test_kernel_cache_keeps_the_evaluation_budget():
    # a point cached under the default budget must not answer a call whose
    # tighter max_evals cannot reach it: that call fails before and after
    from grwflash.quadrature import QuadratureError

    analysis.clear_kernel_cache()
    params = dimensionless_params(r_G=0.1)
    tight = QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7, max_evals=8_000)
    with pytest.raises(QuadratureError):
        gamma_at_separation(1.5, params, tight)
    full = gamma_at_separation(1.5, params, QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7))
    assert full.n_evals > tight.max_evals
    with pytest.raises(QuadratureError):
        gamma_at_separation(1.5, params, tight)


def test_kernel_cache_is_bounded_and_evicts_oldest_first(monkeypatch):
    monkeypatch.setattr(analysis, "KERNEL_CACHE_SIZE", 3)
    analysis.clear_kernel_cache()
    params = dimensionless_params(r_G=0.1)
    first = gamma_at_separation(0.5, params)
    for d in (1.0, 1.5, 2.0, 2.5):
        gamma_at_separation(d, params)
        assert len(analysis._kernel_cache) <= 3
    assert len(analysis._kernel_cache) == 3
    assert 0.5 not in {key[0] for key in analysis._kernel_cache}  # key: delta first
    again = gamma_at_separation(0.5, params)  # evicted, so evaluated afresh
    assert (again.value, again.error, again.n_evals) == (
        first.value, first.error, first.n_evals
    )


def test_gamma_realness_and_bound():
    params = dimensionless_params(lam=1.0, r_G=0.1)
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)
    rng = np.random.default_rng(12)
    pairs = []
    for _ in range(8):
        x = rng.uniform(-2, 2, size=3)
        y = x + rng.uniform(-1.5, 1.5, size=3)
        pairs.append((x, y))
    for x, y in pairs:
        pt = gamma_kernel(x, y, params, spec)
        assert abs(pt.value.imag) <= pt.error
        assert abs(pt.value) <= 1.0 + pt.error


# (r_G, separation) -> (Gamma, reported error) from the adaptive
# Gauss-Legendre 7/15 engine that preceded the Gauss-Kronrod one; its
# imaginary parts were below 2e-18.
GAMMA_REFERENCE = {
    (1e-3, 0.3): (0.9777509634879088, 1.8636397948504814e-07),
    (1e-3, 1.5): (0.5697825158841759, 1.7431931009909468e-07),
    (1e-3, 2.9): (0.12215064229282434, 1.9846319601869565e-07),
    (1e-1, 0.3): (0.9757189852271039, 1.962777362814549e-07),
    (1e-1, 1.5): (0.5670210898951746, 1.7909499566793372e-07),
    (1e-1, 2.9): (0.12189418822322655, 1.917561782590831e-07),
}


def test_gamma_matches_reference_engine_within_its_bound():
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)
    for (r_g, d), (ref, ref_err) in GAMMA_REFERENCE.items():
        pt = gamma_at_separation(d, dimensionless_params(lam=1.0, r_G=r_g), spec)
        assert abs(pt.value - ref) <= ref_err
    # and one short-distance deficit from the same engine
    pt = gamma_deficit(0.005, dimensionless_params(lam=1.0, r_G=1e-4),
                       QuadratureSpec(rel_tol=3e-4, abs_tol=1e-30))
    assert abs(pt.value - 5.5135570749169265e-11) <= 1.58175004583756e-14


def test_gamma_error_bound_is_damped_with_the_value():
    # Gamma = exp(-delta^2/4) I: the bound on Gamma is the damped bound on I,
    # tight at delta = 2.9 and still covering a far tighter reference
    params = dimensionless_params(lam=1.0, r_G=0.1)
    pt = gamma_at_separation(2.9, params, QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7))
    ref = gamma_at_separation(2.9, params, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15))
    assert pt.error <= 1e-8
    assert abs(pt.value - ref.value) <= pt.error


def test_gamma_hermitian_symmetry():
    params = dimensionless_params(lam=1.0, r_G=0.05)
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-8)
    a = gamma_kernel([0.0, 0.0, 0.0], [0.4, 0.1, -0.2], params, spec)
    b = gamma_kernel([0.4, 0.1, -0.2], [0.0, 0.0, 0.0], params, spec)
    assert abs(a.value - np.conj(b.value)) <= a.error + b.error + 1e-14


def test_deficit_consistent_with_direct_difference():
    # the deficit route must agree with Gamma_0 - Gamma computed the dumb way
    params = dimensionless_params(lam=1.0, r_G=0.1)
    d = 0.7
    pt = gamma_at_separation(d, params, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-10))
    direct = math.exp(-(d**2) / 4.0) - pt.value.real
    deficit = gamma_deficit(d, params, QuadratureSpec(rel_tol=1e-7, abs_tol=1e-30))
    assert deficit.value.real == pytest.approx(direct, rel=1e-5)
    assert abs(deficit.value.imag) <= deficit.error


def test_deficit_zero_cases():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    assert gamma_deficit(0.5, params).value == 0.0
    params = dimensionless_params(lam=1.0, r_G=0.1)
    assert gamma_deficit(0.0, params).value == 0.0


def test_analytic_kernel_refuses_gaussian_smearing_where_the_phase_enters():
    # the integrand is the sharp model's 1/r phase; gaussian smearing is
    # refused rather than answered with the sharp value
    gaussian = Smearing.gaussian(1.0)
    params = dimensionless_params(lam=1.0, r_G=0.3, smearing=gaussian)
    for kernel in (gamma_at_separation, gamma_deficit):
        with pytest.raises(ValueError, match="gaussian"):
            kernel(1.0, params)
    # without a kick (eps = 0) Gamma is the closed form whatever the smearing
    free = dimensionless_params(lam=1.0, r_G=0.0, smearing=gaussian)
    assert gamma_at_separation(1.0, free).value == math.exp(-0.25) + 0.0j
    assert gamma_deficit(1.0, free).value == 0.0


def _geometric_cuts(center, inner, outer):
    """Cut positions center +- inner*4^j (inner*4^j < outer) and center."""
    cuts = [center]
    s = inner
    while s < outer:
        cuts.extend([center - s, center + s])
        s *= 4.0
    return cuts


def _whole_axis_quadrature(delta, eps, spec, deficit):
    """The complex integrand exp(i dphi) (or 1 - exp(i dphi)) over the whole
    z axis, on tensor cuts refined toward both singular points z = +-p: the
    reference for the fold onto z >= 0, which assumes that dphi is odd in z.
    Its cuts are its own, not the kernel's graded patches."""
    p = delta / 2.0
    rz = p + spec.domain_margin
    outer = 2.0 * max(1.0, p)
    s_min = max(min(max(eps, 1e-8), max(p, 1e-8), 0.25) / 8.0, 1e-9)
    half = [c for c in [0.0, rz, 1.0] + _geometric_cuts(p, s_min, outer)
            if abs(c) <= rz]
    rho_cuts = [0.0, rz, 1.0] + [
        c for c in _geometric_cuts(0.0, s_min, outer) if 0.0 <= c <= rz
    ]

    def f(z, rho):
        w = (rho * np.exp(-(rho**2))) * np.exp(-(z**2))
        a = np.sqrt(rho**2 + (z - p) ** 2)
        b = np.sqrt(rho**2 + (z + p) ** 2)
        dphi = eps * 4.0 * z * p / np.maximum(a * b * (a + b), 1e-300)
        if deficit:
            g = 2.0 * np.sin(dphi / 2.0) ** 2 - 1j * np.sin(dphi)
        else:
            g = np.exp(1j * dphi)
        return 2.0 / np.sqrt(np.pi) * w * g

    return integrate_adaptive(
        f, half + [-c for c in half], rho_cuts,
        rel_tol=spec.rel_tol, abs_tol=spec.abs_tol, max_evals=spec.max_evals,
        extra_error=(2.0 if deficit else 1.0) * gaussian_tail_mass(spec.domain_margin),
    )


@pytest.mark.parametrize("delta, eps, deficit, spec", [
    (0.3, 1e-3, False, QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)),
    (2.9, 1e-3, False, QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)),
    (0.3, 1e-1, False, QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)),
    (1.5, 1e-1, False, QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)),
    (0.7, 1e-1, True, QuadratureSpec(rel_tol=1e-5, abs_tol=1e-30)),
])
def test_folded_kernel_matches_whole_axis_integral(delta, eps, deficit, spec):
    # Measured, not assumed: over the whole axis the imaginary part is zero
    # within its bound, and the real part is the folded result.
    full = _whole_axis_quadrature(delta, eps, spec, deficit)
    value, err, _ = analysis._kernel_quadrature(delta, eps, spec, deficit)
    assert value.imag == 0.0
    assert abs(full.value.imag) <= full.error
    assert abs(full.value.real - value.real) <= full.error + err


def test_large_eps_deficit_converges_within_default_budget():
    # at eps = 100 the whole-axis complex integral ran out of the 6 M
    # budget (bound 6.5e-5 against 1.0e-5); the real, folded one does not
    spec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-30)
    value, err, n = analysis._kernel_quadrature(0.1, 100.0, spec, deficit=True)
    assert n <= QuadratureSpec().max_evals
    assert err <= spec.rel_tol * abs(value)
    assert value.real == pytest.approx(1.0, abs=0.01)


def test_kernel_quadrature_grades_its_initial_patches():
    # full-width geometric strips drew 26,550 samples here; rings graded
    # toward the singular point (p, 0) draw about a third of that
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)
    _, _, n = analysis._kernel_quadrature(1.5, 0.1, spec, False)
    assert n <= 12_000


def test_short_distance_slope_is_twice_the_reference():
    # The model's short-distance coefficient is fixed by the two-charge
    # identity Int d3u [1/|u-a| - 1/|u-b|]^2 = 4 pi |a-b|, which gives
    # lam (2/sqrt(pi)) (r_G/r_C)^2 |x-y|/r_C: exactly twice the older
    # reference (lam/sqrt(pi)) r_G^2/r_C^3.
    def old_reference(params):
        return params.lam / math.sqrt(math.pi) * params.r_G(0, 0) ** 2 / params.r_C**3

    params = dimensionless_params(lam=1.0, r_G=1e-3)
    seps = np.linspace(0.01, 0.05, 6)
    fit = short_distance_rate(params, seps, tolerance=3e-4)
    assert fit.r_squared > 0.999
    assert fit.slope == pytest.approx(2.0 * old_reference(params), rel=0.05)
    assert fit.expected_slope == pytest.approx(
        2.0 / math.sqrt(math.pi) * params.r_G(0, 0) ** 2, rel=1e-15
    )
    assert fit.rel_deviation < 0.05

    # smaller eps sits deeper in the asymptotic regime: the factor sharpens
    tight_params = dimensionless_params(lam=1.0, r_G=1e-4)
    tight = short_distance_rate(
        tight_params, np.linspace(0.001, 0.01, 6), tolerance=3e-4
    )
    assert tight.slope == pytest.approx(2.0 * old_reference(tight_params), rel=0.015)
    assert tight.rel_deviation < 0.05


def test_short_distance_coefficient_follows_two_charge_identity(monkeypatch):
    # Fourier form of the identity: 1/|u| -> 4 pi/k^2, and the angular
    # average of |exp(ik.a) - exp(ik.b)|^2 is 2 (1 - sin(kd)/(kd)), so
    # Int d3u [1/|u-a| - 1/|u-b|]^2 = 16 d Int_0^inf (1 - sin t/t)/t^2 dt.
    def integrand(t):
        if t < 1e-2:  # Taylor series, free of the 1 - sin(t)/t cancellation
            return 1.0 / 6.0 - t**2 / 120.0 + t**4 / 5040.0
        return (1.0 - math.sin(t) / t) / t**2

    edges = [k * math.pi for k in range(101)]
    body = sum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    # tail: Int_A^inf dt/t^2 = 1/A exactly, the oscillating rest by QAWF
    tail_sin, _ = quad(lambda t: t**-3, edges[-1], math.inf, weight="sin", wvar=1.0)
    integral = body + 1.0 / edges[-1] - tail_sin
    for d in (0.5, 1.0, 3.0):
        assert 16.0 * d * integral == pytest.approx(4.0 * math.pi * d, abs=1e-8)

    # The excess is (lam/2) <dphi^2> under the kernel's weight
    # (pi r_C^2)^(-3/2); the fit's reference must be that product.  The
    # quadrature is replaced by an exact line: only the reference is checked.
    monkeypatch.setattr(analysis, "excess_rate", lambda s, p, spec: (3.0 * s, 0.0))
    seps = np.linspace(0.01, 0.05, 5)
    for lam, r_g, r_c in ((1.0, 1e-4, 1.0), (2.5, 3e-3, 0.7), (0.3, 1e-2, 2.0)):
        params = replace(dimensionless_params(lam=lam, r_G=r_g), r_C=r_c)
        fit = short_distance_rate(params, seps * r_c)
        expected = (lam * 0.5 * math.pi**-1.5 * 4.0 * math.pi
                    * params.r_G(0, 0) ** 2 / params.r_C**3)
        assert fit.expected_slope == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert fit.slope == pytest.approx(3.0, rel=1e-12)


def test_short_distance_quadratic_scaling_in_r_g():
    seps = np.linspace(0.02, 0.05, 4)
    fit1 = short_distance_rate(
        dimensionless_params(lam=1.0, r_G=5e-4), seps, tolerance=1e-3
    )
    fit2 = short_distance_rate(
        dimensionless_params(lam=1.0, r_G=1e-3), seps, tolerance=1e-3
    )
    assert fit2.slope == pytest.approx(4.0 * fit1.slope, rel=0.05)


def test_short_distance_zero_gravity_slope():
    fit = short_distance_rate(
        dimensionless_params(lam=1.0, r_G=0.0), np.linspace(0.01, 0.05, 5)
    )
    assert fit.slope == 0.0
    assert fit.expected_slope == 0.0


def test_short_distance_regime_guards():
    params = dimensionless_params(lam=1.0, r_G=1e-3)
    with pytest.raises(RegimeError, match="0.1 r_C"):
        short_distance_rate(params, [0.05, 0.1, 0.2, 0.4])
    strong = dimensionless_params(lam=1.0, r_G=2.0)
    with pytest.raises(RegimeError, match="0.3 rad"):
        short_distance_rate(strong, [0.02, 0.04, 0.06, 0.08])
    with pytest.raises(ValueError, match="at least 4"):
        short_distance_rate(params, [0.01, 0.02, 0.03])


def test_inverse_lambda_exponent():
    params = dimensionless_params(lam=1.0, r_G=1e-4)
    expo = inverse_lambda_check(params, separation=0.05, factor=2.0, tolerance=3e-4)
    assert abs(expo + 1.0) < 0.05


def test_inverse_lambda_guards():
    params = dimensionless_params(lam=1.0, r_G=1e-4)
    with pytest.raises(RegimeError, match="degenerate"):
        inverse_lambda_check(params, 0.05, factor=1.0)
    with pytest.raises(RegimeError, match="no gravitational excess"):
        inverse_lambda_check(dimensionless_params(lam=1.0, r_G=0.0), 0.05, 2.0)
    with pytest.raises(RegimeError, match="saturation"):
        inverse_lambda_check(
            dimensionless_params(lam=1.0, r_G=1e-2), 0.05, factor=2.0
        )


def test_effective_potential_rows():
    params = dimensionless_params(lam=1.0, r_G=0.0)
    rows = effective_potential_check([0.5, 1.0, 10.0], params)
    for row in rows:
        assert row.rel_error < 1e-8
    assert rows[0].newton_deviation > 0.01
    assert rows[2].newton_deviation < 1e-3


def test_effective_potential_contact_limit():
    q, err = smeared_potential_quadrature(1e-4, 1.0, rel_tol=1e-9)
    assert q == pytest.approx(2 / math.sqrt(math.pi), rel=1e-7)


def test_classical_force_far_field():
    params = dimensionless_params(lam=1.0, r_G=0.1, n_particles=2)
    d = 10.0
    f = classical_limit_force([0.0, 0.0, 0.0], [[d, 0.0, 0.0]], params)
    newton = params.G * params.masses[0] * params.masses[1] / d**2
    assert np.linalg.norm(f) == pytest.approx(newton, rel=1e-4)
    assert f[0] > 0  # toward the lump


def test_classical_force_symmetric_pair_cancels():
    params = dimensionless_params(lam=1.0, r_G=0.1, n_particles=3)
    f = classical_limit_force(
        [0.0, 0.0, 0.0], [[3.0, 4.0, 0.0], [3.0, -4.0, 0.0]], params
    )
    assert abs(f[1]) < 1e-12
    assert abs(f[2]) < 1e-12


def test_classical_force_matches_potential_finite_difference():
    params = dimensionless_params(lam=1.0, r_G=0.1, n_particles=2)
    d = 1.0
    h = 1e-6
    energy = lambda x: -params.G * smeared_newton_potential(abs(x - d), 1.0)
    fd = -(energy(h) - energy(-h)) / (2 * h)
    f = classical_limit_force([0.0, 0.0, 0.0], [[d, 0.0, 0.0]], params)
    assert f[0] == pytest.approx(fd, rel=1e-6)


def test_classical_force_coincident_rejected():
    params = dimensionless_params(lam=1.0, r_G=0.1, n_particles=2)
    with pytest.raises(ValueError, match="force undefined"):
        classical_limit_force([0.0, 0.0, 0.0], [[1e-5, 0.0, 0.0]], params)


def test_scan_components_and_limits():
    params = dimensionless_params(lam=1.0, r_G=1e-4)
    sep = 0.05
    lams = [0.5, 1.0, 2.0, 4.0, 64.0]
    result = falsifiability_scan(sep, lams, params, tolerance=1e-3)
    assert np.all(np.diff(result.intrinsic) > 0)
    closed = [lam * -math.expm1(-(sep**2) / 4) for lam in lams]
    assert np.allclose(result.intrinsic, closed, rtol=1e-12)
    # high-lambda end: excess dies off, total approaches the intrinsic law
    assert result.excess[-1] < 1e-3 * result.intrinsic[-1]
    # mid-range exponent of the excess is -1
    mid = np.polyfit(np.log(lams[:4]), np.log(result.excess[:4]), 1)[0]
    assert abs(mid + 1.0) < 0.05


def test_scan_zero_gravity_excess_column():
    result = falsifiability_scan(
        0.05, [1.0, 2.0], dimensionless_params(lam=1.0, r_G=0.0)
    )
    assert np.all(result.excess == 0.0)


def test_scan_rejects_bad_grid():
    params = dimensionless_params(lam=1.0, r_G=1e-4)
    with pytest.raises(ValueError):
        falsifiability_scan(0.05, [2.0, 1.0], params)


def test_excess_dominates_intrinsic_at_short_distance():
    params = dimensionless_params(lam=1.0, r_G=1e-3)
    spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-30)
    ratios = []
    for sep in (0.04, 0.02, 0.01):
        ex, _ = excess_rate(sep, params, spec)
        ratios.append(ex / intrinsic_rate(sep, params))
    assert ratios[0] < ratios[1] < ratios[2]


def _probe_ensemble(means):
    # an ensemble's sums of <x> and <x>^2 for one particle in 1D
    means = np.asarray(means, dtype=float).reshape(-1, 1, 1)
    return SimpleNamespace(n_traj=len(means),
                           position_sums=np.stack([means.sum(axis=0),
                                                   (means**2).sum(axis=0)]))


def test_probe_rejects_asymmetric_state():
    from grwflash.state import GridSpec, WaveFunction, normalize

    # masses 2/3 at -2 and 1/3 at +4: the mean is the grid centre, where a
    # reflection maps the grid onto itself, but the density is not even
    grid = GridSpec.centered(1, 64, 0.25)
    x = grid.axis(0)
    amps = (np.sqrt(2.0) * np.exp(-((x + 2.0) ** 2) / (2 * 0.5**2))
            + np.exp(-((x - 4.0) ** 2) / (2 * 0.5**2)))
    psi = normalize(WaveFunction(grid, 1, amps))
    with pytest.raises(ValueError, match="asymmetric initial state: probe undefined"):
        self_attraction_probe(_probe_ensemble(np.zeros(4)), psi)


def test_probe_rejects_mean_off_the_grid_and_its_midpoints():
    # a lone packet at 0.3 is even about its mean, but reflecting the grid
    # about 0.3 shifts it by 2.4 steps, off the grid
    from grwflash.state import GridSpec, make_gaussian_packet

    grid = GridSpec.centered(1, 64, 0.25)
    psi = make_gaussian_packet(grid, 1, [[0.3]], [1.0])
    with pytest.raises(ValueError, match="neither a grid point nor a midpoint"):
        self_attraction_probe(_probe_ensemble(np.zeros(4)), psi)


def test_probe_accepts_state_even_about_an_off_centre_mean():
    # a cat at -3.5 and +4.5 is even about its mean 0.5, 2 grid steps right
    # of the grid centre: reflected about the centre it is not
    from grwflash.state import GridSpec, WaveFunction, expectation_position, normalize

    grid = GridSpec.centered(1, 64, 0.25)
    x = grid.axis(0)
    amps = (np.exp(-((x + 3.5) ** 2) / (2 * 0.8**2))
            + np.exp(-((x - 4.5) ** 2) / (2 * 0.8**2)))
    psi = normalize(WaveFunction(grid, 1, amps))
    x0 = expectation_position(psi, 0)
    assert abs(x0[0] - 0.5) < 1e-9     # the tails the box cuts off
    means = [0.5, 0.75, 0.25, 0.5, 0.5]
    probe = self_attraction_probe(_probe_ensemble(means), psi)
    assert probe.n_traj == 5
    assert abs(probe.drift[0] - (np.mean(means) - x0[0])) < 1e-15
    assert abs(probe.std_error[0] - np.std(means, ddof=1) / math.sqrt(5)) < 1e-15


def test_quadrature_spec_validation():
    with pytest.raises(ValueError, match="at least 6"):
        QuadratureSpec(domain_margin=4.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
