import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, erfc

from grwflash.quadrature import (
    QuadratureError,
    gaussian_tail_mass,
    geometric_cuts,
    integrate_adaptive,
)


def test_polynomial_exact():
    res = integrate_adaptive(
        lambda x, y: x * y, [0.0, 1.0], [0.0, 1.0], rel_tol=1e-12, abs_tol=1e-14
    )
    assert res.value.real == pytest.approx(0.25, abs=1e-14)


def test_gaussian_box():
    calls = []

    def f(x, y):
        calls.append(np.broadcast(x, y).size)
        return np.exp(-(x**2) - y**2)

    res = integrate_adaptive(
        f,
        [-6.0, 0.0, 6.0],
        [-6.0, 0.0, 6.0],
        rel_tol=1e-11,
        abs_tol=1e-13,
        max_evals=40_000,
    )
    exact = math.pi * erf(6.0) ** 2
    assert res.value.real == pytest.approx(exact, rel=1e-10)
    assert abs(res.value.real - exact) <= max(res.error, 1e-13)
    # many patches per integrand call, and every sample within the budget
    assert len(calls) * 8 <= res.n_patches
    assert sum(calls) == res.n_evals <= 40_000


def test_nested_rule_on_one_patch():
    # G7 is exact to degree 13 per axis, so both rules agree on x^13 y^13
    res = integrate_adaptive(
        lambda x, y: x**13 * y**13, [0.0, 1.0], [0.0, 1.0],
        rel_tol=1e-13, abs_tol=1e-30, max_evals=225,
    )
    assert res.n_patches == 1
    assert res.value.real == pytest.approx(1.0 / 196.0, rel=1e-14)
    assert res.error < 1e-14
    # K15 is exact to degree 22 per axis; G7 is not at degree 20
    res = integrate_adaptive(
        lambda x, y: x**20 * y**20, [0.0, 1.0], [0.0, 1.0],
        rel_tol=1e-2, abs_tol=1e-30, max_evals=225,
    )
    assert res.n_patches == 1
    assert res.value.real == pytest.approx(1.0 / 441.0, rel=1e-14)
    assert res.error > 1e-9


def _abs_power_integral(k, a, b):
    """Integral of |t|^k over [a, b]."""
    if a < 0.0 < b:
        return (abs(a) ** (k + 1) + b ** (k + 1)) / (k + 1)
    return abs(b ** (k + 1) - a ** (k + 1)) / (k + 1)


@given(
    seed=st.integers(0, 2**32 - 1),
    box=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
    n_cuts=st.integers(0, 4),
)
@settings(max_examples=40, deadline=None)
def test_polynomials_up_to_degree_13_are_exact(seed, box, n_cuts):
    a, b = sorted(box[:2])
    c, d = sorted(box[2:])
    if b - a < 1e-3 or d - c < 1e-3:
        return
    rng = np.random.default_rng(seed)
    deg_x, deg_y = rng.integers(0, 14, size=2)
    coef = rng.uniform(-1.0, 1.0, size=(deg_x + 1, deg_y + 1))
    x_cuts = [a, b] + list(rng.uniform(a, b, n_cuts))
    y_cuts = [c, d] + list(rng.uniform(c, d, n_cuts))
    ix = np.polynomial.polynomial.polyint(coef, axis=0)
    ixy = np.polynomial.polynomial.polyint(ix, axis=1)
    exact = sum(
        (-1) ** (i + j) * np.polynomial.polynomial.polyval2d(u, v, ixy)
        for i, u in enumerate((b, a))
        for j, v in enumerate((d, c))
    )
    # scale: the integral of the polynomial with |coefficients| and |x|, |y|
    scale = sum(
        abs(coef[i, j]) * _abs_power_integral(i, a, b) * _abs_power_integral(j, c, d)
        for i in range(deg_x + 1)
        for j in range(deg_y + 1)
    )
    res = integrate_adaptive(
        lambda x, y: np.polynomial.polynomial.polyval2d(
            *np.broadcast_arrays(x, y), coef
        ),
        x_cuts, y_cuts, rel_tol=1e-12, abs_tol=1e-12 * scale,
    )
    assert abs(res.value.real - exact) <= 1e-12 * scale


def test_complex_integrand():
    res = integrate_adaptive(
        lambda x, y: np.exp(1j * (x + y)),
        [0.0, math.pi],
        [0.0, math.pi],
        rel_tol=1e-10,
        abs_tol=1e-12,
    )
    # int_0^pi e^{ix} dx = 2i, so the product is -4
    assert res.value == pytest.approx(-4.0 + 0.0j, abs=1e-9)


def test_integrable_corner_singularity():
    # 1/sqrt(x*y) is integrable; singular corner sits on patch boundaries
    cuts = [c for c in geometric_cuts(0.0, 1e-12, 1.0) if c >= 0.0] + [1.0]
    res = integrate_adaptive(
        lambda x, y: 1.0 / np.sqrt(x * y),
        cuts,
        cuts,
        rel_tol=1e-6,
        abs_tol=1e-10,
        max_evals=20_000_000,
    )
    assert res.value.real == pytest.approx(4.0, rel=1e-6)
    assert abs(res.value.real - 4.0) <= res.error


def test_error_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integrate_adaptive(
            lambda x, y: np.sin(1.0 / np.maximum(x, 1e-300)) / np.sqrt(
                np.maximum(x, 1e-300)
            ),
            [0.0, 1.0],
            [0.0, 1.0],
            rel_tol=1e-14,
            abs_tol=1e-16,
            max_evals=5_000,
        )


@pytest.mark.parametrize("max_evals", [225, 1_000, 5_000, 40_000])
def test_evaluations_never_exceed_budget(max_evals):
    sampled = []

    def f(x, y):
        sampled.append(np.broadcast(x, y).size)
        return np.sin(1.0 / np.maximum(x, 1e-300)) / np.sqrt(np.maximum(x, 1e-300))

    with pytest.raises(QuadratureError):
        integrate_adaptive(f, [0.0, 1.0], [0.0, 1.0], rel_tol=1e-14,
                           abs_tol=1e-16, max_evals=max_evals)
    assert 0 < sum(sampled) <= max_evals
    # a budget the initial cut grid alone exceeds is not spent at all
    sampled.clear()
    with pytest.raises(QuadratureError):
        integrate_adaptive(f, np.linspace(0.0, 1.0, 3), [0.0, 1.0],
                           max_evals=2 * 225 - 1)
    assert sampled == []


def test_extra_error_included_in_bound():
    res = integrate_adaptive(
        lambda x, y: x * 0 + 1.0,
        [0.0, 1.0],
        [0.0, 1.0],
        rel_tol=1e-3,
        abs_tol=1e-6,
        extra_error=1e-4,
    )
    assert res.error >= 1e-4


def test_geometric_cuts_cover_scales():
    cuts = geometric_cuts(0.5, 1e-4, 1.0)
    arr = np.array(sorted(cuts))
    assert 0.5 in cuts
    assert np.min(np.abs(arr - 0.5)[np.abs(arr - 0.5) > 0]) == pytest.approx(1e-4)


def test_gaussian_tail_mass_matches_quadrature():
    from scipy import integrate as si

    for radius in (1.0, 2.0, 4.0):
        exact, _ = si.quad(
            lambda r: 4 * math.pi * r**2 * math.exp(-(r**2)) / math.pi**1.5,
            radius,
            radius + 30,
        )
        assert gaussian_tail_mass(radius) == pytest.approx(exact, rel=1e-10)


def test_gaussian_tail_mass_matches_scipy_erfc_formula():
    for r in (0.0, 1.0, 4.0, 7.0, 10.0):
        ref = (2.0 / np.sqrt(np.pi)) * r * np.exp(-(r**2)) + erfc(r)
        assert gaussian_tail_mass(r) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_needs_two_cuts():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x, y: x, [0.0], [0.0, 1.0])
