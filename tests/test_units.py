import math

import pytest
from hypothesis import given, settings, strategies as st

from grwflash.analysis import QuadratureSpec
from grwflash.dynamics import EvolutionConfig
from grwflash.state import GridSpec
from grwflash.units import (
    PhysicalParams,
    Smearing,
    UnitSystem,
    derive_r_G,
    dimensionless_params,
    from_dimensionless,
    si_preset,
    to_dimensionless,
)


def test_r_g_proton_preset():
    p = si_preset("proton")
    r_g = derive_r_G(p, 0, 0)
    assert abs(r_g - 1.8e-14) / 1.8e-14 < 0.03


def test_r_g_electron_preset():
    p = si_preset("electron")
    r_g = derive_r_G(p, 0, 0)
    assert abs(r_g - 5.3e-21) / 5.3e-21 < 0.03


def test_r_g_zero_gravity():
    p = PhysicalParams(lam=2.0, r_C=1.0, G=0.0, hbar=1.0, masses=(3.0, 5.0))
    assert derive_r_G(p, 0, 1) == 0.0


def test_r_g_symmetric_bilinear():
    p = PhysicalParams(lam=0.7, r_C=1.0, G=2.0, hbar=1.3, masses=(3.0, 5.0, 7.0))
    assert derive_r_G(p, 1, 2) == derive_r_G(p, 2, 1)
    # bilinear: scaling one mass scales the pair value
    p2 = PhysicalParams(lam=0.7, r_C=1.0, G=2.0, hbar=1.3, masses=(6.0, 5.0, 7.0))
    assert derive_r_G(p2, 0, 1) == pytest.approx(2 * derive_r_G(p, 0, 1), rel=1e-14)
    assert derive_r_G(p2, 0, 0) == pytest.approx(4 * derive_r_G(p, 0, 0), rel=1e-14)


def test_r_g_index_errors():
    p = si_preset("proton")
    with pytest.raises(IndexError):
        derive_r_G(p, 0, 1)
    with pytest.raises(IndexError):
        derive_r_G(p, -1, 0)


def test_identity_units_change_nothing():
    p = PhysicalParams(lam=0.3, r_C=2.0, G=1.5, hbar=0.7, masses=(1.0, 2.0))
    q = to_dimensionless(p, UnitSystem())
    assert q == p


def test_natural_units_normalize_hbar_and_r_c():
    p = si_preset("proton")
    units = UnitSystem.natural(p, T0=1.0 / p.lam)
    q = to_dimensionless(p, units)
    assert q.hbar == pytest.approx(1.0, rel=1e-14)
    assert q.r_C == pytest.approx(1.0, rel=1e-14)
    assert q.lam == pytest.approx(1.0, rel=1e-14)


def test_si_proton_epsilon_matches_preset_ratio():
    # eps = r_G/r_C is unit-independent; in natural units it is just r_G.
    p = si_preset("proton")
    eps_si = derive_r_G(p, 0, 0) / p.r_C
    q = to_dimensionless(p, UnitSystem.natural(p))
    assert derive_r_G(q, 0, 0) / q.r_C == pytest.approx(eps_si, rel=1e-12)
    assert abs(eps_si - 1.8e-7) / 1.8e-7 < 0.03


@given(
    lam=st.floats(1e-3, 1e3),
    r_c=st.floats(1e-3, 1e3),
    g=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
    l0=st.floats(1e-2, 1e2),
    t0=st.floats(1e-2, 1e2),
    m0=st.floats(1e-2, 1e2),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_and_epsilon_invariance(lam, r_c, g, l0, t0, m0):
    p = PhysicalParams(lam=lam, r_C=r_c, G=g, hbar=1.3, masses=(0.8, 2.5))
    units = UnitSystem(L0=l0, T0=t0, M0=m0)
    q = to_dimensionless(p, units)
    back = from_dimensionless(q, units)
    for a, b in [
        (back.lam, p.lam),
        (back.r_C, p.r_C),
        (back.G, p.G),
        (back.hbar, p.hbar),
        (back.masses[0], p.masses[0]),
    ]:
        assert abs(a - b) <= 1e-12 * abs(b)
    eps_before = derive_r_G(p, 0, 1) / p.r_C
    eps_after = derive_r_G(q, 0, 1) / q.r_C
    assert abs(eps_after - eps_before) <= 1e-12 * max(abs(eps_before), 1e-300)


def test_validate_flags_zero_lambda():
    with pytest.raises(ValueError, match="lambda"):
        PhysicalParams(lam=0.0, r_C=1.0, G=0.0, hbar=1.0, masses=(1.0,))


def test_validate_ok_for_positive_params():
    for particle in ("proton", "electron"):
        si_preset(particle)


def test_validate_names_bad_mass_index():
    with pytest.raises(ValueError, match=r"mass\[1\]"):
        PhysicalParams(lam=1.0, r_C=1.0, G=0.0, hbar=1.0, masses=(1.0, -2.0))


def _params(**change):
    return PhysicalParams(**{"lam": 1.0, "r_C": 1.0, "G": 0.5, "hbar": 1.0,
                             "masses": (1.0, 2.0), **change})


# (name the error must carry, constructor taking the field's value)
NON_FINITE_FIELDS = {
    "lam": ("lambda", lambda v: _params(lam=v)),
    "r_C": ("r_C", lambda v: _params(r_C=v)),
    "G": ("G must", lambda v: _params(G=v)),
    "hbar": ("hbar", lambda v: _params(hbar=v)),
    "masses": (r"mass\[1\]", lambda v: _params(masses=(1.0, v))),
    "total_time": ("total_time", lambda v: EvolutionConfig(total_time=v)),
    "softening": ("softening",
                  lambda v: EvolutionConfig(total_time=1.0, softening=v)),
    "spacing": ("spacing", lambda v: GridSpec(1, 8, v, (0.0,))),
    "origin": ("origin", lambda v: GridSpec(3, 8, 0.5, (0.0, v, 0.0))),
    "width": ("width", lambda v: Smearing.gaussian(v)),
    "domain_margin": ("domain_margin",
                      lambda v: QuadratureSpec(domain_margin=6.5 + v)),
    "rel_tol": ("rel_tol", lambda v: QuadratureSpec(rel_tol=v)),
    "abs_tol": ("abs_tol", lambda v: QuadratureSpec(abs_tol=v)),
    "L0": ("L0", lambda v: UnitSystem(L0=v)),
    "T0": ("T0", lambda v: UnitSystem(T0=v)),
    "M0": ("M0", lambda v: UnitSystem(M0=v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_owners_refuse_non_finite_fields(field, value):
    # each owner checks its fields once, when built; a nan must fail the
    # check as surely as an infinity does
    name, build = NON_FINITE_FIELDS[field]
    build(0.5)
    with pytest.raises(ValueError, match=name):
        build(value)


def test_smearing_validation():
    with pytest.raises(ValueError):
        Smearing.gaussian(0.0)
    with pytest.raises(ValueError):
        Smearing("nonsense")
    assert Smearing.gaussian(0.5).width == 0.5


def test_unit_system_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        UnitSystem(L0=0.0)


def test_dimensionless_params_back_solves_g():
    p = dimensionless_params(lam=2.0, r_G=0.25)
    assert derive_r_G(p, 0, 0) == pytest.approx(0.25, rel=1e-14)
    assert p.r_C == 1.0 and p.hbar == 1.0
    with pytest.raises(ValueError):
        dimensionless_params(r_G=-1.0)
