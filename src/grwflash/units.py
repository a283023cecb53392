"""Model parameters, unit conversion and the gravitational length scale.

The model has two free constants (collapse rate ``lam`` per particle and
collapse width ``r_C``) on top of gravity (``G``), ``hbar`` and the particle
masses.  The combination

    r_G(k, l) = G * m_k * m_l / (hbar * lam)

is a length: it sets the magnitude of the gravitational phase kick a flash
of particle k imprints at unit distance on particle l.  All dynamics depends
only on dimensionless ratios (eps = r_G / r_C, lam * T, ...), so simulations
run in working units hbar = 1, r_C = 1 with lam, G and the masses kept as
free dimensionless knobs.  Real-world values (lam ~ 1e-16 1/s) produce no
events on any simulatable timescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# CODATA 2018 values, SI.  Shipped as a preset so the r_G figures for proton
# and electron are reproducible to the digit.
G_SI = 6.67430e-11          # m^3 / (kg s^2)
HBAR_SI = 1.054571817e-34   # J s
M_PROTON_SI = 1.67262192369e-27   # kg
M_ELECTRON_SI = 9.1093837015e-31  # kg

LAMBDA_GRW_SI = 1e-16       # 1/s, canonical collapse rate
R_C_GRW_SI = 1e-7           # m, canonical collapse width


@dataclass(frozen=True)
class Smearing:
    """Spatial form factor of a flash as a gravitational source.

    ``sharp`` sources the field from the point event itself; ``gaussian``
    spreads it over a normalized Gaussian of width ``width`` (same shape as
    the collapse operator when width equals r_C).  Time smearing is not
    supported: the kick is always instantaneous.
    """

    kind: str = "sharp"          # "sharp" | "gaussian"
    width: float | None = None   # length, gaussian only

    def __post_init__(self):
        if self.kind not in ("sharp", "gaussian"):
            raise ValueError(f"unknown smearing kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.width is None or not 0 < self.width < math.inf:
                raise ValueError("gaussian smearing needs a finite width > 0, "
                                 f"got {self.width}")
        elif self.width is not None:
            raise ValueError("sharp smearing takes no width")

    @staticmethod
    def sharp() -> "Smearing":
        return Smearing("sharp")

    @staticmethod
    def gaussian(width: float) -> "Smearing":
        return Smearing("gaussian", width)


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants for N distinguishable spinless particles.

    Units are whatever the caller says they are; :func:`to_dimensionless`
    converts between unit systems.  ``masses`` has one entry per particle.
    Construction refuses a set that violates any invariant (lam, r_C, hbar
    and every mass positive and finite, G nonnegative and finite, at least
    one mass) and names each one that fails.
    """

    lam: float                      # flash rate per particle [1/time]
    r_C: float                      # collapse width [length]
    G: float                        # gravitational constant
    hbar: float                     # reduced Planck constant
    masses: tuple[float, ...]       # particle masses
    smearing: Smearing = Smearing.sharp()

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        # every comparison is written so that nan fails it
        positive = [("lambda", self.lam), ("r_C", self.r_C), ("hbar", self.hbar)]
        positive += [(f"mass[{i}]", m) for i, m in enumerate(self.masses)]
        diags = [f"{name} must be positive and finite, got {value}"
                 for name, value in positive if not 0 < value < math.inf]
        if not 0 <= self.G < math.inf:
            diags.append(f"G must be nonnegative and finite, got {self.G}")
        if not self.masses:
            diags.append("at least one particle mass is required")
        if diags:
            raise ValueError("invalid params: " + "; ".join(diags))

    @property
    def n_particles(self) -> int:
        return len(self.masses)

    def r_G(self, k: int, l: int) -> float:
        return derive_r_G(self, k, l)

    def r_G_matrix(self):
        import numpy as np

        m = np.asarray(self.masses)
        return self.G * np.outer(m, m) / (self.hbar * self.lam)

    def epsilon(self, k: int = 0, l: int = 0) -> float:
        """Dimensionless kick strength r_G / r_C."""
        return derive_r_G(self, k, l) / self.r_C


@dataclass(frozen=True)
class UnitSystem:
    """Reference scales defining a target unit system.

    A quantity with dimensions length^a mass^b time^c is divided by
    L0^a * M0^b * T0^c when converting to the system.  Round-tripping
    through :func:`to_dimensionless` / :func:`from_dimensionless` is the
    identity to relative 1e-12.
    """

    L0: float = 1.0
    T0: float = 1.0
    M0: float = 1.0

    def __post_init__(self):
        for name in ("L0", "T0", "M0"):
            if not 0 < getattr(self, name) < math.inf:  # nan fails it
                raise ValueError(f"unit scale {name} must be positive and "
                                 f"finite, got {getattr(self, name)}")

    @staticmethod
    def natural(params: PhysicalParams, T0: float = 1.0) -> "UnitSystem":
        """Units in which the given params have r_C = 1 and hbar = 1.

        L0 is pinned to r_C and M0 to hbar*T0/r_C^2; the time scale T0
        remains a free choice (pick it so lam*T0 is order one).
        """
        L0 = params.r_C
        M0 = params.hbar * T0 / L0**2
        return UnitSystem(L0=L0, T0=T0, M0=M0)


def derive_r_G(params: PhysicalParams, k: int, l: int) -> float:
    """Gravitational length scale G*m_k*m_l/(hbar*lam) for a particle pair.

    Symmetric in (k, l), bilinear in the masses, zero iff G = 0.
    """
    n = params.n_particles
    if not (0 <= k < n and 0 <= l < n):
        raise IndexError(f"particle index out of range: ({k}, {l}) for N={n}")
    return params.G * params.masses[k] * params.masses[l] / (params.hbar * params.lam)


def to_dimensionless(params: PhysicalParams, units: UnitSystem) -> PhysicalParams:
    """Express params as pure numbers in the given unit system.

    With ``UnitSystem.natural(params)`` the result has r_C = 1 and hbar = 1.
    Dimensionless ratios (eps, lam*T0) are preserved exactly up to rounding.
    """
    L0, T0, M0 = units.L0, units.T0, units.M0
    smearing = params.smearing
    if smearing.kind == "gaussian":
        smearing = Smearing.gaussian(smearing.width / L0)
    return PhysicalParams(
        lam=params.lam * T0,
        r_C=params.r_C / L0,
        G=params.G * M0 * T0**2 / L0**3,
        hbar=params.hbar * T0 / (M0 * L0**2),
        masses=tuple(m / M0 for m in params.masses),
        smearing=smearing,
    )


def from_dimensionless(params: PhysicalParams, units: UnitSystem) -> PhysicalParams:
    """Inverse of :func:`to_dimensionless` for the same unit system."""
    inv = UnitSystem(L0=1.0 / units.L0, T0=1.0 / units.T0, M0=1.0 / units.M0)
    return to_dimensionless(params, inv)


def si_preset(particle: str = "proton", lam: float = LAMBDA_GRW_SI) -> PhysicalParams:
    """Single-particle SI parameter set with CODATA constants.

    ``particle`` is "proton" or "electron"; lam defaults to the canonical
    1e-16 1/s collapse rate.
    """
    masses = {"proton": M_PROTON_SI, "electron": M_ELECTRON_SI}
    if particle not in masses:
        raise ValueError(f"unknown particle preset {particle!r}")
    return PhysicalParams(
        lam=lam,
        r_C=R_C_GRW_SI,
        G=G_SI,
        hbar=HBAR_SI,
        masses=(masses[particle],),
    )


def dimensionless_params(
    lam: float = 1.0,
    r_G: float = 0.0,
    n_particles: int = 1,
    smearing: Smearing = Smearing.sharp(),
) -> PhysicalParams:
    """Working-unit params (hbar = r_C = 1, unit masses) with a chosen r_G.

    G is back-solved from r_G = G/(hbar*lam) for unit masses, which keeps
    every downstream formula in terms of the physical constants; a negative
    r_G is refused as a negative G.
    """
    return PhysicalParams(
        lam=lam,
        r_C=1.0,
        G=r_G * lam,
        hbar=1.0,
        masses=(1.0,) * n_particles,
        smearing=smearing,
    )
