"""Analytic signatures: decoherence kernel, short-distance law, Newtonian limit.

With the free Hamiltonian switched off, a single particle's density matrix
obeys d/dt rho(x, y) = lam * (Gamma(x, y) - 1) * rho(x, y) with the
flash-averaged coherence multiplier

  Gamma(x,y) = (pi r_C^2)^(-3/2) * Int d3 x_f
               exp(i (r_G/|x-x_f| - r_G/|y-x_f|))
               * exp(-((x-x_f)^2 + (y-x_f)^2) / (2 r_C^2)).

In coordinates centered between the pair the integral depends only on the
separation delta = |x-y| and eps = r_G/r_C, is axially symmetric, and at
r_G = 0 collapses to the closed form exp(-delta^2 / (4 r_C^2)).  The phase
dphi is odd in z (reflecting x_f through the midplane swaps the distances),
so Gamma is real: only its even real part is integrated, over z >= 0.

Two quadrature targets are exposed: the kernel itself (absolute accuracy)
and the *deficit* Gamma_0 - Gamma, whose integrand 1 - cos(dphi) is
evaluated only in the cancellation-free form 2 sin^2(dphi/2).  Rates
differing from vanilla GRW by parts in 1e9 are only measurable through
the deficit form.

The phase is the sharp model's 1/r: under gaussian smearing, whose
erf(r/w)/r profile is not implemented here, both are refused where eps != 0.

Evaluations cache on (delta, eps, deficit, spec), which serves points
repeated within one process, such as a library caller asking for the
same kernel point twice; no CLI command repeats a point, so a CLI run
never hits it.  Values are deterministic, so concurrent last-writer-wins
insertion into the cache dict is benign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gravity import smeared_newton_gradient, smeared_newton_potential
# integrate_adaptive is not called here, but perfbench/layers.py rebinds it
# by the name grwflash.analysis.integrate_adaptive.
from .quadrature import (  # noqa: F401
    gaussian_tail_mass,
    graded_patches,
    integrate_adaptive,
    integrate_patches,
)
from .units import PhysicalParams


class RegimeError(ValueError):
    """An asymptotic expansion was requested outside its validity domain."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and domain for kernel quadrature.

    ``domain_margin`` is the integration radius beyond the pair, in units
    of r_C; at least 6 is required so Gaussian truncation stays below the
    error bounds quoted with the results.  ``max_evals`` caps the samples
    actually drawn, all of them on the z >= 0 half.
    """

    rel_tol: float = 1e-7
    abs_tol: float = 1e-9
    max_evals: int = 6_000_000
    domain_margin: float = 7.0

    def __post_init__(self):
        # every comparison is written so that nan fails it
        if not 6.0 <= self.domain_margin < math.inf:
            raise ValueError("domain_margin must be at least 6 r_C and finite, "
                             f"got {self.domain_margin}")
        for name in ("rel_tol", "abs_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True)
class KernelPoint:
    value: complex
    error: float
    n_evals: int


@dataclass(frozen=True)
class KernelResult:
    """Gamma evaluated on a list of position pairs, with error bounds."""

    pairs: tuple
    values: np.ndarray
    error_estimates: np.ndarray
    quadrature_spec: QuadratureSpec

    def validate(self) -> list[str]:
        diags = []
        for (x, y), v, e in zip(self.pairs, self.values, self.error_estimates):
            if abs(v) > 1.0 + e:
                diags.append(f"|Gamma|={abs(v):.12g} exceeds 1+error at pair {x},{y}")
            if np.allclose(x, y) and abs(v - 1.0) > e:
                diags.append(f"Gamma(x,x) != 1 within error at {x}")
        return diags


# Kernel points kept at most; past it the oldest insertion goes first, so a
# long scan holds bounded memory while a table's repeated points still hit.
KERNEL_CACHE_SIZE = 4096
_kernel_cache: dict = {}


def clear_kernel_cache() -> None:
    _kernel_cache.clear()


def _kernel_integrand(eps: float, p: float, deficit: bool):
    pref = 2.0 / np.sqrt(np.pi)

    def f(z, rho):
        # z and rho arrive on separate axes (see integrate_patches): each
        # Gaussian factor is computed on its own axis before they broadcast.
        w = (rho * np.exp(-(rho**2))) * np.exp(-(z**2))
        a = np.sqrt(rho**2 + (z - p) ** 2)
        b = np.sqrt(rho**2 + (z + p) ** 2)
        # 1/a - 1/b written without cancellation: b^2-a^2 = 4 z p.
        denom = np.maximum(a * b * (a + b), 1e-300)
        dphi = eps * 4.0 * z * p / denom
        g = 2.0 * np.sin(dphi / 2.0) ** 2 if deficit else np.cos(dphi)
        return pref * w * g

    return f


def _kernel_quadrature(
    delta: float, eps: float, spec: QuadratureSpec, deficit: bool
) -> tuple[complex, float, int]:
    """Normalized flash average for separation delta (units of r_C).

    Returns the integral of cos(dphi) (or 1 - cos(dphi) in deficit mode)
    against the Gaussian weight, its error bound and the samples drawn: the
    integrand is even in z, so it is twice the z >= 0 half, whose test at
    half of abs_tol and of the truncation bound is the whole axis's.  The
    phase is singular at (z, rho) = (p, 0): the initial patches are square
    half-rings around it (`graded_patches`), from side s_min (1/8 of the
    smallest of eps, p and 1/4) up to the scale outer = 2 max(1, p), and
    the tensor cells of the cuts 0, 1, outer and r_z beyond.  Cached on
    (delta, eps, deficit, spec): the whole spec, so a tighter evaluation
    budget never reuses a result it could not reach.
    """
    key = (delta, eps, deficit, spec)
    hit = _kernel_cache.get(key)
    if hit is not None:
        return hit

    p = delta / 2.0
    margin = spec.domain_margin
    rz = p + margin
    outer = 2.0 * max(1.0, p)
    s_min = max(min(max(eps, 1e-8), max(p, 1e-8), 0.25) / 8.0, 1e-9)
    coarse = [0.0, 1.0, min(outer, rz), rz]
    trunc = (2.0 if deficit else 1.0) * gaussian_tail_mass(margin)
    res = integrate_patches(
        _kernel_integrand(eps, p, deficit),
        graded_patches((p, 0.0), s_min, outer, coarse, coarse),
        rel_tol=spec.rel_tol,
        abs_tol=spec.abs_tol / 2.0,
        max_evals=spec.max_evals,
        extra_error=trunc / 2.0,
    )
    out = (2.0 * res.value, 2.0 * res.error, res.n_evals)
    if len(_kernel_cache) >= KERNEL_CACHE_SIZE:
        del _kernel_cache[next(iter(_kernel_cache))]
    _kernel_cache[key] = out
    return out


def _require_sharp(params: PhysicalParams) -> None:
    if params.smearing.kind != "sharp":
        raise ValueError("the analytic kernel is implemented for sharp smearing "
                         f"only, not {params.smearing.kind}")


def _delta(separation: float, params: PhysicalParams) -> float:
    """separation / r_C, for a separation that is nonnegative and finite."""
    if not 0 <= separation < math.inf:  # nan fails it
        raise ValueError("separation must be nonnegative and finite, "
                         f"got {separation}")
    return separation / params.r_C


def gamma_at_separation(
    separation: float,
    params: PhysicalParams,
    spec: QuadratureSpec = QuadratureSpec(),
) -> KernelPoint:
    """Gamma for a pair a distance `separation` apart, with particle 0's
    eps = r_G(0, 0)/r_C (isotropy makes the direction irrelevant)."""
    delta = _delta(separation, params)
    if delta == 0.0:
        # The phase difference vanishes identically and the Gaussian weight
        # is normalized, so the kernel is exactly 1 on the diagonal.
        return KernelPoint(1.0 + 0.0j, 0.0, 0)
    damp = math.exp(-(delta**2) / 4.0)
    eps = params.epsilon(0, 0)
    if eps == 0.0:
        # Without gravity the phase vanishes: Gamma is the closed form.
        return KernelPoint(damp + 0.0j, 0.0, 0)
    _require_sharp(params)
    value, err, n = _kernel_quadrature(delta, eps, spec, deficit=False)
    return KernelPoint(damp * value, damp * err, n)


def gamma_kernel(
    x, y, params: PhysicalParams, spec: QuadratureSpec = QuadratureSpec()
) -> KernelPoint:
    """Decoherence kernel Gamma(x, y); complex value with an error bound.

    Positions may be 1D or 3D; only the separation enters (translation
    invariance and isotropy are exact properties of the integral).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("positions must have matching shapes")
    return gamma_at_separation(float(np.linalg.norm(x - y)), params, spec)


def gamma_deficit(
    separation: float,
    params: PhysicalParams,
    spec: QuadratureSpec | None = None,
) -> KernelPoint:
    """Gamma_0 - Gamma with *relative* accuracy on the small difference.

    This is the gravitational part of the decoherence rate (divided by
    lam): computing it directly avoids subtracting two order-one kernels.
    """
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-30)
    delta = _delta(separation, params)
    eps = params.epsilon(0, 0)
    if delta == 0.0 or eps == 0.0:
        return KernelPoint(0.0 + 0.0j, 0.0, 0)
    _require_sharp(params)
    value, err, n = _kernel_quadrature(delta, eps, spec, deficit=True)
    damp = math.exp(-(delta**2) / 4.0)
    return KernelPoint(damp * value, damp * err, n)


def evaluate_kernel(
    pairs, params: PhysicalParams, spec: QuadratureSpec = QuadratureSpec()
) -> KernelResult:
    """Gamma on a list of (x, y) pairs as a KernelResult."""
    values = []
    errors = []
    for x, y in pairs:
        pt = gamma_kernel(x, y, params, spec)
        values.append(pt.value)
        errors.append(pt.error)
    return KernelResult(
        pairs=tuple((tuple(np.atleast_1d(x)), tuple(np.atleast_1d(y))) for x, y in pairs),
        values=np.array(values),
        error_estimates=np.array(errors),
        quadrature_spec=spec,
    )


def intrinsic_rate(separation: float, params: PhysicalParams) -> float:
    """Vanilla (G = 0) decoherence rate lam * (1 - exp(-d^2/(4 r_C^2)))."""
    d = _delta(separation, params)
    return params.lam * -math.expm1(-(d**2) / 4.0)


def excess_rate(
    separation: float, params: PhysicalParams, spec: QuadratureSpec | None = None
) -> tuple[float, float]:
    """Gravitational excess decoherence rate and its quadrature error bound."""
    pt = gamma_deficit(separation, params, spec)
    return params.lam * pt.value.real, params.lam * pt.error


@dataclass(frozen=True)
class SlopeFit:
    """Affine least-squares fit of the gravitational excess rate."""

    separations: np.ndarray
    excess: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    expected_slope: float
    rel_deviation: float
    r_squared: float


def _check_linear_regime(params: PhysicalParams, separations) -> None:
    eps = params.epsilon()
    d_max = float(np.max(separations)) / params.r_C
    if d_max > 0.1:
        raise RegimeError(
            f"separation/r_C = {d_max:.3g} violates the short-distance "
            "requirement separation <= 0.1 r_C"
        )
    phase = 4.0 * eps * d_max
    if phase > 0.3:
        raise RegimeError(
            f"accumulated phase 4*eps*delta = {phase:.3g} rad exceeds the "
            "0.3 rad linear-response bound"
        )


def short_distance_rate(
    params: PhysicalParams,
    separations,
    tolerance: float = 1e-3,
) -> SlopeFit:
    """Fit the short-distance law of the gravitational excess rate.

    The excess lam*(1 - Re Gamma) - lam*(1 - Re Gamma_0) grows linearly at
    small separation with slope (2/sqrt(pi)) * lam * r_G^2 / r_C^3.  To
    second order in the phase the excess is (lam/2) <dphi^2>, and with the
    kernel's weight (pi r_C^2)^(-3/2) the two-charge identity
    Int d3u [1/|u-a| - 1/|u-b|]^2 = 4 pi |a-b| gives (1/2) pi^(-3/2) 4 pi.
    An affine fit is used: the saturated neighborhoods of the two phase
    singularities contribute a separation-independent offset that must not
    bias the slope.
    """
    separations = np.sort(np.asarray(separations, dtype=float))
    if len(separations) < 4:
        raise ValueError("need at least 4 separations for the fit")
    if np.any(separations <= 0):
        raise ValueError("separations must be positive")
    if params.G == 0:
        expected = 0.0
    else:
        expected = (
            2.0 / math.sqrt(math.pi) * params.lam
            * params.r_G(0, 0) ** 2 / params.r_C**3
        )
    _check_linear_regime(params, separations)

    spec = QuadratureSpec(rel_tol=tolerance, abs_tol=1e-30)
    vals = []
    errs = []
    for s in separations:
        v, e = excess_rate(s, params, spec)
        vals.append(v)
        errs.append(e)
    y = np.array(vals)
    x = separations
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    rel_dev = abs(slope - expected) / expected if expected else abs(slope)
    return SlopeFit(
        separations=x,
        excess=y,
        errors=np.array(errs),
        slope=slope,
        intercept=intercept,
        expected_slope=expected,
        rel_deviation=rel_dev,
        r_squared=r2,
    )


def inverse_lambda_check(
    params: PhysicalParams,
    separation: float,
    factor: float,
    tolerance: float = 1e-3,
) -> float:
    """Measured scaling exponent of the excess rate under lam -> factor*lam.

    r_G is recomputed from the rescaled rate (r_G ~ 1/lam), so the model
    predicts exponent -1.  Requires the linear regime at both rates; the
    saturation correction (independent of separation but ~eps^3) must also
    be subdominant, which needs eps << separation/r_C.
    """
    if params.G == 0:
        raise RegimeError("no gravitational excess: G = 0")
    if factor == 1.0:
        raise RegimeError("degenerate factor 1: exponent is 0/0")
    if factor <= 0:
        raise ValueError("factor must be positive")

    rates = []
    for lam in (params.lam, params.lam * factor):
        p = replace(params, lam=lam)  # r_G follows 1/lam automatically
        _check_linear_regime(p, [separation])
        eps = p.epsilon()
        if eps > 0.01 * separation / p.r_C:
            raise RegimeError(
                f"eps = {eps:.3g} exceeds separation/(100 r_C) = "
                f"{0.01 * separation / p.r_C:.3g}: saturation correction "
                "would pollute the exponent"
            )
        spec = QuadratureSpec(rel_tol=tolerance, abs_tol=1e-30)
        v, _ = excess_rate(separation, p, spec)
        rates.append(v)
    return float(math.log(rates[1] / rates[0]) / math.log(factor))


@dataclass(frozen=True)
class PotentialRow:
    d: float
    quadrature: float
    closed_form: float
    rel_error: float
    newton_deviation: float  # |V - 1/d| / (1/d)


def _potential_integrand(d: float):
    pref = 2.0 / np.sqrt(np.pi)

    def f(z, rho):
        dist = np.sqrt(rho**2 + (z - d) ** 2)
        dist = np.maximum(dist, 1e-300)
        return pref * (rho * np.exp(-(rho**2))) * np.exp(-(z**2)) / dist

    return f


def smeared_potential_quadrature(
    d: float,
    r_C: float = 1.0,
    rel_tol: float = 1e-8,
    margin: float = 7.0,
) -> tuple[float, float]:
    """Gaussian-smoothed 1/r at distance d by direct 3D quadrature.

    Independent of the erf closed form; used to cross-check it.  The
    initial patches are half-rings graded from side 1e-6 r_C toward the
    1/r point (d, 0) of the (z, rho) half-plane, and the tensor cells of
    the cuts z = -1, 0, 1 and rho = 1 beyond 2 r_C.  Returns (value, error
    bound).
    """
    if not 0 <= d < math.inf:  # nan fails it
        raise ValueError(f"distance must be nonnegative and finite, got {d}")
    dd = d / r_C
    rz = dd + margin
    res = integrate_patches(
        _potential_integrand(dd),
        graded_patches((dd, 0.0), 1e-6, 2.0, [-margin, -1.0, 0.0, 1.0, rz],
                       [0.0, 1.0, rz]),
        rel_tol=rel_tol,
        abs_tol=1e-30,
        max_evals=4_000_000,
        extra_error=gaussian_tail_mass(margin),
    )
    return res.value.real / r_C, res.error / r_C


def effective_potential_check(d_values, params: PhysicalParams) -> list[PotentialRow]:
    """Quadrature vs closed form for the smoothed Newtonian shape.

    Each row reports the 3D quadrature of the Gaussian-convolved 1/r, the
    erf closed form, their relative difference, and the deviation from the
    bare Newtonian 1/d (which exceeds 1% once d drops below ~1.8 r_C).
    """
    rows = []
    for d in np.asarray(d_values, dtype=float):
        quad, err = smeared_potential_quadrature(d, params.r_C)
        closed = smeared_newton_potential(d, params.r_C)
        rel = abs(quad - closed) / closed
        if d > 0:
            newton_dev = abs(quad - 1.0 / d) / (1.0 / d)
        else:
            newton_dev = math.inf
        rows.append(PotentialRow(float(d), quad, closed, rel, newton_dev))
    return rows


def classical_limit_force(
    test_position, lump_positions, params: PhysicalParams
) -> np.ndarray:
    """Force on the test particle from pinned, well-localized lump particles.

    The test particle is particle 0; ``lump_positions`` pins particles
    1..N-1.  The pair potential is the smoothed Newtonian one, so the force
    is the analytic gradient of -sum_k G m_0 m_k erf(d_k/r_C)/d_k.
    """
    x0 = np.atleast_1d(np.asarray(test_position, dtype=float))
    lumps = [np.atleast_1d(np.asarray(r, dtype=float)) for r in lump_positions]
    if len(lumps) != params.n_particles - 1:
        raise ValueError(
            f"expected {params.n_particles - 1} lump positions, got {len(lumps)}"
        )
    force = np.zeros_like(x0)
    for k, r in enumerate(lumps, start=1):
        sep = x0 - r
        d = float(np.linalg.norm(sep))
        if d < 1e-3 * params.r_C:
            raise ValueError(
                f"test particle within 1e-3 r_C of lump {k}: force undefined"
            )
        du = smeared_newton_gradient(d, params.r_C)
        force += params.G * params.masses[0] * params.masses[k] * du * sep / d
    return force


@dataclass(frozen=True)
class DriftEstimate:
    drift: np.ndarray  # mean final <x> minus initial <x>, per axis
    std_error: np.ndarray
    n_traj: int

    def significance(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(self.drift) / self.std_error


def self_attraction_probe(ensemble_result, psi0) -> DriftEstimate:
    """Drift of <x> for a symmetric superposition; the model predicts zero.

    ``ensemble_result`` must carry per-trajectory final mean positions (see
    dynamics.run_ensemble).  psi0 must be symmetric: its position density
    even about its mean to 1e-8, otherwise the probe is undefined.
    """
    from .state import expectation_position, position_density

    dens = position_density(psi0, 0)
    for axis in range(dens.ndim):
        if not np.allclose(dens, np.flip(dens, axis=axis), atol=1e-8):
            raise ValueError("asymmetric initial state: probe undefined")
    x0 = expectation_position(psi0, 0)
    pos = ensemble_result.particle_means(0)
    n = pos.shape[0]
    drift = pos.mean(axis=0) - x0
    se = pos.std(axis=0, ddof=1) / math.sqrt(n)
    return DriftEstimate(drift=drift, std_error=se, n_traj=n)


@dataclass(frozen=True)
class ScanResult:
    """Decoherence-rate decomposition over a lambda grid at fixed separation."""

    separation: float
    r_C: float
    lambda_grid: np.ndarray
    rates: np.ndarray       # total lam*(1 - Re Gamma)
    intrinsic: np.ndarray   # G = 0 component
    excess: np.ndarray      # gravitational component
    excess_errors: np.ndarray


def falsifiability_scan(
    separation: float,
    lambda_grid,
    params: PhysicalParams,
    tolerance: float = 1e-3,
) -> ScanResult:
    """Total, intrinsic and gravitational decoherence rates across lam.

    The intrinsic part grows like lam while the gravitational excess falls
    like 1/lam (r_G is recomputed from each lam), which is what closes the
    parameter diagram from both ends.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    if np.any(lams <= 0) or np.any(np.diff(lams) <= 0):
        raise ValueError("lambda_grid must be positive and strictly increasing")
    intrinsic = []
    excess = []
    errors = []
    for lam in lams:
        p = replace(params, lam=lam)
        intrinsic.append(intrinsic_rate(separation, p))
        if p.G == 0:
            excess.append(0.0)
            errors.append(0.0)
        else:
            spec = QuadratureSpec(rel_tol=tolerance, abs_tol=1e-30)
            v, e = excess_rate(separation, p, spec)
            excess.append(v)
            errors.append(e)
    intrinsic = np.array(intrinsic)
    excess = np.array(excess)
    return ScanResult(
        separation=separation,
        r_C=params.r_C,
        lambda_grid=lams,
        rates=intrinsic + excess,
        intrinsic=intrinsic,
        excess=excess,
        excess_errors=np.array(errors),
    )
