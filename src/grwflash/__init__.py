"""Numerical laboratory for the GRW collapse model with gravitating flashes.

Stochastic wavefunction trajectories with gravitational phase kicks sourced
by the collapse events, an exact master-equation cross-check, and the
model's analytic signatures (decoherence kernel, short-distance law,
smoothed Newtonian potential, falsifiability scan).
"""

__version__ = "0.1.0"

from .analysis import (
    DriftEstimate,
    KernelPoint,
    KernelResult,
    QuadratureSpec,
    RegimeError,
    ScanResult,
    SlopeFit,
    classical_limit_force,
    effective_potential_check,
    evaluate_kernel,
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
from .collapse import (
    FlashEvent,
    apply_collapse,
    flash_position_density,
    next_flash,
    rng_stream,
    sample_flash_position,
)
from .config import ConfigError, ExperimentConfig, load_config, params_hash, save_config
from .dynamics import (
    EnsembleResult,
    EvolutionConfig,
    Trajectory,
    TrajectoryError,
    VerifyReport,
    ensemble_vs_master_check,
    exact_diagonal_solution,
    flash_kernel_matrices,
    free_step,
    master_evolve,
    master_generator,
    run_ensemble,
    run_trajectory,
    trace_distance_se,
)
from .gravity import (
    PhaseProfile,
    apply_gravitational_kick,
    phase_profile,
    smeared_newton_gradient,
    smeared_newton_potential,
)
from .quadrature import IntegralResult, QuadratureError, integrate_adaptive
from .state import (
    DensityMatrix,
    GridSpec,
    NullStateError,
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
    trace_out,
)
from .units import (
    PhysicalParams,
    Smearing,
    UnitSystem,
    derive_r_G,
    dimensionless_params,
    from_dimensionless,
    si_preset,
    to_dimensionless,
)
