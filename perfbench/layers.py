"""Per-layer tracing: which grwflash names are rebound, and the counters.

Each entry of ``SPANS`` rebinds one function, in the module that calls it,
to a span wrapper named after the layer (the module that defines the
function).  Counters are computed from arguments and results at the same
boundaries.  Byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import importlib
import inspect
import math

from spans import SpanRecorder

# (module the caller looks the name up in, attribute, layer span name).
# ``cli.main`` is called by the benchmark itself; its span is the root.
SPANS = [
    ("grwflash.cli", "main", "cli"),
    ("grwflash.cli", "load_config", "config.load_config"),
    ("grwflash.cli", "run_ensemble", "dynamics.run_ensemble"),
    ("grwflash.cli", "ensemble_vs_master_check", "dynamics.ensemble_vs_master_check"),
    ("grwflash.cli", "gamma_at_separation", "analysis"),
    ("grwflash.cli", "short_distance_rate", "analysis"),
    ("grwflash.cli", "falsifiability_scan", "analysis"),
    ("grwflash.dynamics", "run_ensemble", "dynamics.run_ensemble"),
    ("grwflash.dynamics", "run_trajectory", "dynamics.run_trajectory"),
    ("grwflash.dynamics", "free_step", "dynamics.free_step"),
    ("grwflash.dynamics", "trace_distance_se", "dynamics.trace_distance_se"),
    ("grwflash.dynamics", "flash_kernel_matrices", "dynamics.flash_kernel_matrices"),
    ("grwflash.dynamics", "exact_diagonal_solution", "dynamics.exact_diagonal_solution"),
    ("grwflash.dynamics", "master_evolve", "dynamics.master_evolve"),
    ("grwflash.dynamics", "next_flash", "collapse.next_flash"),
    ("grwflash.dynamics", "sample_flash_position", "collapse.sample_flash_position"),
    ("grwflash.dynamics", "apply_collapse", "collapse.apply_collapse"),
    ("grwflash.dynamics", "phase_profile", "gravity.phase_profile"),
    ("grwflash.dynamics", "apply_gravitational_kick", "gravity.apply_gravitational_kick"),
    ("grwflash.dynamics", "normalize", "state.normalize"),
    ("grwflash.dynamics", "expectation_position", "state.expectation_position"),
    ("grwflash.dynamics", "trace_distance", "state.trace_distance"),
    ("grwflash.state", "pure_density", "state.pure_density"),
    ("grwflash.state", "trace_out", "state.trace_out"),
]

INTEGRAND_SPAN = "analysis.integrand"
QUADRATURE_SPAN = "quadrature.integrate_adaptive"

SPAN_NAMES = sorted({INTEGRAND_SPAN, QUADRATURE_SPAN} | {name for _, _, name in SPANS})

COUNTERS = {
    "dynamics.flashes": "count",
    "dynamics.reduction.bytes_computed": "B",
    "dynamics.flash_kernel_matrices.nodes": "count",
    "dynamics.master_evolve.rhs_evals": "count",
    "dynamics.master_evolve.bytes_computed": "B",
    "quadrature.n_evals": "count",
    "quadrature.n_patches": "count",
    "analysis.kernel_points": "count",
    "analysis.kernel_cache.hit_ratio": "ratio",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
}

METRIC_UNITS = {
    **{f"{name}.calls": "count" for name in SPAN_NAMES},
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    **COUNTERS,
}

_COMPLEX = 16
_REAL = 8
# Per trajectory, _trajectory_batch writes np.outer (16 B), adds it into
# outer_sum (read 2, write 1: 48 B), takes |.| (16 + 8 B), squares it
# (8 + 8 B) and adds that into abs2_sum (16 + 8 B): 128 B per basis pair.
_REDUCE_PER_TRAJ = _COMPLEX + 3 * _COMPLEX + (_COMPLEX + _REAL) + 2 * _REAL + 3 * _REAL
# Per batch, run_ensemble adds outer_sum and abs2_sum into the totals.
_REDUCE_PER_BATCH = 3 * _COMPLEX + 3 * _REAL
# Complex b x b operands per RK4 step as numpy evaluates master_evolve:
# each rhs is q * entries (3); each of the three stage inputs costs a scaled
# copy (2) and a sum (3); the update costs 2k2, 2k3, step/6 * (...) (2 each)
# and four sums (3 each).
_RK4_OPERANDS = 4 * 3 + 3 * (2 + 3) + 3 * 2 + 4 * 3


def _after(fn, on_result):
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result, args, kwargs)
        return result

    return hooked


def bindings(rec: SpanRecorder):
    """``(module, attr, wrapper)`` triples that trace one run into ``rec``."""
    import grwflash.analysis as analysis
    import grwflash.dynamics as dynamics

    def on_ensemble(result, args, kwargs):
        b = result.rho.entries.shape[0]
        rec.count("dynamics.flashes", int(result.flash_counts.sum()))
        rec.count("dynamics.reduction.bytes_computed",
                  b * b * (_REDUCE_PER_TRAJ * result.n_traj
                           + _REDUCE_PER_BATCH * len(result.batch_sizes)))

    master_sig = inspect.signature(dynamics.master_evolve)

    def on_master(result, args, kwargs):
        bound = master_sig.bind(*args, **kwargs)
        total_time = bound.arguments["config"].total_time
        dt = bound.arguments.get("dt")
        if dt is None:
            raise ValueError("the traced master run must pass dt")
        n_steps = max(1, math.ceil(total_time / dt))
        b = result.entries.shape[0]
        rec.count("dynamics.master_evolve.rhs_evals", 4 * n_steps)
        rec.count("dynamics.master_evolve.bytes_computed",
                  _COMPLEX * b * b * _RK4_OPERANDS * n_steps)

    def on_nodes(result, args, kwargs):
        rec.count("dynamics.flash_kernel_matrices.nodes", result[0].shape[0])

    hooks = {"run_ensemble": on_ensemble, "master_evolve": on_master}
    out = []
    for module_name, attr, name in SPANS:
        original = getattr(importlib.import_module(module_name), attr)
        out.append((module_name, attr, rec.wrap(name, original, hooks.get(attr))))
    out.append(("grwflash.dynamics", "flash_quadrature_grid",
                _after(dynamics.flash_quadrature_grid, on_nodes)))

    integrate = analysis.integrate_adaptive

    def traced_integrate(f, *args, **kwargs):
        sid = rec.open(QUADRATURE_SPAN)
        try:
            result = integrate(rec.wrap(INTEGRAND_SPAN, f), *args, **kwargs)
        finally:
            rec.close(sid)
        rec.count("quadrature.n_evals", result.n_evals)
        rec.count("quadrature.n_patches", result.n_patches)
        return result

    kernel_quadrature = analysis._kernel_quadrature

    def counted_kernel_quadrature(*args, **kwargs):
        before = len(analysis._kernel_cache)
        result = kernel_quadrature(*args, **kwargs)
        rec.count("analysis.kernel_points")
        if len(analysis._kernel_cache) == before:
            rec.count("analysis.kernel_cache.hits")
        return result

    out.append(("grwflash.analysis", "integrate_adaptive", traced_integrate))
    out.append(("grwflash.analysis", "_kernel_quadrature", counted_kernel_quadrature))
    return out


def layer_metrics(rec: SpanRecorder, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run, zero where a layer is idle."""
    totals = rec.layer_totals()
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in COUNTERS:
        out[name] = rec.counters.get(name, 0)
    points = rec.counters.get("analysis.kernel_points", 0)
    hits = rec.counters.get("analysis.kernel_cache.hits", 0)
    out["analysis.kernel_cache.hit_ratio"] = hits / points if points else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.coverage"] = sum(totals[n][1] for n in totals) / wall_s
    return out
