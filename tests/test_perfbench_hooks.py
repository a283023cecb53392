"""The benchmark's tracing hooks still find the functions they rebind.

``perfbench/layers.py`` rebinds grwflash functions by (module, attribute)
name and reads fields of their results, so renaming or moving one, or
changing what a result holds, breaks traced benchmark runs without
failing any other test.  Its ``SPANS`` table is read as a literal here;
perfbench itself is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from grwflash.dynamics import EvolutionConfig, flash_quadrature_grid, run_ensemble
from grwflash.state import GridSpec, make_gaussian_packet
from grwflash.units import dimensionless_params

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _spans():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {LAYERS.name}")


def test_every_span_target_resolves():
    spans = _spans()
    assert spans
    for module, attr, _layer in spans:
        assert callable(getattr(importlib.import_module(module), attr)), (
            module, attr)


def test_hooked_helpers_resolve():
    for module, attr in [
        ("grwflash.dynamics", "flash_quadrature_grid"),
        ("grwflash.analysis", "integrate_adaptive"),
        ("grwflash.analysis", "_kernel_quadrature"),
    ]:
        assert callable(getattr(importlib.import_module(module), attr)), (
            module, attr)
    # the kernel-point counter compares the cache size around each call
    assert hasattr(importlib.import_module("grwflash.analysis"), "_kernel_cache")


def test_master_evolve_hook_reads_config_and_dt():
    dynamics = importlib.import_module("grwflash.dynamics")
    params = inspect.signature(dynamics.master_evolve).parameters
    assert "config" in params and "dt" in params


def test_hooks_read_what_the_results_hold():
    # on_nodes counts flash_quadrature_grid(...)[0].shape[0] flash nodes
    params = dimensionless_params(lam=1.0, r_G=0.1)
    grid = GridSpec.centered(1, 8, 0.5)
    nodes, weight = flash_quadrature_grid(grid, params, 0.25)
    assert nodes.shape == (64, 1)       # step softening/4: 8 nodes per cell
    assert nodes.shape[0] * weight == grid.extent
    # on_ensemble reads result.rho.entries, flash_counts, n_traj and
    # batch_sizes, and multiplies their sizes into a byte count
    grid = GridSpec.centered(1, 24, 0.5)
    psi0 = make_gaussian_packet(grid, 1, [[0.0]], [1.0])
    config = EvolutionConfig(total_time=1.0)
    result = run_ensemble(psi0, params, config, 6, master_seed=1, batch_size=4)
    assert result.rho.entries.shape == (24, 24)
    assert result.flash_counts.shape == (6,)
    assert np.issubdtype(result.flash_counts.dtype, np.integer)
    assert int(result.flash_counts.sum()) > 0
    assert result.n_traj == 6 and isinstance(result.n_traj, int)
    assert result.batch_sizes.tolist() == [4, 2]
