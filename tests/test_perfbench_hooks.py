"""The benchmark's tracing hooks still find the functions they rebind.

``perfbench/layers.py`` rebinds grwflash functions by (module, attribute)
name, so renaming or moving one breaks traced benchmark runs without
failing any other test.  Its ``SPANS`` table is read as a literal here;
perfbench itself is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
