"""The names perfbench/tracing.py wraps must exist in the package.

The benchmark's tracer replaces functions by module attribute; a refactor
that drops or renames one of them fails here instead of in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    for targets in wrapped.values():
        for target in targets:
            module_name, attr = target.split(".")
            module = importlib.import_module("carpetdim." + module_name)
            assert callable(getattr(module, attr)), target


def test_box_estimate_keeps_its_cache_counters():
    from carpetdim import geometry

    info = geometry.box_dimension_estimate.cache_info()
    assert info.hits >= 0 and info.misses >= 0
