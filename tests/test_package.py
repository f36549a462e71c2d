"""Package surface: each module's exports are its own, and the benchmark's stages exist."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import sicps

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_exported_name_is_defined_in_its_module():
    checked = []
    for info in pkgutil.iter_modules(sicps.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"sicps.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)
        checked.append(info.name)
    assert sorted(checked) == ["bounds", "coloring", "field", "icp", "macc", "scheme"]


def _defines(dotted: str) -> bool:
    """Whether `module.name` or `module.Class.name` is a function defined in `sicps.module`."""
    short, *path = dotted.split(".")
    module = importlib.import_module(f"sicps.{short}")
    owner = module
    for name in path:
        owner = getattr(owner, "__dict__", {}).get(name)
    return inspect.isfunction(owner) and owner.__module__ == module.__name__


def test_every_benchmark_stage_resolves_to_a_library_function():
    # The benchmark's tracer reports a stage with no function left as absent
    # (read as 0); a deletion or move in the library should fail here first.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [stage for stage, names in tracer.STAGES.items()
               if not any(_defines(name) for name in names)]
    assert missing == []
