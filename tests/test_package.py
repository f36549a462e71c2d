"""Package surface: each module's exports are its own."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import sicps


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
