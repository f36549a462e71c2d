"""Package surface: each module's exports are its own, and the benchmark's stages exist."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import io
import pkgutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import sicps
import sicps.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def _load_bench(name: str):
    """Import bench/<name>.py under a private module name."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_stage_resolves_to_a_library_function():
    # The benchmark's tracer reports a stage with no function left as absent
    # (read as 0); a deletion or move in the library should fail here first.
    bench_tracer, workloads = _load_bench("tracer"), _load_bench("workloads")
    missing = [stage for stage, names in bench_tracer.STAGES.items()
               if not any(_defines(name) for name in names)]
    assert missing == []

    # The tracer's hooks read the results of the functions they wrap, so a
    # change to one of those return shapes fails here too: one tiny op per
    # workload runs under the tracer.
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            op = workloads.build(workload, seed=1, tiny=True)[0]
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                code = sicps.cli.main(op.argv)
            op.check(code, out.getvalue(), op.expect)
        # The simulation only counts the placement sets, so no op builds them.
        sicps.macc.placement_map(sicps.macc.CcdnConfig(8, 8, 2), 2)
    finally:
        tracer.uninstall()
    hooked = set(tracer._hooks) - {"field.solve_mod"}  # the tests' reference solve only
    assert sorted(key for key in hooked if not tracer.calls.get(key)) == []
