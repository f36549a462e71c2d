"""Package surface: each module's exports are its own, and the benchmark's stages exist."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import io
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import sicps
import sicps.cli
from sicps.bounds import BoundReport
from sicps.coloring import Coloring, theorem1_coloring
from sicps.icp import GapVector, SuicpGraph, UnionIcp, build_union_icp
from sicps.macc import CcdnConfig, ClassReport, PlacementPlan, RatePoint, SimulationReport
from sicps.scheme import MdsCode, TransmissionScheme

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_startup_loads_neither_dataclasses_nor_inspect():
    # Each CLI command starts a fresh interpreter, and these two modules cost
    # several milliseconds to import; `sicps.field` holds only the tests'
    # reference solve.  -S keeps site's .pth files, which may import anything,
    # out of the check.
    unwanted = "{'dataclasses', 'inspect', 'sicps.field'}"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sicps.cli; "
            f"sicps.cli.build_parser(); print(sorted({unwanted} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


UNION = build_union_icp(GapVector((2, 1, 0), 2))
CODE = MdsCode(UNION.K)  # a code equals only itself, so equal schemes share one
# Per record type: a builder called twice with equal inputs, by keyword, a
# field, and whether the record is hashable.
RECORDS = {
    "GapVector": (lambda: GapVector(gaps=(2, 1, 0), L=2), "L", True),
    "SuicpGraph": (lambda: SuicpGraph(K=2, num_columns=1, user_side=(2, 1)), "K", True),
    "UnionIcp": (lambda: UnionIcp(K=UNION.K, num_columns=UNION.num_columns,
                                  user_side=UNION.user_side, spec=UNION.spec), "spec", True),
    "Coloring": (lambda: Coloring(assignment={(1, 1): 2, (2, 1): 1}, num_colors=2),
                 "num_colors", False),
    "BoundReport": (lambda: BoundReport(
        upper=9, lower_constructive=6, lower_brute=7, exact=Fraction(7),
        witness=frozenset({(1, 1)}), colors=9, local_chromatic=7, local_chromatic_t5=None),
        "upper", True),
    "TransmissionScheme": (lambda: TransmissionScheme(
        graph=UNION, coloring=theorem1_coloring(UNION), code=CODE), "chi", False),
    "CcdnConfig": (lambda: CcdnConfig(N=8, K=8, L=2), "N", True),
    "PlacementPlan": (lambda: PlacementPlan(sets=((1, 3), (2, 4))), "sets", True),
    "RatePoint": (lambda: RatePoint(M=Fraction(1, 2), rate=Fraction(3), source="NEW"),
                  "rate", True),
    "ClassReport": (lambda: ClassReport(representative=(2, 1, 0), columns=3, split=1, chi=7,
                                        field=11), "chi", True),
    "SimulationReport": (lambda: SimulationReport(
        decoded_ok=True, total_rate=Fraction(7, 8), classes=(RECORDS["ClassReport"][0](),),
        failures=({"user": 1},)), "decoded_ok", False),
}


@pytest.mark.parametrize("build, field, hashable", RECORDS.values(), ids=RECORDS)
def test_records_are_frozen_values(build, field, hashable):
    a, b = build(), build()
    assert a == b and a is not b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


def test_records_keep_their_types_and_inputs():
    plain = SuicpGraph(UNION.K, UNION.num_columns, UNION.user_side)
    assert UNION != plain and plain != UNION
    assert GapVector([2, "1", 0], 2).gaps == (2, 1, 0)
