"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import run
import speed
import workloads
from speed import SpeedMeter
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
cli = run.load_cli()


def _run_command(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    done = _run_command("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_command("--workload", "analyze", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_same_seed_same_inputs_and_seed_reaches_inputs():
    for workload in workloads.WORKLOADS:
        assert ([op.argv for op in workloads.build(workload, 5)]
                == [op.argv for op in workloads.build(workload, 5)])
    for workload in ("simulate", "decode"):
        assert ([op.argv for op in workloads.build(workload, 5)]
                != [op.argv for op in workloads.build(workload, 6)])


def test_reference_rate_matches_the_68_60_point():
    assert workloads.reference_rate_new(8, 2, 2) == Fraction(68, 60)
    assert workloads.reference_rate_new(8, 2, 4) == 0


@pytest.mark.parametrize("workload, key, wrong", [
    ("simulate", "total_rate", Fraction(1)),
    ("decode", "trials", 99),
    ("analyze", "K", 0),
    ("tradeoff", "K", 1),
])
def test_wrong_expected_value_counts_as_error(workload, key, wrong):
    ops = workloads.build(workload, 1, tiny=True)
    ops[0].expect[key] = wrong
    with SpeedMeter() as meter:
        passes = run.Passes(meter).run(cli.main, ops, 0, [])
    assert len(passes.failures) == 1 and passes.attempted == len(ops)


def test_traced_and_untraced_outcomes_identical():
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 2, tiny=True)
        untraced, traced = [], []
        tracer = Tracer()
        with SpeedMeter() as meter:
            run.Passes(meter).run(cli.main, ops, 0, untraced)
            tracer.install()
            try:
                passes = run.Passes(meter).run(cli.main, ops, 0, traced, tracer)
            finally:
                tracer.uninstall()
        assert not passes.failures
        assert traced == untraced


def test_tracer_wraps_every_import_site_and_restores_it():
    import sicps.macc
    import sicps.scheme

    original = sicps.scheme.build_mds_scheme
    tracer = Tracer()
    tracer.install()
    try:
        assert sicps.macc.build_mds_scheme is sicps.scheme.build_mds_scheme
        assert sicps.scheme.build_mds_scheme is not original
        assert "icp.wrap" not in tracer.traced
    finally:
        tracer.uninstall()
    assert sicps.macc.build_mds_scheme is original is sicps.scheme.build_mds_scheme


def test_missing_function_is_reported_absent(monkeypatch):
    import sicps.field

    monkeypatch.delattr(sicps.field, "solve_mod")
    ops = workloads.build("decode", 1, tiny=True)
    tracer = Tracer()
    with SpeedMeter() as meter:
        untraced = run.Passes(meter).run(cli.main, ops, 0, [])
        tracer.install()
        try:
            traced = run.Passes(meter).run(cli.main, ops, 0, [], tracer)
        finally:
            tracer.uninstall()
    metrics, absent = run.per_layer(tracer, traced, untraced)
    assert absent == ["field.solve"]
    assert metrics["field.solve_s"][0] == 0 and metrics["scheme.decode_calls"][0] > 0
    assert abs(metrics["trace.coverage"][0] - 1) <= run.TRACE_TOLERANCE


def test_speed_meter_scales_by_probe_time():
    with SpeedMeter() as meter:
        time.sleep(0.1)
    assert len(meter.probe_s) >= 3 and meter.handler_s > 0
    scale = meter.scale(meter.times[0], meter.times[-1])
    assert scale == pytest.approx(
        speed.PROBE_REF_S * len(meter.probe_s) / sum(meter.probe_s))
    # a window without samples falls back to the last one before it
    late = meter.times[-1] + 10
    assert meter.scale(late, late) == speed.PROBE_REF_S / meter.probe_s[-1]
