"""Benchmark of the sicps CLI: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Runs the workload's ops in-process through `sicps.cli.main`, in one thread,
in repeated passes until the passes add up to `--seconds`, and checks every
output.  Times are seconds at a reference CPU speed (see speed.py); the
readable lines also give the wall-clock run_s.  With `--trace 0` it reports
the end-to-end metrics; with `--trace 1` it splits the time between
untraced and traced passes and reports the per-layer metrics.  The last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it repeat the metrics for a reader.  Exit code 0 means
every op passed its check (and, traced, the self times covered run_s).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedMeter
from tracer import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup_s is the median of this many fresh interpreters, started between ops
# at even intervals so that they sample the whole run as the ops do.
SETUP_SAMPLES = 21
# Traced self times must add up to the traced run_s within this share.
TRACE_TOLERANCE = 0.05
# Time from a fresh interpreter to sicps.cli imported and its parser built,
# read off the monotonic clock the parent shares with the child.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import sicps.cli; "
              "sicps.cli.build_parser(); print(time.perf_counter())")


def load_cli():
    """Import sicps.cli from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import sicps.cli
    if not Path(sicps.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sicps imported from {sicps.cli.__file__}, not {SRC}")
    return sicps.cli


def setup_sample(meter: SpeedMeter) -> float:
    """One fresh interpreter's time to import sicps.cli and build the parser."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    end = float(done.stdout)
    return (end - start) * meter.scale(start, end)


class SetupSampler:
    """Takes SETUP_SAMPLES setup samples spread evenly over `seconds`."""

    def __init__(self, meter: SpeedMeter, seconds: float) -> None:
        self.meter = meter
        self.every = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        setup_sample(meter)  # compiles the bytecode the later interpreters load
        self.due = time.perf_counter()

    def after_op(self) -> None:
        while len(self.samples) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self.samples.append(setup_sample(self.meter))
            self.due += self.every

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(setup_sample(self.meter))
        return statistics.median(self.samples)


def run_op(main, op: workloads.Op, meter: SpeedMeter):
    """(reference seconds, wall seconds, (exit code, stdout), failure or None) of one op."""
    out, err = io.StringIO(), io.StringIO()
    probing = meter.handler_s
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(op.argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            finally:
                end = time.perf_counter()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, failure = "raised", f"raised {exc!r}"
    else:
        failure = None
    wall = end - start
    seconds = (wall - (meter.handler_s - probing)) * meter.scale(start, end)
    outcome = (code, out.getvalue())
    if failure is None:
        try:
            op.check(*outcome, op.expect)
        except (workloads.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
    return seconds, wall, outcome, failure


class Passes:
    """Op timings and outcomes of repeated passes over one op list."""

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self.pass_s: list[float] = []  # reference seconds
        self.wall_s: list[float] = []  # wall seconds, probe time included
        self.op_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, main, ops, seconds: float, reference: list,
            tracer: Tracer | None = None, after_op=None):
        """Pass over `ops` until the passes add up to `seconds` of wall time (at least once).

        The first outcome of each op becomes its reference; any later outcome,
        traced or not, must be identical.  `after_op` runs after each op,
        outside the measured time.
        """
        while True:
            total = wall = 0.0
            for index, op in enumerate(ops):
                op_s, op_wall, outcome, failure = run_op(main, op, self.meter)
                if tracer is not None:
                    tracer.end_op()
                if index == len(reference):
                    reference.append(outcome)
                elif failure is None and outcome != reference[index]:
                    failure = "output differs from an earlier pass"
                self.attempted += 1
                if failure is not None:
                    self.failures.append(f"{' '.join(op.argv)}: {failure}")
                self.op_s.append(op_s)
                total += op_s
                wall += op_wall
                if after_op is not None:
                    after_op()
            self.pass_s.append(total)
            self.wall_s.append(wall)
            if sum(self.wall_s) >= seconds:
                return self

    @property
    def run_s(self) -> float:
        return statistics.median(self.pass_s)


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(untraced: Passes, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (untraced.run_s, "s"),
        "op_p50_s": (percentile(untraced.op_s, 50), "s"),
        "op_p90_s": (percentile(untraced.op_s, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced: Passes, untraced: Passes) -> tuple[dict, list[str]]:
    """Per-pass layer metrics (means over the traced passes) and the absent stages.

    Span times are wall seconds; they are brought to reference seconds with
    the traced passes' overall ratio of the two.
    """
    passes = len(traced.pass_s)
    wall = sum(traced.wall_s)
    to_ref = sum(traced.pass_s) / wall / passes
    absent = []
    metrics = {}

    def stage(name: str, time_metric: str | None, calls_metric: str | None = None) -> None:
        found = tracer.stage(name)
        if found is None:
            absent.append(name)
            found = (0.0, 0)
        if time_metric:
            metrics[time_metric] = (found[0] * to_ref, "s")
        if calls_metric:
            metrics[calls_metric] = (found[1] / passes, "count")

    def count(name: str) -> float:
        return tracer.counts.get(name, 0) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    self_s = tracer.module_self_s()
    for module in MODULES:
        metrics[f"{module}.self_s"] = (self_s[module] * to_ref, "s")
    stage("field.solve", "field.solve_s", "field.solve_calls")
    metrics["field.solve_ops"] = (count("field.solve_ops"), "count")
    stage("scheme.build", "scheme.build_s")
    stage("scheme.transmit", "scheme.transmit_s")
    stage("scheme.decode", "scheme.decode_s", "scheme.decode_calls")
    rows, needed = count("scheme.rows"), count("scheme.rows_needed")
    metrics["scheme.rows"] = (rows, "count")
    metrics["scheme.rows_needed"] = (needed, "count")
    metrics["scheme.row_excess"] = (ratio(rows - needed, rows), "ratio")
    stage("coloring.verify", "coloring.verify_s", "coloring.verify_calls")
    metrics["coloring.verify_per_graph"] = (
        ratio(metrics["coloring.verify_calls"][0], count("coloring.graphs")), "ratio")
    stage("coloring.lcv", "coloring.lcv_s")
    stage("icp.union", "icp.union_s")
    stage("icp.union_builds", None, "icp.union_builds")
    metrics["icp.nodes"] = (count("icp.nodes"), "count")
    metrics["icp.union_reuse"] = (
        ratio(count("icp.distinct_specs"), metrics["icp.union_builds"][0]), "ratio")
    stage("bounds.oracle", "bounds.oracle_s", "bounds.oracle_calls")
    metrics["bounds.oracle_nodes"] = (count("bounds.oracle_nodes"), "count")
    stage("bounds.acyclic", None, "bounds.acyclic_checks")
    stage("macc.placement", "macc.placement_s")
    stage("macc.delivery", "macc.delivery_s")
    stage("macc.classes", "macc.classes_s")
    metrics["macc.placement_sets"] = (count("macc.placement_sets"), "count")
    metrics["macc.columns"] = (count("macc.columns"), "count")
    metrics["macc.classes"] = (count("macc.classes"), "count")
    stage("macc.rate", "macc.rate_s", "macc.rate_calls")
    stage("cli.main", None, "cli.calls")
    metrics["trace.overhead_s"] = (traced.run_s - untraced.run_s, "s")
    metrics["trace.coverage"] = (sum(self_s.values()) / wall, "ratio")
    return metrics, absent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs of each workload, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    reference: list = []
    notes = [f"workload: {args.workload}", f"seed: {args.seed}", f"ops per pass: {len(ops)}"]
    with SpeedMeter() as meter:
        if args.trace:
            untraced = Passes(meter).run(cli.main, ops, args.seconds / 2, reference)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Passes(meter).run(cli.main, ops, args.seconds / 2, reference, tracer)
            finally:
                tracer.uninstall()
            metrics, absent = per_layer(tracer, traced, untraced)
            runs = (untraced, traced)
            coverage = metrics["trace.coverage"][0]
            notes.append(f"passes: {len(untraced.pass_s)} untraced, {len(traced.pass_s)} traced")
            notes.append(f"absent (function not found, reported as 0): "
                         f"{', '.join(absent) or 'none'}")
            notes.append(f"coverage check: |{coverage:.4f} - 1| <= {TRACE_TOLERANCE}")
            coverage_ok = abs(coverage - 1) <= TRACE_TOLERANCE
        else:
            setup = SetupSampler(meter, args.seconds)
            untraced = Passes(meter).run(cli.main, ops, args.seconds, reference,
                                         after_op=setup.after_op)
            metrics = end_to_end(untraced, setup.median())
            runs = (untraced,)
            notes.append(f"passes: {len(untraced.pass_s)}; op time samples: "
                         f"{len(untraced.op_s)}; setup samples: {SETUP_SAMPLES}")
            coverage_ok = True
    notes.append(f"wall-clock run_s (median pass, probes included): "
                 f"{statistics.median(untraced.wall_s):.6g} s")

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    notes.append(f"error_rate: {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for line in notes + [f"FAIL {f}" for f in failures[:20]]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    correct = not failures and coverage_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
