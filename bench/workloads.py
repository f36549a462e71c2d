"""The benchmark's workloads: CLI op lists generated from a seed, with output checks.

Each op is one `sicps` command line plus a check of its exit code and output
against values the benchmark works out on its own.  A check raises
CheckFailed; the runner counts that op as failed.  The seed only ever
reaches the program through the generated arguments.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# (K, L, w) rungs.  (20, 2, 4) takes ~44 s a pass, too long to repeat.
SIMULATE_LADDER = ((8, 2, 2), (12, 2, 3), (13, 3, 2), (12, 1, 3), (16, 2, 3))
SIMULATE_TINY = ((8, 2, 2),)
# 190 virtual nodes, chi 37 under the bound Ru = 38.
DECODE_GAPS, DECODE_L, DECODE_TRIALS = (9, 7, 5, 3, 1), 3, 2
DECODE_TINY = ((2, 1, 0), 2, 2)
# Union graphs up to the default brute-force cap of 26 nodes.
ANALYZE_NODES, ANALYZE_TINY = (20, 26), (8, 10)
TRADEOFF_N, TRADEOFF_SAMPLES = 100, 100
TRADEOFF_KL = ((1000, 10), (600, 3), (2000, 50))
TRADEOFF_TINY = ((40, 4),)
TRADEOFF_TINY_SAMPLES = 20

WORKLOADS = ("simulate", "decode", "analyze", "tradeoff")


class CheckFailed(Exception):
    """An op's exit code or output differs from what the benchmark expects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str, dict], None]  # (exit code, stdout, expect)
    expect: dict = field(default_factory=dict)


# -- references computed independently of sicps ------------------------------

def weak_compositions(n: int, m: int):
    """Every m-tuple of non-negative integers summing to n (stars and bars)."""
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1,) + bars + (n + m - 1,)
        yield tuple(edges[j + 1] - edges[j] - 1 for j in range(m))


def reference_rate_new(K: int, L: int, w: int) -> Fraction:
    """Rate at memory wN/K by direct enumeration of the delivery columns.

    Each weak (w+1)-composition c of K-wL-1 labels one delivery column.  The
    rotation union of its gap instance, sent in min(2(K-wL)+w-1-max(c), K)
    rows, serves w+1 columns at once, and a row carries one subfile of size
    1/((K/w)C(K-wL+w-1, w-1)).
    """
    if w * L == K:
        return Fraction(0)
    cap = 2 * (K - w * L) + w - 1
    rows = sum(min(cap - max(c), K) for c in weak_compositions(K - w * L - 1, w + 1))
    subfiles = Fraction(K * math.comb(K - w * L + w - 1, w - 1), w)
    return rows / (subfiles * (w + 1))


def canonical_gap_vectors(min_nodes: int, max_nodes: int):
    """(gaps, L) with i >= 2 columns, maximal leading rotation, i*K nodes in range."""
    for i in range(2, max_nodes + 1):
        for L in range(1, max_nodes + 1):
            for total in range(max_nodes + 1):
                K = (i - 1) * L + total + 1
                if not min_nodes <= i * K <= max_nodes:
                    continue
                for gaps in itertools.product(range(total + 1), repeat=i):
                    if sum(gaps) == total and all(
                        gaps >= gaps[s:] + gaps[:s] for s in range(1, i)
                    ):
                        yield gaps, L


# -- output parsing and checks -------------------------------------------------

def _text_fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        _require(bool(sep), f"unparsable output line {line!r}")
        out[key] = value
    return out


def check_simulate(code: int, stdout: str, expect: dict) -> None:
    _require(code == 0, f"exit code {code}")
    report = json.loads(stdout)
    _require(report["decoded_ok"] is True, "decoded_ok is not true")
    _require(report["failures"] == [], f"{len(report['failures'])} decode failures")
    _require(len(report["classes"]) > 0, "no rotation classes")
    rate = Fraction(report["total_rate"])
    _require(rate <= expect["rate_new"], f"total_rate {rate} above rate_new {expect['rate_new']}")
    if "total_rate" in expect:
        _require(rate == expect["total_rate"], f"total_rate {rate} != {expect['total_rate']}")


def check_decode(code: int, stdout: str, expect: dict) -> None:
    _require(code == 0, f"exit code {code}")
    if stdout.lstrip().startswith("{"):
        report = json.loads(stdout)
        failures, trials, chi = report["failures"], report["trials"], report["scheme"]["chi"]
    else:
        fields = _text_fields(stdout)
        failures, trials, chi = int(fields["failures"]), int(fields["trials"]), int(fields["chi"])
    _require(failures == 0, f"failures: {failures}")
    _require(trials == expect["trials"], f"trials {trials} != {expect['trials']}")
    _require(chi <= expect["upper"], f"chi {chi} above Ru {expect['upper']}")


def check_analyze(code: int, stdout: str, expect: dict) -> None:
    _require(code == 0, f"exit code {code}")
    if stdout.lstrip().startswith("{"):
        report = json.loads(stdout)
        bounds = report["bounds"]
        K, upper, lower, brute = (report["K"], bounds["upper"],
                                  bounds["lower_constructive"], bounds["lower_brute"])
        proper = report["coloring"]["proper"]
    else:
        fields = _text_fields(stdout)
        K, upper, lower = int(fields["K"]), int(fields["upper_Ru"]), int(fields["lower_constructive"])
        brute = None if fields["lower_brute"] == "skipped" else int(fields["lower_brute"])
        proper = fields["coloring_proper"] == "true"
    _require(K == expect["K"], f"K {K} != {expect['K']}")
    _require(upper == expect["upper"], f"upper_Ru {upper} != {expect['upper']}")
    _require(lower == expect["lower"], f"lower_constructive {lower} != {expect['lower']}")
    _require(brute is not None, "brute-force bound skipped under the node cap")
    _require(lower <= brute <= upper, f"bounds out of order: {lower} <= {brute} <= {upper}")
    _require(proper, "coloring is not proper")


def check_tradeoff(code: int, stdout: str, expect: dict) -> None:
    _require(code == 0, f"exit code {code}")
    if stdout.lstrip().startswith("["):
        points = [(Fraction(p["M_exact"]), Fraction(p["rate_exact"])) for p in json.loads(stdout)]
    else:
        lines = stdout.splitlines()
        _require(lines[0] == "M_exact,M_decimal,rate_exact,rate_decimal,source", "bad CSV header")
        points = [(Fraction(row[0]), Fraction(row[2])) for row in
                  (line.split(",") for line in lines[1:])]
    _require(len(points) >= expect["samples"], f"{len(points)} points for {expect['samples']} samples")
    _require(points[0] == (0, expect["K"]), f"first point {points[0]} is not (0, {expect['K']})")
    for (m0, r0), (m1, r1) in itertools.pairwise(points):
        _require(m0 < m1, f"memory not increasing at M={m1}")
        _require(r1 <= r0, f"rate rises from {r0} to {r1} at M={m1}")


# -- op lists ------------------------------------------------------------------

def _upper_ru(gaps: tuple[int, ...], L: int) -> int:
    i = len(gaps)
    K = (i - 1) * L + sum(gaps) + 1
    return min(2 * (K - (i - 1) * L) + i - 2 - max(gaps), K)


def simulate_ops(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"simulate:{seed}")
    ops = []
    for K, L, w in SIMULATE_TINY if tiny else SIMULATE_LADDER:
        demands = ",".join(str(rng.randint(1, K)) for _ in range(K))
        argv = ["macc", "simulate", "--K", str(K), "--L", str(L), "--w", str(w),
                "--demands", demands, "--seed", str(rng.randrange(2**31))]
        expect = {"rate_new": reference_rate_new(K, L, w)}
        if (K, L, w) == (8, 2, 2):
            expect["total_rate"] = Fraction(68, 60)
        ops.append(Op(argv, check_simulate, expect))
    return ops


def decode_ops(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"decode:{seed}")
    gaps, L, trials = DECODE_TINY if tiny else (DECODE_GAPS, DECODE_L, DECODE_TRIALS)
    return [
        Op(["icp", "decode-test", "--gaps", ",".join(map(str, gaps)), "--L", str(L),
            "--trials", str(trials), "--seed", str(rng.randrange(2**31)), "--format", fmt],
           check_decode, {"trials": trials, "upper": _upper_ru(gaps, L)})
        for fmt in ("text", "json")
    ]


def analyze_ops(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"analyze:{seed}")
    ops = []
    for gaps, L in canonical_gap_vectors(*(ANALYZE_TINY if tiny else ANALYZE_NODES)):
        i = len(gaps)
        K = (i - 1) * L + sum(gaps) + 1
        argv = ["icp", "analyze", "--gaps", ",".join(map(str, gaps)), "--L", str(L),
                "--format", rng.choice(("text", "json"))]
        expect = {"K": K, "upper": _upper_ru(gaps, L), "lower": K - (i - 1) * L + i - 1}
        ops.append(Op(argv, check_analyze, expect))
    rng.shuffle(ops)
    return ops


def tradeoff_ops(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"tradeoff:{seed}")
    samples = TRADEOFF_TINY_SAMPLES if tiny else TRADEOFF_SAMPLES
    ops = [
        Op(["macc", "tradeoff", "--N", str(TRADEOFF_N), "--K", str(K), "--L", str(L),
            "--samples", str(samples), "--format", fmt],
           check_tradeoff, {"K": K, "samples": samples})
        for K, L in (TRADEOFF_TINY if tiny else TRADEOFF_KL)
        for fmt in ("csv", "json")
    ]
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    builders = {"simulate": simulate_ops, "decode": decode_ops,
                "analyze": analyze_ops, "tradeoff": tradeoff_ops}
    return builders[workload](seed, tiny)
