"""Acceptance suite: one test per criterion, exact values, budgeted runtimes.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output) and enforces its runtime budget.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache

from conftest import (
    available_to_user,
    canonical_gap_vectors,
    composition_count_max_below,
    delivery_cells,
    exact_rate_special,
    iter_weak_compositions,
    random_canonical_gap_vector,
    rate_closed_form_large_L,
    tilde_icp_bounds,
)
from sicps.bounds import (
    is_acyclic_induced,
    lower_bound_mais_constructive,
    mais_bruteforce,
)
from sicps.cli import main as cli_main
from sicps.coloring import (
    local_chromatic_value,
    theorem1_coloring,
    theorem5_coloring,
    upper_bound_Ru,
    verify_proper,
)
from sicps.icp import GapVector, build_union_icp, rotate_gaps
from sicps.macc import (
    CcdnConfig,
    iter_placement_sets,
    placement_set_count,
    rate_hkd,
    rate_new,
    rate_rk,
    rotation_classes,
)


def delivery_columns(cfg: CcdnConfig, w: int, demands: list[int]) -> list[tuple]:
    """Every delivery column's cells, class by class, as the simulation builds them."""
    return [delivery_cells(cfg, rotate_gaps(rep, t), demands)
            for rep, period in rotation_classes(cfg.K - w * cfg.L - 1, w + 1)
            for t in range(period)]


@contextlib.contextmanager
def criterion(number: int, budget_s: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL          {label}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {number:2d} {verdict} ({elapsed:6.2f}s) {label}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def run_cli_json(capsys, argv) -> tuple[int, dict | list]:
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_eight_user_analysis(capsys):
    with criterion(1, 1.0, "8-user instance analysis"):
        code, payload = run_cli_json(
            capsys, ["icp", "analyze", "--gaps", "2,1,0", "--L", "2", "--format", "json"]
        )
        assert code == 0
        assert payload["K"] == 8
        assert payload["bounds"]["upper"] == 7
        assert payload["bounds"]["lower_constructive"] == 6
        assert payload["coloring"]["proper"] is True
        assert payload["coloring"]["local_chromatic"] == 7


def test_criterion_02_eleven_user_analysis(capsys):
    with criterion(2, 1.0, "11-user instance analysis (K branch)"):
        code, payload = run_cli_json(
            capsys, ["icp", "analyze", "--gaps", "3,2,1", "--L", "2", "--format", "json"]
        )
        assert code == 0
        assert payload["K"] == 11
        assert 2 * (11 - 4) + 1 - 3 == 12 > 11  # the other branch is larger
        assert payload["bounds"]["upper"] == 11
        assert payload["bounds"]["lower_constructive"] == 9


def test_criterion_03_staircase_witness():
    with criterion(3, 1.0, "15-user constructive witness"):
        spec = GapVector((5, 3, 2), 2)
        value, witness = lower_bound_mais_constructive(spec)
        assert value == 13
        assert is_acyclic_induced(build_union_icp(spec), witness)


def test_criterion_04_two_column_exact_rate():
    with criterion(4, 1.0, "two-column exact rate 5 at K=10 and K=15"):
        for L, K in [(6, 10), (11, 15)]:
            spec = GapVector((2, 1), L)
            assert spec.K == K
            assert exact_rate_special(spec) == 5
            icp = build_union_icp(spec)
            coloring = theorem5_coloring(icp)
            assert verify_proper(icp, coloring) == []
            assert local_chromatic_value(icp, coloring) == 5


def test_criterion_05_eight_user_caching_rates():
    with criterion(5, 5.0, "(K=8,L=2,w=2) placement/delivery/rates"):
        cfg = CcdnConfig(8, 8, 2)
        assert len(list(iter_placement_sets(8, 2, 2))) == 20
        assert len(delivery_columns(cfg, 2, list(range(1, 9)))) == 10
        assert [rep for rep, _ in rotation_classes(3, 3)] == [
            (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 1, 1),
        ]
        new = rate_new(8, 2, 2)
        assert new == Fraction(68, 60)
        assert rate_hkd(8, 2, 2) == Fraction(4, 3)
        assert rate_rk(8, 8, 2, Fraction(2 * 8, 8)) == 2
        reference_sr = Fraction(5, 3)
        reference_spe = Fraction(7, 6)
        assert reference_sr > new
        assert reference_spe > new


def test_criterion_06_end_to_end_decode(capsys):
    with criterion(6, 30.0, "end-to-end decode at 68/60"):
        code, payload = run_cli_json(
            capsys,
            ["macc", "simulate", "--N", "8", "--K", "8", "--L", "2", "--w", "2",
             "--demands", "1,2,3,4,5,6,7,8", "--field", "257", "--seed", "2024"],
        )
        assert code == 0
        assert payload["decoded_ok"] is True
        assert Fraction(payload["total_rate"]) == Fraction(68, 60)
        # full-file coverage: every user's missing subfiles all sit in the table
        cfg = CcdnConfig(8, 8, 2)
        columns = delivery_columns(cfg, 2, list(range(1, 9)))
        sets = list(iter_placement_sets(8, 2, 2))
        for user in range(1, 9):
            row = {cells[user - 1][1] for cells in columns}
            accessible = {s for s in sets if available_to_user(8, 2, s, user)}
            assert row | accessible == set(sets)
            assert len(row) + len(accessible) == 20


def test_criterion_07_repeated_pattern_bound():
    with criterion(7, 1.0, "repeated-pattern upper bound 8/3"):
        lower, upper = tilde_icp_bounds((1,), 3, 2)
        assert upper == Fraction(8, 3)
        assert lower <= upper


def test_criterion_08_closed_form_sweep():
    with criterion(8, 30.0, "w=1 closed form, K <= 40, L >= K/2"):
        for K in range(2, 41):
            for L in range(K // 2, K):
                if L < 1 or 2 * L < K - 1:
                    continue
                value = rate_closed_form_large_L(K, L)
                assert value == rate_new(K, L, 1), (K, L)
                assert value <= Fraction(5 * (K - L) * (K - L + 1), 8 * K), (K, L)


def test_criterion_09_rate_dominance_sweep():
    with criterion(9, 60.0, "new rate below both baselines, K <= 20"):
        for K in range(1, 21):
            for L in range(1, K + 1):
                for w in range(1, K // L + 1):
                    new = rate_new(K, L, w)
                    assert new <= rate_hkd(K, L, w), (K, L, w)
                    memory = Fraction(w * K, K)
                    assert new <= rate_rk(K, K, L, memory), (K, L, w)


def test_criterion_10_random_instance_properties():
    with criterion(10, 60.0, "500 random instances: ratio <= 2, proper, value <= bound"):
        import random

        rng = random.Random(20240809)
        for _ in range(500):
            spec = random_canonical_gap_vector(rng, max_K=30)
            lower = spec.K - (spec.i - 1) * spec.L + spec.i - 1
            ru = upper_bound_Ru(spec)
            assert Fraction(ru, lower) <= 2, spec
            icp = build_union_icp(spec)
            coloring = theorem1_coloring(icp)
            assert verify_proper(icp, coloring) == [], spec
            assert local_chromatic_value(icp, coloring) <= ru, spec


def test_criterion_11_counting_identities():
    with criterion(11, 60.0, "placement/composition counting identities"):
        # placement family size vs direct enumeration, all K <= 24
        for K in range(1, 25):
            for L in range(1, K + 1):
                for w in range(1, K // L + 1):
                    enumerated = sum(1 for _ in iter_placement_sets(K, L, w))
                    assert enumerated == placement_set_count(K, L, w), (K, L, w)

        # composition family size: direct recurrence vs closed form
        sys.setrecursionlimit(10000)

        @lru_cache(maxsize=None)
        def count_by_recursion(n: int, m: int) -> int:
            if m == 1:
                return 1
            return sum(count_by_recursion(n - first, m - 1) for first in range(n + 1))

        for K in range(1, 25):
            for L in range(1, K + 1):
                for w in range(1, K // L + 1):
                    n = K - w * L - 1
                    if n < 0:
                        continue
                    assert count_by_recursion(n, w + 1) == math.comb(n + w, w)
        # and the generator itself on a materializable subgrid
        for n in range(0, 9):
            for m in range(1, 7):
                assert len(list(iter_weak_compositions(n, m))) == math.comb(n + m - 1, m - 1)

        # bounded-maximum counts: inclusion-exclusion vs brute recursion
        @lru_cache(maxsize=None)
        def bounded_count(n: int, m: int, t: int) -> int:
            if n < 0:
                return 0
            if m == 1:
                return 1 if n < t else 0
            return sum(
                bounded_count(n - first, m - 1, t)
                for first in range(min(n, t - 1) + 1)
            )

        for n in range(0, 13):
            for m in range(1, 13):
                for t in range(1, n + 2):
                    assert composition_count_max_below(n, m, t) == bounded_count(n, m, t)


def test_criterion_12_brute_force_consistency():
    with criterion(12, 300.0, "exact oracle vs constructive bound, <= 26 nodes"):
        for spec in canonical_gap_vectors(26):
            lower, witness = lower_bound_mais_constructive(spec)
            graph = build_union_icp(spec)
            assert is_acyclic_induced(graph, witness), spec
            # the staircase is the exact MAIS on every instance checked, not
            # only on the families the paper solves exactly
            assert mais_bruteforce(graph) == lower, spec


def test_criterion_13_figure_shape_properties():
    with criterion(13, 60.0, "rate monotone over the figure grids"):
        # rate vs access degree at fixed (K, w)
        for K, w, max_L in [(40, 4, 10), (100, 2, 50)]:
            values = [rate_new(K, L, w) for L in range(1, max_L + 1)]
            assert all(a >= b for a, b in zip(values, values[1:])), (K, w)
        # rate vs memory at fixed (K, L)
        for K, L in [(40, 4), (50, 10)]:
            values = [rate_new(K, L, w) for w in range(1, K // L + 1)]
            assert all(a >= b for a, b in zip(values, values[1:])), (K, L)
        # rate vs user count at fixed (L, w)
        for L, w, Ks in [(2, 4, range(8, 41)), (10, 2, range(20, 61))]:
            values = [rate_new(K, L, w) for K in Ks]
            assert all(a <= b for a, b in zip(values, values[1:])), (L, w)
