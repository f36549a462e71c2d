"""Placement, compositions, rates, delivery decomposition, and simulation."""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    available_to_user,
    brute_placement_sets,
    composition_count_max_below,
    interpolate_rate,
    iter_weak_compositions,
    minimal_period,
    missing_sets,
    naive_local_chromatic,
    rate_closed_form_large_L,
    reference_delivery_table,
    reference_rotation_classes,
    reference_tradeoff_curve,
    side_nodes,
    simulated_rate,
    single_known_files,
    user_caches,
)
import sicps.macc as macc
from sicps.cli import tradeoff_csv
from sicps.coloring import theorem1_coloring
from sicps.icp import GapVector, build_union_icp, canonical_rotation, rotate_gaps, wrap
from sicps.macc import (
    MAX_RATE_BIT_OPS,
    CcdnConfig,
    RatePoint,
    build_delivery_icp,
    delivery_cells,
    end_to_end_simulate,
    group_rotation_classes,
    iter_placement_sets,
    placement_map,
    placement_set_count,
    rate_hkd,
    rate_new,
    rate_new_cost,
    rate_rk,
    rotation_classes,
    tradeoff_curve,
)
from sicps.scheme import MdsCode, is_prime, simulate_decode

EXAMPLE_SETS = [
    (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
    (3, 5), (3, 6), (3, 7), (3, 8),
    (4, 6), (4, 7), (4, 8),
    (5, 7), (5, 8),
    (6, 8),
]


def test_placement_sets_eight_user_example():
    sets = list(iter_placement_sets(8, 2, 2))
    assert sets == sorted(EXAMPLE_SETS)
    assert len(sets) == placement_set_count(8, 2, 2) == 20


def test_placement_sets_singletons():
    assert list(iter_placement_sets(9, 3, 1)) == [(a,) for a in range(1, 10)]


def test_placement_sets_match_brute_filter():
    # Same sets in the same (lex) order as filtering every w-subset.
    for K in range(1, 13):
        for L in range(1, K + 1):
            for w in range(1, K // L + 1):
                assert list(iter_placement_sets(K, L, w)) == brute_placement_sets(K, L, w)
    assert len(list(iter_placement_sets(10, 2, 3))) == 50


def test_placement_sets_at_a_thousand_elements():
    # w = 1,000 is far past the interpreter's recursion limit.
    sets = list(iter_placement_sets(2001, 2, 1000))
    assert len(sets) == placement_set_count(2001, 2, 1000) == 2001
    assert sets[0] == tuple(range(1, 2000, 2))


def test_placement_sets_count_identity_grid():
    for K in range(2, 15):
        for L in range(1, K + 1):
            for w in range(1, K // L + 1):
                enumerated = len(list(iter_placement_sets(K, L, w)))
                assert enumerated == placement_set_count(K, L, w), (K, L, w)


def test_placement_sets_rejects_bad_w():
    with pytest.raises(ValueError):
        list(iter_placement_sets(8, 2, 5))
    with pytest.raises(ValueError):
        list(iter_placement_sets(8, 2, 0))


def test_placement_plan_loads():
    # Every cache lies in exactly C(K-wL+w-1, w-1) placement sets, and every
    # subfile is 1/|sets| of its file, so each cache holds w*N/K files.
    for K in range(1, 13):
        for L in range(1, K + 1):
            for w in range(1, K // L + 1):
                sets = list(iter_placement_sets(K, L, w))
                per_cache = math.comb(K - w * L + w - 1, w - 1)
                assert Counter(c for s in sets for c in s) == dict.fromkeys(
                    range(1, K + 1), per_cache), (K, L, w)
                assert K * Fraction(per_cache, len(sets)) == w, (K, L, w)

    sets = list(iter_placement_sets(8, 2, 2))
    assert len(sets) == 20
    assert Counter(c for s in sets for c in s) == dict.fromkeys(range(1, 9), 5)
    assert 5 * Fraction(5, len(sets)) == Fraction(2 * 5, 8)

    sets = list(iter_placement_sets(10, 2, 3))
    assert len(sets) == 50
    assert Counter(c for s in sets for c in s) == dict.fromkeys(range(1, 11), 15)
    assert 3 * Fraction(15, len(sets)) == Fraction(9, 10)


def test_placement_full_coverage_at_max_memory():
    sets = list(iter_placement_sets(8, 2, 4))  # w = K/L
    assert len(sets) == 2
    for user in range(1, 9):
        assert missing_sets(8, 2, sets, user) == []


def test_placement_user_cache_window():
    assert user_caches(8, 2, 1) == (1, 2)
    assert user_caches(8, 2, 8) == (8, 1)
    # subfile on caches {3,5} serves users 2,3,4,5
    assert (3, 5) in iter_placement_sets(8, 2, 2)
    assert available_to_user(8, 2, (3, 5), 2)
    assert not available_to_user(8, 2, (3, 5), 1)
    assert not available_to_user(8, 2, (3, 5), 6)


def test_weak_compositions_examples():
    b = list(iter_weak_compositions(3, 3))
    assert len(b) == 10
    assert set(b) == {
        (3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (0, 2, 1),
        (1, 0, 2), (2, 0, 1), (1, 2, 0), (0, 1, 2), (1, 1, 1),
    }
    assert b == sorted(b)  # lexicographic
    assert list(iter_weak_compositions(0, 2)) == [(0, 0)]
    assert len(list(iter_weak_compositions(4, 2))) == 5


def test_weak_compositions_count_identity():
    for n in range(0, 9):
        for m in range(1, 7):
            assert len(list(iter_weak_compositions(n, m))) == math.comb(n + m - 1, m - 1)


def composition_count_max_eq(n, m, t):
    """Number of weak m-compositions of n whose maximum part equals t."""
    if t == 0:
        return 1 if n == 0 else 0
    return composition_count_max_below(n, m, t + 1) - composition_count_max_below(n, m, t)


def test_composition_count_examples():
    assert composition_count_max_below(3, 3, 4) == 10
    assert composition_count_max_below(3, 3, 1) == 0
    assert composition_count_max_below(3, 3, 3) == 7


def test_composition_count_matches_brute_force():
    for n in range(0, 10):
        for m in range(1, 7):
            comps = list(iter_weak_compositions(n, m))
            for t in range(1, n + 2):
                brute = sum(1 for c in comps if max(c) < t)
                assert composition_count_max_below(n, m, t) == brute, (n, m, t)
            for t in range(0, n + 1):
                brute_eq = sum(1 for c in comps if max(c) == t)
                assert composition_count_max_eq(n, m, t) == brute_eq, (n, m, t)


def test_rotation_classes_example():
    classes = list(rotation_classes(3, 3))
    assert classes == [((3, 0, 0), 3), ((2, 1, 0), 3), ((2, 0, 1), 3), ((1, 1, 1), 1)]
    assert [rep for rep, _ in classes] == reference_rotation_classes(iter_weak_compositions(3, 3))


def test_rotation_classes_degenerate_and_even():
    assert list(rotation_classes(0, 4)) == [((0, 0, 0, 0), 1)]
    assert list(rotation_classes(-1, 5)) == []  # w*L = K: nothing is missing
    # The all-zero label is one column served in four parts.
    report = end_to_end_simulate(CcdnConfig(7, 7, 2), 3, list(range(1, 8)), seed=1)
    assert [(c.representative, c.columns, c.split) for c in report.classes] == [
        ((0, 0, 0, 0), 1, 4)
    ]

    assert list(rotation_classes(4, 2)) == [((4, 0), 2), ((3, 1), 2), ((2, 2), 1)]


def test_rotation_classes_partition_property():
    for n, m in [(3, 3), (5, 3), (4, 4), (6, 2)]:
        comps = list(iter_weak_compositions(n, m))
        classes = list(rotation_classes(n, m))
        reps = [rep for rep, _ in classes]
        assert reps == sorted(reps, reverse=True)
        orbits = [
            {tuple(rep[(j - t) % m] for j in range(m)) for t in range(m)} for rep in reps
        ]
        assert sorted(c for orbit in orbits for c in orbit) == sorted(comps)
        for (rep, period), orbit in zip(classes, orbits):
            assert canonical_rotation(rep)[0] == rep == max(orbit)
            assert len(orbit) == minimal_period(rep) == period
            assert orbit == {rotate_gaps(rep, t) for t in range(period)}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 30), m=st.integers(1, 12))
@example(n=6, m=6)  # periods 1, 2, 3 and 6
@example(n=0, m=1)
def test_rotation_classes_match_reference(n, m):
    # The necklace generator gives the canonicalize-and-sort oracle's reps,
    # in its order, each with its minimal period.
    assume(math.comb(n + m - 1, m - 1) <= 5_000)
    classes = list(rotation_classes(n, m))
    assert [rep for rep, _ in classes] == reference_rotation_classes(iter_weak_compositions(n, m))
    assert all(period == minimal_period(rep) for rep, period in classes)


def burnside_necklace_count(n, m):
    """Rotation orbits of the weak m-compositions of n: (1/m) sum over d | gcd(n, m)."""
    def phi(d):
        return sum(math.gcd(j, d) == 1 for j in range(1, d + 1))

    g = math.gcd(n, m)
    total = sum(phi(d) * math.comb(n // d + m // d - 1, m // d - 1)
                for d in range(1, g + 1) if g % d == 0)
    assert total % m == 0
    return total // m


def test_rotation_classes_count_where_the_oracle_is_slow():
    # (18, 8): 480,700 compositions in 60,115 orbits.
    periods = [period for _, period in rotation_classes(18, 8)]
    assert sum(periods) == math.comb(25, 7) == 480_700
    assert len(periods) == burnside_necklace_count(18, 8) == 60_115
    for n, m in [(0, 1), (5, 5), (12, 6), (9, 9), (16, 4)]:
        classes = list(rotation_classes(n, m))
        assert len(classes) == burnside_necklace_count(n, m), (n, m)
        assert sum(period for _, period in classes) == math.comb(n + m - 1, m - 1), (n, m)


def rate_new_direct(K, L, w):
    """Enumeration oracle for the aggregated rate computation."""
    if w * L == K:
        return Fraction(0)
    cap = 2 * (K - w * L) + w - 1
    total = sum(
        min(cap - max(b), K) for b in iter_weak_compositions(K - w * L - 1, w + 1)
    )
    return Fraction(total, placement_set_count(K, L, w) * (w + 1))


def rate_new_per_t(K, L, w):
    """Oracle summing the per-column row count over the value t of the maximum part."""
    if w * L == K:
        return Fraction(0)
    n, m = K - w * L - 1, w + 1
    cap = 2 * (K - w * L) + w - 1
    total = sum(
        composition_count_max_eq(n, m, t) * min(cap - t, K) for t in range(n + 1)
    )
    return Fraction(total, placement_set_count(K, L, w) * m)


def test_rate_new_values():
    assert rate_new(8, 2, 2) == Fraction(68, 60)
    assert rate_new(8, 2, 4) == 0
    assert rate_new(8, 4, 1) == Fraction(11, 8)
    assert rate_new(10, 2, 1) == Fraction(39, 10)


def test_rate_new_matches_enumeration():
    for K in range(2, 15):
        for L in range(1, K + 1):
            for w in range(1, K // L + 1):
                assert rate_new(K, L, w) == rate_new_direct(K, L, w), (K, L, w)


@st.composite
def rate_configs(draw, max_columns=5000):
    """(K, L, w) whose delivery table has at most max_columns columns (K = wL allowed)."""
    w = draw(st.integers(1, 8))
    L = draw(st.integers(1, 6))
    n_max = 0
    while math.comb(n_max + 1 + w, w) <= max_columns:
        n_max += 1
    n = draw(st.integers(-1, n_max))
    return n + w * L + 1, L, w


@settings(max_examples=150, deadline=None)
@given(rate_configs())
@example((5001, 1, 1))  # 5,000 columns, a = n + 1
@example((19, 6, 2))  # a = 1
def test_rate_new_matches_enumeration_property(config):
    assert rate_new(*config) == rate_new_direct(*config)


def test_rate_new_matches_per_t_sum_at_benchmark_sizes():
    for K, L in [(1000, 10), (600, 3), (2000, 50)]:
        for w in range(1, K // L + 1):
            assert rate_new(K, L, w) == rate_new_per_t(K, L, w), (K, L, w)


@st.composite
def walk_ranges(draw, Ks, max_corners):
    """(K, L, ws): a random sub-range of at most max_corners of the corners 1..K//L."""
    K = draw(Ks)
    L = draw(st.one_of(st.integers(1, min(3, K)), st.integers(1, K)))
    w0 = draw(st.integers(1, K // L))
    w1 = draw(st.integers(w0, min(K // L, w0 + max_corners - 1)))
    return K, L, range(w0, w1 + 1)


@settings(max_examples=300, deadline=None)
@given(walk_ranges(st.integers(1, 18), max_corners=18))
@example((18, 1, range(1, 19)))  # L = 1, from the first corner to the n = -1 top
@example((18, 2, range(4, 10)))  # a start in mid-range, to the n = -1 top
@example((17, 2, range(1, 9)))  # the table grows from empty, then shrinks and empties
def test_rate_walk_matches_enumeration_on_any_sub_range(walk):
    K, L, ws = walk
    assert list(macc._rate_walk(K, L, ws)) == [rate_new_direct(K, L, w) for w in ws]


@settings(max_examples=25, deadline=None)
@given(walk_ranges(st.sampled_from([600, 1000, 2000]), max_corners=8))
@example((600, 3, range(84, 92)))  # the table grows from empty: n-2a+1 = 7w-600
@example((600, 3, range(116, 124)))  # it peaks at w = 120, where a = 1, then shrinks
@example((600, 3, range(193, 201)))  # as n-2a+1 = 598-3w, and empties at w = 200
@example((2000, 1, range(1993, 2001)))  # L = 1, up to the n = -1 top
@example((1000, 10, range(95, 101)))  # K = wL at the top
def test_rate_walk_matches_per_t_sum_at_benchmark_sizes(walk):
    K, L, ws = walk
    assert list(macc._rate_walk(K, L, ws)) == [rate_new_per_t(K, L, w) for w in ws]


def test_tradeoff_corners_at_L_1_are_the_known_optimum():
    # At L = 1 every s >= 2 term vanishes and the rate is (K-w)/(w+1), a convex
    # sequence, so each of the 3,000 corners is an envelope vertex.
    K = 3000
    corners = [(p.M, p.rate) for p in tradeoff_curve(CcdnConfig(K, K, 1)) if p.source == "NEW"]
    assert corners == [(w, Fraction(K - w, w + 1)) for w in range(1, K + 1)]


def test_rate_new_rejects_bad_w():
    with pytest.raises(ValueError):
        rate_new(8, 2, 5)


def test_rate_new_refuses_an_unaffordable_binomial_before_building_it():
    # C(4e11 + 3e11, 3e11) has about 6e11 bits; the estimate refuses it at
    # once, where building it would not end.
    start = time.perf_counter()
    with mock.patch("math.comb", side_effect=AssertionError("comb reached")):
        with pytest.raises(ValueError, match=r"R_new at \(K, L, w\) = \(1000000000000, 2, "
                                             r"300000000000\) would take more than 1.5e\+09"):
            rate_new(10**12, 2, 3 * 10**11)
        with pytest.raises(ValueError, match="would take more than"):
            rate_new(40_000, 2, 16_000)  # about 0.8 s of work, just over the limit
    assert time.perf_counter() - start < 1.0
    assert rate_new_cost(40_000, 2, 16_000) > MAX_RATE_BIT_OPS
    # Its largest affordable neighbours still compute exactly.
    assert rate_new(20_000, 1, 10_000) == Fraction(10_000, 10_001)
    assert rate_new_cost(30_000, 2, 9_000) <= MAX_RATE_BIT_OPS


def test_tradeoff_curve_refuses_corners_that_sum_past_the_budget():
    # 6,000 corners of binomials up to about 6,000 bits: each is cheap, the
    # curve is not, and it is refused before the first corner's rate.
    start = time.perf_counter()
    with mock.patch("math.comb", side_effect=AssertionError("comb reached")):
        for K in (6_000, 10**12):
            with pytest.raises(ValueError, match=f"the {K} corners at \\(K, L\\) = \\({K}, 1\\) "
                                                 "would take more than"):
                tradeoff_curve(CcdnConfig(1, K, 1))
    assert time.perf_counter() - start < 1.0
    assert sum(rate_new_cost(6_000, 1, w) for w in range(1, 6_001)) > MAX_RATE_BIT_OPS
    # The benchmark's curves are far inside it.
    for K, L in [(1000, 10), (600, 3), (2000, 50)]:
        assert 10 * sum(rate_new_cost(K, L, w) for w in range(1, K // L + 1)) < MAX_RATE_BIT_OPS


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 10**7), data=st.data())
@example(K=1, data=None)
def test_rate_new_cost_is_bounded_by_the_cheap_test(K, data):
    # The guards skip the estimate below K*K*(2 + bit_length(K)) + 10^4 per
    # corner, so that bound, here the tighter one with ln K, must hold for every w.
    L = 1 if data is None else data.draw(st.integers(1, K))
    w = 1 if data is None else data.draw(st.integers(1, K // L))
    assert rate_new_cost(K, L, w) <= K * K * (2 + math.log(K)) + 1e4


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 3000), data=st.data())
@example(K=3000, data=None)  # 3,000 corners, over the limit only in their sum
def test_rate_budget_decides_as_the_summed_estimate(K, data):
    L = 1 if data is None else data.draw(st.integers(1, K))
    start = 1 if data is None else data.draw(st.integers(1, K // L))
    stop = K // L if data is None else data.draw(st.integers(start, K // L))
    ws = range(start, stop + 1)
    summed = sum(rate_new_cost(K, L, w) for w in ws)
    assert macc._over_rate_budget(K, L, ws) == (summed > MAX_RATE_BIT_OPS)


def test_rate_budget_is_decided_in_integers_past_the_floats():
    # Past 150,000 corners the budget is spent on their 10^4 floors alone,
    # and K*K of a long int is never made a float.
    with mock.patch.object(macc, "rate_new_cost", side_effect=AssertionError("estimated")):
        assert macc._over_rate_budget(10**19, 1, range(1, 10**19 + 1))
        assert macc._over_rate_budget(10**6, 1, range(1, 150_002))
    assert not macc._over_rate_budget(10**155, 1, range(1, 2))
    assert rate_new(10**155, 1, 1) == Fraction(10**155 - 1, 2)
    # w*L >= K costs the floor; anything else past lgamma's floats is refused.
    assert rate_new_cost(10**400, 10**400, 1) == 1e4
    for L, w in [(1, 1), (1, 10**400 - 1), (3, 10**399)]:
        with pytest.raises(ValueError, match="past the range of its cost estimate"):
            rate_new_cost(10**400, L, w)


@settings(max_examples=100, deadline=None)
@given(K=st.integers(1, 60), data=st.data())
def test_delivery_cells_are_the_placement_sets_times_k_minus_wl(K, data):
    L = data.draw(st.integers(1, K))
    w = data.draw(st.integers(1, K // L))
    assert placement_set_count(K, L, w) * (K - w * L) == K * math.comb(K - w * L + w - 1, w)


def test_rate_hkd_values():
    assert rate_hkd(8, 2, 2) == Fraction(4, 3)
    assert rate_hkd(8, 2, 4) == 0
    assert rate_hkd(40, 4, 4) == Fraction(24, 5)


def test_rate_rk_values():
    assert rate_rk(8, 8, 2, Fraction(2)) == 2
    assert rate_rk(6, 9, 3, Fraction(2)) == 0
    assert rate_rk(100, 100, 1, Fraction(50)) == 25
    with pytest.raises(ValueError):
        rate_rk(4, 8, 2, Fraction(3))


def test_closed_form_values():
    assert rate_closed_form_large_L(8, 4) == Fraction(11, 8) == rate_new(8, 4, 1)
    assert rate_closed_form_large_L(9, 4) == Fraction(17, 9) == rate_new(9, 4, 1)
    # K-L = 1: single-gap case against the formula branches
    for K in range(3, 12):
        assert rate_closed_form_large_L(K, K - 1) == rate_new(K, K - 1, 1)
    with pytest.raises(ValueError):
        rate_closed_form_large_L(12, 5)


def test_closed_form_cap():
    for K in range(2, 20):
        for L in range((K + 1) // 2, K + 1):
            value = rate_closed_form_large_L(K, L)
            assert value <= Fraction(5 * (K - L) * (K - L + 1), 8 * K)


def test_corollary7_small_grid():
    for K in range(2, 13):
        for L in range(1, K + 1):
            for w in range(1, K // L + 1):
                new = rate_new(K, L, w)
                assert new <= rate_hkd(K, L, w)
                assert new <= rate_rk(K, K, L, Fraction(w * K, K))


def test_rate_point_refuses_a_negative_rate_or_an_unknown_source():
    assert RatePoint(Fraction(1), Fraction(0), "NEW").rate == 0
    for rate in (Fraction(-1, 3), Fraction(-(10**400), 7)):
        with pytest.raises(ValueError, match="non-negative"):
            RatePoint(Fraction(1), rate, "NEW")
    with pytest.raises(ValueError, match="unknown rate source"):
        RatePoint(Fraction(1), Fraction(1), "CORNER")


def test_corner_dominance_on_large_sweep_config():
    N, K, L = 100, 40, 4
    for w in range(1, K // L + 1):
        new = rate_new(K, L, w)
        assert new <= rate_hkd(K, L, w)
        assert new <= rate_rk(N, K, L, Fraction(w * N, K))


@st.composite
def ccdn_configs(draw, max_K: int) -> CcdnConfig:
    K = draw(st.integers(1, max_K))
    return CcdnConfig(draw(st.integers(1, 10**6)), K, draw(st.integers(1, K)))


@settings(max_examples=30, deadline=None)
@given(cfg=ccdn_configs(max_K=2000))
@example(cfg=CcdnConfig(100, 2000, 1))  # the most corners
@example(cfg=CcdnConfig(8, 8, 2))  # K/L whole: the top corner is the w = K/L point
@example(cfg=CcdnConfig(9, 9, 2))  # K/L fractional: the top corner is appended
def test_corner_memories_are_distinct(cfg):
    # tradeoff_curve walks the corners in the order given; a repeated memory
    # would make a zero-width envelope segment, so check the corners directly.
    memories = [Fraction(x * cfg.N, cfg.K) for x, *_ in macc._corners(cfg, 1)]
    assert memories == sorted(set(memories))


@settings(max_examples=40, deadline=None)
@given(cfg=ccdn_configs(max_K=300), samples=st.integers(0, 400))
@example(cfg=CcdnConfig(100, 2000, 1), samples=100)  # the most corners
@example(cfg=CcdnConfig(8, 8, 2), samples=9)  # K/L whole
@example(cfg=CcdnConfig(9, 9, 2), samples=7)  # K/L fractional
@example(cfg=CcdnConfig(10, 10, 2), samples=0)
@example(cfg=CcdnConfig(10, 10, 2), samples=1)
@example(cfg=CcdnConfig(10, 10, 2), samples=2)
@example(cfg=CcdnConfig(12, 12, 4), samples=13)  # every corner is also a sample
@example(cfg=CcdnConfig(51, 51, 2), samples=27)  # corner w=15, above the envelope, is sample 15
@example(cfg=CcdnConfig(10**400, 9, 2), samples=7)
def test_tradeoff_curve_matches_fraction_reference(cfg, samples):
    # RatePoints compare by (M, rate, source)
    assert tradeoff_curve(cfg, samples) == reference_tradeoff_curve(cfg, samples)


@settings(max_examples=200, deadline=None)
@given(cfg=ccdn_configs(max_K=12), samples=st.integers(0, 30), data=st.data())
def test_tradeoff_curve_matches_reference_on_any_corner_rates(cfg, samples, data):
    # No rate_new corner with K <= 80 lies exactly on a chord of the envelope;
    # coarse arbitrary rates also give collinear corners and rising stretches,
    # where the hull test's tie rule decides which corners are vertices.
    rates = data.draw(st.lists(st.fractions(0, 6, max_denominator=3),
                               min_size=cfg.K // cfg.L, max_size=cfg.K // cfg.L))
    fake = lambda K, L, ws: (rates[w - 1] for w in ws)  # noqa: E731
    # The curve walks its corners, and the reference's rate_new walks one each.
    with mock.patch.object(macc, "_rate_walk", fake):
        assert tradeoff_curve(cfg, samples) == reference_tradeoff_curve(cfg, samples)


def test_tradeoff_curve_endpoints_and_midpoint():
    cfg = CcdnConfig(8, 8, 2)
    points = tradeoff_curve(cfg)
    assert points[0].M == 0 and points[0].rate == 8
    assert points[-1].M == 4 and points[-1].rate == 0
    rates = [p.rate for p in points]
    assert rates == sorted(rates, reverse=True)
    # memory sharing between the w=1 and w=2 corners
    mid = interpolate_rate(points, Fraction(3, 2))
    assert mid == (rate_new(8, 2, 1) + rate_new(8, 2, 2)) / 2


def test_tradeoff_curve_sampling_and_csv():
    cfg = CcdnConfig(10, 10, 2)
    points = tradeoff_curve(cfg, samples=9)
    assert all(a.M < b.M for a, b in zip(points, points[1:]))
    assert all(a.rate >= b.rate for a, b in zip(points, points[1:]))
    sources = {p.source for p in points}
    assert sources <= {"NEW", "EXTREME", "MEMORY_SHARED"}
    text = tradeoff_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == "M_exact,M_decimal,rate_exact,rate_decimal,source"
    assert len(lines) == len(points) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "10"


EXAMPLE_COLUMN_LABELS = {
    # availability sets of the first-row subfiles -> gap label, from the
    # worked (K=8, L=2, w=2) delivery table
    (2, 3, 4, 5): (3, 0, 0),
    (3, 4, 5, 6): (2, 0, 1),
    (4, 5, 6, 7): (1, 0, 2),
    (5, 6, 7, 8): (0, 0, 3),
    (2, 3, 5, 6): (2, 1, 0),
    (3, 4, 6, 7): (1, 1, 1),
    (4, 5, 7, 8): (0, 1, 2),
    (2, 3, 6, 7): (1, 2, 0),
    (3, 4, 7, 8): (0, 2, 1),
    (2, 3, 7, 8): (0, 3, 0),
}


def users_of_cache_set(cache_set, K, L):
    users = set()
    for c in cache_set:
        users.update(wrap(c - j, K) for j in range(L))
    return tuple(sorted(users))


def test_delivery_table_eight_user_example():
    cfg = CcdnConfig(8, 8, 2)
    demands = list(range(1, 9))
    table = reference_delivery_table(cfg, 2, demands)
    assert len(table) == 10
    seen = {}
    for label in iter_weak_compositions(3, 3):
        cells = delivery_cells(cfg, label, demands)
        assert cells == table[label]
        file_id, cache_set = cells[0]
        assert file_id == 1  # user 1 demands file 1
        seen[users_of_cache_set(cache_set, 8, 2)] = label
    assert seen == EXAMPLE_COLUMN_LABELS


def test_delivery_table_labels_are_all_compositions():
    # The reference's label map is a bijection from the placement sets with
    # c_1 > L onto the weak (w+1)-compositions, and delivery_cells inverts it.
    for cfg, w in [(CcdnConfig(10, 10, 2), 3), (CcdnConfig(9, 9, 3), 2),
                   (CcdnConfig(7, 7, 1), 2)]:
        demands = list(range(1, cfg.K + 1))
        table = reference_delivery_table(cfg, w, demands)
        labels = list(table)
        n = cfg.K - w * cfg.L - 1
        assert sorted(labels) == list(iter_weak_compositions(n, w + 1))
        assert len(labels) == math.comb(cfg.K - w * cfg.L + w - 1, w)
        anchors = {delivery_cells(cfg, label, demands)[0][1] for label in labels}
        assert anchors == {s for s in iter_placement_sets(cfg.K, cfg.L, w) if s[0] > cfg.L}


def test_delivery_cells_match_reference_table():
    # Every label's cells, on every (K, L, w) with K <= 12, against the
    # placement-set route.
    for K in range(1, 13):
        for L in range(1, K + 1):
            for w in range(1, K // L + 1):
                cfg = CcdnConfig(K, K, L)
                demands = [(3 * k) % K + 1 for k in range(K)]
                table = reference_delivery_table(cfg, w, demands)
                for label, cells in table.items():
                    assert delivery_cells(cfg, label, demands) == cells, (K, L, w, label)
                periods = sum(period for _, period in rotation_classes(K - w * L - 1, w + 1))
                assert periods == len(table), (K, L, w)


def test_simulation_stages_give_every_set_and_column_once():
    # The stages end_to_end_simulate runs: placement_map holds every placement
    # set, and build_delivery_icp over group_rotation_classes yields each
    # reference column exactly once, next to its class's union instance.
    for K, L, w in [(8, 2, 2), (10, 2, 3), (9, 3, 2), (12, 1, 3), (12, 2, 1), (8, 2, 4)]:
        cfg = CcdnConfig(K, K, L)
        demands = [(5 * k) % K + 1 for k in range(K)]
        sets = placement_map(cfg, w).sets
        assert sets == tuple(iter_placement_sets(K, L, w))
        assert len(sets) == placement_set_count(K, L, w)
        classes = group_rotation_classes(cfg, w)
        assert classes == list(rotation_classes(K - w * L - 1, w + 1))
        columns = {}
        for rep, period in classes:
            bar, cells = build_delivery_icp(cfg, rep, period, demands)
            assert bar.spec == GapVector(rep, L) and len(cells) == period
            for t, column in enumerate(cells):
                assert columns.setdefault(rotate_gaps(rep, t), column) is column
        assert columns == reference_delivery_table(cfg, w, demands), (K, L, w)


def test_delivery_table_zero_columns_at_full_memory():
    assert reference_delivery_table(CcdnConfig(8, 8, 2), 4, list(range(1, 9))) == {}
    assert list(rotation_classes(8 - 4 * 2 - 1, 5)) == []


def test_delivery_table_rows_are_missing_subfiles():
    cfg = CcdnConfig(8, 8, 2)
    columns = [delivery_cells(cfg, label, list(range(1, 9)))
               for label in iter_weak_compositions(3, 3)]
    sets = list(iter_placement_sets(8, 2, 2))
    for user in range(1, 9):
        row_sets = {cells[user - 1][1] for cells in columns}
        assert row_sets == set(missing_sets(8, 2, sets, user))


def test_delivery_column_side_information_matches_label():
    # per-column availability pattern of every user equals the single-column
    # instance generated by the label
    cfg = CcdnConfig(10, 10, 2)
    for label in iter_weak_compositions(3, 4):
        cells = delivery_cells(cfg, label, list(range(1, 11)))
        for user in (1, 4, 10):
            si_rows = {
                row
                for row in range(1, 11)
                if available_to_user(cfg.K, cfg.L, cells[row - 1][1], user)
            }
            assert si_rows == single_known_files(label, cfg.L, cfg.K, user)


@settings(max_examples=100, deadline=None)
@given(w=st.integers(1, 5), L=st.integers(1, 4), n=st.integers(0, 12))
@example(w=2, L=2, n=3)  # the eight-user table
@example(w=1, L=1, n=0)
def test_column_labels_match_side_information_rows(w, L, n):
    # The closed-form label of each column is the gap pattern of the rows that
    # the cache topology makes available to user 1, and the labels run through
    # the weak (w+1)-compositions of n = K-wL-1, each exactly once.
    assume(math.comb(n + w, w) <= 2000)
    K = w * L + n + 1
    cfg = CcdnConfig(K, K, L)
    table = reference_delivery_table(cfg, w, [1] * K)
    for label in table:
        cells = delivery_cells(cfg, label, [1] * K)
        si_rows = {
            row
            for row in range(1, K + 1)
            if available_to_user(K, L, cells[row - 1][1], 1)
        }
        assert si_rows == single_known_files(label, L, K, 1), (K, label)
    labels = sorted(table)
    assert labels == list(iter_weak_compositions(n, w + 1))


def test_delivery_table_validates_demands():
    cfg = CcdnConfig(8, 8, 2)
    with pytest.raises(ValueError, match="need exactly 8 demands, got 3"):
        end_to_end_simulate(cfg, 2, [1, 2, 3])
    with pytest.raises(ValueError, match=r"demands must be file ids in \[1, N\]"):
        end_to_end_simulate(cfg, 2, [9] * 8)


def test_delivery_table_refuses_too_many_user_node_pairs(monkeypatch):
    # (8,2,2): 20 placement sets and 80 cells, 8 * 80 = 640 user-node pairs.
    cfg = CcdnConfig(8, 8, 2)
    monkeypatch.setattr(macc, "MAX_SIMULATION_SIZE", 640)
    report = end_to_end_simulate(cfg, 2, [1] * 8)
    assert sum(c.columns for c in report.classes) * 8 == 80
    monkeypatch.setattr(macc, "MAX_SIMULATION_SIZE", 639)
    built = []
    monkeypatch.setattr(macc, "delivery_cells", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="80 delivery cells of 640 user-node pairs"):
        end_to_end_simulate(cfg, 2, [1] * 8)
    assert built == []  # refused before any column is built


def test_simulation_eight_user_example():
    report = end_to_end_simulate(CcdnConfig(8, 8, 2), 2, list(range(1, 9)), seed=5)
    assert report.decoded_ok
    assert report.total_rate == Fraction(68, 60)
    by_rep = {c.representative: c for c in report.classes}
    assert by_rep[(3, 0, 0)].chi == 6
    assert by_rep[(2, 1, 0)].chi == 7
    assert by_rep[(2, 0, 1)].chi == 7
    assert by_rep[(1, 1, 1)].chi == 8
    assert (by_rep[(1, 1, 1)].columns, by_rep[(1, 1, 1)].split) == (1, 3)
    assert (by_rep[(3, 0, 0)].columns, by_rep[(3, 0, 0)].split) == (3, 1)
    assert report.failures == ()


def test_simulation_full_memory_is_free():
    report = end_to_end_simulate(CcdnConfig(8, 8, 2), 4, list(range(1, 9)), seed=1)
    assert report.decoded_ok
    assert report.total_rate == 0
    assert report.classes == ()


def test_simulation_matches_formula_on_grid():
    for K, L, w in [(10, 2, 1), (6, 2, 1), (6, 1, 2), (7, 2, 3), (9, 2, 2),
                    (8, 3, 2), (12, 5, 2), (9, 4, 1)]:
        cfg = CcdnConfig(K, K, L)
        report = end_to_end_simulate(cfg, w, list(range(1, K + 1)), seed=K + w)
        assert report.decoded_ok, (K, L, w)
        assert report.total_rate == simulated_rate(K, L, w) <= rate_new(K, L, w), (K, L, w)


@pytest.mark.parametrize("K, L, w, sent, new", [
    (12, 2, 3, Fraction(21, 16), Fraction(153, 112)),
    (13, 3, 2, Fraction(76, 39), Fraction(307, 156)),
    (16, 2, 3, Fraction(75, 32), Fraction(865, 352)),
    (9, 2, 2, Fraction(40, 27), Fraction(41, 27)),
    # Every class's chi meets Ru here, so the simulation sends rate_new.
    (8, 2, 2, Fraction(17, 15), Fraction(17, 15)),
    (12, 1, 3, Fraction(9, 4), Fraction(9, 4)),
    (10, 2, 1, Fraction(39, 10), Fraction(39, 10)),
])
def test_simulation_sends_its_local_chromatic_rate(K, L, w, sent, new):
    report = end_to_end_simulate(CcdnConfig(K, K, L), w, list(range(1, K + 1)), seed=1)
    assert report.decoded_ok
    assert report.total_rate == sent == simulated_rate(K, L, w)
    assert rate_new(K, L, w) == new


@st.composite
def small_simulations(draw):
    K = draw(st.integers(2, 9))
    L = draw(st.integers(1, K))
    w = draw(st.integers(1, K // L))
    return K, L, w


@settings(max_examples=40, deadline=None)
@given(config=small_simulations(), seed=st.integers(0, 2**32 - 1))
@example(config=(11, 2, 3), seed=6)  # a period-2 class with split 2
def test_simulation_sends_each_class_its_local_chromatic_value(config, seed):
    K, L, w = config
    report = end_to_end_simulate(CcdnConfig(K, K, L), w, list(range(1, K + 1)), seed=seed)
    assert report.decoded_ok
    assert report.total_rate == simulated_rate(K, L, w) <= rate_new(K, L, w)
    for cls in report.classes:
        bar = build_union_icp(GapVector(cls.representative, L))
        assert cls.chi == naive_local_chromatic(bar, theorem1_coloring(bar)), cls


def test_class_graph_matches_physical_availability():
    # The broadcast decodes against the union-instance graph; check that the
    # graph's side information coincides, node by node, with what the cache
    # topology actually makes available to each user in the class's columns.
    for K, L, w in [(8, 2, 2), (10, 2, 3), (9, 3, 2), (11, 2, 3)]:
        cfg = CcdnConfig(K, K, L)
        demands = list(range(1, K + 1))
        for rep, period in rotation_classes(K - w * L - 1, w + 1):
            bar = build_union_icp(GapVector(rep, L))
            for k in range(1, K + 1):
                physical = {
                    (m, p)
                    for p in range(1, bar.i + 1)
                    for m in range(1, K + 1)
                    if available_to_user(
                        K, L, delivery_cells(cfg, rotate_gaps(rep, p - 1), demands)[m - 1][1], k
                    )
                }
                assert physical == side_nodes(bar, k), (K, L, w, rep, k)
            assert period == minimal_period(rep) == len(
                {rotate_gaps(rep, t) for t in range(len(rep))})


def test_rate_new_half_memory_unit_access():
    # L=1 at memory N/2: the aggregated rate collapses to (K/2)/(1+K/2)
    for K in (4, 6, 8, 10, 12, 20):
        assert rate_new(K, 1, K // 2) == Fraction(K // 2, 1 + K // 2)


def test_simulation_handles_period_two_class():
    # (K=11, L=2, w=3) produces a label orbit with period 2 and split 2
    cfg = CcdnConfig(11, 11, 2)
    report = end_to_end_simulate(cfg, 3, list(range(1, 12)), seed=6)
    assert report.decoded_ok
    assert report.total_rate == simulated_rate(11, 2, 3) == Fraction(325, 308)
    assert report.total_rate < rate_new(11, 2, 3) == Fraction(331, 308)
    splits = {c.representative: (c.columns, c.split) for c in report.classes}
    assert splits[(2, 0, 2, 0)] == (2, 2)
    assert splits[(1, 1, 1, 1)] == (1, 4)


def test_simulation_twenty_user_rung_within_budget():
    # The (20,2,4) rung of the simulate ladder, under a 20 s budget.
    start = time.perf_counter()
    report = end_to_end_simulate(CcdnConfig(20, 20, 2), 4, list(range(1, 21)), seed=1)
    elapsed = time.perf_counter() - start
    assert report.decoded_ok
    assert report.total_rate == simulated_rate(20, 2, 4) == Fraction(56, 25)
    assert report.total_rate < rate_new(20, 2, 4) == Fraction(772, 325)
    assert elapsed < 20, f"(20,2,4) simulate took {elapsed:.1f}s"


def test_simulation_repeated_demands_same_rate():
    cfg = CcdnConfig(3, 8, 2)
    demands = [1, 2, 3, 1, 2, 3, 1, 2]
    report = end_to_end_simulate(cfg, 2, demands, seed=2)
    assert report.decoded_ok
    assert report.total_rate == rate_new(8, 2, 2)


@pytest.mark.parametrize("N, demands", [(2, [1, 1, 2, 2, 1, 1, 2, 2]),
                                        (3, [1, 2, 3, 1, 2, 3, 1, 2])])
def test_simulation_sends_one_symbol_per_subfile_part(monkeypatch, N, demands):
    # Bar nodes that carry the same part of the same subfile must carry the
    # same symbol: they stand for one piece of one file, not for independent data.
    cfg = CcdnConfig(N, 8, 2)
    sent = []

    def spy(scheme, messages, plans=None):
        sent.append((scheme.graph.spec.gaps, dict(messages)))
        return simulate_decode(scheme, messages, plans)

    monkeypatch.setattr(macc, "simulate_decode", spy)
    assert end_to_end_simulate(cfg, 2, demands, seed=4).decoded_ok
    column_by_label = reference_delivery_table(cfg, 2, demands)
    repeats = 0
    for rep, messages in sent:
        period = minimal_period(rep)
        symbols: dict[tuple, set[int]] = {}
        for (k, p), value in messages.items():
            key = (column_by_label[rotate_gaps(rep, p - 1)][k - 1], (p - 1) // period)
            symbols.setdefault(key, set()).add(value)
        assert all(len(values) == 1 for values in symbols.values()), rep
        repeats += len(messages) - len(symbols)
    assert repeats > 0


def test_simulation_respects_field_choice():
    report = end_to_end_simulate(
        CcdnConfig(8, 8, 2), 2, list(range(1, 9)), field_order=11, seed=3
    )
    assert report.decoded_ok
    assert all(c.field == 11 for c in report.classes)
    with pytest.raises(ValueError):
        end_to_end_simulate(CcdnConfig(8, 8, 2), 2, list(range(1, 9)),
                            field_order=6, seed=3)


@settings(max_examples=40, deadline=None)
@given(config=small_simulations(), q=st.one_of(st.none(), st.integers(0, 30)),
       seed=st.integers(0, 2**32 - 1))
@example(config=(8, 2, 4), q=4, seed=1)  # no class is sent, and q is still refused
@example(config=(8, 2, 4), q=7, seed=1)
@example(config=(7, 2, 2), q=7, seed=0)  # q = K: color K sits at point 0
def test_simulation_field_changes_only_the_reported_field(config, q, seed):
    K, L, w = config
    cfg, demands = CcdnConfig(K, K, L), list(range(1, K + 1))
    if q is not None and not (is_prime(q) and q >= K):
        with pytest.raises(ValueError, match="too small" if is_prime(q) else "not prime"):
            end_to_end_simulate(cfg, w, demands, field_order=q, seed=seed)
        return
    report = end_to_end_simulate(cfg, w, demands, field_order=q, seed=seed)
    default = end_to_end_simulate(cfg, w, demands, seed=0)
    assert report.decoded_ok
    assert report.total_rate == default.total_rate
    assert [c.chi for c in report.classes] == [c.chi for c in default.classes]
    assert {c.field for c in report.classes} <= {MdsCode(K).field_order if q is None else q}


@pytest.mark.parametrize("K, L, w, classes", [(8, 2, 2, 4), (8, 2, 4, 0)])
def test_simulation_builds_one_code_before_its_first_class(monkeypatch, K, L, w, classes):
    events, codes = [], []

    def spy_code(*args):
        events.append("code")
        codes.append(MdsCode(*args))
        return codes[-1]

    def spy_class(*args):
        events.append("class")
        return build_delivery_icp(*args)

    def spy_decode(scheme, messages, plans=None):
        assert scheme.code is codes[0]
        return simulate_decode(scheme, messages, plans)

    monkeypatch.setattr(macc, "MdsCode", spy_code)
    monkeypatch.setattr(macc, "build_delivery_icp", spy_class)
    monkeypatch.setattr(macc, "simulate_decode", spy_decode)
    report = end_to_end_simulate(CcdnConfig(K, K, L), w, list(range(1, K + 1)),
                                 field_order=11, seed=1)
    assert report.decoded_ok and len(report.classes) == classes
    assert events == ["code"] + ["class"] * classes
    assert codes[0].field_order == 11
    # Only decoding reads the O(K^2) table of bases, so a call with no class never builds it.
    assert ("bases" in vars(codes[0])) == (classes > 0)


def test_simulation_report_json():
    report = end_to_end_simulate(CcdnConfig(8, 8, 2), 2, list(range(1, 9)), seed=5)
    payload = report.to_json()
    assert payload["decoded_ok"] is True
    assert payload["total_rate"] == "17/15"
    assert len(payload["classes"]) == 4
    assert payload["failures"] == []


def test_config_validation():
    with pytest.raises(ValueError):
        CcdnConfig(0, 8, 2)
    with pytest.raises(ValueError):
        CcdnConfig(4, 8, 9)
    with pytest.raises(ValueError):
        CcdnConfig(4, 8, 0)
