"""Instance construction: gap patterns, rotations, union/tilde structure."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    canonical_gap_vectors,
    eq2_known_set,
    gap_vectors,
    minimal_period,
    random_canonical_gap_vector,
    side_nodes,
    single_known_files,
    tilde_icp_bounds,
    wrap,
)
from sicps.bounds import mais_lower
from sicps.coloring import local_chromatic_value, theorem1_coloring, upper_bound_Ru
from sicps.icp import (
    GapVector,
    SuicpGraph,
    build_union_icp,
    canonical_rotation,
    format_count,
    rotate_gaps,
)


def test_wrap_is_one_based():
    assert wrap(8, 8) == 8
    assert wrap(9, 8) == 1
    assert wrap(0, 8) == 8
    assert wrap(-1, 8) == 7
    assert wrap(17, 8) == 1


def test_rotate_gaps():
    assert rotate_gaps((2, 1, 0), 1) == (0, 2, 1)
    assert rotate_gaps((2, 1, 0), 2) == (1, 0, 2)
    assert rotate_gaps((2, 1, 0), 3) == (2, 1, 0)
    assert rotate_gaps((5,), 3) == (5,)
    assert rotate_gaps(rotate_gaps((3, 1, 4, 1), 1), 1) == rotate_gaps((3, 1, 4, 1), 2)


def test_canonical_rotation_examples():
    assert canonical_rotation((0, 2, 1)) == ((2, 1, 0), 1)
    assert canonical_rotation((1, 1, 1)) == ((1, 1, 1), 0)
    # oracle: inspect all four rotations and take the greatest
    rotations = [rotate_gaps((2, 0, 2, 1), t) for t in range(4)]
    expected = max(rotations)
    canonical, shift = canonical_rotation((2, 0, 2, 1))
    assert canonical == expected == (2, 1, 2, 0)
    assert rotate_gaps(canonical, shift) == (2, 0, 2, 1)


def test_canonical_rotation_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        gaps = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 6)))
        canonical, shift = canonical_rotation(gaps)
        assert max(rotate_gaps(gaps, t) for t in range(len(gaps))) == canonical
        assert rotate_gaps(canonical, shift) == gaps
        assert canonical[0] == max(canonical)


def test_minimal_period():
    assert minimal_period((1, 1, 1)) == 1
    assert minimal_period((2, 0, 2, 0)) == 2
    assert minimal_period((2, 1, 0)) == 3
    assert minimal_period((0,)) == 1


def test_gap_vector_user_counts():
    assert GapVector((2, 1, 0), 2).K == 8
    assert GapVector((3, 2, 1), 2).K == 11
    assert GapVector((4,), 3).K == 5
    assert GapVector((5, 3, 2), 2).K == 15


def test_gap_vector_validation():
    with pytest.raises(ValueError):
        GapVector((2, 1), 0)
    with pytest.raises(ValueError):
        GapVector((2, -1), 1)
    with pytest.raises(ValueError):
        GapVector((), 1)


def test_structured_icp_examples():
    spec = GapVector((2, 1, 0), 2)
    assert spec.K == 8
    assert single_known_files(spec.gaps, spec.L, spec.K, 3) == {6, 7, 1, 2}

    degenerate = GapVector((4,), 3)
    assert degenerate.K == 5
    assert all(
        single_known_files(degenerate.gaps, 3, 5, k) == frozenset() for k in range(1, 6)
    )

    assert GapVector((3, 2, 1), 2).K == 11


def test_union_icp_user3_side_information_table():
    # Shaded cells of the worked 8-user example: per-column side information
    # of user 3 in the three-column table.
    icp = build_union_icp(GapVector((2, 1, 0), 2))
    known = side_nodes(icp, 3)
    by_column = {
        t: {b for (b, col) in known if col == t} for t in (1, 2, 3)
    }
    assert by_column[1] == {1, 2, 6, 7}
    assert by_column[2] == {1, 4, 5, 8}
    assert by_column[3] == {5, 6, 7, 8}


def test_union_icp_sizes():
    icp = build_union_icp(GapVector((2, 1), 6))
    assert icp.K == 10
    assert all(len(side_nodes(icp, k)) == 2 * 1 * 6 for k in range(1, 11))

    trivial = build_union_icp(GapVector((7,), 4))
    assert trivial.user_side == (0,) * trivial.K


def test_union_icp_refuses_too_many_user_node_pairs(monkeypatch):
    spec = GapVector((2, 1, 0), 2)  # K = 8, i = 3: 8 * 24 = 192 pairs
    monkeypatch.setattr("sicps.icp.MAX_UNION_PAIRS", 192)
    assert len(build_union_icp(spec)) == 24
    monkeypatch.setattr("sicps.icp.MAX_UNION_PAIRS", 191)
    with pytest.raises(ValueError, match="192 user-node pairs"):
        build_union_icp(spec)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="2008008 user-node pairs"):
        build_union_icp(GapVector((1000, 0), 1))  # K = 1002


def test_largest_union_under_the_guard_is_user_one_rotated():
    # (0,)*120 with L = 1: K = i = 120, 1,728,000 pairs, just under the limit.
    icp = build_union_icp(GapVector((0,) * 120, 1))
    K, i, n = icp.K, icp.i, len(icp)
    assert (K, i, K * n) == (120, 120, 1_728_000)
    first = icp.user_side[0]
    for k in range(1, K + 1):
        s = (k - 1) * i
        assert icp.user_side[k - 1] == (first << s | first >> (n - s)) & ((1 << n) - 1)
        assert icp.user_side[k - 1].bit_count() == (i - 1) * 1 * i
    assert local_chromatic_value(icp, theorem1_coloring(icp)) == 120


def test_node_masks_follow_node_order():
    graph = build_union_icp(GapVector((3, 0, 1), 2))
    nodes, i = graph.nodes, graph.num_columns
    assert [graph.nodes_of(1 << j) for j in range(len(nodes))] == [
        [(j // i + 1, j % i + 1)] for j in range(len(nodes))]
    rng = random.Random(3)
    for _ in range(20):
        mask = rng.getrandbits(len(nodes))
        assert graph.nodes_of(mask) == [nd for j, nd in enumerate(nodes) if mask >> j & 1]


def test_union_icp_matches_direct_formula():
    rng = random.Random(5)
    for _ in range(25):
        spec = random_canonical_gap_vector(rng, max_K=16)
        icp = build_union_icp(spec)
        for k in range(1, spec.K + 1):
            assert side_nodes(icp, k) == eq2_known_set(spec, k)


@settings(max_examples=150, deadline=None)
@given(spec=gap_vectors(max_nodes=120))
def test_user_side_is_user_one_shifted(spec):
    icp = build_union_icp(spec)
    for k in range(1, spec.K + 1):
        shifted = frozenset((wrap(b + k - 1, spec.K), t) for b, t in side_nodes(icp, 1))
        assert side_nodes(icp, k) == shifted == eq2_known_set(spec, k)


@settings(max_examples=200, deadline=None)
@given(spec=gap_vectors(max_nodes=48))
def test_union_presets_the_user_shift_it_has(spec):
    # build_union_icp sets has_user_shift without a check; the property
    # computed from the same sides on a plain graph must agree.
    icp = build_union_icp(spec)
    assert vars(icp)["has_user_shift"] is True
    assert SuicpGraph(icp.K, icp.num_columns, icp.user_side).has_user_shift is True


def test_union_columns_are_rotated_single_instances():
    for spec in [GapVector((2, 1, 0), 2), GapVector((3, 2, 1), 2), GapVector((2, 1), 6)]:
        icp = build_union_icp(spec)
        assert icp.num_columns == spec.i
        for p in range(1, spec.i + 1):
            column_gaps = rotate_gaps(spec.gaps, p - 1)
            for k in (1, spec.K // 2 + 1, spec.K):
                in_column = {b for (b, col) in side_nodes(icp, k) if col == p}
                assert in_column == single_known_files(column_gaps, spec.L, spec.K, k)


def test_union_known_sets_invariants():
    rng = random.Random(7)
    for _ in range(30):
        spec = random_canonical_gap_vector(rng, max_K=20)
        icp = build_union_icp(spec)
        i, L = spec.i, spec.L
        for k in range(1, spec.K + 1):
            known = side_nodes(icp, k)
            assert len(known) == i * (i - 1) * L
            assert not (known & {(k, t) for t in range(1, i + 1)})


def test_rotation_closure_isomorphism():
    # Rotating the defining gaps only relabels columns cyclically.
    for gaps, L in [((2, 1, 0), 2), ((3, 0, 2), 1), ((4, 1, 2, 0), 1)]:
        spec = GapVector(gaps, L)
        base = build_union_icp(spec)
        i = spec.i
        for t in range(1, i):
            rotated = build_union_icp(GapVector(rotate_gaps(spec.gaps, t), spec.L))
            for k in range(1, spec.K + 1):
                mapped = {(b, wrap(p + t, i)) for (b, p) in side_nodes(rotated, k)}
                assert mapped == side_nodes(base, k)


def test_interference_shift_property():
    # For every user, columns n and n+1 agree on side-information/interference
    # status after shifting by a_n + L, over the stated index window.
    for spec in canonical_gap_vectors(60):
        if spec.K > 20 or spec.i < 2:
            continue
        icp = build_union_icp(spec)
        K, L = spec.K, spec.L
        for k in range(1, K + 1):
            known = side_nodes(icp, k)
            for n in range(1, spec.i):
                a_n = spec.gaps[spec.i - n]
                for m in range(a_n + L + 1, K):
                    upper = (wrap(k + m, K), n + 1) in known
                    lower = (wrap(k + m - a_n - L, K), n) in known
                    assert upper == lower, (spec.gaps, spec.L, k, n, m)


def test_union_graph_node_counts():
    assert len(build_union_icp(GapVector((2, 1, 0), 2))) == 24
    graph = build_union_icp(GapVector((4,), 1))
    assert len(graph) == 5
    assert all(side_nodes(graph, k) == frozenset() for k in range(1, graph.K + 1))


def test_union_graph_in_neighbors():
    # 33 nodes; every node's requested file is known by (i-1)*L users, i.e.
    # i*(i-1)*L virtual in-neighbors, counted here by direct enumeration.
    graph = build_union_icp(GapVector((3, 2, 1), 2))
    assert len(graph) == 33
    for target in graph.nodes:
        in_neighbors = [u for u in graph.nodes if target in side_nodes(graph, u[0])]
        assert len(in_neighbors) == 12


def test_suicp_rows_share_side_information():
    graph = build_union_icp(GapVector((3, 2, 1), 2))
    assert len(graph.user_side) == graph.K
    # A user's closed anti-outneighborhood, every node it does not know,
    # holds its own nodes.
    for k in range(1, graph.K + 1):
        assert not {(k, t) for t in range(1, graph.num_columns + 1)} & side_nodes(graph, k)


def test_tilde_icp_examples():
    # The distinct-rotation union of s repeated l times keeps one copy of each
    # column of the union instance for s*l: its first minimal-period columns.
    bar = GapVector((2, 0, 2) * 2, 1)
    columns = [rotate_gaps(bar.gaps, p) for p in range(bar.i)]
    distinct = columns[:minimal_period(bar.gaps)]
    assert distinct == [(2, 0, 2, 2, 0, 2), (2, 2, 0, 2, 2, 0), (0, 2, 2, 0, 2, 2)]
    assert set(columns) == set(distinct)
    assert build_union_icp(bar).K == 2 * 4 + 5 * 1 + 1

    lemma12 = GapVector((1,) * 3, 2)
    assert build_union_icp(lemma12).K == 8
    assert {rotate_gaps(lemma12.gaps, p) for p in range(lemma12.i)} == {(1, 1, 1)}


def test_tilde_icp_degenerate_and_errors():
    # empty pattern, zero repeats, negative entry
    for s, l, L in [((), 1, 2), ((1,), 0, 2), ((1, -2), 1, 2)]:
        with pytest.raises(ValueError):
            tilde_icp_bounds(s, l, L)


def test_tilde_with_repeat_one_equals_union():
    spec = GapVector((2, 1, 0), 2)
    assert minimal_period(spec.gaps) == build_union_icp(spec).num_columns
    assert tilde_icp_bounds((2, 1, 0), 1, 2) == (mais_lower(spec), upper_bound_Ru(spec))


def test_tilde_bar_equivalent():
    # Splitting each file into l parts turns the tilde instance into the union
    # instance for s*l; the bounds are that instance's divided by l, checked
    # against their closed forms in (s, l, L) on every pattern with entries <= 3.
    for m in (1, 2, 3):
        for s in itertools.product(range(4), repeat=m):
            if s[0] != max(s):
                continue
            for l, L in itertools.product((1, 2, 3), repeat=2):
                i = l * m
                K = l * sum(s) + (i - 1) * L + 1
                assert GapVector(s * l, L).K == K
                upper = Fraction(min(2 * (K - (i - 1) * L) + i - 2 - s[0], K), l)
                assert tilde_icp_bounds(s, l, L) == (sum(s) + m, upper), (s, l, L)


def test_format_count_writes_powers_of_ten_from_10_18():
    assert format_count(0) == "0"
    assert format_count(10**18 - 1) == "999999999999999999"
    assert format_count(10**18) == "about 10^18.0"
    assert format_count(2 * 10**6000) == "about 10^6000.3"  # past the int-to-str limit
    assert format_count(1 - 10**18) == "-999999999999999999"
    assert format_count(-(10**18)) == "about -10^18.0"
    assert format_count(-2 * 10**6000) == "about -10^6000.3"
