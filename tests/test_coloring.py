"""Coloring constructions, properness checking, and the chromatic rate bound."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canonical_gap_vectors,
    gap_vectors,
    greedy_colored_graphs,
    naive_local_chromatic,
    random_canonical_gap_vector,
    reference_theorem1_assignment,
    reference_theorem5_assignment,
    side_nodes,
    small_gap_vectors,
    theorem1_colored_unions,
    wrap,
)
from sicps.coloring import (
    Coloring,
    VerificationError,
    circulant_coloring,
    local_chromatic_value,
    theorem1_coloring,
    theorem5_applies,
    theorem5_coloring,
    upper_bound_Ru,
    verify_proper,
)
from sicps.icp import GapVector, SuicpGraph, build_union_icp
from sicps.scheme import MdsCode, build_mds_scheme


def make(gaps, L):
    spec = GapVector(gaps, L)
    return spec, build_union_icp(spec)


def test_general_coloring_reproduces_eight_user_table():
    # Frozen from the worked 8-user example's coloring table.
    _, icp = make((2, 1, 0), 2)
    coloring = theorem1_coloring(icp)
    assert [coloring.assignment[(k, 1)] for k in range(1, 9)] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert [coloring.assignment[(k, 2)] for k in range(1, 9)] == [7, 8, 1, 2, 3, 4, 5, 6]
    assert [coloring.assignment[(k, 3)] for k in range(1, 9)] == [4, 5, 6, 7, 8, 1, 2, 3]
    assert verify_proper(icp, coloring) == []
    assert local_chromatic_value(icp, coloring) == 7


def test_general_coloring_eleven_user_table():
    _, icp = make((3, 2, 1), 2)
    coloring = theorem1_coloring(icp)
    assert coloring.num_colors == 11
    assert [coloring.assignment[(k, 2)] for k in range(1, 12)] == [9, 10, 11] + list(range(1, 9))
    assert [coloring.assignment[(k, 3)] for k in range(1, 12)] == [
        5, 6, 7, 8, 9, 10, 11, 1, 2, 3, 4]
    assert not verify_proper(icp, coloring)
    assert local_chromatic_value(icp, coloring) == 11


def test_general_coloring_each_color_once_per_column():
    rng = random.Random(3)
    for _ in range(20):
        spec = random_canonical_gap_vector(rng, max_K=18)
        icp = build_union_icp(spec)
        coloring = theorem1_coloring(icp)
        for t in range(1, spec.i + 1):
            column = [coloring.assignment[(k, t)] for k in range(1, spec.K + 1)]
            assert sorted(column) == list(range(1, spec.K + 1))


def test_general_coloring_degenerate_single_column():
    _, icp = make((4,), 1)
    coloring = theorem1_coloring(icp)
    assert [coloring.assignment[(k, 1)] for k in range(1, 6)] == [1, 2, 3, 4, 5]
    assert not verify_proper(icp, coloring)


def test_general_coloring_proper_on_random_instances():
    rng = random.Random(19)
    for _ in range(60):
        spec = random_canonical_gap_vector(rng, max_K=24)
        icp = build_union_icp(spec)
        coloring = theorem1_coloring(icp)
        assert verify_proper(icp, coloring) == [], spec
        assert local_chromatic_value(icp, coloring) <= upper_bound_Ru(spec)


@settings(max_examples=150, deadline=None)
@given(spec=gap_vectors(max_nodes=150))
def test_general_coloring_proper_property(spec):
    icp = build_union_icp(spec)
    coloring = theorem1_coloring(icp)
    assert verify_proper(icp, coloring) == []
    assert local_chromatic_value(icp, coloring) <= upper_bound_Ru(spec)


def test_two_column_coloring_examples():
    for L, K in [(6, 10), (11, 15)]:
        spec, icp = make((2, 1), L)
        assert spec.K == K
        coloring = theorem5_coloring(icp)
        assert coloring.num_colors == 5
        assert not verify_proper(icp, coloring)
        assert local_chromatic_value(icp, coloring) == 5
        # each color appears K/5 times per column
        for t in (1, 2):
            column = [coloring.assignment[(k, t)] for k in range(1, K + 1)]
            assert all(column.count(c) == K // 5 for c in range(1, 6))


def test_two_column_coloring_zero_gaps():
    # (0,0)_L has K = L+1; two colors suffice whenever K is even.
    for L in (1, 3, 5, 9):
        spec, icp = make((0, 0), L)
        assert spec.K % 2 == 0
        coloring = theorem5_coloring(icp)
        assert coloring.num_colors == 2
        assert not verify_proper(icp, coloring)
        assert local_chromatic_value(icp, coloring) == 2


def test_two_column_coloring_exhaustive_value():
    # every divisible two-column instance with K <= 40 hits exactly a1+a2+2
    for a1 in range(0, 20):
        for a2 in range(a1, 20):
            n = a1 + a2 + 2
            for L in range(1, 40):
                K = L + a1 + a2 + 1
                if K > 40:
                    break
                if K % n:
                    continue
                spec, icp = make((a2, a1), L)
                coloring = theorem5_coloring(icp)
                assert verify_proper(icp, coloring) == [], spec
                assert local_chromatic_value(icp, coloring) == n, spec


def test_two_column_coloring_rejections():
    _, icp3 = make((2, 1, 0), 2)
    with pytest.raises(ValueError):
        theorem5_coloring(icp3)
    _, icp_bad = make((2, 1), 7)  # K = 11, not a multiple of 5
    with pytest.raises(ValueError):
        theorem5_coloring(icp_bad)


def test_theorem_colorings_match_per_node_formulas():
    # Both circulant builders give the per-node formulas' assignments, and
    # Theorem 5 refuses exactly where the formula does, with the same message,
    # which is exactly where `theorem5_applies` says it does not apply.
    for spec in canonical_gap_vectors(48):
        icp = build_union_icp(spec)
        assert theorem1_coloring(icp).assignment == reference_theorem1_assignment(spec), spec
        try:
            expected = reference_theorem5_assignment(spec)
        except ValueError as exc:
            assert not theorem5_applies(spec), spec
            with pytest.raises(ValueError) as refused:
                theorem5_coloring(icp)
            assert str(refused.value) == str(exc), spec
        else:
            assert theorem5_applies(spec), spec
            assert theorem5_coloring(icp).assignment == expected, spec


def test_circulant_coloring_refusals():
    _, icp = make((2, 1), 1)  # K = 5, two columns
    with pytest.raises(ValueError, match="color count 0 must be at least 1"):
        circulant_coloring(icp, 0, (0, 0))
    with pytest.raises(ValueError, match="user count 5 is not a multiple of 2"):
        circulant_coloring(icp, 2, (0, 0))
    with pytest.raises(ValueError, match="3 shifts for 2 columns"):
        circulant_coloring(icp, 5, (0, 0, 0))


def test_verify_proper_flags_conflicts():
    _, icp = make((2, 1, 0), 2)
    all_one = Coloring(assignment={node: 1 for node in icp.nodes}, num_colors=1)
    violations = verify_proper(icp, all_one)
    assert violations
    assert all(v != u and v not in side_nodes(icp, u[0]) for u, v in violations)


def test_verify_proper_requires_full_cover():
    _, icp = make((2, 1), 1)
    partial = dict.fromkeys(list(icp.nodes)[:-1], 1)
    with pytest.raises(ValueError):
        verify_proper(icp, Coloring(assignment=partial, num_colors=1))


@pytest.mark.parametrize("extra", [(1, 99), (99, 1)])
def test_verify_proper_refuses_nodes_outside_the_graph(extra):
    # The class masks follow the graph's node order only under exact coverage.
    _, icp = make((2, 1, 0), 2)
    assignment = dict(theorem1_coloring(icp).assignment)
    assignment[extra] = 1
    coloring = Coloring(assignment=assignment, num_colors=icp.K)
    with pytest.raises(ValueError, match="outside"):
        verify_proper(icp, coloring)
    with pytest.raises(ValueError, match="outside"):
        build_mds_scheme(icp, coloring, MdsCode(icp.K))


def test_local_chromatic_value_naive_coloring():
    # One color per node: the value counts the whole closed anti-outneighborhood.
    for gaps, L in [((2, 1, 0), 2), ((3, 2, 1), 2), ((2, 1), 6)]:
        spec, icp = make(gaps, L)
        nodes = list(icp.nodes)
        naive = Coloring(
            assignment={node: j + 1 for j, node in enumerate(nodes)},
            num_colors=len(nodes),
        )
        i, K, chunk = spec.i, spec.K, spec.L
        assert local_chromatic_value(icp, naive) == i * K - i * (i - 1) * chunk


def test_local_chromatic_value_rejects_improper():
    _, icp = make((2, 1, 0), 2)
    all_one = Coloring(assignment={node: 1 for node in icp.nodes}, num_colors=1)
    with pytest.raises(ValueError):
        local_chromatic_value(icp, all_one)


def test_upper_bound_examples():
    assert upper_bound_Ru(GapVector((2, 1, 0), 2)) == 7
    assert upper_bound_Ru(GapVector((3, 2, 1), 2)) == 11  # K branch: 12 > 11
    # single-nonzero-gap family collapses to K-(i-1)L+i-1
    for a, zeros, L in [(5, 2, 3), (3, 3, 2), (7, 1, 4)]:
        spec = GapVector((a,) + (0,) * zeros, L)
        assert upper_bound_Ru(spec) == spec.K - (spec.i - 1) * L + spec.i - 1


def test_upper_bound_requires_canonical():
    with pytest.raises(ValueError):
        upper_bound_Ru(GapVector((0, 2, 1), 2))


def test_coloring_rejects_out_of_range_colors():
    with pytest.raises(ValueError):
        Coloring(assignment={(1, 1): 3}, num_colors=2)


@settings(max_examples=100, deadline=None)
@given(colored=st.one_of(small_gap_vectors().map(theorem1_colored_unions),
                         greedy_colored_graphs()))
def test_color_classes_partition_the_nodes_by_color(colored):
    graph, coloring = colored
    classes = coloring.classes
    assert len(classes) == coloring.num_colors
    assert sorted(nd for members in classes for nd in members) == sorted(coloring.assignment)
    for c, members in enumerate(classes, start=1):
        assert list(members) == sorted(members)
        assert set(members) == {nd for nd, color in coloring.assignment.items() if color == c}
        mask = coloring.masks[c - 1]
        assert {nd for j, nd in enumerate(graph.nodes) if mask >> j & 1} == set(members)
        assert mask.bit_length() <= len(graph)


def test_color_classes_keep_unused_colors_empty():
    coloring = Coloring({(1, 1): 1}, 3)
    assert coloring.classes == (((1, 1),), (), ())
    assert coloring.masks == (1, 0, 0)


def naive_violations(graph, coloring):
    """All-pairs oracle for the class-based properness check."""
    out = []
    for u in graph.nodes:
        for v in frozenset(graph.nodes) - side_nodes(graph, u[0]) - {u}:
            if coloring.assignment[u] == coloring.assignment[v]:
                out.append((u, v))
    return sorted(out)


def test_properness_and_value_against_naive_oracles():
    rng = random.Random(101)
    for _ in range(15):
        spec = random_canonical_gap_vector(rng, max_K=12)
        icp = build_union_icp(spec)
        good = theorem1_coloring(icp)
        assert verify_proper(icp, good) == naive_violations(icp, good) == []
        assert local_chromatic_value(icp, good) == naive_local_chromatic(icp, good)
        # a deliberately clashing coloring must produce identical violation lists
        squashed = Coloring(
            assignment={nd: 1 + (good.assignment[nd] - 1) % max(1, good.num_colors // 2)
                        for nd in icp.nodes},
            num_colors=max(1, good.num_colors // 2),
        )
        assert verify_proper(icp, squashed) == naive_violations(icp, squashed)


def assert_matches_references(graph, coloring):
    violations = naive_violations(graph, coloring)
    assert verify_proper(graph, coloring) == violations
    if violations:
        (u, v), *_ = violations
        with pytest.raises(VerificationError, match=re.escape(f"not proper: {u} and {v} share")):
            local_chromatic_value(graph, coloring)
    else:
        assert local_chromatic_value(graph, coloring) == naive_local_chromatic(graph, coloring)


@settings(max_examples=150, deadline=None)
@given(spec=gap_vectors(max_nodes=40), data=st.data())
def test_circulant_colorings_match_per_user_references(spec, data):
    # A circulant coloring with n | K is carried onto itself by the user shift,
    # so properness and chi come from user 1's row; many drawn ones are
    # improper.  A coloring built from a bare assignment claims no rule, and
    # a graph without the user shift has none to follow: both take the
    # per-user path and must still match the per-node references.
    icp = build_union_icp(spec)
    n = data.draw(st.sampled_from([d for d in range(1, spec.K + 1) if spec.K % d == 0]))
    shifts = data.draw(st.lists(st.integers(0, n - 1), min_size=spec.i, max_size=spec.i))
    coloring = circulant_coloring(icp, n, shifts)
    assert coloring.shifts
    assert_matches_references(icp, coloring)

    u, v = data.draw(st.lists(st.sampled_from(icp.nodes), min_size=2, max_size=2, unique=True)
                     if len(icp) > 1 else st.just([icp.nodes[0]] * 2))
    swapped = dict(coloring.assignment)
    swapped[u], swapped[v] = swapped[v], swapped[u]
    swapped = Coloring(swapped, n)
    assert swapped.shifts == ()
    assert_matches_references(icp, swapped)

    if spec.K > 1:
        # One user knows one node more or less than the union says.
        k = data.draw(st.integers(1, spec.K))
        node = data.draw(st.sampled_from([nd for nd in icp.nodes if nd[0] != k]))
        sides = list(icp.user_side)
        sides[k - 1] ^= 1 << (node[0] - 1) * spec.i + node[1] - 1
        graph = SuicpGraph(spec.K, spec.i, tuple(sides))
        assert not graph.has_user_shift
        assert_matches_references(graph, coloring)


@settings(max_examples=150, deadline=None)
@given(spec=gap_vectors(max_nodes=48), data=st.data())
def test_circulant_coloring_equals_the_coloring_of_its_assignment(spec, data):
    # The one-pass build fills the same assignment, classes and masks as the
    # general constructor does from the assignment alone, proper or not.
    icp = build_union_icp(spec)
    n = data.draw(st.sampled_from([d for d in range(1, spec.K + 1) if spec.K % d == 0]))
    shifts = data.draw(st.lists(st.integers(-spec.K, spec.K), min_size=spec.i, max_size=spec.i))
    coloring = circulant_coloring(icp, n, shifts)
    assignment = {(k, v): wrap(k - s, n)
                  for k in range(1, spec.K + 1) for v, s in enumerate(shifts, start=1)}
    reference = Coloring(assignment, n)._replace(shifts=tuple(shifts))
    assert tuple(coloring) == tuple(reference)
    assert list(coloring.assignment) == list(icp.nodes)  # node order, as the masks' bits
