"""Constructive and brute-force acyclic-subgraph bounds, exact cases, gap ratios."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canonical_gap_vectors,
    exact_rate_special,
    gap_vectors,
    graph_from_sides,
    orbit_dp_mais,
    random_canonical_gap_vector,
    side_info_graphs,
    side_nodes,
    tilde_icp_bounds,
)
import sicps.bounds as bounds
import sicps.cli as cli
from sicps.bounds import (
    MAX_ORACLE_USERS,
    BoundReport,
    build_report,
    gap_ratio,
    is_acyclic_induced,
    lower_bound_mais_constructive,
    mais_bruteforce,
    mais_lower,
)
from sicps.coloring import upper_bound_Ru
from sicps.icp import GapVector, build_union_icp, rotate_mask


def graph_of(gaps, L):
    return build_union_icp(GapVector(gaps, L))


def complete_side_info_graph(n):
    """Every user knows every other requested file: all 2-cycles."""
    all_nodes = frozenset((k, 1) for k in range(1, n + 1))
    known = tuple(all_nodes - {(k, 1)} for k in range(1, n + 1))
    return graph_from_sides(n, 1, known)


def test_constructive_fifteen_user_witness():
    spec = GapVector((5, 3, 2), 2)
    value, witness = lower_bound_mais_constructive(spec)
    assert value == 13
    # the staircase from the worked 15-user example
    assert witness == {
        (1, 1), (1, 2), (1, 3),
        (2, 1), (2, 2), (2, 3),
        (3, 1), (3, 2), (3, 3),
        (4, 1), (4, 3),
        (5, 1), (6, 1),
    }
    assert is_acyclic_induced(graph_of((5, 3, 2), 2), witness)


def test_constructive_values():
    value, witness = lower_bound_mais_constructive(GapVector((2, 1, 0), 2))
    assert value == 6 == sum(g + 1 for g in (2, 1, 0))
    assert is_acyclic_induced(graph_of((2, 1, 0), 2), witness)

    value, witness = lower_bound_mais_constructive(GapVector((4,), 1))
    assert value == 5
    assert len(witness) == 5  # all nodes of the edgeless instance


def test_constructive_witness_acyclic_sweep():
    rng = random.Random(31)
    for _ in range(40):
        spec = random_canonical_gap_vector(rng, max_K=18)
        value, witness = lower_bound_mais_constructive(spec)
        assert value == mais_lower(spec) == spec.K - (spec.i - 1) * spec.L + spec.i - 1
        assert is_acyclic_induced(build_union_icp(spec), witness), spec


def test_is_acyclic_induced_basics():
    graph = graph_of((2, 1, 0), 2)
    assert is_acyclic_induced(graph, frozenset())
    assert is_acyclic_induced(graph, {(1, 1)})
    # mutual side information forms a 2-cycle
    mutual = [
        (u, v)
        for u in graph.nodes
        for v in side_nodes(graph, u[0])
        if u in side_nodes(graph, v[0])
    ]
    assert mutual
    assert all(not is_acyclic_induced(graph, set(pair)) for pair in mutual[:5])


def test_bruteforce_edge_cases():
    edgeless = graph_of((7,), 1)
    assert mais_bruteforce(edgeless) == 8

    assert mais_bruteforce(complete_side_info_graph(9)) == 1
    assert mais_bruteforce(complete_side_info_graph(2)) == 1


def test_bruteforce_eight_user_value():
    # 24-node instance: constructive bound 6, rate bound 7; the oracle run
    # recorded the exact maximum 6.
    graph = graph_of((2, 1, 0), 2)
    assert mais_bruteforce(graph) == 6


def test_bruteforce_cap(capsys):
    # 23 users: refused before the 2^K table
    start = time.perf_counter()
    with pytest.raises(ValueError):
        mais_bruteforce(complete_side_info_graph(23))
    assert time.perf_counter() - start < 0.5
    # the CLI reports a refused oracle as skipped: K = 24
    code = cli.main(["icp", "analyze", "--gaps", "11,11", "--L", "1", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["bounds"]["lower_brute"] is None


def test_bruteforce_vs_constructive_small_sweep():
    for spec in canonical_gap_vectors(20):
        lower, witness = lower_bound_mais_constructive(spec)
        graph = build_union_icp(spec)
        brute = mais_bruteforce(graph)
        assert lower <= brute <= len(graph), spec


def subset_enumeration_mais(graph):
    """Independent oracle: try subset sizes from |V| downward."""
    import itertools

    nodes = list(graph.nodes)
    for size in range(len(nodes), 0, -1):
        for subset in itertools.combinations(nodes, size):
            if is_acyclic_induced(graph, set(subset)):
                return size
    return 0


def test_bruteforce_matches_subset_enumeration():
    # structured instances small enough for the exhaustive route
    for gaps, L in [((2, 1, 0), 2), ((1, 1), 1), ((3, 1), 2), ((2, 2), 1),
                    ((4, 0), 1), ((1, 0, 0), 1)]:
        graph = graph_of(gaps, L)
        if len(graph) > 12:
            continue
        assert mais_bruteforce(graph) == subset_enumeration_mais(graph), (gaps, L)


@settings(max_examples=150, deadline=None)
@given(graph=side_info_graphs(max_users=5, max_columns=2, self_knowledge=True))
def test_bruteforce_matches_subset_enumeration_on_arbitrary_graphs(graph):
    # At most 10 nodes, K = 1 and i = 1 included; a user may know its own nodes.
    assert mais_bruteforce(graph) == subset_enumeration_mais(graph)


def relabel_users(graph, perm):
    """The same graph with user k renamed perm[k - 1]."""
    side = [frozenset()] * graph.K
    for k in range(1, graph.K + 1):
        side[perm[k - 1] - 1] = frozenset((perm[b - 1], t) for b, t in side_nodes(graph, k))
    return graph_from_sides(graph.K, graph.num_columns, side)


@settings(max_examples=150, deadline=None)
@given(spec=gap_vectors(max_nodes=26), data=st.data())
def test_bruteforce_symmetric_path_matches_plain_dp(spec, data):
    # The union takes the user-shift path of both the orbit DP and the level
    # DP; a random relabelling generally breaks the symmetry, so the copy
    # takes each one's full DP over all K users.  All four must agree.
    graph = build_union_icp(spec)
    perm = data.draw(st.permutations(range(1, spec.K + 1)))
    value = orbit_dp_mais(graph)
    plain = relabel_users(graph, perm)
    assert graph.has_user_shift and plain.has_user_shift == has_user_shift(plain)
    assert mais_bruteforce(graph) == mais_bruteforce(plain) == orbit_dp_mais(plain) == value


def has_user_shift(graph):
    """Whether shifting every user by one maps the side information onto itself."""
    sides = graph.user_side
    return tuple(rotate_mask(side, graph.num_columns, len(graph)) for side in sides) == (
        sides[1:] + sides[:1])


@pytest.mark.parametrize("gaps, L, K, value", [
    ((1, 1), 1, 4, 4),  # 8 nodes
    ((1, 0), 2, 4, 3),
    ((2, 2), 1, 6, 6),
    ((5, 5), 1, 12, 12),
    ((2, 1), 3, 7, 5),  # K prime: every orbit but the empty and full sets has K sets
])
def test_bruteforce_orbit_fill_on_composite_K(gaps, L, K, value):
    # With K composite, user sets such as {1, 3} (K = 4) repeat under fewer
    # than K shifts, so the test oracle's orbit fill writes some of them more
    # than once.  The level DP takes its user-shift path on the union and its
    # full DP on the relabelled copy, and must agree on both graphs.
    graph = graph_of(gaps, L)
    plain = relabel_users(graph, [1, 3, 2] + list(range(4, K + 1)))
    assert graph.K == K and has_user_shift(graph) and not has_user_shift(plain)
    assert orbit_dp_mais(graph) == orbit_dp_mais(plain) == value
    assert mais_bruteforce(graph) == mais_bruteforce(plain) == value
    if len(graph) <= 10:
        assert subset_enumeration_mais(graph) == value


def test_bruteforce_finds_the_user_shift_of_a_union():
    # K = 16 and 32 nodes: the union has the user shift, so the test oracle
    # fills one entry per orbit and the level DP runs over users 1..15; a
    # relabelled copy has none, and both run their full DP.  The level DP
    # must give the oracle's value on each.
    graph = graph_of((7, 7), 1)
    plain = relabel_users(graph, [1, 3, 2] + list(range(4, 17)))
    assert has_user_shift(graph) and not has_user_shift(plain)
    assert orbit_dp_mais(graph) == orbit_dp_mais(plain) == 16
    assert mais_bruteforce(graph) == mais_bruteforce(plain) == 16


@pytest.mark.parametrize("gaps, L", [((7, 7), 1), ((2, 1, 0), 2), ((1, 0), 2), ((2, 0, 0), 1)])
def test_bruteforce_table_drops_user_K_on_a_union(monkeypatch, gaps, L):
    # Spy on the users the level DP's table covers: K - 1 on the union, whose
    # sets are then 2^(K-1) bits wide, and all K on a relabelled copy.
    table, users = bounds._first_users_mais, []

    def spy(sides, K, i):
        users.append(K)
        return table(sides, K, i)

    monkeypatch.setattr(bounds, "_first_users_mais", spy)
    graph = graph_of(gaps, L)
    plain = relabel_users(graph, [1, 3, 2] + list(range(4, graph.K + 1)))
    assert graph.has_user_shift and not plain.has_user_shift
    assert mais_bruteforce(graph) == mais_bruteforce(plain) == orbit_dp_mais(graph)
    assert users == [graph.K - 1, graph.K]


def test_bruteforce_raised_cap_values():
    # 40 nodes and K = 20.
    for gaps, L, value in [((9, 9), 1, 20), ((7, 7), 5, 16)]:
        assert mais_bruteforce(graph_of(gaps, L)) == value


def test_exact_rate_cases():
    spec = GapVector((5, 0, 0), 3)
    assert spec.K == 12
    assert exact_rate_special(spec) == 8
    # sandwich consistency: bound formulas collapse
    assert upper_bound_Ru(spec) == 8 == lower_bound_mais_constructive(spec)[0]

    assert exact_rate_special(GapVector((3, 2, 1), 1)) == 9
    assert exact_rate_special(GapVector((2, 1), 6)) == 5
    assert exact_rate_special(GapVector((3, 2, 1), 2)) is None
    assert exact_rate_special(GapVector((2, 1), 7)) is None  # K=11 not divisible by 5


def test_exact_rate_sandwich_sweep():
    for spec in canonical_gap_vectors(40):
        exact = exact_rate_special(spec)
        if exact is None:
            continue
        lower = spec.K - (spec.i - 1) * spec.L + spec.i - 1
        assert lower <= exact <= upper_bound_Ru(spec), spec


def test_exact_rate_is_achieved_by_a_coloring():
    # wherever an exact value exists, one of the two constructions attains it;
    # the report computes exactly these values, and None everywhere else
    from sicps.coloring import local_chromatic_value, theorem1_coloring, theorem5_coloring

    for spec in canonical_gap_vectors(40):
        exact = exact_rate_special(spec)
        icp = build_union_icp(spec)
        assert build_report(icp).exact == exact, spec
        if exact is None:
            continue
        values = [local_chromatic_value(icp, theorem1_coloring(icp))]
        if spec.i == 2 and spec.K % (sum(spec.gaps) + 2) == 0:
            values.append(local_chromatic_value(icp, theorem5_coloring(icp)))
        assert min(values) == exact, spec


@settings(max_examples=150, deadline=None)
@given(spec=gap_vectors(max_nodes=40))
def test_exact_is_where_computed_bounds_meet(spec):
    report = build_report(build_union_icp(spec))
    assert report.exact == exact_rate_special(spec)
    # the user limit is the oracle's only refusal; one column has no side information
    assert (report.lower_brute is not None) == (spec.K <= MAX_ORACLE_USERS or spec.i == 1)
    uppers = [v for v in (report.local_chromatic, report.local_chromatic_t5) if v is not None]
    lower = max(report.lower_constructive, report.lower_brute or 0)
    assert min(uppers) >= lower
    assert (report.exact is not None) == (min(uppers) == lower)


def test_gap_ratio_examples():
    assert gap_ratio(GapVector((2, 1, 0), 2)) == Fraction(7, 6)
    assert gap_ratio(GapVector((3, 2, 1), 2)) == Fraction(11, 9)
    assert gap_ratio(GapVector((6, 0, 0, 0), 2)) == 1


def test_gap_ratio_at_most_two_sweep():
    rng = random.Random(47)
    for _ in range(150):
        spec = random_canonical_gap_vector(rng, max_K=30)
        assert gap_ratio(spec) <= 2, spec


def test_tilde_bounds_examples():
    assert tilde_icp_bounds((1,), 3, 2) == (2, Fraction(8, 3))
    assert tilde_icp_bounds((3, 0, 0), 1, 2) == (6, 6)
    assert tilde_icp_bounds((2, 1, 0), 1, 2) == (6, 7)


def test_tilde_bounds_ordering_sweep():
    from sicps.icp import canonical_rotation

    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 4)
        s = canonical_rotation(tuple(rng.randint(0, 4) for _ in range(m)))[0]
        lower, upper = tilde_icp_bounds(s, rng.randint(1, 3), rng.randint(1, 4))
        assert lower <= upper, s


def test_tilde_bounds_validation():
    with pytest.raises(ValueError):
        tilde_icp_bounds((), 1, 2)
    with pytest.raises(ValueError):
        tilde_icp_bounds((1, 2), 1, 2)  # max entry must lead
    with pytest.raises(ValueError):
        tilde_icp_bounds((2, 1), 0, 2)


def test_bound_report_assembly_and_json():
    report = build_report(build_union_icp(GapVector((2, 1, 0), 2)))
    assert (report.upper, report.lower_constructive, report.lower_brute) == (7, 6, 6)
    assert report.exact is None
    assert (report.colors, report.local_chromatic, report.local_chromatic_t5) == (8, 7, None)
    payload = report.to_json()
    assert list(payload) == ["upper", "lower_constructive", "lower_brute", "exact", "witness"]
    assert payload["exact"] is None
    assert [1, 1] in payload["witness"]

    # 33 nodes and K = 11: the oracle meets the staircase
    big = build_report(build_union_icp(GapVector((3, 2, 1), 2)))
    assert big.lower_brute == 9
    assert big.upper == 11

    exact = build_report(build_union_icp(GapVector((2, 1), 6)))
    assert exact.exact == 5
    assert exact.local_chromatic_t5 == 5  # Theorem 5 meets the staircase
    assert str(exact.to_json()["exact"]) == "5"


def test_bound_report_rejects_inconsistent_values():
    colorings = dict(colors=8, local_chromatic=7, local_chromatic_t5=None)
    with pytest.raises(ValueError):
        BoundReport(upper=5, lower_constructive=6, lower_brute=None,
                    exact=None, witness=frozenset(), **colorings)
    with pytest.raises(ValueError):
        BoundReport(upper=7, lower_constructive=6, lower_brute=5,
                    exact=None, witness=frozenset(), **colorings)
    # MAIS <= broadcast rate <= local chromatic value, for either coloring
    with pytest.raises(ValueError):
        BoundReport(upper=9, lower_constructive=6, lower_brute=8,
                    exact=None, witness=frozenset(), **colorings)
    with pytest.raises(ValueError):
        BoundReport(upper=9, lower_constructive=6, lower_brute=None, exact=None,
                    witness=frozenset(), colors=8, local_chromatic=None, local_chromatic_t5=5)
    BoundReport(upper=9, lower_constructive=6, lower_brute=7, exact=Fraction(7),
                witness=frozenset(), colors=8, local_chromatic=7, local_chromatic_t5=None)
