"""Broadcast scheme construction and finite-field decode verification."""

from __future__ import annotations

import gc
import itertools
import math
import random
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    greedy_colored_graphs,
    graph_from_sides,
    greedy_coloring,
    master_product,
    naive_local_chromatic,
    side_info_graphs,
    side_nodes,
    small_gap_vectors,
    theorem1_colored_unions,
    vandermonde_matrix,
)
import sicps.scheme as scheme_module
from sicps import cli
from sicps.cli import _scheme_json
from sicps.coloring import (
    Coloring,
    local_chromatic_value,
    theorem1_coloring,
    theorem5_coloring,
    upper_bound_Ru,
    verify_proper,
)
from sicps.field import solve_mod
from sicps.icp import GapVector, build_union_icp
from sicps.macc import CcdnConfig, end_to_end_simulate
from sicps.scheme import (
    PRIME_CHECK_BOUND,
    Broadcast,
    DecodePlan,
    MdsCode,
    TransmissionScheme,
    build_mds_scheme,
    decode_node,
    is_prime,
    next_prime_at_least,
    plan_decode,
    simulate_decode,
)


def setup(gaps, L):
    return build_union_icp(GapVector(gaps, L))


def det_mod(matrix, q):
    m = [list(row) for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % q), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % q
        inv = pow(m[col][col], -1, q)
        m[col] = [x * inv % q for x in m[col]]
        for r in range(col + 1, n):
            f = m[r][col]
            if f:
                m[r] = [(m[r][j] - f * m[col][j]) % q for j in range(n)]
    return det % q


def all_minors_nonsingular(generator, q):
    chi = len(generator)
    n = len(generator[0])
    for cols in itertools.combinations(range(n), chi):
        sub = [[row[c] for c in cols] for row in generator]
        if det_mod(sub, q) == 0:
            return False
    return True


def test_scheme_eight_user_example():
    icp = setup((2, 1, 0), 2)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(8, 251))
    assert scheme.chi == 7
    assert scheme.field_order == 251
    generator = vandermonde_matrix(scheme.num_colors, scheme.chi, scheme.field_order)
    assert len(generator) == 7
    assert len(generator[0]) == 8


def test_scheme_single_node():
    icp = setup((0,), 1)
    assert len(icp) == 1
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(1, 2))
    assert vandermonde_matrix(scheme.num_colors, scheme.chi, scheme.field_order) == [[1]]
    messages = {(1, 1): 1}
    assert scheme.transmit(messages) == [1]
    assert simulate_decode(scheme, messages) == messages


def test_scheme_two_column_coloring():
    icp = setup((2, 1), 6)
    scheme = build_mds_scheme(icp, theorem5_coloring(icp), MdsCode(5))
    assert scheme.chi == 5
    assert scheme.num_colors == 5


def test_field_validation():
    icp = setup((2, 1, 0), 2)
    coloring = theorem1_coloring(icp)
    with pytest.raises(ValueError, match="field order 7 too small for 8 colors"):
        MdsCode(8, 7)
    with pytest.raises(ValueError, match="field order 256 is not prime"):
        MdsCode(8, 256)
    with pytest.raises(ValueError, match="a code over 7 colors cannot carry a coloring with 8"):
        build_mds_scheme(icp, coloring, MdsCode(7, 251))
    assert MdsCode(8).field_order == 257
    assert MdsCode(300).field_order == 307


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), q=st.integers(-3, 3100))
@example(n=256, q=257)
@example(n=257, q=257)  # q = n: color n sits at point 0
@example(n=3000, q=3001)
def test_mds_code_chooses_and_accepts_the_field(n, q):
    least = max(257, n + 1)
    assert MdsCode(n).field_order == next(p for p in itertools.count(least)
                                          if trial_division_is_prime(p))
    if trial_division_is_prime(q) and q >= n:
        assert MdsCode(n, q).field_order == q
    else:
        reason = "too small for" if trial_division_is_prime(q) else "is not prime"
        with pytest.raises(ValueError, match=f"field order {q} {reason}"):
            MdsCode(n, q)


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 200_000) if is_prime(n) != trial_division_is_prime(n)] == []


def test_is_prime_large_orders():
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime(2**61 + 1)
    # Strong pseudoprimes to the first eleven and twelve primes as bases.
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(PRIME_CHECK_BOUND - 1)
    assert is_prime(10**24 + 7)  # the first prime above 10**24
    with pytest.raises(ValueError, match="checked exactly"):
        is_prime(PRIME_CHECK_BOUND)


def test_generator_is_mds_exhaustive_small():
    for gaps, L, q in [((2, 1), 1, 11), ((2, 1, 0), 2, 251), ((1, 1), 2, 13)]:
        icp = setup(gaps, L)
        scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(icp.K, q))
        assert scheme.num_colors <= 12
        assert all_minors_nonsingular(vandermonde_matrix(scheme.num_colors, scheme.chi, q), q)


def test_generator_is_mds_spot_check_large():
    icp = setup((3, 2, 1), 2)  # 11 colors
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(icp.K))
    rng = random.Random(23)
    q = scheme.field_order
    generator = vandermonde_matrix(scheme.num_colors, scheme.chi, q)
    for _ in range(200):
        cols = rng.sample(range(scheme.num_colors), scheme.chi)
        sub = [[row[c] for c in sorted(cols)] for row in generator]
        assert det_mod(sub, q) != 0


def test_decode_eight_user_fixed_seed():
    icp = setup((2, 1, 0), 2)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(8, 251))
    rng = random.Random("decode:0")
    messages = {node: rng.randrange(251) for node in icp.nodes}
    assert simulate_decode(scheme, messages) == messages


def test_decode_no_side_information():
    # i=1: every aggregate is unknown, decoding is a direct full solve.
    icp = setup((4,), 1)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(5, 11))
    assert scheme.chi == scheme.num_colors == 5
    rng = random.Random(2)
    messages = {node: rng.randrange(11) for node in icp.nodes}
    assert simulate_decode(scheme, messages) == messages


def test_decode_eleven_user_repeated_trials():
    icp = setup((3, 2, 1), 2)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(icp.K))
    failures = 0
    for trial in range(100):
        rng = random.Random(f"trial:{trial}")
        messages = {node: rng.randrange(scheme.field_order) for node in icp.nodes}
        decoded = simulate_decode(scheme, messages)
        failures += sum(decoded[node] != messages[node] for node in icp.nodes)
    assert failures == 0


def test_decode_across_fields_and_colorings():
    cases = [
        ((2, 1), 6, theorem5_coloring, [5, 11, 257]),
        ((2, 2, 0), 2, theorem1_coloring, [11, 1009]),
        ((3, 0, 0), 2, theorem1_coloring, [11, 257]),
    ]
    for gaps, L, make_coloring, fields in cases:
        icp = setup(gaps, L)
        coloring = make_coloring(icp)
        for q in fields:
            scheme = build_mds_scheme(icp, coloring, MdsCode(coloring.num_colors, q))
            rng = random.Random(f"{gaps}:{q}")
            messages = {node: rng.randrange(q) for node in icp.nodes}
            assert simulate_decode(scheme, messages) == messages


def test_decode_requires_full_message_map():
    icp = setup((2, 1), 1)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(icp.K))
    with pytest.raises(ValueError):
        simulate_decode(scheme, {})


def test_solve_mod_rejects_singular():
    with pytest.raises(ValueError):
        solve_mod([[1, 2], [2, 4]], [1, 0], 5)


def test_decode_node_returns_every_node_of_the_user():
    icp = setup((2, 1, 0), 2)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(8, 251))
    rng = random.Random(3)
    messages = {node: rng.randrange(251) for node in icp.nodes}
    broadcast = scheme.transmit(messages)
    decoded = decode_node(plan_decode(scheme, 4), messages, broadcast)
    assert decoded == {(4, t): messages[(4, t)] for t in (1, 2, 3)}


def _unknown_colors(graph, coloring, user):
    unknown = frozenset(graph.nodes) - side_nodes(graph, user)
    return tuple(sorted({coloring.assignment[nd] for nd in unknown}))


def test_decode_error_on_zero_denominator():
    # Below the color count, points 1..8 would collide mod 5: user 1 owns
    # colors 1, 7 and 4, and color 6, also unknown to it, sits on color 1's
    # point, so its solve would divide by zero.  No code, and so no scheme, is
    # built over GF(5), so no decode ever reaches that denominator.
    icp = setup((2, 1, 0), 2)
    coloring = theorem1_coloring(icp)
    assert [coloring.assignment[(1, t)] for t in (1, 2, 3)] == [1, 7, 4]
    assert 6 in _unknown_colors(icp, coloring, 1) and 6 % 5 == 1 % 5
    with pytest.raises(ValueError, match="field order 5 too small for 8 colors"):
        MdsCode(8, 5)
    with pytest.raises(ValueError, match="not prime"):
        MdsCode(8, 9)
    # The smallest admissible prime decodes the same instance.
    messages = {node: (node[0] + 3 * node[1]) % 11 for node in icp.nodes}
    scheme = build_mds_scheme(icp, coloring, MdsCode(8, 11))
    assert simulate_decode(scheme, messages) == messages


def test_transposed_vandermonde_rows_reject_a_repeated_point():
    # The barycentric weights solve a transposed Vandermonde system, which
    # needs distinct points: every admissible code has them, q = n included,
    # where color n sits on point 0.
    assert MdsCode(7, 7).points == [1, 2, 3, 4, 5, 6, 0]
    for q in (p for p in SMALL_PRIMES if p <= 13):
        for n in range(1, q + 1):
            assert len(set(MdsCode(n, q).points)) == n
        # One color more would repeat the point of color 1.
        assert (q + 1) % q == 1 % q
        with pytest.raises(ValueError, match=f"field order {q} too small for {q + 1} colors"):
            MdsCode(q + 1, q)


def test_scheme_over_an_improper_coloring_is_refused_by_name():
    # Node (2,1) joins the class of (1,1), though user 1 does not know it:
    # subtracting the class less (1,1) would silently decode a wrong value,
    # so no scheme is built over that coloring, by either route.
    icp = setup((2, 1, 0), 2)
    assignment = dict(theorem1_coloring(icp).assignment)
    assignment[(2, 1)] = assignment[(1, 1)]
    coloring = Coloring(assignment, 8)
    assert verify_proper(icp, coloring)[0] == ((1, 1), (2, 1))
    message = (r"coloring is not proper: \(1, 1\) and \(2, 1\) share color 1, "
               r"but user 1 does not know \(2, 1\)")
    with pytest.raises(ValueError, match=message):
        build_mds_scheme(icp, coloring, MdsCode(8, 251))
    with pytest.raises(ValueError, match=message):
        TransmissionScheme(icp, coloring, MdsCode(8, 251))


def test_user_that_knows_its_own_node_decodes_it():
    # User 1 knows its own node (1,1), and its class is fully known: the
    # node decodes to its own message, read from side information.
    graph = graph_from_sides(2, 1, ({(1, 1), (2, 1)}, set()))
    coloring = Coloring({(1, 1): 1, (2, 1): 2}, 2)
    assert verify_proper(graph, coloring) == []
    scheme = build_mds_scheme(graph, coloring, MdsCode(2))
    assert scheme.chi == 2
    plan = plan_decode(scheme, 1)
    assert (plan.m, plan.full, plan.colors) == (0, [1, 2], [1])
    plain = {(1, 1): 5, (2, 1): 9}
    messages = RecordingMessages(plain)
    assert decode_node(plan, messages, scheme.transmit(plain)) == {(1, 1): 5}
    assert messages.read <= side_nodes(graph, 1)
    assert simulate_decode(scheme, plain) == plain


SMALL_PRIMES = [p for p in range(2, 60) if is_prime(p)]


@st.composite
def barycentric_systems(draw):
    """(q, n, full, own, aggregates): n <= q colors (q = n included), full colors F, own colors.

    F is any proper subset of the colors, in any order, and the own colors
    are distinct colors outside it.
    """
    q = draw(st.sampled_from([p for p in SMALL_PRIMES if p <= 31]))
    n = draw(st.one_of(st.just(q), st.integers(1, q)))
    full = draw(st.lists(st.integers(1, n), max_size=n - 1, unique=True))
    unknown = [c for c in range(1, n + 1) if c not in full]
    own = draw(st.lists(st.sampled_from(unknown), min_size=1, unique=True))
    aggregates = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    return q, n, full, own, aggregates


@settings(max_examples=200, deadline=None)
@given(barycentric_systems())
@example((7, 7, [3, 7], [1, 6], [4, 0, 6, 1, 2, 5, 3]))  # q = n: color 7 sits at point 0
@example((7, 7, [], [7], [4, 0, 6, 1, 2, 5, 3]))  # no color known: a full solve
@example((2, 1, [], [1], [1]))
def test_transposed_vandermonde_matches_gaussian_elimination(system):
    # The first m symbols, less what F sends, are a transposed Vandermonde
    # system in the m unknown aggregates; the barycentric solve at each own
    # color must match the general Gaussian elimination.
    q, n, full, own, aggregates = system
    code = MdsCode(n, q)
    unknown = [c for c in range(1, n + 1) if c not in full]
    m, points = len(unknown), code.points
    symbols = [sum(a * pow(p, r, q) for a, p in zip(aggregates, points)) % q for r in range(m)]
    residual = [(b - sum(aggregates[f - 1] * pow(points[f - 1], r, q) for f in full)) % q
                for r, b in enumerate(symbols)]
    matrix = [[pow(points[u - 1], r, q) for u in unknown] for r in range(m)]
    expected = dict(zip(unknown, solve_mod(matrix, residual, q)))
    assert all(expected[u] == aggregates[u - 1] for u in unknown)
    u = Broadcast(symbols, code).dots(m)
    excess = [u[f - 1] - aggregates[f - 1] for f in full]
    solved = [(u[c - 1] + sum(map(mul, weights, excess))) % q
              for c, weights in zip(own, code.weights(full, own))]
    assert solved == [expected[c] for c in own]


@settings(max_examples=60, deadline=None)
@given(spec=small_gap_vectors(), small_field=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(spec=GapVector((2, 2, 0), 2), small_field=False, seed=17)  # chi 8, Ru 9
def test_decode_round_trips_on_generated_gap_vectors(spec, small_field, seed):
    assert spec.K * spec.i <= 60
    icp = build_union_icp(spec)
    # The smallest admissible prime puts color K at point 0 whenever K is prime.
    q = next_prime_at_least(spec.K) if small_field else None
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(spec.K, q))
    assert scheme.chi <= upper_bound_Ru(spec)
    rng = random.Random(seed)
    messages = {node: rng.randrange(scheme.field_order) for node in icp.nodes}
    assert simulate_decode(scheme, messages) == messages


@settings(max_examples=100, deadline=None)
@given(graph=side_info_graphs(), seed=st.integers(0, 2**32 - 1))
def test_local_chromatic_value_and_decode_on_arbitrary_side_information(graph, seed):
    # Not union instances: no user shift, and users differ in how much they know.
    nodes = graph.nodes
    coloring = Coloring({nd: c for c, nd in enumerate(nodes, start=1)}, len(nodes))
    chi = local_chromatic_value(graph, coloring)
    assert chi == naive_local_chromatic(graph, coloring)
    scheme = build_mds_scheme(graph, coloring, MdsCode(len(nodes)))
    assert scheme.chi == chi
    rng = random.Random(seed)
    messages = {node: rng.randrange(scheme.field_order) for node in nodes}
    assert simulate_decode(scheme, messages) == messages


MUTUAL_PAIR = graph_from_sides(2, 2, ({(2, 1), (2, 2)}, {(1, 1), (1, 2)}))


@settings(max_examples=100, deadline=None)
@given(colored=greedy_colored_graphs(), small_field=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(colored=(MUTUAL_PAIR, greedy_coloring(MUTUAL_PAIR, MUTUAL_PAIR.nodes)),
         small_field=True, seed=0)  # two two-member classes, q = n = 2
def test_decode_round_trips_under_greedy_coloring_on_arbitrary_side_information(
    colored, small_field, seed
):
    # Multi-member classes outside union instances: users with partially
    # known colors, and own colors whose aggregates hold known messages.
    graph, coloring = colored
    assert verify_proper(graph, coloring) == []
    # The smallest admissible prime puts color n at point 0 whenever n is prime.
    q = next_prime_at_least(coloring.num_colors) if small_field else None
    scheme = build_mds_scheme(graph, coloring, MdsCode(coloring.num_colors, q))
    assert scheme.chi == naive_local_chromatic(graph, coloring)
    rng = random.Random(seed)
    messages = {node: rng.randrange(scheme.field_order) for node in graph.nodes}
    assert simulate_decode(scheme, messages) == messages


@settings(max_examples=100, deadline=None)
@given(graph=side_info_graphs(self_knowledge=True), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_decode_round_trips_when_users_know_their_own_nodes(graph, data, seed):
    # A known own node's class may be fully known; it decodes from side information.
    coloring = greedy_coloring(graph, data.draw(st.permutations(graph.nodes)))
    scheme = build_mds_scheme(graph, coloring, MdsCode(coloring.num_colors))
    assert scheme.chi == naive_local_chromatic(graph, coloring)
    rng = random.Random(seed)
    messages = {node: rng.randrange(scheme.field_order) for node in graph.nodes}
    assert simulate_decode(scheme, messages) == messages


@settings(max_examples=100, deadline=None)
@given(colored=st.one_of(small_gap_vectors().map(theorem1_colored_unions),
                         greedy_colored_graphs()))
def test_chi_is_the_most_unknown_colors_of_any_user(colored):
    # Every user's m is at most chi, so the first m rows always exist, and
    # some user needs all chi of them.
    graph, coloring = colored
    scheme = build_mds_scheme(graph, coloring, MdsCode(coloring.num_colors))
    assert max(plan_decode(scheme, k).m for k in range(1, graph.K + 1)) == scheme.chi


@settings(max_examples=100, deadline=None)
@given(source=st.one_of(small_gap_vectors(), greedy_colored_graphs()),
       small_field=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(source=GapVector((2, 1), 3), small_field=True, seed=0)  # q = n = 7
@example(source=(MUTUAL_PAIR, greedy_coloring(MUTUAL_PAIR, MUTUAL_PAIR.nodes)),
         small_field=True, seed=1)  # q = n = 2
def test_transmit_applies_the_vandermonde_generator_to_the_color_aggregates(
    source, small_field, seed
):
    # The broadcast symbols themselves, not only the round trip: symbol r is
    # sum_c (c mod q)**r times the sum of the messages of color c.
    if isinstance(source, GapVector):
        graph, coloring = theorem1_colored_unions(source)
    else:
        graph, coloring = source
    n = coloring.num_colors
    # The smallest admissible prime puts color n at point 0 whenever n is prime.
    q = next_prime_at_least(n) if small_field else None
    scheme = build_mds_scheme(graph, coloring, MdsCode(n, q))
    q = scheme.field_order
    rng = random.Random(seed)
    messages = {node: rng.randrange(q) for node in graph.nodes}
    aggregates = [0] * n
    for node, value in messages.items():
        aggregates[coloring.assignment[node] - 1] += value
    expected = [sum(g * a for g, a in zip(row, aggregates)) % q
                for row in vandermonde_matrix(n, scheme.chi, q)]
    assert scheme.transmit(messages) == expected


class RecordingMessages(dict):
    """Messages that record every node whose message is read."""

    def __init__(self, messages):
        super().__init__(messages)
        self.read = set()

    def __getitem__(self, node):
        self.read.add(node)
        return super().__getitem__(node)

    def get(self, node, default=None):
        self.read.add(node)
        return super().get(node, default)

    def items(self):
        self.read.update(self)
        return super().items()

    def values(self):
        self.read.update(self)
        return super().values()


@settings(max_examples=100, deadline=None)
@given(colored=st.one_of(small_gap_vectors().map(theorem1_colored_unions),
                         greedy_colored_graphs()),
       seed=st.integers(0, 2**32 - 1))
def test_decode_reads_only_the_users_side_information(colored, seed):
    # One plan per user, reused over several message sets, decodes each exactly.
    graph, coloring = colored
    scheme = build_mds_scheme(graph, coloring, MdsCode(coloring.num_colors))
    rng = random.Random(seed)
    plans = [plan_decode(scheme, k) for k in range(1, graph.K + 1)]
    for _ in range(3):
        plain = {node: rng.randrange(scheme.field_order) for node in graph.nodes}
        broadcast = scheme.transmit(plain)
        for k, plan in enumerate(plans, start=1):
            messages = RecordingMessages(plain)
            decoded = decode_node(plan, messages, broadcast)
            assert decoded == {(k, t): plain[(k, t)] for t in range(1, graph.num_columns + 1)}
            assert messages.read <= side_nodes(graph, k), k
        assert simulate_decode(scheme, plain, plans) == plain


def live_plans():
    gc.collect()
    return sum(type(obj) is DecodePlan for obj in gc.get_objects())


def test_one_trial_decode_retains_no_plan():
    icp = setup((2, 1, 0), 2)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(8, 251))
    rng = random.Random(5)
    messages = {node: rng.randrange(251) for node in icp.nodes}
    before = live_plans()
    plans = [plan_decode(scheme, k) for k in range(1, icp.K + 1)]
    assert live_plans() == before + icp.K  # the count sees plans that are kept
    del plans
    assert simulate_decode(scheme, messages) == messages
    assert live_plans() == before


def test_simulation_builds_each_weight_list_once_and_plans_share_it(monkeypatch):
    # At (8,2,2) the users of the four rotation classes fully know 0, 1 or 2
    # colors: 56 (F, own color) keys serve the 96 own nodes of every class's users.
    plans = []

    def spy_plan(scheme, user):
        plans.append(plan_decode(scheme, user))
        return plans[-1]

    monkeypatch.setattr(scheme_module, "plan_decode", spy_plan)
    report = end_to_end_simulate(CcdnConfig(8, 8, 2), 2, list(range(1, 9)), seed=1)
    assert report.decoded_ok
    assert sum(len(plan.own) for plan in plans) == 96
    (code,) = {plan.scheme.code for plan in plans}
    # Plans with equal keys hold the same list object, across users and classes.
    lists, schemes = {}, {}
    for plan in plans:
        for c, weights in zip(plan.colors, plan.weights):
            key = (tuple(plan.full), c)
            assert lists.setdefault(key, weights) is weights
            schemes.setdefault(key, set()).add(id(plan.scheme))
    assert len(lists) == 56
    assert max(map(len, schemes.values())) > 1 and len(report.classes) == 4
    # The code built exactly those lists, each once.
    built = [weights for _, by_own in code._by_full.values() for weights in by_own.values()]
    assert sorted(map(id, built)) == sorted(map(id, lists.values()))


def horner(poly, x, q):
    """The value at x over GF(q) of a polynomial given lowest degree first."""
    value = 0
    for c in reversed(poly):
        value = (value * x + c) % q
    return value


def test_bases_share_one_int_per_residue_where_the_field_is_small():
    # GF(307) for 300 colors: Python caches no int above 256, so the table's
    # 90,000 coefficients would be as many objects without the shared residues.
    code = MdsCode(300, 307)
    bases = code.bases
    assert len(bases) == 300 and {len(basis) for basis in bases} == {300}
    assert len({id(c) for basis in bases for c in basis}) <= 307
    equal = [(a, b) for a, b in zip(bases[0], bases[1]) if a == b]
    assert equal and all(a is b for a, b in equal)
    # Each is still the Lagrange polynomial: 1 at its own point, 0 at the others.
    for x in (1, 2, 150, 300):
        values = [horner(bases[x - 1], y, 307) for y in (1, 2, 150, 300)]
        assert values == [int(y == x) for y in (1, 2, 150, 300)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), smallest=st.booleans())
@example(n=7, smallest=True)  # q = n: color 7 sits at point 0
@example(n=1, smallest=False)
def test_every_row_of_bases_is_its_lagrange_polynomial(n, smallest):
    # l_x(p_y) = [x = y] over all n points.  The smallest prime at least n is
    # at most 2n (Bertrand), so it shares residues, and it is n itself when n
    # is prime; the default field for n < 257 is above 2n.
    code = MdsCode(n, next_prime_at_least(n) if smallest else None)
    q = code.field_order
    assert (q <= 2 * n) == smallest
    assert len(code.bases) == n
    for x, basis in enumerate(code.bases, start=1):
        assert len(basis) == n and all(0 <= c < q for c in basis)
        assert [horner(basis, p, q) for p in code.points] == [int(y == x) for y in range(1, n + 1)]


THREE_USERS = graph_from_sides(3, 2, ({(2, 1), (2, 2), (3, 1), (3, 2)}, {(3, 1)}, set()))


@pytest.mark.parametrize("graph, coloring", [
    theorem1_colored_unions(GapVector((9, 7, 5, 3, 1), 3)),  # every user has m = 37
    (THREE_USERS, Coloring({nd: c for c, nd in enumerate(THREE_USERS.nodes, start=1)}, 6)),
])
def test_each_shared_dot_is_computed_once_per_trial(monkeypatch, graph, coloring):
    # The dots of the first m symbols with the bases read no message, so per
    # trial one vector of all n dots is built when the first user with that
    # m reads it, and every later user with that m gets the same list.
    real_dots = Broadcast.dots
    reads = []

    def spy_dots(self, m):
        reads.append((self, m, real_dots(self, m)))
        return reads[-1][2]

    monkeypatch.setattr(Broadcast, "dots", spy_dots)
    code = MdsCode(coloring.num_colors)
    scheme = build_mds_scheme(graph, coloring, code)
    plans = [plan_decode(scheme, k) for k in range(1, graph.K + 1)]
    rows = {plan.m for plan in plans}
    assert len(rows) == (1 if graph.K > 3 else 3)
    q, n, rng = code.field_order, code.num_colors, random.Random(4)
    for _ in range(3):
        reads.clear()
        messages = {node: rng.randrange(q) for node in graph.nodes}
        assert simulate_decode(scheme, messages, plans) == messages
        assert len(reads) == graph.K and len({id(b) for b, _, _ in reads}) == 1
        vectors = {m: {id(u) for _, m_, u in reads if m_ == m} for m in rows}
        assert all(len(ids) == 1 for ids in vectors.values())
        # sum_x l_x[r] * p_x**j = [r = j] for j < n, so the vector's moments
        # give back the first m symbols, then zeros.
        for broadcast, m, u in reads:
            assert len(u) == n
            moments = [sum(d * pow(p, j, q) for d, p in zip(u, code.points)) % q
                       for j in range(n)]
            assert moments == broadcast[:m] + [0] * (n - m)


def live_codes():
    gc.collect()
    return sum(type(obj) is MdsCode for obj in gc.get_objects())


def test_no_code_outlives_its_command(capsys):
    before = live_codes()
    code = MdsCode(8)
    assert live_codes() == before + 1  # the count sees a code that is kept
    del code
    report = end_to_end_simulate(CcdnConfig(8, 8, 2), 2, list(range(1, 9)), seed=1)
    assert report.decoded_ok and len(report.classes) > 1
    assert live_codes() == before
    assert cli.main(["icp", "decode-test", "--gaps", "2,1,0", "--L", "2",
                     "--trials", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    assert live_codes() == before


@st.composite
def unions_with_one_color_count(draw):
    """(K, q, [(graph, coloring)]): union instances of K users, each colored with K colors.

    Each graph is drawn with its own i and L; its coloring is Theorem 1's or,
    where first fit needs at most K colors, a greedy one padded to K.  q is
    the default field or the smallest prime at least K (q = K when K is
    prime, putting color K at point 0).
    """
    K = draw(st.integers(1, 12))
    instances = []
    for _ in range(draw(st.integers(1, 4))):
        L = draw(st.integers(1, 3))
        i = draw(st.integers(1, min(4, (K - 1) // L + 1)))
        total = K - 1 - (i - 1) * L
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=i - 1, max_size=i - 1)))
        gaps = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        spec, _ = GapVector(gaps, L).canonicalize()
        graph, coloring = theorem1_colored_unions(spec)
        if draw(st.booleans()):
            greedy = greedy_coloring(graph, draw(st.permutations(graph.nodes)))
            if greedy.num_colors <= K:
                coloring = Coloring(greedy.assignment, K)
        instances.append((graph, coloring))
    q = draw(st.sampled_from([MdsCode(K).field_order, next_prime_at_least(K)]))
    return K, q, instances


@settings(max_examples=80, deadline=None)
@given(family=unions_with_one_color_count(), seed=st.integers(0, 2**32 - 1))
@example(family=(7, 7, [theorem1_colored_unions(GapVector((2, 1), 3)),
                        theorem1_colored_unions(GapVector((4, 0), 2)),
                        theorem1_colored_unions(GapVector((6,), 1))]),
         seed=0)  # q = n = 7: color 7 sits at point 0
def test_schemes_sharing_one_code_decode_as_with_fresh_codes(family, seed):
    K, q, instances = family
    shared = MdsCode(K, q)
    rng = random.Random(seed)
    for graph, coloring in instances:
        messages = {node: rng.randrange(q) for node in graph.nodes}
        outcome = simulate_decode(TransmissionScheme(graph, coloring, shared), messages)
        fresh = simulate_decode(TransmissionScheme(graph, coloring, MdsCode(K, q)), messages)
        assert outcome == fresh == messages


@settings(max_examples=100, deadline=None)
@given(spec=small_gap_vectors(), small_field=st.booleans(), data=st.data())
def test_divided_master_equals_product_over_unknown_colors(spec, small_field, data):
    # Each basis polynomial is the master divided by one color's factor.
    # Weighted by a plan, the own color's and the fully known colors' sum to
    # prod (X - p_u) over the other unknown colors u, up to the scale P(p_c),
    # which is why the first m symbols decode the own color.
    icp = build_union_icp(spec)
    coloring = theorem1_coloring(icp)
    q = next_prime_at_least(spec.K) if small_field else None
    code = MdsCode(spec.K, q)
    q, n = code.field_order, spec.K
    # Every user's unknown colors and own colors, and any color subset F
    # with own colors outside it.
    cases = []
    for k in range(1, spec.K + 1):
        unknown = _unknown_colors(icp, coloring, k)
        full = [c for c in range(1, n + 1) if c not in unknown]
        cases.append((full, sorted({coloring.assignment[(k, t)] for t in range(1, spec.i + 1)})))
    full = sorted(data.draw(st.sets(st.integers(1, n), max_size=n - 1)))
    own = data.draw(st.sampled_from([c for c in range(1, n + 1) if c not in full]))
    cases.append((full, [own]))
    for full, own in cases:
        for c, weights in zip(own, code.weights(full, own)):
            others = [code.points[u - 1] for u in range(1, n + 1) if u not in full and u != c]
            expected = master_product(others, q)[::-1] + [0] * len(full)
            scale = math.prod(code.points[c - 1] - p for p in others)
            combined = [(lc + sum(w * code.bases[f - 1][r] for f, w in zip(full, weights)))
                        * scale % q for r, lc in enumerate(code.bases[c - 1])]
            assert combined == expected


def test_scheme_json_shape():
    icp = setup((2, 1), 1)
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(5, 11))
    payload = _scheme_json(scheme)
    assert list(payload) == ["colors", "chi", "field", "assignment"]
    assert payload["colors"] == 5
    assert payload["field"] == 11
    assert len(payload["assignment"]) == 10
