"""Shared enumeration and sampling helpers, and closed-form oracles, for the test suite."""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from sicps.bounds import mais_lower
from sicps.coloring import Coloring, theorem1_coloring, upper_bound_Ru
from sicps.icp import (
    GapVector,
    Node,
    SuicpGraph,
    build_union_icp,
    canonical_rotation,
    require_leading_max,
    rotate_gaps,
    rotate_mask,
)
from sicps.macc import CcdnConfig, RatePoint, iter_placement_sets, rate_new

Subfile = tuple[int, tuple[int, ...]]  # (file id, cache set)


def wrap(m: int, n: int) -> int:
    """Cyclic 1-based index: result is in [1, n], with multiples of n mapping to n."""
    r = m % n
    return n if r == 0 else r


def iter_weak_compositions(n: int, m: int):
    """All m-tuples of non-negative integers summing to n, lexicographic."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_weak_compositions(n - first, m - 1):
            yield (first,) + rest


def minimal_period(seq: tuple[int, ...]) -> int:
    """Smallest p such that rotating seq by p leaves it unchanged (p divides len)."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == rotate_gaps(seq, p):
            return p
    return n


def reference_rotation_classes(compositions) -> list[tuple[int, ...]]:
    """Rotation orbits of a complete composition family, as their representatives.

    Each orbit is represented by its lexicographically greatest rotation (so
    the maximum part leads); the representatives come in decreasing order.
    The oracle route that `macc.rotation_classes` must match: canonicalize
    every composition and sort.
    """
    comps = {tuple(c) for c in compositions}
    if not comps:
        return []
    (m, n), *others = {(len(c), sum(c)) for c in comps}
    if others:
        raise ValueError("compositions disagree on length or total")
    if len(comps) != math.comb(n + m - 1, m - 1):
        raise ValueError(f"expected the complete family of {m}-compositions of {n}")
    reps = sorted({canonical_rotation(c)[0] for c in comps}, reverse=True)
    assert sum(map(minimal_period, reps)) == len(comps)
    return reps


def reference_delivery_table(cfg: CcdnConfig, w: int,
                             demands: list[int]) -> dict[tuple[int, ...], tuple[Subfile, ...]]:
    """Every delivery column, label -> K (file, cache set) cells, from the placement sets.

    The oracle route that `delivery_cells` inverts: user 1 misses the
    placement sets c_1 < ... < c_w with c_1 > L, row k of that column holds
    the set shifted by k-1, and the label is
    (K-c_w, c_w-c_{w-1}-L, ..., c_2-c_1-L, c_1-L-1).  Columns come in the
    placement sets' lex order.
    """
    K, L = cfg.K, cfg.L
    table = {}
    for anchor in (s for s in iter_placement_sets(K, L, w) if s[0] > L):
        cells = tuple(
            (demands[row - 1], tuple(sorted(wrap(c + row - 1, K) for c in anchor)))
            for row in range(1, K + 1)
        )
        inner = [b - a - L for a, b in zip(anchor, anchor[1:])]
        label = (K - anchor[-1], *reversed(inner), anchor[0] - L - 1)
        assert sum(label) == K - w * L - 1
        table[label] = cells
    assert len(table) == math.comb(K - w * L + w - 1, w)
    return table


def delivery_cells(cfg: CcdnConfig, label: tuple[int, ...],
                   demands: list[int]) -> tuple[Subfile, ...]:
    """The K (file, cache set) cells of the delivery column with this label.

    User 1 misses the sets c_1 < ... < c_w with c_1 > L, one column each.  Row
    k of that column holds the set shifted by k-1, which user 1 reads exactly
    when some c_j + k-1 lands in its caches 1..L, i.e. in a chunk of L rows
    starting at row K-c_j+2.  The gaps between those chunks, from row 2 on,
    make the label (K-c_w, c_w-c_{w-1}-L, ..., c_2-c_1-L, c_1-L-1); read
    backwards, c_1 = label[-1]+L+1 and each next gap adds L to it.  The
    reference for the anchor masks of `macc.build_delivery_icp`: row k's set
    is the column's mask rotated by k-1.
    """
    K, L = cfg.K, cfg.L
    anchor, c = [], 1
    for gap in reversed(label[1:]):
        c += L + gap
        anchor.append(c)
    return tuple((demands[row], tuple(sorted((s + row - 1) % K + 1 for s in anchor)))
                 for row in range(K))


def canonical_gap_vectors(max_nodes: int):
    """Every canonical gap vector whose virtual graph has at most max_nodes nodes.

    For i=1 the side-information structure does not depend on L, so only L=1
    is emitted for that degenerate family.
    """
    for i in range(1, max_nodes + 1):
        L_values = [1] if i == 1 else range(1, max_nodes + 1)
        for L in L_values:
            if i * ((i - 1) * L + 1) > max_nodes:
                break
            max_total = max_nodes // i - (i - 1) * L - 1
            for total in range(max_total + 1):
                for gaps in iter_weak_compositions(total, i):
                    if canonical_rotation(gaps)[0] == gaps:
                        yield GapVector(gaps, L)


def random_canonical_gap_vector(rng: random.Random, max_K: int = 30) -> GapVector:
    """One canonical gap vector with K <= max_K, sampled over mixed shapes."""
    while True:
        i = rng.randint(1, 6)
        L = rng.randint(1, 8)
        if (i - 1) * L + 1 > max_K:
            continue
        total = rng.randint(0, max_K - 1 - (i - 1) * L)
        cuts = sorted(rng.randint(0, total) for _ in range(i - 1))
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        return GapVector(canonical_rotation(parts)[0], L)


@st.composite
def gap_vectors(draw, max_nodes: int) -> GapVector:
    """Hypothesis strategy over the canonical gap vectors of `canonical_gap_vectors`."""
    i = draw(st.integers(1, math.isqrt(max_nodes)))
    L = 1 if i == 1 else draw(st.integers(1, (max_nodes // i - 1) // (i - 1)))
    budget = max_nodes // i - (i - 1) * L - 1
    gaps = []
    for _ in range(i):
        gaps.append(draw(st.integers(0, budget)))
        budget -= gaps[-1]
    return GapVector(canonical_rotation(tuple(gaps))[0], L)


def brute_placement_sets(K: int, L: int, w: int) -> list[tuple[int, ...]]:
    """Placement family by direct filtering of all w-subsets (oracle route)."""
    out = []
    for s in itertools.combinations(range(1, K + 1), w):
        ok = all(
            abs(a - b) >= L and K - abs(a - b) >= L
            for a, b in itertools.combinations(s, 2)
        )
        if ok:
            out.append(s)
    return out


def user_caches(K: int, L: int, user: int) -> tuple[int, ...]:
    """The L consecutive caches (cyclic) that `user` reads."""
    return tuple(wrap(user + j, K) for j in range(L))


def available_to_user(K: int, L: int, cache_set: tuple[int, ...], user: int) -> bool:
    """Whether `user` reads a subfile stored on `cache_set` (physical availability oracle)."""
    return not set(cache_set).isdisjoint(user_caches(K, L, user))


def missing_sets(K: int, L: int, sets, user: int) -> list[tuple[int, ...]]:
    """The placement sets, in order, of the subfiles that `user` cannot read."""
    return [s for s in sets if not available_to_user(K, L, s, user)]


def single_known_files(gaps: tuple[int, ...], L: int, K: int, user: int) -> frozenset[int]:
    """Files known by `user` in the single-column instance with the given gaps."""
    i = len(gaps)
    known = set()
    offset = 0
    for v in range(1, i):
        offset += gaps[v - 1]
        base = user + offset + (v - 1) * L
        known.update(wrap(base + r, K) for r in range(1, L + 1))
    return frozenset(known)


def eq2_known_set(spec: GapVector, user: int) -> frozenset[Node]:
    """Side information of `user` computed directly from the union definition.

    An independent route to the rotation-based construction; the two must
    agree on every instance.
    """
    i, L, K = spec.i, spec.L, spec.K
    out: set[Node] = set()
    for t in range(1, i + 1):
        for v in range(1, i):
            s = sum(spec.gaps[i - wrap(i + t - j, i)] for j in range(1, v + 1))
            for r in range(1, L + 1):
                out.add((wrap(user + s + (v - 1) * L + r, K), t))
    return frozenset(out)


def graph_from_sides(K: int, num_columns: int, sides) -> SuicpGraph:
    """The graph in which user k knows the nodes of `sides[k-1]`.

    Each set becomes a mask with bit j for the j-th node in (user, column) order.
    """
    nodes = [(k, t) for k in range(1, K + 1) for t in range(1, num_columns + 1)]
    masks = tuple(sum(1 << j for j, nd in enumerate(nodes) if nd in side) for side in sides)
    return SuicpGraph(K=K, num_columns=num_columns, user_side=masks)


def side_nodes(graph, user: int) -> frozenset[Node]:
    """The side information of `user` as nodes: bit j of its mask is `graph.nodes[j]`."""
    side = graph.user_side[user - 1]
    return frozenset(nd for j, nd in enumerate(graph.nodes) if side >> j & 1)


def orbit_dp_mais(graph) -> int:
    """Maximum acyclic induced subgraph size by a table over user sets, one entry per orbit.

    The oracle `bounds.mais_bruteforce`'s level recurrence must match.  With
    `knowers[j]` the bitmask of users that know node j,

        f[A] = max over k in A of f[A - k] + #{j of k : knowers[j] & A == 0}

    fills all 2^K entries.  When shifting every user by one maps `user_side`
    onto itself, f is constant on each orbit of that shift: A is walked
    upwards, the recurrence runs only at the smallest set of each orbit, and
    its value is written to every rotation by shifting a doubled word.  A
    graph in which no user knows anything returns its size.
    """
    n, K = len(graph), graph.K
    if not any(graph.user_side):
        return n
    sides, i = graph.user_side, graph.num_columns
    knowers = [sum(1 << k for k, side in enumerate(sides) if side >> j & 1) for j in range(n)]
    symmetric = tuple(rotate_mask(side, i, n) for side in sides) == sides[1:] + sides[:1]
    shifts = range(K) if symmetric else range(1)
    full = (1 << K) - 1
    users = [(1 << k, knowers[k * i:(k + 1) * i]) for k in range(K)]
    f = [-1] * (1 << K)
    f[0] = 0
    for A in range(1, 1 << K):
        if f[A] >= 0:  # filled from the smallest set of its orbit
            continue
        best = 0
        for bit, masks in users:  # plain loops: about 3x faster than max(sum(...))
            if A & bit:
                value = f[A ^ bit]
                for m in masks:
                    if not m & A:
                        value += 1
                if value > best:
                    best = value
        AA = A | A << K  # every rotation of A is a K-bit window of this word
        for s in shifts:  # a periodic orbit has some sets written more than once
            f[AA >> s & full] = best
    return f[-1]


def naive_local_chromatic(graph, coloring) -> int:
    """Per-node oracle for the per-user chromatic value computation."""
    return max(
        len({coloring.assignment[v] for v in frozenset(graph.nodes) - side_nodes(graph, u[0])})
        for u in graph.nodes
    )


def simulated_rate(K: int, L: int, w: int) -> Fraction:
    """The rate `end_to_end_simulate` must report: each rotation class's Theorem-1 chi.

    Sums chi/(split*|sets|) over the rotation orbits of the weak
    (w+1)-compositions of K-wL-1, with chi the naive local chromatic value of
    the orbit's union instance under its Theorem-1 coloring and
    split = (w+1)/|orbit|.
    """
    if w * L == K:
        return Fraction(0)
    m = w + 1
    sets = len(brute_placement_sets(K, L, w))
    orbits = {frozenset(c[t:] + c[:t] for t in range(m))
              for c in iter_weak_compositions(K - w * L - 1, m)}
    total = Fraction(0)
    for orbit in orbits:
        bar = build_union_icp(GapVector(max(orbit), L))
        chi = naive_local_chromatic(bar, theorem1_coloring(bar))
        total += Fraction(chi * len(orbit), m * sets)
    return total


def greedy_coloring(graph, order) -> Coloring:
    """First-fit proper coloring of the nodes in `order`.

    A node joins the first class whose every member it knows and is known by,
    so classes with several members arise wherever side information is mutual.
    """
    sides = {k: side_nodes(graph, k) for k in range(1, graph.K + 1)}
    classes: list[list[Node]] = []
    for u in order:
        for members in classes:
            if all(v in sides[u[0]] and u in sides[v[0]] for v in members):
                members.append(u)
                break
        else:
            classes.append([u])
    assignment = {v: c for c, members in enumerate(classes, start=1) for v in members}
    return Coloring(assignment, len(classes))


@st.composite
def small_gap_vectors(draw, max_nodes=60):
    """Canonical gap vectors with i <= 4 columns, L <= 3 and at most max_nodes nodes."""
    i = draw(st.integers(1, 4))
    L = draw(st.integers(1, 3))
    total = draw(st.integers(0, max_nodes // i - (i - 1) * L - 1))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=i - 1, max_size=i - 1)))
    gaps = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
    spec, _ = GapVector(gaps, L).canonicalize()
    return spec


@st.composite
def side_info_graphs(draw, max_users=6, max_columns=3, self_knowledge=False):
    """Arbitrary side information in which no user knows its own nodes.

    With `self_knowledge`, some drawn graphs let users know their own nodes too.
    """
    K = draw(st.integers(1, max_users))
    columns = draw(st.integers(1, max_columns))
    nodes = [(k, t) for k in range(1, K + 1) for t in range(1, columns + 1)]
    own_too = self_knowledge and draw(st.booleans())
    side = []
    for k in range(1, K + 1):
        others = [nd for nd in nodes if own_too or nd[0] != k]
        keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
        side.append(frozenset(nd for nd, kept in zip(others, keep) if kept))
    return graph_from_sides(K, columns, side)


@st.composite
def greedy_colored_graphs(draw):
    """Arbitrary side information under a greedy coloring in a drawn node order."""
    graph = draw(side_info_graphs())
    return graph, greedy_coloring(graph, draw(st.permutations(graph.nodes)))


def reference_theorem1_assignment(spec: GapVector) -> dict[Node, int]:
    """Theorem 1's coloring node by node, column v shifted by a_1 + ... + a_{v-1} + (v-1)L."""
    K, i, L = spec.K, spec.i, spec.L
    shifts, acc = [], 0
    for v in range(1, i + 1):
        shifts.append(acc)
        acc += spec.gaps[i - v] + L  # a_v
    return {(k, v): wrap(k - shifts[v - 1], K) for k in range(1, K + 1) for v in range(1, i + 1)}


def reference_theorem5_assignment(spec: GapVector) -> dict[Node, int]:
    """Theorem 5's coloring, user by user: (k, 1) gets <k>_n and (k, 2) gets <k+a2+1>_n."""
    if spec.i != 2:
        raise ValueError("this coloring needs exactly two columns")
    a2, a1 = spec.gaps
    n = a1 + a2 + 2
    if spec.K % n != 0:
        raise ValueError(f"user count {spec.K} is not a multiple of {n}")
    assignment: dict[Node, int] = {}
    for k in range(1, spec.K + 1):
        assignment[(k, 1)] = wrap(k, n)
        assignment[(k, 2)] = wrap(k + a2 + 1, n)
    return assignment


def theorem1_colored_unions(spec):
    """The union instance of `spec` under its Theorem-1 coloring."""
    icp = build_union_icp(spec)
    return icp, theorem1_coloring(icp)


def vandermonde_matrix(n: int, rows: int, q: int) -> list[list[int]]:
    """rows x n matrix over GF(q) with entry [r][c-1] = c**r mod q.

    The generator a scheme over n colors must apply to its per-color aggregates.
    """
    return [[pow(c, r, q) for c in range(1, n + 1)] for r in range(rows)]


def master_product(points: list[int], q: int) -> list[int]:
    """prod_j (X - points[j]) over GF(q), highest degree first, multiplied out directly.

    The product that a plan's weighted rows of `MdsCode.bases` must equal.
    """
    master = [1]  # lowest degree first
    for p in points:
        master = [(lo - p * hi) % q for lo, hi in zip([0] + master, master + [0])]
    return master[::-1]


def composition_count_max_below(n: int, m: int, t: int) -> int:
    """Number of weak m-compositions of n with every part strictly below t."""
    if n < 0 or m < 1 or t < 1:
        raise ValueError("need n >= 0, m >= 1, t >= 1")
    total = 0
    for s in range(n // t + 1):
        r = n - t * s
        total += (-1) ** s * math.comb(m, s) * math.comb(m + r - 1, r)
    return total


def rate_closed_form_large_L(K: int, L: int) -> Fraction:
    """Exact w=1 rate for L >= K/2 (rounded down), odd/even correction on K-L-1.

    Above this threshold every composition's maximum is large enough that the
    per-column bound never saturates at K, which is what the closed form sums.
    """
    if 2 * L < K - 1:
        raise ValueError("closed form needs access degree L >= K/2")
    if L > K:
        raise ValueError("access degree cannot exceed K")
    base = (K - L) * (5 * (K - L) + 2)
    if (K - L - 1) % 2 == 1:
        return Fraction(base, 8 * K)
    return Fraction(base + 1, 8 * K)


def exact_rate_special(spec: GapVector) -> Fraction | None:
    """Exact optimal rate for the paper's solved families; None when no case applies.

    The oracle that the computed `BoundReport.exact` must match.
    """
    require_leading_max(spec)
    K = spec.K
    if all(g == 0 for g in spec.gaps[1:]):
        return Fraction(mais_lower(spec))
    if spec.L == 1:
        return Fraction(K)
    if spec.i == 2 and K % (sum(spec.gaps) + 2) == 0:
        return Fraction(sum(spec.gaps) + 2)
    return None


def tilde_icp_bounds(s: tuple[int, ...], l: int, L: int) -> tuple[Fraction, Fraction]:
    """Rate interval for the distinct-rotation union of s repeated l times.

    Both bounds are the union instance's for s*l divided by l, matching the
    file-splitting argument (each part is 1/l of a unit file).  The pattern
    must lead with its maximum entry.
    """
    spec = GapVector(tuple(s) * l, L)
    return Fraction(mais_lower(spec), l), Fraction(upper_bound_Ru(spec), l)


def _corner_points(cfg: CcdnConfig) -> list[RatePoint]:
    """(0, K), (wN/K, rate_new) for w = 1..K//L, and (ceil(K/L)*N/K, 0) when new."""
    K, L, N = cfg.K, cfg.L, cfg.N
    points = [RatePoint(Fraction(0), Fraction(K), "EXTREME")]
    for w in range(1, K // L + 1):
        points.append(RatePoint(Fraction(w * N, K), rate_new(K, L, w), "NEW"))
    top = Fraction(math.ceil(Fraction(K, L)) * N, K)
    if all(p.M != top for p in points):
        points.append(RatePoint(top, Fraction(0), "EXTREME"))
    return points


def _lower_envelope(points: list[RatePoint]) -> list[RatePoint]:
    hull: list[RatePoint] = []
    for p in sorted(points, key=lambda p: p.M):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # Drop b when it lies on or above the segment a->p.
            if (b.rate - a.rate) * (p.M - a.M) >= (p.rate - a.rate) * (b.M - a.M):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def interpolate_rate(envelope: list[RatePoint], M) -> Fraction:
    """Exact rate of the piecewise-linear envelope at memory M."""
    M = Fraction(M)
    if not envelope or M < envelope[0].M or M > envelope[-1].M:
        raise ValueError("memory outside the curve's range")
    j = bisect.bisect_left(envelope, M, key=lambda p: p.M)
    b = envelope[j]
    if M == b.M:
        return b.rate
    a = envelope[j - 1]
    return a.rate + (b.rate - a.rate) * (M - a.M) / (b.M - a.M)


def reference_tradeoff_curve(cfg: CcdnConfig, samples: int = 0) -> list[RatePoint]:
    """`macc.tradeoff_curve` computed in Fractions throughout (oracle route).

    Envelope vertices win a shared memory over other corners, and corners
    over samples, by insertion order into a dict keyed by M.
    """
    corners = _corner_points(cfg)
    envelope = _lower_envelope(corners)
    out: dict[Fraction, RatePoint] = {p.M: p for p in envelope}
    for p in corners:
        if p.M not in out:
            out[p.M] = RatePoint(p.M, interpolate_rate(envelope, p.M), "MEMORY_SHARED")
    if samples > 1:
        top = envelope[-1].M
        for j in range(samples):
            M = top * j / (samples - 1)
            if M not in out:
                out[M] = RatePoint(M, interpolate_rate(envelope, M), "MEMORY_SHARED")
    return [out[M] for M in sorted(out)]
