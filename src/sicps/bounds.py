"""Lower bounds via acyclic induced subgraphs, and the report of every bound.

The constructive bound rearranges the union table's columns by decreasing
first-chunk interference and collects a staircase of `mais_lower` nodes that
provably induces no directed cycle.  An exact oracle computes the true maximum
on graphs of up to MAX_ORACLE_USERS users, so the construction can be
cross-checked: a dynamic program over orders of the users, run one value level
at a time, with each level a single big int holding one bit per user set.  A
level costs K x i ANDs and ORs plus K shifts of 2^K-bit ints, and the run stops
at the first empty level, one past the MAIS (at most K on a union), so Python
loops over levels, users and columns while the 2^K sets are walked at C level.
On a graph with the user shift (every union) user K's term follows from the
others, and a level costs (K-1) x i operations on 2^(K-1)-bit sets.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .coloring import (VerificationError, local_chromatic_value, theorem1_coloring,
                       theorem5_coloring, upper_bound_Ru)
from .icp import GapVector, Node, SuicpGraph, UnionIcp, require_leading_max, rotate_gaps

MAX_ORACLE_USERS = 22


class OracleLimitError(ValueError):
    """The MAIS oracle's refusal of a graph above MAX_ORACLE_USERS users."""


class BoundReport(NamedTuple("BoundReport", [
        ("upper", int), ("lower_constructive", int), ("lower_brute", int | None),
        ("exact", Fraction | None), ("witness", frozenset), ("colors", int),
        ("local_chromatic", int), ("local_chromatic_t5", int | None)])):
    """Bundle of the bounds computed for one instance.

    `colors` and `local_chromatic` are the Theorem-1 coloring's, and
    `local_chromatic_t5` is None where Theorem 5 does not apply.  Bounds out
    of order raise VerificationError, as does a lower bound above either local
    chromatic value: the paper's sandwich MAIS <= rate <= local chromatic value.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BoundReport:
        self = super().__new__(cls, *args, **kwargs)
        lower = self.lower_constructive if self.lower_brute is None else self.lower_brute
        if not self.lower_constructive <= lower <= self.upper:
            raise VerificationError("bounds out of order")
        if self.exact is not None:
            if not self.lower_constructive <= self.exact <= self.upper:
                raise VerificationError("exact rate outside bound interval")
        uppers = (self.local_chromatic, self.local_chromatic_t5)
        if any(v is not None and v < lower for v in uppers):
            raise VerificationError("a lower bound exceeds a local chromatic value")
        return self

    @property
    def gap_ratio(self) -> Fraction:
        """Upper bound divided by the constructive lower bound; at most 2."""
        return Fraction(self.upper, self.lower_constructive)

    def to_json(self) -> dict:
        return {
            "upper": self.upper,
            "lower_constructive": self.lower_constructive,
            "lower_brute": self.lower_brute,
            "exact": None if self.exact is None else str(self.exact),
            "witness": sorted([u, c] for (u, c) in self.witness),
        }


def mais_lower(spec: GapVector) -> int:
    """K-(i-1)L+i-1 = sum(gaps)+i, the acyclic set size the staircase attains."""
    return sum(spec.gaps) + spec.i


def lower_bound_mais_constructive(spec: GapVector) -> tuple[int, frozenset[Node]]:
    """Value `mais_lower(spec)` together with an acyclic witness node set.

    Columns are ordered by the size of user 1's first interference chunk
    (descending, ties by column index); the witness then takes all of row 1,
    full rows while every column is still interfering, and progressively
    fewer columns as chunks run out.
    """
    require_leading_max(spec)
    i = spec.i
    # First-chunk interference count of column p is the leading gap of its rotation.
    first_chunk = {p: rotate_gaps(spec.gaps, p - 1)[0] for p in range(1, i + 1)}
    ordered = sorted(range(1, i + 1), key=lambda p: (-first_chunk[p], p))
    ascending = sorted(spec.gaps)

    witness: set[Node] = {(1, p) for p in range(1, i + 1)}
    prev = 0
    for j, a in enumerate(ascending):
        take = i - j
        for row in range(prev + 2, a + 2):
            witness.update((row, p) for p in ordered[:take])
        prev = a
    value = mais_lower(spec)
    assert len(witness) == value
    return value, frozenset(witness)


def is_acyclic_induced(graph: SuicpGraph, nodes: frozenset[Node] | set[Node]) -> bool:
    """Kahn check on the subgraph induced by `nodes` (edge u -> v iff u knows v).

    No library code calls this.  It stays as the reference the tests check
    acyclic witnesses against, and as the benchmark's `bounds.acyclic` stage.
    """
    nodes = set(nodes)
    out = {u: [v for v in graph.nodes_of(graph.user_side[u[0] - 1]) if v in nodes] for u in nodes}
    indegree = Counter(v for targets in out.values() for v in targets)
    queue = [v for v in nodes if indegree[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in out[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    return seen == len(nodes)


def mais_bruteforce(graph: SuicpGraph) -> int:
    """Exact maximum acyclic induced subgraph size, by a dynamic program over value levels.

    All nodes of a user share one out-neighbourhood, `user_side[k]`.  So a node
    set is acyclic exactly when some order of the users puts every user that
    knows a kept node after that node's user; a node that its own user knows
    is never kept.  With c_k(A) the number of user k's nodes that no user of
    A knows,

        f[A] = max over k in A of f[A - k] + c_k(A)

    is the most nodes the users of A keep when they come first in that order,
    and the answer is f[all users].  Testing against A, not A - k, is what
    drops a node its own user knows.  When the graph has the user shift, as
    every union does, the shift carries each term of the max at A = all users
    onto every other, so f[all] = f[all - K] + c_K(all): the table runs over
    users 1..K-1 only, and user K adds its nodes that no user knows.

    The table is never stored.  Level v is one int T_v of witnesses: sets B with
    f[B] >= v, one within each A with f[A] >= v.  With `without[k]` the sets
    that lack user k and `down[k][j]` those B in which B + k leaves at least j
    of k's nodes unknown, adding k is a shift by 2^k, so with T_v = all at v <= 0

        T_v = OR over k of (OR over j in 1..i of down[k][j] & T_{v-j}) << 2^k.

    Sound: B in T_{v-j} gives f[B + k] >= f[B] + c_k(B + k) >= v - j + j.
    Complete: let f[A] >= v >= 1.  While the maximizing k at A adds c_k(A) = 0,
    peel it, as f[A - k] = f[A].  At the B left, j = min(c_k(B), v) >= 1 and
    f[B - k] >= v - j, so by induction some B' within B - k lies in T_{v-j}, and
    B' + k in T_v, since c_k only grows as users go.  f is monotone, so
    f[all] >= v iff T_v is nonempty: the run stops at the first empty level,
    one past the value.  A level costs K*i ANDs and ORs plus K shifts of 2^K-bit
    sets ((K-1)*i and K-1 on 2^(K-1) bits with the user shift), and only the
    last i levels are kept: at K = 22 users a union's sets take 256 KB each.

    A graph in which no user knows anything is acyclic and returns its size.  Any
    other graph above MAX_ORACLE_USERS users, and no other, is refused before any
    2^K-bit set is allocated, rather than approximated, by OracleLimitError.
    """
    sides, K, i = graph.user_side, graph.K, graph.num_columns
    if not any(sides):
        return len(graph)
    if K > MAX_ORACLE_USERS:
        raise OracleLimitError(f"graph has {K} users, above the oracle's limit {MAX_ORACLE_USERS}")
    if not graph.has_user_shift:
        return _first_users_mais(sides, K, i)
    known = 0
    for side in sides:
        known |= side
    unknown_to_all = i - (known >> (K - 1) * i).bit_count()  # of user K's nodes
    return _first_users_mais(sides, K - 1, i) + unknown_to_all


def _first_users_mais(sides: tuple[int, ...], K: int, i: int) -> int:
    """f[users 1..K] of `mais_bruteforce`'s table, built over the first K users only."""
    width = 1 << K  # one bit per user set
    everything = (1 << width) - 1
    without = []
    for k in range(K):
        # Doubling a block: big-int division would build the same mask in quadratic time.
        z, span = (1 << (1 << k)) - 1, 2 << k
        while span < width:
            z |= z << span
            span <<= 1
        without.append(z)
    steps = []
    for k in range(K):
        counts = [everything] + [0] * i  # counts[j]: sets with >= j of k's nodes unknown
        for node in range(k * i, (k + 1) * i):
            free = everything
            for b in range(K):
                if sides[b] >> node & 1:
                    free &= without[b]
            for j in range(i, 0, -1):
                counts[j] |= counts[j - 1] & free
        steps.append((1 << k, [c >> (1 << k) & without[k] for c in counts[1:]]))
    recent = [everything]  # T_{v-1}, T_{v-2}, ..., at most i levels back
    v = 0
    while recent[0]:
        v += 1
        level = 0
        for shift, down in steps:
            witnesses = 0
            for d, below in zip(down, recent):
                witnesses |= d & below
            level |= witnesses << shift
        recent = [level] + recent[:i - 1]
    return v - 1


def build_report(icp: UnionIcp) -> BoundReport:
    """Compute every bound for one union instance; `lower_brute` where the oracle runs.

    `exact` is the best coloring value wherever it meets the best lower bound.
    An improper coloring, of either theorem, raises VerificationError.
    """
    spec = icp.spec
    lower, witness = lower_bound_mais_constructive(spec)
    try:
        brute = mais_bruteforce(icp)
    except OracleLimitError:  # above the user limit: skipped
        brute = None
    coloring = theorem1_coloring(icp)
    lcv = local_chromatic_value(icp, coloring)
    try:
        t5 = theorem5_coloring(icp)
    except ValueError:  # Theorem 5 does not apply
        lcv_t5 = None
    else:
        lcv_t5 = local_chromatic_value(icp, t5)
    best_upper = lcv if lcv_t5 is None else min(lcv, lcv_t5)
    best_lower = lower if brute is None else brute
    return BoundReport(
        upper=upper_bound_Ru(spec),
        lower_constructive=lower,
        lower_brute=brute,
        exact=Fraction(best_upper) if best_upper == best_lower else None,
        witness=witness,
        colors=coloring.num_colors,
        local_chromatic=lcv,
        local_chromatic_t5=lcv_t5,
    )


__all__ = [
    "MAX_ORACLE_USERS",
    "OracleLimitError",
    "BoundReport",
    "mais_lower",
    "lower_bound_mais_constructive",
    "is_acyclic_induced",
    "mais_bruteforce",
    "build_report",
]
