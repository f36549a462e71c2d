"""Proper colorings of the virtual single-unicast graph and the rate bound they yield.

Both of the paper's constructions are circulant colorings, one shift per
column: the general K-color scheme (each color once per column, shifted so
that repeats land only on side-information nodes) and the tighter
(a1+a2+2)-color scheme for two-column instances whose user count is a
multiple of a1+a2+2.  The number of distinct colors seen in any node's closed
anti-outneighborhood upper-bounds the broadcast rate.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

from .icp import GapVector, Node, SuicpGraph, UnionIcp, require_leading_max


class VerificationError(ValueError):
    """A check of what the library built failed: an improper coloring, or bounds out of order."""


class Coloring(NamedTuple("Coloring", [("assignment", dict), ("num_colors", int),
                                        ("classes", tuple), ("masks", tuple),
                                        ("shifts", tuple)])):
    """Assignment of colors 1..num_colors to every virtual node.

    `classes[c-1]` holds the nodes of color c, sorted (empty for an unused
    color), and `masks[c-1]` their positions in sorted order as bits, built
    once here: node masks of any graph the coloring covers exactly.  `shifts`
    is the rule of a `circulant_coloring`, set there, and () otherwise; it is
    trusted, not checked, so a rule set by hand (`_replace`) can miscount chi.
    """

    __slots__ = ()

    def __new__(cls, assignment: dict[Node, int], num_colors: int) -> Coloring:
        if bad := [c for c in assignment.values() if not 1 <= c <= num_colors]:
            raise ValueError(f"colors out of range [1, {num_colors}]: {sorted(set(bad))}")
        classes: list[list[Node]] = [[] for _ in range(num_colors)]
        masks = [0] * num_colors
        for j, (node, c) in enumerate(sorted(assignment.items())):
            classes[c - 1].append(node)
            masks[c - 1] |= 1 << j
        return super().__new__(cls, assignment, num_colors,
                               tuple(map(tuple, classes)), tuple(masks), ())


def circulant_coloring(graph: SuicpGraph, n: int, shifts: Sequence[int]) -> Coloring:
    """Color node (k, v) with <k - shifts[v-1]>_n, for n dividing K.

    Both theorems' colorings have this form; the user shift carries class c
    onto c+1.  One pass in node order fills the assignment, the sorted
    classes and the masks, as `Coloring` would from the assignment alone.
    """
    if n < 1:
        raise ValueError(f"color count {n} must be at least 1")
    if graph.K % n:
        raise ValueError(f"user count {graph.K} is not a multiple of {n}")
    if len(shifts) != graph.num_columns:
        raise ValueError(f"{len(shifts)} shifts for {graph.num_columns} columns")
    assignment: dict[Node, int] = {}
    classes: list[list[Node]] = [[] for _ in range(n)]
    masks = [0] * n
    for j, node in enumerate(graph.nodes):
        c = (node[0] - shifts[node[1] - 1] - 1) % n
        assignment[node] = c + 1
        classes[c].append(node)
        masks[c] |= 1 << j
    return Coloring._make((assignment, n, tuple(map(tuple, classes)), tuple(masks), tuple(shifts)))


def theorem1_coloring(icp: UnionIcp) -> Coloring:
    """K-color scheme: color c sits at row <c + a_1 + ... + a_{v-1} + (v-1)L>_K of column v."""
    L = icp.spec.L  # a_v + L joins the shift of column v+1; reversed(gaps[1:]) is a_1, a_2, ...
    shifts = list(accumulate((a + L for a in reversed(icp.spec.gaps[1:])), initial=0))
    return circulant_coloring(icp, icp.K, shifts)


def theorem5_applies(spec: GapVector) -> bool:
    """Whether Theorem 5's coloring exists: two columns, and (a1+a2+2) | K."""
    return spec.i == 2 and spec.K % (sum(spec.gaps) + 2) == 0


def theorem5_coloring(icp: UnionIcp) -> Coloring:
    """(a1+a2+2)-color scheme for two-column instances with (a1+a2+2) | K."""
    if icp.i != 2:
        raise ValueError("this coloring needs exactly two columns")
    a2, a1 = icp.spec.gaps
    return circulant_coloring(icp, a1 + a2 + 2, (0, -(a2 + 1)))


def user1_stands_for_all(graph: SuicpGraph, coloring: Coloring) -> bool:
    """Whether the user shift maps the graph onto itself and class c onto c+1: a circulant rule.

    Then user 1's class count, and its decode plan moved k-1 users on, are user k's.
    """
    return bool(coloring.shifts) and graph.has_user_shift


def verify_proper(graph: SuicpGraph, coloring: Coloring) -> list[tuple[Node, Node]]:
    """Return every ordered pair (u, v) where v interferes with u yet shares u's color.

    An empty list means the coloring is proper.  Within one color class two
    nodes are compatible exactly when each is side information for the other,
    so only same-color pairs need checking, one mask test per node; every
    node is tested, whatever rule built the coloring.  The coloring must
    cover exactly the graph's nodes.
    """
    if odd := sorted(set(graph.nodes) ^ set(coloring.assignment)):
        raise ValueError(f"coloring leaves uncovered or colors outside the graph: {odd[:5]}")
    side, i = graph.user_side, graph.num_columns
    violations: list[tuple[Node, Node]] = []
    for members, mask in zip(coloring.classes, coloring.masks):
        for k, t in members:
            # A node never interferes with itself: clear its own bit too.
            if outside := mask & ~(side[k - 1] | 1 << (k - 1) * i + t - 1):
                violations += [((k, t), v) for v in graph.nodes_of(outside)]
    return sorted(violations)


def local_chromatic_value(graph: SuicpGraph, coloring: Coloring) -> int:
    """Max number of distinct colors in any node's closed anti-outneighborhood.

    All nodes of a user share the same closed anti-outneighborhood (the
    complement of the user's side information): count the classes meeting it.
    An improper coloring is refused, naming its first pair, after every node
    is checked; then for a circulant coloring on a graph with the user shift,
    user 1's count is every user's.
    """
    if violations := verify_proper(graph, coloring):
        u, v = violations[0]
        raise VerificationError(f"coloring is not proper: {u} and {v} share color "
                                f"{coloring.assignment[u]}, but user {u[0]} does not know {v}")
    sides = graph.user_side[:1] if user1_stands_for_all(graph, coloring) else graph.user_side
    outsides = [~side for side in sides]
    return max((sum(1 for mask in coloring.masks if mask & out) for out in outsides), default=0)


def ru_cap(K: int, i: int, L: int) -> int:
    """2(K-(i-1)L)+i-2: the i-column rate bound before a_i is subtracted and K caps it."""
    return 2 * (K - (i - 1) * L) + i - 2


def upper_bound_Ru(spec: GapVector) -> int:
    """Rate bound min{ru_cap - a_i, K}; needs the leading gap maximal."""
    require_leading_max(spec)
    return min(ru_cap(spec.K, spec.i, spec.L) - spec.gaps[0], spec.K)


__all__ = [
    "VerificationError",
    "Coloring",
    "circulant_coloring",
    "theorem1_coloring",
    "theorem5_applies",
    "theorem5_coloring",
    "user1_stands_for_all",
    "verify_proper",
    "local_chromatic_value",
    "ru_cap",
    "upper_bound_Ru",
]
