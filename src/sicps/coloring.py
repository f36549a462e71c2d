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

from .icp import GapVector, Node, SuicpGraph, UnionIcp, require_leading_max, wrap


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

    Both theorems' colorings have this form; the user shift carries class c onto c+1.
    """
    if n < 1:
        raise ValueError(f"color count {n} must be at least 1")
    if graph.K % n:
        raise ValueError(f"user count {graph.K} is not a multiple of {n}")
    if len(shifts) != graph.num_columns:
        raise ValueError(f"{len(shifts)} shifts for {graph.num_columns} columns")
    assignment = {(k, v): wrap(k - s, n)
                  for k in range(1, graph.K + 1) for v, s in enumerate(shifts, start=1)}
    return Coloring(assignment=assignment, num_colors=n)._replace(shifts=tuple(shifts))


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


def _user1_stands_for_all(graph: SuicpGraph, coloring: Coloring) -> bool:
    """Whether the user shift maps the graph onto itself and class c onto c+1: a circulant rule."""
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
    side, bit = graph.user_side, graph.bit
    violations: list[tuple[Node, Node]] = []
    for members, mask in zip(coloring.classes, coloring.masks):
        for u in members:
            # A node never interferes with itself: clear its own bit too.
            if outside := mask & ~(side[u[0] - 1] | bit(u)):
                violations += [(u, v) for v in graph.nodes_of(outside)]
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
    sides = graph.user_side[:1] if _user1_stands_for_all(graph, coloring) else graph.user_side
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
    "verify_proper",
    "local_chromatic_value",
    "ru_cap",
    "upper_bound_Ru",
]
