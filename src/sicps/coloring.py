"""Proper colorings of the virtual single-unicast graph and the rate bound they yield.

Two constructions are provided: the general K-color scheme (one occurrence of
each color per column, shifted so that repeats land only on side-information
nodes) and the tighter (a1+a2+2)-color scheme available for two-column
instances whose user count is a multiple of a1+a2+2.  The number of distinct
colors seen in any node's closed anti-outneighborhood upper-bounds the
broadcast rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .icp import GapVector, Node, SuicpGraph, UnionIcp, require_leading_max, rotate_mask, wrap


@dataclass(frozen=True)
class Coloring:
    """Assignment of colors 1..num_colors to every virtual node.

    `classes[c-1]` holds the nodes of color c, sorted (empty for an unused
    color), and `masks[c-1]` their positions in sorted order as bits, built
    once here: node masks of any graph the coloring covers exactly.
    """

    assignment: dict[Node, int]
    num_colors: int
    classes: tuple[tuple[Node, ...], ...] = field(init=False, repr=False, compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bad = [c for c in self.assignment.values() if not 1 <= c <= self.num_colors]
        if bad:
            raise ValueError(f"colors out of range [1, {self.num_colors}]: {sorted(set(bad))}")
        classes: list[list[Node]] = [[] for _ in range(self.num_colors)]
        masks = [0] * self.num_colors
        for j, (node, c) in enumerate(sorted(self.assignment.items())):
            classes[c - 1].append(node)
            masks[c - 1] |= 1 << j
        object.__setattr__(self, "classes", tuple(map(tuple, classes)))
        object.__setattr__(self, "masks", tuple(masks))


def theorem1_coloring(icp: UnionIcp) -> Coloring:
    """K-color scheme: color c sits at row <c + a_1 + ... + a_{v-1} + (v-1)L>_K of column v."""
    K, i, L = icp.K, icp.i, icp.spec.L
    shifts = []
    acc = 0
    for v in range(1, i + 1):
        shifts.append(acc)
        acc += icp.spec.gap(v) + L  # a_v joins the shift of column v+1
    assignment = {
        (k, v): wrap(k - shifts[v - 1], K)
        for k in range(1, K + 1)
        for v in range(1, i + 1)
    }
    return Coloring(assignment=assignment, num_colors=K)


def theorem5_coloring(icp: UnionIcp) -> Coloring:
    """(a1+a2+2)-color scheme for two-column instances with (a1+a2+2) | K."""
    if icp.i != 2:
        raise ValueError("this coloring needs exactly two columns")
    a2, a1 = icp.spec.gaps
    n = a1 + a2 + 2
    if icp.K % n != 0:
        raise ValueError(f"user count {icp.K} is not a multiple of {n}")
    assignment: dict[Node, int] = {}
    for k in range(1, icp.K + 1):
        assignment[(k, 1)] = wrap(k, n)
        assignment[(k, 2)] = wrap(k + a2 + 1, n)
    return Coloring(assignment=assignment, num_colors=n)


def _shift_carries_classes(graph: SuicpGraph, coloring: Coloring) -> bool:
    """Whether the graph has the user shift and it maps color class c onto class c+1 mod n.

    Both of the paper's colorings do: color(k+1, v) = color(k, v) + 1.  Then
    every user's view of the colors is user 1's, shifted.
    """
    if not graph.has_user_shift:
        return False
    masks, n, i = coloring.masks, len(graph), graph.num_columns
    return all(rotate_mask(a, i, n) == b for a, b in zip(masks, masks[1:] + masks[:1]))


def verify_proper(graph: SuicpGraph, coloring: Coloring) -> list[tuple[Node, Node]]:
    """Return every ordered pair (u, v) where v interferes with u yet shares u's color.

    An empty list means the coloring is proper.  Within one color class two
    nodes are compatible exactly when each is side information for the other,
    so only same-color pairs need checking, one mask test per node.  The
    coloring must cover exactly the graph's nodes.
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
    When the user shift maps the graph onto itself and each color class onto
    the next, every user meets as many classes as user 1, so only user 1's
    complement is counted.
    """
    if verify_proper(graph, coloring):
        raise ValueError("coloring is not proper")
    sides = graph.user_side[:1] if _shift_carries_classes(graph, coloring) else graph.user_side
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
    "Coloring",
    "theorem1_coloring",
    "theorem5_coloring",
    "verify_proper",
    "local_chromatic_value",
    "ru_cap",
    "upper_bound_Ru",
]
