"""Lower bounds via acyclic induced subgraphs, and the report of every bound.

The constructive bound rearranges the union table's columns by decreasing
first-chunk interference and collects a staircase of `mais_lower` nodes that
provably induces no directed cycle.  A branch-and-bound oracle computes the
true maximum on small graphs so the construction can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coloring import local_chromatic_value, theorem1_coloring, theorem5_coloring, upper_bound_Ru
from .icp import GapVector, Node, SuicpGraph, UnionIcp, require_leading_max, rotate_gaps

DEFAULT_NODE_CAP = 26


@dataclass(frozen=True)
class BoundReport:
    """Bundle of the bounds computed for one instance.

    `colors` and `local_chromatic` (None if not proper) are the Theorem-1
    coloring's; `local_chromatic_t5` is None where Theorem 5 does not apply.
    """

    upper: int
    lower_constructive: int
    lower_brute: int | None
    exact: Fraction | None
    witness: frozenset[Node]
    colors: int
    local_chromatic: int | None
    local_chromatic_t5: int | None

    def __post_init__(self) -> None:
        if self.lower_constructive > self.upper:
            raise ValueError("bounds out of order")
        if self.lower_brute is not None:
            if not self.lower_constructive <= self.lower_brute <= self.upper:
                raise ValueError("bounds out of order")
        if self.exact is not None:
            if not self.lower_constructive <= self.exact <= self.upper:
                raise ValueError("exact rate outside bound interval")

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
    """Kahn check on the subgraph induced by `nodes` (edge u -> v iff u knows v)."""
    nodes = set(nodes)
    indegree = {v: 0 for v in nodes}
    out: dict[Node, list[Node]] = {u: [] for u in nodes}
    for u in nodes:
        for v in graph.side_info(u):
            if v in nodes:
                out[u].append(v)
                indegree[v] += 1
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


def _find_cycle(order: list[Node], adj: dict[Node, list[Node]],
                excluded: set[Node]) -> list[Node] | None:
    """A short directed cycle avoiding `excluded`: any 2-cycle first, else DFS."""
    for u in order:
        if u in excluded:
            continue
        for v in adj[u]:
            if v not in excluded and u < v and u in adj[v]:
                return [u, v]
    color: dict[Node, int] = {}
    stack_path: list[Node] = []

    def dfs(u: Node) -> list[Node] | None:
        color[u] = 1
        stack_path.append(u)
        for v in adj[u]:
            if v in excluded:
                continue
            if color.get(v, 0) == 1:
                return stack_path[stack_path.index(v):]
            if color.get(v, 0) == 0:
                found = dfs(v)
                if found is not None:
                    return found
        color[u] = 2
        stack_path.pop()
        return None

    for u in order:
        if u not in excluded and color.get(u, 0) == 0:
            stack_path.clear()
            found = dfs(u)
            if found is not None:
                return list(found)
    return None


def _disjoint_cycle_count(order: list[Node], adj: dict[Node, list[Node]],
                          excluded: set[Node]) -> int:
    """Greedy vertex-disjoint cycle packing; each cycle forces one more exclusion."""
    used = set(excluded)
    count = 0
    for u in order:
        if u in used:
            continue
        for v in adj[u]:
            if v not in used and u in adj.get(v, ()) and v != u:
                used.update((u, v))
                count += 1
                break
    while True:
        cycle = _find_cycle(order, adj, used)
        if cycle is None:
            return count
        used.update(cycle)
        count += 1


def mais_bruteforce(graph: SuicpGraph, node_cap: int = DEFAULT_NODE_CAP,
                    initial: int = 0) -> int:
    """Exact maximum acyclic induced subgraph size, by branch and bound.

    Branches on the vertices of a found cycle (every acyclic set must drop at
    least one of them); earlier branch vertices are protected from later
    exclusion so the subtrees partition the search space.  `initial` must be
    a known lower bound (e.g. the constructive value); it seeds the pruning.
    Refuses graphs above `node_cap` rather than approximating.
    """
    n = len(graph)
    if n > node_cap:
        raise ValueError(f"graph has {n} nodes, above the brute-force cap {node_cap}")
    order = list(graph.nodes)
    adj = {u: sorted(graph.side_info(u)) for u in order}
    best = initial

    def search(excluded: set[Node], protected: frozenset[Node]) -> None:
        nonlocal best
        if n - len(excluded) - _disjoint_cycle_count(order, adj, excluded) <= best:
            return
        cycle = _find_cycle(order, adj, excluded)
        if cycle is None:
            best = max(best, n - len(excluded))
            return
        shield = set()
        for v in cycle:
            if v not in protected:
                excluded.add(v)
                search(excluded, protected | frozenset(shield))
                excluded.remove(v)
            shield.add(v)

    search(set(), frozenset())
    return best


def gap_ratio(spec: GapVector) -> Fraction:
    """Upper bound divided by the constructive lower bound; at most 2."""
    return Fraction(upper_bound_Ru(spec), mais_lower(spec))


def build_report(icp: UnionIcp, node_cap: int = DEFAULT_NODE_CAP) -> BoundReport:
    """Compute every bound for one union instance; brute force only under the cap.

    `exact` is the best coloring value wherever it meets the best lower bound.
    """
    spec = icp.spec
    lower, witness = lower_bound_mais_constructive(spec)
    brute = None
    if len(icp) <= node_cap:
        brute = mais_bruteforce(icp, node_cap=node_cap, initial=lower)
    coloring = theorem1_coloring(icp)
    try:
        lcv = local_chromatic_value(icp, coloring)
    except ValueError:  # the coloring is not proper
        lcv = None
    try:
        lcv_t5 = local_chromatic_value(icp, theorem5_coloring(icp))
    except ValueError:  # Theorem 5 does not apply, or its coloring is not proper
        lcv_t5 = None
    best_upper = min((v for v in (lcv, lcv_t5) if v is not None), default=None)
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
    "DEFAULT_NODE_CAP",
    "BoundReport",
    "mais_lower",
    "lower_bound_mais_constructive",
    "is_acyclic_induced",
    "mais_bruteforce",
    "gap_ratio",
    "build_report",
]
