"""MDS-coded broadcast realization of a proper coloring, with decode simulation.

The server sums the messages inside each color class and transmits chi MDS
combinations of the n per-color aggregates, where chi is the coloring's local
chromatic value.  Color c sits on the point c mod q, so symbol r is the sum
over colors of aggregate times point**r, written once in
`TransmissionScheme._sent_by`.  A user subtracts what the n-m colors it fully
knows send and is left with the m <= chi colors of its closed
anti-outneighborhood.  The first m rows restricted to those colors form a
transposed Vandermonde system, solved once per user from its master
polynomial: the scheme's master over all n colors divided by the n-m known
colors, O(n*(n-m)) time.  The solve at an own color ignores every other
unknown color, so only the own color keeps the known part of its aggregate;
properness makes that part the rest of the node's class, subtracted last.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import sub

from .coloring import Coloring, local_chromatic_value
from .field import default_field_order, validate_field
from .icp import Node, SuicpGraph


class DecodeError(Exception):
    """A user's unknown aggregates cannot be recovered from the broadcast.

    Not a ValueError: the CLI reports it as a verification failure, not as
    a usage error.
    """

    def __init__(self, user: int, unknown: list[int], chi: int, reason: str) -> None:
        self.user = user
        self.unknown = tuple(unknown)
        self.chi = chi
        super().__init__(
            f"decode failed for user {user}: {reason} "
            f"(unknown colors {list(self.unknown)}, chi={chi})"
        )


@dataclass(frozen=True)
class TransmissionScheme:
    """chi MDS combinations over GF(field_order) of the per-color message sums.

    Color c sits on the point c mod field_order, so the scheme is exactly its
    coloring, row count and field.  `master` is prod_c (X - c mod field_order)
    over all n colors, highest degree first.
    """

    coloring: Coloring
    chi: int
    field_order: int
    master: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q, master = self.field_order, [1]
        for c in range(1, self.num_colors + 1):
            master = [(hi - c * lo) % q for hi, lo in zip(master + [0], [0] + master)]
        object.__setattr__(self, "master", tuple(master))

    @property
    def num_colors(self) -> int:
        return self.coloring.num_colors

    def master_over(self, colors: list[int]) -> list[int]:
        """prod (X - c mod q) over the distinct `colors`, highest degree first.

        `master` divided by (X - c mod q) for every other color c, by synthetic
        division in O(n) each; exact even where points repeat.
        """
        q, poly = self.field_order, list(self.master)
        for c in set(range(1, self.num_colors + 1)).difference(colors):
            b, quotient = 0, []
            for a in poly[:-1]:
                b = (a + c * b) % q
                quotient.append(b)
            poly = quotient
        return poly

    def transmit(self, messages: dict[Node, int]) -> list[int]:
        """The chi broadcast symbols for one symbol of payload per node."""
        q = self.field_order
        return [s % q for s in self._sent_by(range(1, self.num_colors + 1), messages, self.chi)]

    def _sent_by(self, colors: Iterable[int], messages: dict[Node, int], rows: int) -> list[int]:
        """The first `rows` symbols that `colors` alone would send, not reduced mod q.

        Each color's aggregate, the sum of its class's messages, times its
        column (1, p, ..., p^(rows-1)) on the point p = c mod q, by Horner.
        """
        q, classes, sent = self.field_order, self.coloring.classes, [0] * rows
        for c in colors:
            term, point = sum(map(messages.__getitem__, classes[c - 1])), c % q
            for r in range(rows):
                sent[r] += term
                term = term * point % q
        return sent


def build_mds_scheme(
    graph: SuicpGraph,
    coloring: Coloring,
    field_order: int | None = None,
    rows: int | None = None,
) -> TransmissionScheme:
    """The scheme of `coloring` over GF(field_order), sending chi rows.

    chi defaults to the coloring's local chromatic value, the fewest symbols
    that still decode.  Callers may budget more rows (up to n), e.g. to
    transmit exactly the count a closed-form rate accounts for.
    """
    n = coloring.num_colors
    if field_order is None:
        field_order = default_field_order(n)
    validate_field(field_order, n)
    chi = local_chromatic_value(graph, coloring)
    if rows is not None:
        if not chi <= rows <= n:
            raise ValueError(f"row budget {rows} outside [{chi}, {n}]")
        chi = rows
    return TransmissionScheme(coloring=coloring, chi=chi, field_order=field_order)


def solve_transposed_vandermonde(
    master: list[int], rhs: list[int], roots: list[int], q: int
) -> list[int]:
    """Components at `roots` of y solving sum_j points[j]**r * y[j] = rhs[r], r < m.

    `master` is P(X) = prod_j (X - points[j]) over the m points, highest
    degree first, and each root is one of the points.  With
    b(X) = P(X) / (X - root), b vanishes on every point but the root, so
    y at the root is (b . rhs) / b(root) (Bjorck & Pereyra 1970), O(m) per
    root.  Raises ZeroDivisionError when the root repeats another point.
    """
    m = len(rhs)
    solved = []
    for root in roots:
        # Synthetic division, highest coefficient first; Horner evaluates the
        # quotient at the root and the dot product with rhs in the same pass.
        b = master[0]
        numerator = b * rhs[m - 1]
        denominator = b
        for r in range(1, m):
            b = (master[r] + root * b) % q
            numerator += b * rhs[m - 1 - r]
            denominator = (denominator * root + b) % q
        if denominator == 0:
            raise ZeroDivisionError(f"point {root} is repeated")
        solved.append(numerator * pow(denominator, -1, q) % q)
    return solved


def decode_node(
    scheme: TransmissionScheme,
    graph: SuicpGraph,
    user: int,
    messages: dict[Node, int],
    broadcast: list[int],
) -> dict[Node, int]:
    """Recover the messages of every virtual node of `user`.

    The user's nodes share one side-information set, so a single solve
    serves all of them.  A color is unknown when its class mask meets the
    complement of that set.  The first m rows, less what the n-m fully known colors send,
    are solved at the user's own colors only; each solution is the whole
    aggregate of the node's class, since its quotient polynomial vanishes on
    every other unknown color, so subtracting the members the user knows
    leaves the node's message.  Reads only messages the user knows.  Per
    user: n class-mask tests, O(m*(n-m)) for the residual,
    O(n*(n-m)) for the master polynomial and O(m*i) for the solve.
    """
    q, coloring = scheme.field_order, scheme.coloring
    outside = ~graph.user_side[user - 1]
    own = [(user, t) for t in range(1, graph.num_columns + 1)]
    own_colors = [coloring.assignment[nd] for nd in own]
    unknown, full = [], []
    for c, mask in enumerate(coloring.masks, start=1):
        (unknown if mask & outside else full).append(c)
    m = len(unknown)
    if m > scheme.chi:
        raise DecodeError(user, unknown, scheme.chi, "more unknown colors than rows")
    residual = list(map(sub, broadcast, scheme._sent_by(full, messages, m)))

    try:
        solved = solve_transposed_vandermonde(
            scheme.master_over(unknown), residual, [c % q for c in own_colors], q
        )
    except ZeroDivisionError:
        raise DecodeError(user, unknown, scheme.chi, "zero denominator") from None
    # Each solved aggregate still holds the class members the user knows.
    unseen = [graph.nodes_of(coloring.masks[c - 1] & outside) for c in own_colors]
    return {
        nd: (value - sum(messages[v] for v in coloring.classes[c - 1] if v not in gone)) % q
        for nd, c, value, gone in zip(own, own_colors, solved, unseen)
    }


def simulate_decode(
    scheme: TransmissionScheme, graph: SuicpGraph, messages: dict[Node, int]
) -> dict[Node, int]:
    """Decode every node, one solve per user; the result must reproduce `messages`."""
    if set(messages) != set(graph.nodes):
        raise ValueError("messages must assign exactly one symbol per node")
    broadcast = scheme.transmit(messages)
    decoded: dict[Node, int] = {}
    for k in range(1, graph.K + 1):
        decoded.update(decode_node(scheme, graph, k, messages, broadcast))
    return decoded


__all__ = [
    "DecodeError",
    "TransmissionScheme",
    "build_mds_scheme",
    "solve_transposed_vandermonde",
    "decode_node",
    "simulate_decode",
]
