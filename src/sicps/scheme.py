"""MDS-coded broadcast realization of a proper coloring, with decode simulation.

The server sums the messages inside each color class and transmits chi MDS
combinations of the n per-color aggregates, where chi is the coloring's local
chromatic value.  Color c sits on the point c mod q, so symbol r is the sum
over colors of aggregate times point**r, written once in
`TransmissionScheme._sent_by`.  A user subtracts what the n-m colors it fully
knows send and is left with the m <= chi colors of its closed
anti-outneighborhood.  The first m rows restricted to those colors form a
transposed Vandermonde system, solved at the user's i own colors only from
its master polynomial: the scheme's master over all n colors divided by the
n-m known colors.  The solve at an own color gives its class's whole
aggregate; properness lets the user know the node's classmates, subtracted last.

None of that but the residual and the subtraction depends on the messages,
so decoding is split in two.  `plan_decode` checks properness and builds a
user's `DecodePlan` once per scheme: per own node, its quotient row, scale and
classmates, for n+i class-mask tests, O(n*(n-m)) for the master and O(m*i)
for the rows.  `decode_node` applies a plan to one broadcast: O(m*(n-m)) for the
residual, one C-level dot product of m terms per own color and the
classmates' sum.  Callers that decode many message sets keep the K plans; a
single decode builds each plan, applies it and drops it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import mul, sub
from typing import NamedTuple

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

    def master_without(self, colors: list[int]) -> list[int]:
        """prod (X - c mod q) over every color not in the distinct `colors`, highest degree first.

        `master` divided by (X - c mod q) for each of `colors`, by synthetic
        division in O(n) each; exact even where points repeat.
        """
        q, poly = self.field_order, list(self.master)
        for c in colors:
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
    graph: SuicpGraph, coloring: Coloring, field_order: int | None = None
) -> TransmissionScheme:
    """The scheme of `coloring` over GF(field_order), sending exactly chi rows.

    chi is the coloring's local chromatic value, the fewest symbols that
    still decode.
    """
    n = coloring.num_colors
    if field_order is None:
        field_order = default_field_order(n)
    validate_field(field_order, n)
    chi = local_chromatic_value(graph, coloring)
    return TransmissionScheme(coloring=coloring, chi=chi, field_order=field_order)


def transposed_vandermonde_rows(
    master: list[int], roots: list[int], q: int
) -> list[tuple[list[int], int]]:
    """Per root, the row and scale giving y there, where sum_j points[j]**r * y[j] = rhs[r], r < m.

    `master` is P(X) = prod_j (X - points[j]) over the m points, highest
    degree first, and each root is one of the points.  The quotient
    b(X) = P(X) / (X - root) = b_0 X^(m-1) + ... + b_(m-1) vanishes on every
    point but the root, so y at the root is sum_r b_r * rhs[m-1-r] / b(root)
    (Bjorck & Pereyra 1970): the row is (b_0, ..., b_(m-1)), dotted with rhs
    reversed, and the scale is 1/b(root).  O(m) per root.  Raises
    ZeroDivisionError when the root repeats another point.
    """
    inner, rows = master[1:-1], []
    for root in roots:
        # Synthetic division, highest coefficient first; Horner evaluates the
        # quotient at the root in the same pass.
        b = denominator = master[0]
        row = [b]
        append = row.append
        for a in inner:
            b = (a + root * b) % q
            append(b)
            denominator = (denominator * root + b) % q
        if denominator == 0:
            raise ZeroDivisionError(f"point {root} is repeated")
        rows.append((row, pow(denominator, -1, q)))
    return rows


class DecodePlan(NamedTuple):
    """Everything decoding one user needs that no message changes, from `plan_decode`.

    The user subtracts what the `full` colors (those it fully knows) send
    from the first m broadcast symbols.  Per own node, `rows` holds its
    color's quotient row and scale (`transposed_vandermonde_rows`) and
    `classmates` the rest of its color class, all known to the user.
    """

    scheme: TransmissionScheme
    m: int
    own: list[Node]
    full: list[int]
    rows: list[tuple[list[int], int]]
    classmates: list[list[Node]]


def plan_decode(scheme: TransmissionScheme, graph: SuicpGraph, user: int) -> DecodePlan:
    """The decode plan of `user`, built once per scheme and reused across message sets.

    A color is unknown when its class mask meets the complement of the
    user's side information; its m unknown colors must not exceed chi.  The
    rows come from the master over the unknown colors, taken at the user's
    own colors only.  Properness is checked where decoding relies on it, by
    one mask compare per own node: a node whose class has another member the
    user does not know raises DecodeError naming the node and those members.
    """
    q, coloring = scheme.field_order, scheme.coloring
    outside = ~graph.user_side[user - 1]
    own = [(user, t) for t in range(1, graph.num_columns + 1)]
    own_colors = [coloring.assignment[nd] for nd in own]
    unknown, full = [], []
    for c, mask in enumerate(coloring.masks, start=1):
        (unknown if mask & outside else full).append(c)
    if len(unknown) > scheme.chi:
        raise DecodeError(user, unknown, scheme.chi, "more unknown colors than rows")
    classmates = [list(coloring.classes[c - 1]) for c in own_colors]
    for nd, c, mates in zip(own, own_colors, classmates):
        if coloring.masks[c - 1] & outside != graph.bit(nd):
            unseen = graph.nodes_of(coloring.masks[c - 1] & outside)
            raise DecodeError(user, unknown, scheme.chi, f"improper coloring: color {c} "
                              f"of node {nd} has unknown members {unseen}")
        mates.remove(nd)
    try:
        rows = transposed_vandermonde_rows(
            scheme.master_without(full), [c % q for c in own_colors], q
        )
    except ZeroDivisionError:
        raise DecodeError(user, unknown, scheme.chi, "zero denominator") from None
    return DecodePlan(scheme, len(unknown), own, full, rows, classmates)


def decode_node(
    plan: DecodePlan, messages: dict[Node, int], broadcast: list[int]
) -> dict[Node, int]:
    """Recover the messages of every virtual node of the plan's user.

    The user's nodes share one side-information set, so one residual serves
    all of them: the first m symbols less what the fully known colors send.
    Each own node's row, dotted with it, gives the whole aggregate of the
    node's class, since its quotient polynomial vanishes on every other
    unknown color; subtracting the node's classmates leaves its message.
    Reads only messages the user knows.
    """
    m, q = plan.m, plan.scheme.field_order
    # Reversed once, so that each row dots with it directly.
    sent = plan.scheme._sent_by(plan.full, messages, m)
    residual = list(map(sub, broadcast[m - 1::-1], sent[::-1]))
    return {
        nd: (sum(map(mul, row, residual)) * scale - sum(map(messages.__getitem__, mates))) % q
        for nd, (row, scale), mates in zip(plan.own, plan.rows, plan.classmates)
    }


def simulate_decode(
    scheme: TransmissionScheme,
    graph: SuicpGraph,
    messages: dict[Node, int],
    plans: list[DecodePlan] | None = None,
) -> dict[Node, int]:
    """Decode every node, one plan per user; the result must reproduce `messages`.

    `plans` are the users' plans in order, built once by `plan_decode` for
    callers that decode many message sets; without them each user's plan is
    built, applied and dropped.
    """
    if set(messages) != set(graph.nodes):
        raise ValueError("messages must assign exactly one symbol per node")
    broadcast = scheme.transmit(messages)
    decoded: dict[Node, int] = {}
    for k in range(1, graph.K + 1):
        plan = plan_decode(scheme, graph, k) if plans is None else plans[k - 1]
        decoded.update(decode_node(plan, messages, broadcast))
    return decoded


__all__ = [
    "DecodeError",
    "TransmissionScheme",
    "build_mds_scheme",
    "transposed_vandermonde_rows",
    "DecodePlan",
    "plan_decode",
    "decode_node",
    "simulate_decode",
]
