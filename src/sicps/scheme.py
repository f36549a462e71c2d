"""MDS-coded broadcast realization of a proper coloring, with decode simulation.

The server sums the messages inside each color class and transmits chi MDS
combinations of the n per-color aggregates, where chi is the coloring's local
chromatic value.  Color c sits on the point c mod q, so symbol r is the sum
over colors of aggregate times point**r, written once in
`TransmissionScheme._sent_by`.  A user subtracts what the n-m colors it fully
knows send and is left with the m <= chi colors of its closed
anti-outneighborhood.  The first m rows restricted to those colors form a
transposed Vandermonde system, solved at the user's i own colors only from
its master polynomial: the code's master over all n colors divided by the
n-m known colors.  The solve at an own color gives its class's whole
aggregate; properness lets the user know the node's classmates, subtracted last.

None of that but the residual and the subtraction depends on the messages,
so decoding is split in two.  `plan_decode` checks properness and builds a
user's `DecodePlan` once per scheme: per own node, its quotient row, scale and
classmates, for n+i class-mask tests.  A row depends only on n, q, the set F
of colors the user fully knows and the own color, so it comes from the
scheme's `MdsCode`, which every scheme with n colors over GF(q) in one command
can share: O(n*|F|) for the master once per distinct F and O(m) for a row once
per distinct (F, own color), and equal keys share one row list.
`decode_node` applies a plan to one broadcast: O(m*(n-m)) for the residual,
one C-level dot product of m terms per own color and the classmates' sum.
Callers that decode many message sets keep the K plans; a single decode
builds each plan, applies it and drops it.
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


class MdsCode:
    """The points 1..n mod q of n colors over GF(q), and the decode rows they give.

    A decode row depends only on the colors F a user fully knows and the own
    color it is taken at, not on the graph or the coloring, so every scheme
    with n colors over GF(q) can share one code.  `master` is
    prod_c (X - c mod q) over all n colors, highest degree first.  `rows`
    memoizes, per F, the master divided by F and each own color's row; the
    memo lives as long as the code, which a caller shares within one command
    and then drops.  Memoized rows are shared: callers must not change them.
    """

    def __init__(self, num_colors: int, field_order: int) -> None:
        q, master = field_order, [1]
        for c in range(1, num_colors + 1):
            master = [(hi - c * lo) % q for hi, lo in zip(master + [0], [0] + master)]
        self.num_colors = num_colors
        self.field_order = field_order
        self.master = tuple(master)
        # Per tuple of full colors: the master divided by them, and the rows by own color.
        self._by_full: dict[tuple[int, ...], tuple[list[int], dict]] = {}

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

    def rows(self, full: list[int], colors: list[int]) -> list[tuple[list[int], int]]:
        """Per color of `colors`, its quotient row and scale when `full` are the known colors.

        The unknown colors are those not in `full`; see
        `transposed_vandermonde_rows`.  The first request for `full` divides
        the master and builds every row in one call; a later one builds only
        the rows not yet memoized.  Raises ZeroDivisionError, memoizing no
        row, when one of `colors` repeats the point of another unknown color.
        """
        q, key = self.field_order, tuple(full)
        memo = self._by_full.get(key)
        if memo is None:
            master = self.master_without(full)
            rows = transposed_vandermonde_rows(master, [c % q for c in colors], q)
            self._by_full[key] = (master, dict(zip(colors, rows)))
            return rows
        master, built = memo
        missing = [c for c in colors if c not in built]
        if missing:
            new = transposed_vandermonde_rows(master, [c % q for c in missing], q)
            built.update(zip(missing, new))
        return [built[c] for c in colors]


@dataclass(frozen=True)
class TransmissionScheme:
    """chi MDS combinations over GF(field_order) of the per-color message sums.

    Color c sits on the point c mod field_order, so the scheme is exactly its
    coloring, row count and code, whose color count must be the coloring's.
    `field_order` is the code's, copied once because every trial reads it.
    """

    coloring: Coloring
    chi: int
    code: MdsCode
    field_order: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.code.num_colors != self.num_colors:
            raise ValueError(f"a code over {self.code.num_colors} colors cannot carry "
                             f"a coloring with {self.num_colors}")
        object.__setattr__(self, "field_order", self.code.field_order)

    @property
    def num_colors(self) -> int:
        return self.coloring.num_colors

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
    code: MdsCode | None = None,
) -> TransmissionScheme:
    """The scheme of `coloring` over GF(field_order), sending exactly chi rows.

    chi is the coloring's local chromatic value, the fewest symbols that
    still decode.  `code`, when given, is an earlier scheme's code with as
    many colors, shared so that each decode row is built once; field_order
    is then not read.  Without it the scheme gets a code of its own.
    """
    if code is None:
        n = coloring.num_colors
        if field_order is None:
            field_order = default_field_order(n)
        validate_field(field_order, n)
        code = MdsCode(n, field_order)
    chi = local_chromatic_value(graph, coloring)
    return TransmissionScheme(coloring=coloring, chi=chi, code=code)


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
    color's quotient row and scale (`MdsCode.rows`, shared by every plan
    with the same full colors) and `classmates` the rest of its color class,
    all known to the user.
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
    own colors only; the scheme's code builds each once and shares it.  A
    zero denominator names the own color and the unknown color whose point
    it repeats.  Properness is checked where decoding relies on it, by
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
        rows = scheme.code.rows(full, own_colors)
    except ZeroDivisionError:
        c, d = next((c, d) for c in own_colors for d in unknown if d != c and (d - c) % q == 0)
        raise DecodeError(user, unknown, scheme.chi, f"zero denominator: own color {c} "
                          f"repeats the point {c % q} of color {d} mod {q}") from None
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
    "MdsCode",
    "TransmissionScheme",
    "build_mds_scheme",
    "transposed_vandermonde_rows",
    "DecodePlan",
    "plan_decode",
    "decode_node",
    "simulate_decode",
]
