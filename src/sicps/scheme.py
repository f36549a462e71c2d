"""MDS-coded broadcast realization of a proper coloring, with decode simulation.

The server sums the messages inside each color class and transmits chi MDS
combinations of the n per-color aggregates a_x, where chi is the coloring's
local chromatic value.  Color x sits on the point p_x = x mod q, distinct
because q >= n, and symbol r is B_r = sum_x a_x * p_x**r.

A user with m <= chi unknown colors U, fully known colors F and own color c
decodes by barycentric interpolation (Berrut & Trefethen, SIAM Review 2004).
Let l_x be the Lagrange basis polynomial of p_x over all n points and
u_x = sum_{r<m} l_x[r] * B_r.  P(X) = prod_{y in U-c} (X - p_y) has degree
m-1 and is interpolated exactly by the basis, P = sum_{x in F+c} P(p_x) * l_x,
since it vanishes on U-c.  So the first m symbols give
P(p_c)*a_c + sum_{f in F} P(p_f)*a_f = sum_{x in F+c} P(p_x)*u_x, and

    a_c = u_c + sum_{f in F} w_f * (u_f - a_f),   w_f = P(p_f) / P(p_c).

That is the whole aggregate of c's class; properness lets the user know the
node's classmates, subtracted last.  An own node the user already knows has
its color in F, and its weights, -1 at c and 0 elsewhere, give
a_c = u_c - (u_c - a_c) from side information alone.  Each u_x depends only
on the broadcast, the code and m, so it reads no message: per trial and m,
one vector of all n dots serves every user (`Broadcast`).  The a_f are classes
the user fully knows, so decode reads no message outside the user's side
information.

Only the w_f depend on the user, on F and c alone, so the `MdsCode` that
the caller passes to `build_mds_scheme`, which chooses and checks the field
and serves every scheme with n colors in one command, memoizes them.  Costs:
O(n^2) for the table of all n bases, once per code; per plan, n class-mask
tests, O(|F|^2) once per distinct F, and O(|F|) plus |F| inverses once per
distinct (F, own color), equal keys sharing one weight tuple.  Per trial:
O(n*chi) to transmit, O(n*m) for the dot vector of each distinct m, and per
user its |F| known aggregates, a dot of |F| terms and the classmates' sum
per own node.
A caller decoding many message sets keeps the K plans; a single decode
builds each plan, applies it and drops it.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .coloring import Coloring, local_chromatic_value
from .icp import Node, SuicpGraph

# Miller-Rabin with the first thirteen primes as bases is exact below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 2017).  Twelve bases would not reach it: 318665857834031151167461
# passes 2..37.
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CHECK_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality below PRIME_CHECK_BOUND; ValueError at or above it."""
    if n >= PRIME_CHECK_BOUND:
        raise ValueError(f"field order {n} is not below {PRIME_CHECK_BOUND}, "
                         "the bound under which primality is checked exactly")
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to its square root
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


class MdsCode:
    """The points 1..n mod q of n colors over GF(q), and the decode weights they give.

    The one place that chooses and checks the field: q defaults to the least
    prime above n and at least 257, and must be a prime at least n, so the
    points are distinct; anything else raises ValueError.  `bases` holds the
    Lagrange basis polynomial of every color over all n points, built whole
    on first use; `weights` gives a user's barycentric weights, which depend
    only on the colors F it fully knows and the own color, not on the graph
    or the coloring, so every scheme with n colors over GF(q) can share one
    code.  Both are memoized for as long as the code lives, which a caller
    shares within one command and then drops; callers must not change them.
    """

    def __init__(self, num_colors: int, field_order: int | None = None) -> None:
        n = self.num_colors = num_colors
        if field_order is None:  # the least prime above n, and at least 257
            q = next_prime_at_least(max(257, n + 1))
        elif not is_prime(q := field_order):
            raise ValueError(f"field order {q} is not prime")
        elif q < n:
            raise ValueError(f"field order {q} too small for {n} colors")
        self.field_order = q
        self.points = [c % q for c in range(1, n + 1)]
        # 1 / prod_{y != x} (p_x - p_y) per color x: as p_x - p_y = x - y mod q,
        # the product is (-1)**(n-x) * (x-1)! * (n-x)!, with fact[k] = k! mod q.
        fact = list(accumulate(range(1, n), lambda a, k: a * k % q, initial=1))
        self._scales = [pow((-1) ** (n - x) * fact[x - 1] * fact[n - x], -1, q)
                        for x in range(1, n + 1)]
        # Per tuple of full colors: the h_f of `weights`, and the weights by own color.
        self._by_full: dict[tuple[int, ...], tuple[list[int], dict[int, tuple[int, ...]]]] = {}

    @cached_property
    def bases(self) -> list[list[int]]:
        """Per color x, l_x = prod_{y != x} (X - p_y) / (p_x - p_y), lowest degree first.

        The master prod_x (X - p_x), O(n^2), divided by each (X - p_x) by
        synthetic division, O(n), over prod_{y != x} (p_x - p_y).  Where
        q <= 2n, as the default field is for n >= 257, the coefficients share
        one int object per residue, so each costs only its slot.
        """
        q, master = self.field_order, [1]
        for p in self.points:
            master = [(hi - p * lo) % q for hi, lo in zip(master + [0], [0] + master)]
        residues = list(range(q)) if q <= 2 * self.num_colors else None
        bases = []
        for point, scale in zip(self.points, self._scales):
            b, quotient = 1, [1]  # the master is monic
            for a in master[1:-1]:
                b = (a + point * b) % q
                quotient.append(b)
            basis = [b * scale % q for b in reversed(quotient)]
            bases.append(basis if residues is None else list(map(residues.__getitem__, basis)))
        return bases

    def weights(self, full: list[int], colors: list[int]) -> list[tuple[int, ...]]:
        """Per color c of `colors`, the weights w_f = P(p_f) / P(p_c) over f in `full`.

        P is the product of (X - p_y) over the colors y outside `full` but c.
        With d_x = prod_{y != x} (p_x - p_y) and h_f = prod_{y in full, y != f}
        (p_f - p_y) / d_f, once per `full`, w_f = prod_{y in full} (p_c - p_y)
        / (d_c * h_f * (p_f - p_c)): O(|full|) per color plus one inverse per
        weight.  A color c in `full` is known outright: w_c = -1 and every
        other weight is 0.
        """
        q, key, scales = self.field_order, tuple(full), self._scales
        memo = self._by_full.get(key)
        if memo is None:
            h = [math.prod([f - y for y in full if y != f]) * scales[f - 1] % q for f in full]
            memo = self._by_full[key] = (h, {})
        h, built = memo
        for c in colors:
            if c in built:
                continue
            if c in key:
                built[c] = tuple([q - 1 if f == c else 0 for f in full])
            else:
                scale = math.prod([c - y for y in full]) * scales[c - 1]
                built[c] = tuple([scale * pow(hf * (f - c), -1, q) % q for f, hf in zip(full, h)])
        return [built[c] for c in colors]


class Broadcast(list):
    """One trial's broadcast symbols, and the dots with the code's bases that its users share.

    A user with m unknown colors reads u_x = sum_{r<m} l_x[r] * B_r for its
    fully known and own colors x.  That depends on the symbols, the code and
    m only, so it reads no message; `dots` computes it for every color once
    per m and every later user of the trial reuses it.
    """

    def __init__(self, symbols: list[int], code: MdsCode) -> None:
        super().__init__(symbols)
        self.code = code
        self._by_rows: dict[int, list[int]] = {}

    def dots(self, m: int) -> list[int]:
        """u_x at index x - 1 for every color x, over the first m symbols, not reduced mod q."""
        dots = self._by_rows.get(m)
        if dots is None:
            head = self[:m]
            dots = self._by_rows[m] = [sum(map(mul, basis, head)) for basis in self.code.bases]
        return dots


class TransmissionScheme(NamedTuple("TransmissionScheme", [
        ("graph", SuicpGraph), ("coloring", Coloring), ("code", MdsCode), ("chi", int)])):
    """chi MDS combinations, over its code's field, of the per-color message sums.

    Color c sits on the code's point c mod q, so the scheme is exactly its
    graph, coloring and code, whose color count must be the coloring's.  chi
    is the coloring's local chromatic value on the graph, the most unknown
    colors any user has; computing it refuses a coloring that is improper or
    does not cover the graph exactly.
    """

    __slots__ = ()

    def __new__(cls, graph: SuicpGraph, coloring: Coloring, code: MdsCode) -> TransmissionScheme:
        if code.num_colors != coloring.num_colors:
            raise ValueError(f"a code over {code.num_colors} colors cannot carry "
                             f"a coloring with {coloring.num_colors}")
        return super().__new__(cls, graph, coloring, code, local_chromatic_value(graph, coloring))

    @property
    def num_colors(self) -> int:
        return self.coloring.num_colors

    @property
    def field_order(self) -> int:
        return self.code.field_order

    def transmit(self, messages: dict[Node, int]) -> Broadcast:
        """The chi broadcast symbols for one symbol of payload per node.

        Row by row: symbol r sums each color's aggregate times p**r, and each
        term is then multiplied by its point for the next row.
        """
        q, points = self.field_order, self.code.points
        terms = [sum(map(messages.__getitem__, members)) for members in self.coloring.classes]
        symbols = []
        for _ in range(self.chi):
            symbols.append(sum(terms) % q)
            terms = [t * p % q for t, p in zip(terms, points)]
        return Broadcast(symbols, self.code)


def build_mds_scheme(graph: SuicpGraph, coloring: Coloring, code: MdsCode) -> TransmissionScheme:
    """The scheme of `coloring` on `graph` over `code`, sending exactly chi rows.

    The code fixes the field and must have the coloring's color count;
    schemes sharing one build its bases and each weight tuple once.
    """
    return TransmissionScheme(graph, coloring, code)


class DecodePlan(NamedTuple):
    """Everything decoding one user needs that no message changes, from `plan_decode`.

    The user reads the first m broadcast symbols and the aggregates of the
    `full` colors (those it fully knows).  Per own node, `colors` holds its
    color, `weights` that color's weights over `full` (`MdsCode.weights`,
    shared by every plan with the same full colors) and `classmates` the rest
    of its color class, all known to the user.
    """

    scheme: TransmissionScheme
    m: int
    own: list[Node]
    colors: list[int]
    full: list[int]
    weights: list[tuple[int, ...]]
    classmates: list[list[Node]]


def plan_decode(scheme: TransmissionScheme, user: int) -> DecodePlan:
    """The decode plan of `user`, built once per scheme and reused across message sets.

    A color is unknown when its class mask meets the complement of the
    user's side information; there are m <= chi of them, chi being the most
    any user has.  The scheme's coloring is proper, so the user knows every
    classmate of its own nodes.  The weights come from the scheme's code,
    which builds each tuple once and shares it.
    """
    graph, coloring = scheme.graph, scheme.coloring
    outside = ~graph.user_side[user - 1]
    own = [(user, t) for t in range(1, graph.num_columns + 1)]
    own_colors = [coloring.assignment[nd] for nd in own]
    full = [c for c, mask in enumerate(coloring.masks, start=1) if not mask & outside]
    classmates = [[v for v in coloring.classes[c - 1] if v != nd]
                  for nd, c in zip(own, own_colors)]
    weights = scheme.code.weights(full, own_colors)
    return DecodePlan(scheme, coloring.num_colors - len(full), own, own_colors, full,
                      weights, classmates)


def decode_node(plan: DecodePlan, messages: dict[Node, int],
                broadcast: Broadcast) -> dict[Node, int]:
    """Recover the messages of every virtual node of the plan's user.

    `broadcast` is what the plan's scheme transmitted.  The user's nodes
    share one side-information set, so the differences u_f - a_f over the
    fully known colors serve all of them; each own node's weights, dotted
    with them and added to its color's shared dot, give the whole aggregate
    of the node's class.  Subtracting the node's classmates leaves its
    message.  Reads only messages the user knows.
    """
    q, classes, u = plan.scheme.field_order, plan.scheme.coloring.classes, broadcast.dots(plan.m)
    excess = [u[f - 1] - sum(map(messages.__getitem__, classes[f - 1])) for f in plan.full]
    return {
        nd: (u[c - 1] + sum(map(mul, weights, excess)) - sum(map(messages.__getitem__, mates))) % q
        for nd, c, weights, mates in zip(plan.own, plan.colors, plan.weights, plan.classmates)
    }


def simulate_decode(scheme: TransmissionScheme, messages: dict[Node, int],
                    plans: list[DecodePlan] | None = None) -> dict[Node, int]:
    """Decode every node, one plan per user; the result must reproduce `messages`.

    `plans` are the users' plans in order, built once by `plan_decode` for
    callers that decode many message sets; without them each user's plan is
    built, applied and dropped.  One broadcast serves every user, so each
    shared dot is computed once.
    """
    graph = scheme.graph
    if set(messages) != set(graph.nodes):
        raise ValueError("messages must assign exactly one symbol per node")
    broadcast = scheme.transmit(messages)
    decoded: dict[Node, int] = {}
    for k in range(1, graph.K + 1):
        plan = plan_decode(scheme, k) if plans is None else plans[k - 1]
        decoded.update(decode_node(plan, messages, broadcast))
    return decoded


__all__ = [
    "PRIME_CHECK_BOUND",
    "is_prime",
    "next_prime_at_least",
    "MdsCode",
    "Broadcast",
    "TransmissionScheme",
    "build_mds_scheme",
    "DecodePlan",
    "plan_decode",
    "decode_node",
    "simulate_decode",
]
