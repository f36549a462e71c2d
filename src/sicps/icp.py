"""Cyclic-gap index coding instances and their side-information structure.

An instance is described by a gap pattern (a_i, ..., a_1) and a chunk length
L: arranging the K files on a circle, each user's side information consists
of i-1 chunks of L consecutive files, separated by the gaps.  Taking the
union of such a problem with its i-1 clockwise rotations yields a unicast
problem where every user wants i files; that union is itself the
single-unicast graph over (user, column) virtual nodes that the coloring and
bound engines operate on.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import product
from operator import attrgetter
from typing import NamedTuple

Node = tuple[int, int]  # (user, column), both 1-based

# Most user-node pairs, K * (K*i), that `build_union_icp` accepts: the pairs
# that the local chromatic value and decode scan, as bitmasks.  Larger
# instances are refused before anything is built.  1.7 million pairs
# ((120,1,119) in `macc simulate`) take 0.75-0.81 s and 25 MB (2-core Intel
# Xeon, Python 3.11.7, on a CPU whose speed varies by up to 2x).
MAX_UNION_PAIRS = 2_000_000


def wrap(m: int, n: int) -> int:
    """Cyclic 1-based index: result is in [1, n], with multiples of n mapping to n."""
    r = m % n
    return n if r == 0 else r


def rotate_gaps(gaps: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Rotate the gap tuple clockwise t times (last entry moves to the front)."""
    n = len(gaps)
    t %= n
    return gaps[n - t:] + gaps[:n - t]


def canonical_rotation(gaps: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Return the lexicographically greatest rotation and the shift applied.

    The shift s is the smallest value such that rotating the result clockwise
    s times recovers the input, so the maximum entry always leads the result.
    """
    if not gaps:
        raise ValueError("gaps must be non-empty")
    n = len(gaps)
    best, best_shift = gaps, 0
    for s in range(1, n):
        candidate = gaps[s:] + gaps[:s]  # input rotated counter-clockwise s times
        if candidate > best:
            best, best_shift = candidate, s
    return best, best_shift


class GapVector(NamedTuple("GapVector", [("gaps", tuple), ("L", int)])):
    """Gap pattern (a_i, ..., a_1) plus chunk length L defining an instance family.

    The user count K = (i-1)*L + sum(gaps) + 1 is fully determined; gaps[0]
    corresponds to a_i and gaps[-1] to a_1.
    """

    __slots__ = ()

    def __new__(cls, gaps, L: int) -> GapVector:
        gaps = tuple(int(g) for g in gaps)
        if not gaps:
            raise ValueError("gaps must be non-empty")
        if any(g < 0 for g in gaps):
            raise ValueError("gaps must be non-negative")
        if L < 1:
            raise ValueError("chunk length L must be >= 1")
        return super().__new__(cls, gaps, L)

    @property
    def i(self) -> int:
        return len(self.gaps)

    @property
    def K(self) -> int:
        return (self.i - 1) * self.L + sum(self.gaps) + 1

    def canonicalize(self) -> tuple["GapVector", int]:
        canonical, shift = canonical_rotation(self.gaps)
        return GapVector(canonical, self.L), shift


def require_leading_max(spec: GapVector) -> None:
    if spec.gaps[0] != max(spec.gaps):
        raise ValueError(
            f"gap vector {spec.gaps} is not canonical: the leading gap must be maximal"
        )


class SuicpGraph:
    """Single-unicast side-information graph over (user, column) virtual nodes.

    There is an edge u -> v exactly when v's requested file is side
    information for u; all nodes of one user share the same side-information
    set, and only those sets are stored.  A user's closed anti-outneighborhood
    is every node outside its set.  Each set is a node mask: node (k, t) is
    bit (k-1)*num_columns + t-1, its position in `nodes`.  A graph is a value:
    its fields are read-only, and it equals only a graph of its type with equal fields.
    """

    _values = property(attrgetter("K", "num_columns", "user_side"))

    def __init__(self, K: int, num_columns: int, user_side: tuple[int, ...]) -> None:
        vars(self).update(K=K, num_columns=num_columns, user_side=user_side)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values!r}"

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(product(range(1, self.K + 1), range(1, self.num_columns + 1)))

    def __len__(self) -> int:
        return self.K * self.num_columns

    def bit(self, node: Node) -> int:
        """The mask bit of `node`: the one-node inverse of `nodes_of`."""
        k, t = node
        return 1 << (k - 1) * self.num_columns + t - 1

    @cached_property
    def has_user_shift(self) -> bool:
        """Whether user k's side information is user 1's rotated by (k-1)*num_columns bits.

        Then shifting every user by one maps the graph onto itself, as on every
        union instance.  Computed once per graph.
        """
        n, first = len(self), self.user_side[0]
        return all(side == rotate_mask(first, k * self.num_columns, n)
                   for k, side in enumerate(self.user_side))

    def nodes_of(self, mask: int) -> list[Node]:
        """The nodes whose bits are set in `mask`, in order; O(n) per set bit."""
        out = []
        while mask:
            k, t = divmod((mask & -mask).bit_length() - 1, self.num_columns)
            out.append((k + 1, t + 1))
            mask &= mask - 1
        return out


def rotate_mask(mask: int, bits: int, width: int) -> int:
    """`mask` rotated `bits` places up within `width` bits; by num_columns, the user shift."""
    return (mask << bits | mask >> (width - bits)) & ((1 << width) - 1)


class UnionIcp(SuicpGraph):
    """Union of a gap instance with its i-1 clockwise rotations, as its own graph.

    User k wants the i files (k, 1), ..., (k, i); column p carries the
    (p-1)-th clockwise rotation of the defining gaps.
    """

    _values = property(attrgetter("K", "num_columns", "user_side", "spec"))

    def __init__(self, K: int, num_columns: int, user_side: tuple[int, ...],
                 spec: GapVector) -> None:
        super().__init__(K, num_columns, user_side)
        vars(self)["spec"] = spec

    @property
    def i(self) -> int:
        return self.spec.i


def format_count(n: int) -> str:
    """`n` in digits below 10^18, else as a power of ten: a refusal stays short enough to print."""
    return str(n) if n < 10**18 else f"about 10^{math.log10(n):.1f}"


def check_union_size(spec: GapVector) -> None:
    """Refuse more than MAX_UNION_PAIRS user-node pairs, K * (K*i): the same for every rotation."""
    K, i = spec.K, spec.i
    if K * K * i > MAX_UNION_PAIRS:
        raise ValueError(f"union instance with {format_count(K)} users and {i} columns has "
                         f"{format_count(K * K * i)} user-node pairs, above the limit "
                         f"{MAX_UNION_PAIRS}")


def build_union_icp(spec: GapVector) -> UnionIcp:
    """Construct the union instance: one column per clockwise rotation.

    In column t (gaps rotated t-1 times) user 1 knows a chunk of L files after
    each of the first i-1 gaps, at offsets o from file 1; the user shift maps
    the instance onto itself, so user k's mask is user 1's rotated by (k-1)*i
    bits.  An instance that `check_union_size` refuses is refused first.
    """
    check_union_size(spec)
    K, L, i = spec.K, spec.L, spec.i
    first = 0
    for t in range(1, i + 1):
        gap_sum = 0
        for v, gap in enumerate(rotate_gaps(spec.gaps, t - 1)[:-1]):
            gap_sum += gap
            first |= sum(1 << ((gap_sum + v * L + r) % K * i + t - 1) for r in range(1, L + 1))
    known = tuple(rotate_mask(first, k * i, K * i) for k in range(K))
    return UnionIcp(K=K, num_columns=i, user_side=known, spec=spec)


__all__ = [
    "MAX_UNION_PAIRS",
    "Node",
    "GapVector",
    "UnionIcp",
    "SuicpGraph",
    "wrap",
    "rotate_gaps",
    "canonical_rotation",
    "rotate_mask",
    "format_count",
    "check_union_size",
    "build_union_icp",
    "require_leading_max",
]
