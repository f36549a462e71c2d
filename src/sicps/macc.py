"""Multi-access caching: placement, delivery decomposition, and exact rates.

K users each read L consecutive caches (cyclic).  At memory w*N/K every file
is split across the w-subsets of [K] whose elements are pairwise at circular
distance >= L; what a user misses then organizes into a table whose columns
are gap instances indexed by the weak (w+1)-compositions of K-wL-1.  Columns
sharing a rotation orbit are served together by one union-instance broadcast,
which is where the coloring engine's rate bound enters.  All rates are exact
rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction
from functools import partial
from operator import add
from typing import NamedTuple

from .coloring import ru_cap, theorem1_coloring
from .icp import GapVector, UnionIcp, build_union_icp, format_count, rotate_gaps, rotate_mask
from .scheme import MdsCode, build_mds_scheme, decode_plans, simulate_decode

RATE_SOURCES = ("NEW", "EXTREME", "MEMORY_SHARED")

# Most evenly spaced points `tradeoff_curve` samples; it refuses more before
# building anything.
MAX_SAMPLES = 100_000

# Most estimated bit operations (`rate_new_cost`) that one `rate_new`, or all
# the corners of one `tradeoff_curve`, may spend; each refuses more before
# building a binomial.  At 0.02-0.57 ns each over single corners with K <=
# 150,000 (Intel Xeon, Python 3.11), the limit is about 1 s: (40000,3,10666)
# is estimated at 1.5e9 and takes 0.58 s.  A curve walks its corners, so at L = 1
# the sum overestimates it: `macc tradeoff --K 3000 --L 1` (1.0e9) takes 0.03 s.
MAX_RATE_BIT_OPS = 1_500_000_000

# Most user-node pairs (K per delivery cell) that `end_to_end_simulate`
# accepts; it refuses more before building anything, and only counts the
# placement sets.  A class's union has about K pairs per cell (more when its
# representative is periodic), about 0.13 us each to simulate as a whole
# process (2-core Xeon, Python 3.11.7, on a CPU whose speed varies; 0.5 us on
# small ones): (20,2,4) 546,000 pairs, 0.24-0.32 s; (60,1,2) 6.2 million,
# 0.8-0.95 s; (80,1,2) 19.7 million, 1.9-3.3 s; 16-17 MB each.
# `icp.MAX_UNION_PAIRS` bounds a class.
MAX_SIMULATION_SIZE = 20_000_000


class CcdnConfig(NamedTuple("CcdnConfig", [("N", int), ("K", int), ("L", int)])):
    """(N files, K caches/users, access degree L) with cyclic cache access."""

    __slots__ = ()

    def __new__(cls, N: int, K: int, L: int) -> CcdnConfig:
        if N < 1 or K < 1:
            raise ValueError("N and K must be positive")
        if not 1 <= L <= K:
            raise ValueError(f"access degree must satisfy 1 <= L <= K, got {format_count(L)}")
        return super().__new__(cls, N, K, L)


def _check_w(K: int, L: int, w: int) -> None:
    if not 1 <= w <= K // L:
        raise ValueError(f"memory multiplier w={format_count(w)} outside "
                         f"[1, {format_count(K // L)}]")


def iter_placement_sets(K: int, L: int, w: int):
    """Yield the w-subsets of [K] with pairwise circular separation >= L, in lex order.

    With y_j = c_j - (j-1)(L-1), consecutive gaps >= L become y strictly
    increasing in [1, K-(w-1)(L-1)], and the wrap-around gap >= L becomes
    y_w - y_1 <= K-wL+w-1.  So each first element takes one `combinations`
    call over the rest, shifted back by (j-1)(L-1); both orders are lex.
    """
    _check_w(K, L, w)
    if L == 1:  # no shift, one call: 8x faster than the loop below on the K <= 24 grid
        yield from itertools.combinations(range(1, K + 1), w)
        return
    top = K - (w - 1) * (L - 1)
    span = K - w * L + w - 1
    shifts = range(L - 1, (w - 1) * (L - 1) + 1, L - 1)
    for first in range(1, top + 1):
        window = range(first + 1, min(top, first + span) + 1)
        for rest in itertools.combinations(window, w - 1):
            yield (first, *map(add, rest, shifts))


def placement_set_count(K: int, L: int, w: int) -> int:
    """Closed form (K/w) * C(K-wL+w-1, w-1) for the family size."""
    _check_w(K, L, w)
    num = K * math.comb(K - w * L + w - 1, w - 1)
    assert num % w == 0
    return num // w


class PlacementPlan(NamedTuple):
    """One subfile of every file per placement set, each of size 1/|sets|."""

    sets: tuple[tuple[int, ...], ...]


def placement_map(cfg: CcdnConfig, w: int) -> PlacementPlan:
    return PlacementPlan(tuple(iter_placement_sets(cfg.K, cfg.L, w)))


def rotation_classes(n: int, m: int):
    """Yield (rep, period) for each rotation orbit of the weak m-compositions of n.

    rep is the orbit's lexicographically greatest rotation, the reps come in
    decreasing order, and the orbit is rotate_gaps(rep, t) for t < period.
    This is the Fredricksen-Kessler-Maiorana necklace recursion (Ruskey,
    Savage & Wang, J. Algorithms 1992) with the order reversed:
    a[t] <= a[t-p], and p becomes t when the part drops, so p is the prefix's
    minimal period.  A prefix is dropped once its remaining sum exceeds what
    parts no larger than a[1] can hold.  The walk keeps its own stack, so m
    is not bound by the recursion limit.  Nothing is yielded for n < 0.
    """
    if n < 0:
        return
    a = [n] * (m + 1)  # a[0] = n caps the first part; a[1..t] is the prefix
    p = [1] * (m + 1)  # p[t]: minimal period of a[1..t]
    rest = [n] * (m + 1)  # rest[t] = n - a[1] - ... - a[t]
    t = 1
    a[1] = n + 1  # each visit of depth t tries the next smaller part
    while t:
        part = a[t] - 1
        low = -(-n // m) if t == 1 else rest[t - 1] - (m - t) * a[1]
        if part < max(low, 0):
            t -= 1
            continue
        a[t] = part
        rest[t] = rest[t - 1] - part
        p[t] = p[t - 1] if part == a[t - p[t - 1]] else t
        if t == m:
            if m % p[t] == 0:
                yield tuple(a[1:]), p[t]
            continue
        t += 1
        a[t] = min(a[t - p[t - 1]], rest[t - 1]) + 1


def rate_new_cost(K: int, L: int, w: int) -> float:
    """Estimated bit operations of rate_new(K, L, w), 1 <= w <= K//L, from its sizes alone.

    The binomial A = C(n+m-1, m-1) has about b bits, log2 A by lgamma, and
    building it costs about b*b/16.  Each of the table's entries and each of
    the O(n log m) strided additions costs at most b more.  A fixed 10^4
    stands for the work of any call, so that a sum over many corners grows
    with their count.  It refuses n+m >= 2^1000, short of lgamma's float limit near 2.5e305.
    It still counts the sums from t = a, not from `_rate_walk`'s later t0, so
    it overestimates the walk, and every refusal stays where it was.
    """
    n, m = K - w * L - 1, w + 1
    if n < 0:
        return 1e4
    if (n + m).bit_length() > 1000:
        raise ValueError(f"R_new at K = {format_count(K)} is past the range of its cost estimate")
    bits = (math.lgamma(n + m) - math.lgamma(m) - math.lgamma(n + 1)) / math.log(2)
    a = max(1, ru_cap(K, m, L) - K + 1)
    adds = n - 2 * a + 1 + n * math.log(min(m, n // a)) if 2 * a <= n else 0
    return bits * (bits / 16 + adds) + 1e4


def _over_rate_budget(K: int, L: int, ws: range) -> bool:
    """Whether `rate_new_cost` summed over the w of `ws` passes MAX_RATE_BIT_OPS.

    Each corner costs at least 10^4, which bounds their count first.  n+m-1 <=
    K-1 bounds each binomial's bits by K and its additions by K*(1 + ln K), so
    a family under len(ws) * (K*K*(2 + bit_length(K)) + 10^4), in integers,
    needs no estimate.  Otherwise the sum stops as soon as it passes the limit.
    """
    count = ws.stop - ws.start  # len() ends at 2^63
    if count > MAX_RATE_BIT_OPS // 10**4:
        return True
    if count * (K * K * (2 + K.bit_length()) + 10**4) <= MAX_RATE_BIT_OPS:
        return False
    total = 0.0
    for w in ws:
        total += rate_new_cost(K, L, w)
        if total > MAX_RATE_BIT_OPS:
            return True
    return False


def rate_new(K: int, L: int, w: int) -> Fraction:
    """Delivery rate at memory w*N/K from the per-column union-instance bounds.

    The numerator sums min(cap - max(b), K), cap = ru_cap(K, m, L), over the weak
    m-compositions b of n = K-wL-1, m = w+1.  Let B(t) count those with every
    part below t, and A = B(n+1) = C(n+m-1, m-1).  The summand drops by one per
    unit of max(b) once max(b) > cap-K, so summation by parts gives

        numerator = A*min(cap-n, K) + sum_{t=a}^{n} B(t),  a = max(1, cap-K+1).

    Some counts are known without a sum: B(1) = 0 for n >= 1, B(2) = C(m, n),
    and B(t) = 0 while (t-1)*m < n.  So the sum adds C(m, n) when a <= 2 <= n
    and runs over t >= t0 = max(a, 3, ceil(n/m)+1) only.  Inclusion-exclusion,
    B(t) = sum_s (-1)^s C(m,s) col[n-ts] with col[r] = C(r+m-1, m-1), and
    swapping the sums: s = 0, 1 give (n-t0+1)*A - m*C(n-t0+m, m) by the hockey
    stick, and s >= 2 needs only s <= min(m, n//t0), t <= n//s, i.e. O(n log m)
    big-integer additions over one table of col[r], r <= n-2*t0.  Refused
    before any binomial is built above MAX_RATE_BIT_OPS (`rate_new_cost`);
    otherwise the one corner of `_rate_walk`, the walk `tradeoff_curve` takes.
    """
    _check_w(K, L, w)
    if _over_rate_budget(K, L, range(w, w + 1)):
        raise ValueError(f"R_new at (K, L, w) = ({', '.join(map(format_count, (K, L, w)))}) "
                         f"would take more than {MAX_RATE_BIT_OPS:.2g} bit operations")
    return next(_rate_walk(K, L, range(w, w + 1)))


def _rate_walk(K: int, L: int, ws: range):
    """Yield rate_new(K, L, w) for each w of `ws` in turn, unchecked and unbudgeted.

    The sums of `rate_new` start at each corner's t0, the first threshold whose
    count B(t0) is not known in closed form.  Each corner's column table is the
    running sum of the previous corner's (the hockey stick), and its P =
    C(n+m-1, w-1) is the previous P times L factors.
    """
    col: list[int] = []
    for w in ws:
        n, m = K - w * L - 1, w + 1
        if w == ws.start:
            P = math.comb(n + m - 1, w - 1)
        else:  # C(n+L+w-1, w-2) -> C(n+L+w-1, w-1) -> C(n+w, w-1)
            P = P * (n + L + 1) // (w - 1)
            for x in range(n + L + w - 1, n + w, -1):
                P = P * (x - w + 1) // x
        A = P * (n + 1) // w  # C(n+m-1, m-1), 0 at n = -1
        cap = ru_cap(K, m, L)
        a = max(1, cap - K + 1)
        total = A * min(cap - n, K)
        if a <= 2 <= n:
            total += math.comb(m, n)  # B(2), and B(1) = 0
        # B(t) = 0 while (t-1)*m < n.  At n <= 0 the sums are empty for any t0.
        t0 = max(a, 3, -(-n // m) + 1)
        # The s >= 2 terms read col[r] = C(r+m-1, m-1) only for r <= n - 2*t0.
        col = list(itertools.accumulate(col[:max(0, n - 2 * t0 + 1)]))
        for r in range(len(col), n - 2 * t0 + 1):
            col.append(col[-1] * (r + m - 1) // r if r else 1)
        if t0 <= n:
            total += (n - t0 + 1) * A - m * math.comb(n - t0 + m, m)
            binom = m
            for s in range(2, min(m, n // t0) + 1):
                binom = binom * (m - s + 1) // s
                # col[n - t*s] for t = t0 .. n//s, as one strided slice
                term = binom * sum(col[n % s : n - s * t0 + 1 : s])
                total += -term if s % 2 else term
        yield Fraction(total, K * P // w * m)  # placement_set_count = K*P/w


def rate_hkd(K: int, L: int, w: int) -> Fraction:
    _check_w(K, L, w)
    return Fraction(K - w * L, 1 + w)


def rate_rk(N: int, K: int, L: int, M) -> Fraction:
    """K * (1 - L*M/N)^2 for memory M in [0, N/L]."""
    load = Fraction(L) * Fraction(M) / N
    if load < 0 or load > 1:
        raise ValueError("memory must satisfy 0 <= L*M/N <= 1")
    return K * (1 - load) ** 2


class RatePoint(NamedTuple("RatePoint", [("M", Fraction), ("rate", Fraction), ("source", str)])):
    __slots__ = ()

    def __new__(cls, M: Fraction, rate: Fraction, source: str) -> RatePoint:
        if source not in RATE_SOURCES:
            raise ValueError(f"unknown rate source {source!r}")
        if rate.numerator < 0:
            raise ValueError("rates are non-negative")
        return super().__new__(cls, M, rate, source)


def _corners(cfg: CcdnConfig, s: int) -> list[tuple[int, int, int, str]]:
    """(x, rate numerator, rate denominator, source) of each corner M = x*N/(K*s)."""
    K, L = cfg.K, cfg.L
    corners = [(0, K, 1, "EXTREME")]
    for w, rate in enumerate(_rate_walk(K, L, range(1, K // L + 1)), start=1):
        corners.append((w * s, rate.numerator, rate.denominator, "NEW"))
    if K % L:  # the zero-rate corner at ceil(K/L)*N/K is not a w*N/K one
        corners.append((-(-K // L) * s, 0, 1, "EXTREME"))
    return corners


def tradeoff_curve(cfg: CcdnConfig, samples: int = 0) -> list[RatePoint]:
    """Memory/rate curve: every corner, plus evenly spaced memory-shared samples.

    Corners off the lower convex envelope's vertices, and the samples
    M = j*ceil(K/L)*N/(K*(samples-1)), j < samples, are reached by memory
    sharing: each reports the envelope value as MEMORY_SHARED, once per M.
    With s = max(samples-1, 1), corner w sits at the integer x = w*s and
    sample j at x = ceil(K/L)*j, so one merge pass over the envelope's
    segments emits every point in increasing memory, in integer arithmetic.
    A curve whose corners' `rate_new_cost` sums above MAX_RATE_BIT_OPS is
    refused first.
    """
    if not 0 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [0, {MAX_SAMPLES}], got {format_count(samples)}")
    K, N = cfg.K, cfg.N
    if _over_rate_budget(K, cfg.L, range(1, K // cfg.L + 1)):
        raise ValueError(f"the {format_count(K // cfg.L)} corners at (K, L) = "
                         f"({format_count(K)}, {format_count(cfg.L)}) would take "
                         f"more than {MAX_RATE_BIT_OPS:.2g} bit operations")
    top = -(-K // cfg.L)
    s = max(samples - 1, 1)
    hull: list[tuple[int, int, int, str]] = []
    for p in _corners(cfg, s):
        x, n, d, _ = p
        while len(hull) >= 2:
            (xa, na, da, _), (xb, nb, db, _) = hull[-2], hull[-1]
            # Drop b when it lies on or above the segment a->p.
            if (nb * da - na * db) * d * (x - xa) >= (n * da - na * d) * db * (xb - xa):
                hull.pop()
            else:
                break
        hull.append(p)

    scale = K * s
    out = [RatePoint(Fraction(0), Fraction(K), "EXTREME")]
    for (xa, na, da, _), (xb, nb, db, source) in itertools.pairwise(hull):
        # Between two vertices lie the other corners (multiples of s) and the
        # samples (multiples of top); the rate there is the chord's.
        wa, wb, den = na * db, nb * da, da * db * (xb - xa)
        corner, sample = xa + s, (xa // top + 1) * top
        while (x := min(corner, sample)) < xb:
            rate = Fraction(wa * (xb - x) + wb * (x - xa), den)
            out.append(RatePoint(Fraction(x * N, scale), rate, "MEMORY_SHARED"))
            if corner == x:
                corner += s
            if sample == x:
                sample += top
        out.append(RatePoint(Fraction(xb * N, scale), Fraction(nb, db), source))
    return out


def group_rotation_classes(cfg: CcdnConfig, w: int) -> list[tuple[tuple[int, ...], int]]:
    """rotation_classes of the column labels, the weak (w+1)-compositions of K-wL-1."""
    return list(rotation_classes(cfg.K - w * cfg.L - 1, w + 1))


class DeliveryClass(NamedTuple):
    """A class's union ICP; columns[t] is the anchor mask of column rotate_gaps(rep, t)."""

    bar: UnionIcp
    columns: tuple[int, ...]


def build_delivery_icp(cfg: CcdnConfig, rep: tuple[int, ...], period: int) -> DeliveryClass:
    """The class's union and, for t < period, the K-bit anchor mask of column rotate_gaps(rep, t).

    A column's anchor mask sets bit s-1 for each cache s of its row 1: the
    placement set c_1 < ... < c_w that user 1 misses, with c_1 = label[-1]+L+1
    and each next c_j adding L and the next gap of the label read backwards.
    Row k holds that set shifted by k-1, `rotate_mask(columns[t], k-1, K)`.
    """
    L, columns = cfg.L, []
    for t in range(period):
        mask, bit = 0, 0
        for gap in reversed(rotate_gaps(rep, t)[1:]):
            bit += L + gap
            mask |= 1 << bit
        columns.append(mask)
    return DeliveryClass(build_union_icp(GapVector(rep, L)), tuple(columns))


class ClassReport(NamedTuple):
    """One rotation class as broadcast: chi is the number of rows actually sent."""

    representative: tuple[int, ...]
    columns: int
    split: int
    chi: int
    field: int


class SimulationReport(NamedTuple):
    decoded_ok: bool
    total_rate: Fraction
    classes: tuple[ClassReport, ...]
    failures: tuple[dict, ...]

    def to_json(self) -> dict:
        return {**self._asdict(), "total_rate": str(self.total_rate),
                "classes": [c._asdict() for c in self.classes], "failures": list(self.failures)}


def end_to_end_simulate(cfg: CcdnConfig, w: int, demands: list[int],
                        field_order: int | None = None, seed: int = 0) -> SimulationReport:
    """Place, broadcast per rotation class of the delivery columns, decode all users.

    Demands are checked, and a family with more than MAX_SIMULATION_SIZE
    user-node pairs, K per delivery cell, is refused before anything is
    built.  Then one MdsCode(K, field_order) is built, which refuses a bad
    field even where w*L = K leaves no class, and every class's scheme shares
    it.  A class's columns are its representative's rotations, each an
    anchor mask read off its label (`build_delivery_icp`).  A representative
    of period p < len(rep) covers only p distinct columns, so each of their
    subfiles is split into len(rep)/p equal parts, turning the class's
    columns into a full union instance.  Each class sends chi rows, the
    local chromatic value of its Theorem-1 coloring, so the transmitted size
    sum(chi / (split * |sets|)) = sum(chi * period) / ((w+1) * |sets|) over
    classes, in file units, is at most rate_new: Ru bounds each chi.
    Each node that decodes wrong is a failure, naming its file, cache set,
    part, and its user's m and unknown colors, from the class's decode plans.
    """
    if len(demands) != cfg.K:
        raise ValueError(f"need exactly {format_count(cfg.K)} demands, got {len(demands)}")
    if any(not 1 <= d <= cfg.N for d in demands):
        raise ValueError("demands must be file ids in [1, N]")
    K, L = cfg.K, cfg.L
    num_sets = placement_set_count(K, L, w)
    num_cells = num_sets * (K - w * L)  # K * C(K-wL+w-1, w)
    if K * num_cells > MAX_SIMULATION_SIZE:
        raise ValueError(f"(K, L, w) = ({K}, {L}, {w}) has {format_count(num_sets)} placement "
                         f"sets and {format_count(num_cells)} delivery cells of "
                         f"{format_count(K * num_cells)} user-node pairs, above the limit "
                         f"{MAX_SIMULATION_SIZE}")
    # Every Theorem-1 coloring has K colors, so one code serves every class
    # of this call, each basis and weight tuple built once.
    code = MdsCode(K, field_order)
    q = code.field_order
    rng = random.Random(f"{seed}")

    total = 0  # sum of chi * period
    reports = []
    failures: list[dict] = []
    for rep, period in group_rotation_classes(cfg, w):
        bar, columns = build_delivery_icp(cfg, rep, period)
        scheme = build_mds_scheme(bar, theorem1_coloring(bar), code)

        # Bar node (k, p) carries part (p-1)//period of user k's file on the
        # cache set of row k of column (p-1) % period, that column's anchor
        # mask rotated by k-1.  Each distinct (file, mask, part) draws one
        # symbol when first seen, p outer and k inner.
        symbols = defaultdict(partial(rng.randrange, q))
        messages = {}
        for p in range(1, bar.i + 1):
            anchor, part = columns[(p - 1) % period], (p - 1) // period
            for k, file in enumerate(demands, start=1):
                messages[k, p] = symbols[file, rotate_mask(anchor, k - 1, K), part]
        plans = decode_plans(scheme)
        decoded = simulate_decode(scheme, messages, plans)
        # One comparison in C on success; a failed decode is then scanned node by node.
        failed = [] if decoded == messages else [v for v in bar.nodes if decoded[v] != messages[v]]
        for k, p in failed:
            mask, plan = rotate_mask(columns[(p - 1) % period], k - 1, K), plans[k - 1]
            failures.append({"representative": list(rep), "user": k, "file": demands[k - 1],
                             "cache_set": [s + 1 for s in range(K) if mask >> s & 1],
                             "part": (p - 1) // period + 1,
                             "expected": messages[k, p], "decoded": decoded[k, p],
                             "m": plan.m, "unknown_colors": plan.unknown_colors})
        total += scheme.chi * period
        reports.append(ClassReport(rep, columns=period, split=len(rep) // period,
                                   chi=scheme.chi, field=q))
    return SimulationReport(
        decoded_ok=not failures,
        total_rate=Fraction(total, (w + 1) * num_sets),
        classes=tuple(reports),
        failures=tuple(failures),
    )


__all__ = [
    "MAX_SAMPLES",
    "MAX_RATE_BIT_OPS",
    "MAX_SIMULATION_SIZE",
    "CcdnConfig",
    "PlacementPlan",
    "RatePoint",
    "DeliveryClass",
    "ClassReport",
    "SimulationReport",
    "iter_placement_sets",
    "placement_set_count",
    "placement_map",
    "rotation_classes",
    "group_rotation_classes",
    "rate_new_cost",
    "rate_new",
    "rate_hkd",
    "rate_rk",
    "tradeoff_curve",
    "build_delivery_icp",
    "end_to_end_simulate",
]
