"""Prime-field arithmetic helpers for the MDS broadcast schemes."""

from __future__ import annotations


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


def default_field_order(num_colors: int) -> int:
    """Smallest prime that keeps the Vandermonde points 1..n distinct and nonzero.

    A floor of 257 keeps the default comfortably above every color count that
    arises in practice.
    """
    return next_prime_at_least(max(257, num_colors + 1))


def validate_field(q: int, num_colors: int) -> None:
    if not is_prime(q):
        raise ValueError(f"field order {q} is not prime")
    if q < num_colors:
        raise ValueError(f"field order {q} too small for {num_colors} colors")


def solve_mod(matrix: list[list[int]], rhs: list[int], q: int) -> list[int]:
    """Solve the square system matrix * x = rhs over GF(q) by Gaussian elimination.

    No library code calls this: decoding uses the barycentric solve in
    `scheme`.  It stays as the general O(m^3) reference the tests check that
    solve against.  Raises ValueError on a singular matrix.
    """
    n = len(rhs)
    a = [list(row) + [rhs[r]] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % q), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(q)")
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], -1, q)
        a[col] = [(x * inv) % q for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(a[r][j] - factor * a[col][j]) % q for j in range(n + 1)]
    return [a[r][n] for r in range(n)]


__all__ = [
    "PRIME_CHECK_BOUND",
    "is_prime",
    "next_prime_at_least",
    "default_field_order",
    "validate_field",
    "solve_mod",
]
