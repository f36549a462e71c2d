"""Prime-field arithmetic helpers for the MDS broadcast schemes."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


def vandermonde_rows(points: list[int], rows: int, q: int) -> tuple[tuple[int, ...], ...]:
    """rows x len(points) matrix with entry [r][j] = points[j]**r mod q."""
    matrix = []
    row = [1] * len(points)
    for _ in range(rows):
        matrix.append(tuple(row))
        row = [(row[j] * points[j]) % q for j in range(len(points))]
    return tuple(matrix)


def solve_mod(matrix: list[list[int]], rhs: list[int], q: int) -> list[int]:
    """Solve the square system matrix * x = rhs over GF(q) by Gaussian elimination.

    No library code calls this: decoding uses the O(m^2) transposed
    Vandermonde solve in `scheme`.  It stays as the general O(m^3) reference
    the tests check that solve against.  Raises ValueError on a singular matrix.
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
    "is_prime",
    "next_prime_at_least",
    "default_field_order",
    "validate_field",
    "vandermonde_rows",
    "solve_mod",
]
