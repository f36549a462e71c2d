"""Gaussian elimination over GF(q), the tests' reference solve.

No library code calls `solve_mod`: decoding uses the barycentric solve in
`scheme`, which the tests check against it.  The module stays only until the
benchmark stops naming `field.solve_mod` as a stage (ROADMAP item 1b).
"""

from __future__ import annotations


def solve_mod(matrix: list[list[int]], rhs: list[int], q: int) -> list[int]:
    """Solve the square system matrix * x = rhs over GF(q); ValueError if singular."""
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


__all__ = ["solve_mod"]
