"""Fixed pure-Python exact-rational work, timed beside every benchmark job.

The kernel solves the same bordered stationarity systems over ``Fraction``
that the g-function solver solves, on fixed small matrices, so it exercises
the same interpreter paths (big-integer gcds, object allocation) as the
jobs.  A job's wall time divided by this kernel's wall time, measured in
processes run right before and after the job, cancels most of the machine's
drift in speed.  The kernel never imports heredit and never changes: its
work is part of the benchmark's definition.

Run: ``python3 bench/refkernel.py``; it prints a checksum.
"""

from __future__ import annotations

from fractions import Fraction

ROUNDS = 1200
SIZE = 6


def solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def kernel(rounds: int = ROUNDS) -> Fraction:
    total = Fraction(0)
    for k in range(rounds):
        p = Fraction(2 * (k % 31) + 1, 64)
        entries = (p, 1 - p, Fraction(0))
        matrix = [
            [entries[(i * i + j * j + k) % 3] + (1 if i == j else 0) for j in range(SIZE)]
            + [Fraction(-1)]
            for i in range(SIZE)
        ]
        matrix.append([Fraction(1)] * SIZE + [Fraction(0)])
        x = solve(matrix, [Fraction(0)] * SIZE + [Fraction(1)])
        total += x[-1]
    return total


if __name__ == "__main__":
    value = kernel()
    print(value.numerator % 1_000_003, value.denominator % 1_000_003)
