"""A fixed computation that measures how fast the host runs Python right now.

Usage: python perfbench/reference.py

The benchmark runs it as a fresh process before every timed job and divides
job times by its median wall time over the run.  The host's speed drifts by
10-30% from one minute to the next, and the quotient cancels that drift,
because the work resembles treelie's: tuple keys in dicts, Fraction sums and
a small Fraction elimination.  It never imports treelie, so no change to the
program moves it.  Prints a checksum that must not change.
"""

import random
from fractions import Fraction


def main():
    rng = random.Random(12345)
    acc = {}
    for _ in range(8000):
        key = tuple(sorted(rng.randrange(40) for _ in range(4)))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))
    n = 10
    rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    print(len(acc), sum(acc.values()), rows[n - 1][n - 1])


if __name__ == "__main__":
    main()
