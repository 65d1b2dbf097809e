"""Benchmark the tree kernel.

Times the three hot workloads (canonical construction, grafting-product
expansion, iterated coproduct splitting) through ``treelie.kernel`` and
prints the best time of each.

Usage: python benchmarks/bench_kernel.py [--degree N] [--repeat R]
"""

import argparse
import time

from treelie import kernel


def build_levels(letters, max_degree):
    """All canonical trees per degree, built through the kernel's own API."""
    levels = {1: [kernel.leaf(a) for a in sorted(letters)]}
    for n in range(2, max_degree + 1):
        seen = set()
        for d1 in range(1, n):
            for s in levels[d1]:
                for t in levels[n - d1]:
                    for i in range(s.degree):
                        seen.add(kernel.graft_at(s, i, t))
        levels[n] = sorted(seen, key=lambda t: t.key)
    return levels


def workload_construction(max_degree):
    levels = build_levels(["a", "b"], max_degree)
    return sum(len(v) for v in levels.values())


def workload_products(max_degree):
    levels = build_levels(["a"], max_degree)
    flat = [t for level in levels.values() for t in level]
    acc = {}
    for s in flat:
        for t in flat:
            if s.degree + t.degree > max_degree + 1:
                continue
            for g, m in kernel.prelie_counts(s, t).items():
                acc[g] = acc.get(g, 0) + m
    return len(acc)


def workload_coproducts(max_degree, rounds=40):
    levels = build_levels(["a"], max_degree)
    flat = [t for level in levels.values() for t in level]
    total = 0
    for _ in range(rounds):
        for t in flat:
            # split every term of the coproduct once more, mimicking Delta^2
            for left, right in kernel.coproduct_terms(t):
                total += len(kernel.coproduct_terms(left))
    return total


WORKLOADS = [
    ("construction (2 letters)", workload_construction),
    ("grafting products (1 letter)", workload_products),
    ("iterated coproducts (1 letter)", workload_coproducts),
]


def run(max_degree, repeat):
    """Best wall time of each workload over ``repeat`` runs."""
    results = {}
    for name, fn in WORKLOADS:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(max_degree)
            best = min(best, time.perf_counter() - t0)
        results[name] = best
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    timings = run(args.degree, args.repeat)

    width = max(len(n) for n, _ in WORKLOADS)
    print("%-*s  %10s" % (width, "workload", "time"))
    for name, _ in WORKLOADS:
        print("%-*s  %9.3fs" % (width, name, timings[name]))


if __name__ == "__main__":
    main()
