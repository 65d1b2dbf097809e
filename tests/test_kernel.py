"""The tree kernel: canonical forms, grafting, splitting and graded order."""

from pathlib import Path

import pytest

from treelie import kernel

GOLDEN = Path(__file__).parent / "golden"


def _build_all(letters, degree):
    """Enumerate canonical trees bottom-up through the kernel's own API."""
    levels = {1: [kernel.leaf(a) for a in sorted(letters)]}
    for n in range(2, degree + 1):
        seen = set()
        for d1 in range(1, n):
            for s in levels[d1]:
                for t in levels[n - d1]:
                    for i in range(s.degree):
                        g = kernel.graft_at(s, i, t)
                        if g.degree == n:
                            seen.add(g)
        levels[n] = sorted(seen, key=lambda t: t.key)
    return levels


def test_backend_is_importable():
    assert kernel.BACKEND == "python"


def test_graft_closure_matches_enumeration():
    # cutting any edge splits a tree into two smaller ones that graft back,
    # so closing the letters under graft_at reaches every rooted tree
    expected = (GOLDEN / "enumerate_trees_ab_5.txt").read_text().splitlines()
    got = _build_all(["a", "b"], 5)[5]
    assert len(expected) == 214
    assert [t.key for t in got] == expected
    assert all(t.degree == 5 for t in got)


def test_kernel_behaviour():
    a = kernel.leaf("a")
    b = kernel.leaf("b")
    ab = kernel.node("a", [b])
    assert ab.key == "a[b]" and ab.degree == 2
    assert kernel.node("a", [kernel.node("c", [kernel.leaf("d")]), b]).key == "a[b,c[d]]"
    assert kernel.graft_at(ab, 0, b).key == "a[b,b]"
    assert kernel.graft_at(ab, 1, a).key == "a[b[a]]"
    with pytest.raises(IndexError):
        kernel.graft_at(a, 1, b)
    assert [t.key for t in kernel.prelie_terms(ab, a)] == ["a[a,b]", "a[b[a]]"]
    assert kernel.prelie_counts(kernel.node("a", [b, b]), a)[kernel.node("a", [b, kernel.node("b", [a])])] == 2
    assert kernel.coproduct_terms(a) == []
    pairs = kernel.coproduct_terms(kernel.node("a", [b, b]))
    assert len(pairs) == 2 and pairs[0] == pairs[1]
    # interning: equal values are the same object, equality falls back to keys
    assert kernel.node("a", [b]) is ab
    assert hash(kernel.node("a", [b])) == hash(ab)


def test_kernel_ordering_is_graded():
    a = kernel.leaf("a")
    z = kernel.leaf("z")
    az = kernel.node("a", [z])
    assert a < z < az
    assert sorted([az, a, z]) == [a, z, az]
