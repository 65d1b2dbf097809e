"""The tree kernel: canonical forms, grafting, splitting and graded order."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import key_eq, key_hash

from treelie import kernel
from treelie.tree_core import enumerate_trees, parse_tree

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
    # hash-consing: equal values are the same object
    assert kernel.node("a", [b]) is ab
    assert hash(kernel.node("a", [b])) == hash(ab)


def test_kernel_ordering_is_graded():
    a = kernel.leaf("a")
    z = kernel.leaf("z")
    az = kernel.node("a", [z])
    assert a < z < az
    assert sorted([az, a, z]) == [a, z, az]


SMALL = [t for d in range(1, 6) for t in enumerate_trees(["a", "b"], d)]


def _assert_hash_consed(t):
    """Every order of the children rebuilds ``t`` itself, and so does
    parsing its rendering."""
    for kids in itertools.permutations(t.children):
        assert kernel.node(t.label, kids) is t
        assert kernel.node(t.label, list(kids)) is t
    assert parse_tree(str(t)) is t


def test_every_small_tree_is_hash_consed():
    assert len(SMALL) == 2 + 4 + 14 + 52 + 214
    for t in SMALL:
        _assert_hash_consed(t)


def test_identity_equality_agrees_with_key_equality():
    for t, s in itertools.product(SMALL, repeat=2):
        same = key_eq(t, s)
        assert (t is s) == same and (t == s) == same and (t != s) == (not same)
        if same:
            assert hash(t) == hash(s) and key_hash(t) == key_hash(s)
    assert all(t != t.key and t.key != t for t in SMALL)


def test_sorted_order_is_the_graded_key_order():
    shuffled = list(SMALL)
    random.Random(5).shuffle(shuffled)
    graded = sorted(SMALL, key=lambda t: (t.degree, t.key))
    assert sorted(shuffled) == graded
    assert sorted(shuffled, reverse=True) == graded[::-1]
    assert min(shuffled) is graded[0] and max(shuffled) is graded[-1]


def test_intern_size_counts_trees():
    before = kernel.intern_size()
    t = kernel.node("hashconsing_root", [kernel.leaf("hashconsing_leaf")])
    assert kernel.intern_size() == before + 2
    assert kernel.node("hashconsing_root", [kernel.leaf("hashconsing_leaf")]) is t
    assert kernel.intern_size() == before + 2


@st.composite
def nested_shapes(draw, max_vertices):
    """A tree as nested ``(label, [children])`` lists, children in the order
    drawn, with at most ``max_vertices`` vertices."""
    budget = [draw(st.integers(1, max_vertices))]

    def build():
        budget[0] -= 1
        label = draw(st.sampled_from("abc"))
        children = []
        while budget[0] > 0 and draw(st.booleans()):
            children.append(build())
        return (label, children)

    return build()


def _build(shape, rng=None):
    label, children = shape
    kids = [_build(c, rng) for c in children]
    if rng is not None:
        rng.shuffle(kids)
    return kernel.node(label, kids)


@settings(max_examples=150)
@given(nested_shapes(14), nested_shapes(14), st.randoms(use_true_random=False))
def test_random_trees_are_hash_consed(x, y, rng):
    t, s = _build(x), _build(y)
    assert _build(x, rng) is t and _build(y, rng) is s
    assert parse_tree(str(t)) is t and parse_tree(str(s)) is s
    assert (t is s) == key_eq(t, s) == (t == s)
    assert (t < s) == ((t.degree, t.key) < (s.degree, s.key))
