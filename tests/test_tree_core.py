import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelie import kernel, operads
from treelie import tree_core as tc
from treelie.tree_core import (
    LabeledTree,
    TreeSyntaxError,
    act,
    act_parent,
    automorphism_count,
    enumerate_heap_ordered,
    enumerate_labeled,
    enumerate_trees,
    graft,
    iter_heap_ordered,
    iter_labeled,
    leaf,
    parse_labeled,
    parse_tree,
    render_tree,
    vertices,
)


def test_parse_single_vertex():
    t = parse_tree("a")
    assert t.degree == 1 and t.label == "a" and render_tree(t) == "a"


def test_parse_children():
    t = parse_tree("a[b,c[d]]")
    assert t.label == "a"
    assert sorted(c.label for c in t.children) == ["b", "c"]
    assert t.degree == 4


def test_parse_is_order_insensitive():
    assert parse_tree("a[c[d],b]") == parse_tree("a[b,c[d]]")
    assert render_tree(parse_tree("a[c[d],b]")) == "a[b,c[d]]"


def test_multiset_children_render():
    assert render_tree(tc.node("a", [leaf("b"), leaf("b")])) == "a[b,b]"


def test_parse_render_round_trip():
    for text in ["a", "a[b,b]", "a[b[c],b]", "z9[_x,a1[a1]]"]:
        t = parse_tree(text)
        assert parse_tree(render_tree(t)) == t


def test_parse_whitespace_insensitive():
    assert parse_tree(" a[ b , c[d] ] ") == parse_tree("a[b,c[d]]")


@pytest.mark.parametrize("bad", ["", "[a]", "a[", "a[]", "a[b", "a]b", "a[b,]", "a b"])
def test_parse_errors(bad):
    with pytest.raises((TreeSyntaxError, ValueError)):
        parse_tree(bad)


def test_parse_error_position():
    with pytest.raises(TreeSyntaxError) as exc:
        parse_tree("a[b,?]")
    assert exc.value.position == 4


def _chain(depth):
    return "a[" * (depth - 1) + "a" + "]" * (depth - 1)


def test_parse_depth_limit():
    limit = tc.MAX_TREE_DEPTH
    deepest = parse_tree(_chain(limit))
    assert deepest.degree == limit and render_tree(deepest) == _chain(limit)
    with pytest.raises(TreeSyntaxError) as info:
        parse_tree(_chain(limit + 1))
    assert "nesting deeper than %d levels" % limit in str(info.value)
    assert info.value.position == 2 * limit
    # a wide tree is not deep: many children at one level are fine
    assert parse_tree("a[" + ",".join(["b"] * 3 * limit) + "]").degree == 3 * limit + 1


def test_label_validation():
    with pytest.raises(ValueError):
        tc.leaf("")
    with pytest.raises(ValueError):
        tc.leaf("a-b")


def test_graft_examples():
    a, b, c = leaf("a"), leaf("b"), leaf("c")
    assert render_tree(graft(a, 0, b)) == "a[b]"
    ab = parse_tree("a[b]")
    assert render_tree(graft(ab, 1, c)) == "a[b[c]]"
    assert render_tree(graft(ab, 0, c)) == "a[b,c]"


def test_graft_out_of_range():
    with pytest.raises(IndexError):
        graft(leaf("a"), 1, leaf("b"))
    with pytest.raises(IndexError):
        graft(leaf("a"), -1, leaf("b"))


def test_graft_degree_and_term_count():
    s = parse_tree("a[a,a[a]]")
    t = parse_tree("b[b]")
    grafts = [graft(s, i, t) for i in range(s.degree)]
    assert len(grafts) == s.degree
    assert all(g.degree == s.degree + t.degree for g in grafts)


def _independent_tree_counts(n_max):
    # unlabeled rooted tree counts by the divisor-sum convolution recursion
    a = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            total += sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[n - k + 1]
        a.append(total // n)
    return a[1:]


def test_one_letter_counts_match_recursion():
    expected = _independent_tree_counts(8)
    got = [len(enumerate_trees(["a"], n)) for n in range(1, 9)]
    assert got == expected
    assert got[:7] == [1, 1, 2, 4, 9, 20, 48]


def test_enumerate_two_letters_degree_two():
    got = [render_tree(t) for t in enumerate_trees(["a", "b"], 2)]
    assert got == ["a[a]", "a[b]", "b[a]", "b[b]"]


def test_enumerate_trees_deterministic_and_sorted():
    ts = enumerate_trees(["b", "a"], 3)
    assert ts == sorted(ts)
    assert ts == enumerate_trees(["a", "b"], 3)


def test_enumerate_errors():
    with pytest.raises(ValueError):
        enumerate_trees(["a"], 0)
    with pytest.raises(ValueError):
        enumerate_trees([], 2)


def _enumerate_per_letter(weighted, degree, memo):
    """The enumerator before forests were shared between letters: it builds
    the subtree multisets once per letter; kept as the oracle."""
    got = memo.get(degree)
    if got is None:
        pool = [(t, d) for d in range(1, degree) for t in _enumerate_per_letter(weighted, d, memo)]
        out = set()
        for label, w in weighted:
            if w == degree:
                out.add(kernel.leaf(label))
            elif w < degree:
                for combo in tc._subtree_multisets(pool, 0, degree - w):
                    out.add(kernel.node(label, combo))
        got = memo[degree] = sorted(out)
    return got


@pytest.mark.parametrize(
    "weights,max_degree",
    [
        ({"a": 1, "b": 1}, 7),
        ({"a": 1}, 8),
        ({"a": 1, "b": 2}, 7),
        ({"a": 2, "b": 2, "c": 1}, 7),
        ({"p1_0": 1, "p2_0": 2, "p2_1": 2, "p3_0": 3}, 7),
    ],
)
def test_shared_forests_match_per_letter_enumeration(weights, max_degree):
    weighted = tuple(sorted(weights.items()))
    memo = {}
    for d in range(1, max_degree + 1):
        expected = _enumerate_per_letter(weighted, d, memo)
        assert tc._enumerate(weighted, d) == expected
        assert enumerate_trees(list(weights), d, weights) == expected


def _enumerate_rebuilding_pool(weighted, degree, memo):
    """The enumerator before the pool was kept per alphabet: each degree
    rebuilds its pool from every smaller degree; kept as the oracle."""
    got = memo.get(degree)
    if got is None:
        pool = [(t, d) for d in range(1, degree) for t in _enumerate_rebuilding_pool(weighted, d, memo)]
        forests = {}
        out = set()
        for label, w in weighted:
            if w == degree:
                out.add(kernel.leaf(label))
            elif w < degree:
                budget = degree - w
                if budget not in forests:
                    forests[budget] = list(tc._subtree_multisets(pool, 0, budget))
                for combo in forests[budget]:
                    out.add(kernel.node(label, combo))
        got = memo[degree] = sorted(out)
    return got


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abcd"), st.integers(1, 5), min_size=1, max_size=3),
    st.permutations(range(1, 7)),
)
def test_kept_pool_matches_rebuilt_pool(weights, degrees):
    # fresh tables, degrees asked for in a random order
    weighted = tuple(sorted(weights.items()))
    memo = {}
    with mock.patch.object(tc, "_TREES_CACHE", {}), mock.patch.object(tc, "_POOLS", {}):
        for d in degrees:
            assert enumerate_trees(list(weights), d, weights) == _enumerate_rebuilding_pool(weighted, d, memo)
        pool = tc._POOLS[weighted]
        assert pool == [(t, d) for d in range(1, 7) for t in memo[d]]  # every tree once, lightest first


def test_heavy_letter_enumerates_in_linear_time():
    # a letter of weight N: N - 1 empty degrees before the one tree
    with mock.patch.object(tc, "_TREES_CACHE", {}), mock.patch.object(tc, "_POOLS", {}):
        assert enumerate_trees(["x"], 4000, {"x": 4000}) == [kernel.leaf("x")]
        assert enumerate_trees(["x"], 8000, {"x": 4000}) == [kernel.node("x", (kernel.leaf("x"),))]
        assert len(tc._TREES_CACHE) == 8000 and len(tc._POOLS[(("x", 4000),)]) == 2


# -- canonical form soundness against an independent isomorphism oracle -----


def _shuffled_nested(t, rng):
    kids = [_shuffled_nested(c, rng) for c in t.children]
    rng.shuffle(kids)
    return (t.label, kids)


def _nested_iso(x, y):
    # brute-force isomorphism of (label, children-list) pairs
    if x[0] != y[0] or len(x[1]) != len(y[1]):
        return False
    for perm in itertools.permutations(range(len(y[1]))):
        if all(_nested_iso(c, y[1][p]) for c, p in zip(x[1], perm)):
            return True
    return not x[1]


def _signature(x):
    kids = sorted(map(_signature, x[1]))
    return (x[0], tuple(kids))


def test_canonical_form_matches_iso_classes_two_letters():
    # complete-signature oracle: renders agree exactly when signatures agree
    rng = random.Random(7)
    for n in range(1, 7):
        seen = {}
        for t in enumerate_trees(["a", "b"], n):
            nested = _shuffled_nested(t, rng)
            sig = _signature(nested)
            assert sig not in seen, "two distinct canonical trees share a signature"
            seen[sig] = t
            rebuilt = _rebuild(nested)
            assert rebuilt == t


def _rebuild(nested):
    return tc.node(nested[0], [_rebuild(c) for c in nested[1]])


def test_canonical_form_pairwise_brute_force_small():
    rng = random.Random(11)
    for n in range(1, 5):
        ts = enumerate_trees(["a", "b"], n)
        nested = [_shuffled_nested(t, rng) for t in ts]
        for i, x in enumerate(nested):
            for j, y in enumerate(nested):
                assert _nested_iso(x, y) == (i == j)


def test_vertices_preorder():
    t = parse_tree("a[b,c[d]]")
    assert [v.label for v in vertices(t)] == ["a", "b", "c", "d"]


def test_automorphism_count():
    assert automorphism_count(parse_tree("a")) == 1
    assert automorphism_count(parse_tree("a[a,a]")) == 2
    assert automorphism_count(parse_tree("a[a,a,a]")) == 6
    assert automorphism_count(parse_tree("a[a[a],a[a]]")) == 2
    assert automorphism_count(parse_tree("a[a,a[a]]")) == 1


# -- labeled and heap-ordered trees -----------------------------------------


def test_labeled_counts_cayley():
    for n in range(1, 7):
        assert len(enumerate_labeled(n)) == n ** (n - 1)


def test_labeled_small_examples():
    assert len(enumerate_labeled(1)) == 1
    assert len(enumerate_labeled(3)) == 9
    assert len(enumerate_labeled(4)) == 64


def test_labeled_validation():
    with pytest.raises(ValueError):
        LabeledTree((0, 0))  # two roots
    with pytest.raises(ValueError):
        LabeledTree((2, 1))  # cycle, no root
    with pytest.raises(ValueError):
        LabeledTree((0, 5))  # parent out of range
    with pytest.raises(ValueError):
        enumerate_labeled(0)


def test_heap_ordered_counts():
    import math

    for n in range(1, 8):
        assert len(enumerate_heap_ordered(n)) == math.factorial(n - 1)


def test_heap_ordered_matches_filter():
    for n in range(1, 6):
        filtered = [t for t in enumerate_labeled(n) if t.is_heap_ordered()]
        assert enumerate_heap_ordered(n) == sorted(filtered)


def test_iter_heap_ordered_streams_the_list():
    walk = iter_heap_ordered(4)
    assert next(walk) == LabeledTree((0, 1, 1, 1))
    assert [LabeledTree((0, 1, 1, 1))] + list(walk) == enumerate_heap_ordered(4)
    with pytest.raises(ValueError):
        iter_heap_ordered(0)


def test_heap_ordered_two_vertices():
    (t,) = enumerate_heap_ordered(2)
    assert t.root == 1 and t.parent == (0, 1)


def test_labeled_serialization_round_trip():
    for n in range(1, 6):
        for t in enumerate_labeled(n):
            assert parse_labeled(str(t)) == t
            assert str(t) == "%d;%d;%s" % (t.n, t.root, ",".join(str(p) for p in t.parent))
    assert str(LabeledTree((2, 0, 2))) == "3;2;2,0,2"


def test_to_rooted():
    t = LabeledTree((0, 1, 1))
    assert render_tree(t.to_rooted(["a", "b", "c"])) == "a[b,c]"
    assert render_tree(t.to_rooted(["a", "c", "b"])) == "a[b,c]"


# -- the permutation action --------------------------------------------------


def test_act_identity():
    t = LabeledTree((0, 1, 1))
    assert act((1, 2, 3), t) == t


def test_act_swap_children_fixes_cherry():
    t = LabeledTree((0, 1, 1))  # root 1, children 2 and 3
    assert act((1, 3, 2), t) == t


def test_act_swap_on_path():
    t = LabeledTree((0, 1))  # root 1, child 2
    swapped = act((2, 1), t)
    assert swapped.root == 2 and swapped.parent == (2, 0)


def test_act_is_a_right_action():
    trees = enumerate_labeled(4)[:12]
    perms = list(itertools.permutations((1, 2, 3, 4)))
    rng = random.Random(3)
    for _ in range(60):
        t = rng.choice(trees)
        sigma, tau = rng.choice(perms), rng.choice(perms)
        composed = tuple(sigma[tau[i] - 1] for i in range(4))  # (sigma . tau)(i)
        assert act(composed, t) == act(tau, act(sigma, t))


def test_act_parent_matches_act():
    # parent' = sigma^{-1} . parent . sigma: vertex j of the result sits
    # where sigma(j) sits in t
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for t in enumerate_labeled(n):
            for sigma in perms:
                got = act_parent(sigma, t.parent)
                assert got == act(sigma, t).parent
                assert [0 if p == 0 else sigma[p - 1] for p in got] == [t.parent[v - 1] for v in sigma]


def test_act_errors():
    t = LabeledTree((0, 1))
    with pytest.raises(ValueError):
        act((1,), t)
    with pytest.raises(ValueError):
        act((1, 1), t)


# -- trusted builders against the validating constructor ---------------------
#
# Compositions, ``act`` and the enumerators build their trees with
# ``LabeledTree._trusted``, which skips the validity walk of the public
# constructor; that walk is the oracle here.


def filtered_labeled(n):
    """Labeled trees on {1..n} as enumerated before the depth-first walk:
    every parent choice of the non-root vertices for every root, filtered
    for acyclicity, then sorted.  The oracle for ``iter_labeled``."""
    out = []
    for root in range(1, n + 1):
        others = [v for v in range(1, n + 1) if v != root]
        for choice in itertools.product(range(1, n + 1), repeat=n - 1):
            parent = [0] * n
            for v, p in zip(others, choice):
                parent[v - 1] = p
            if any(p == v for v, p in zip(others, choice)):
                continue
            reaches_root = True
            for v in others:
                cur, steps = v, 0
                while parent[cur - 1] != 0 and steps <= n:
                    cur, steps = parent[cur - 1], steps + 1
                reaches_root = reaches_root and parent[cur - 1] == 0
            if reaches_root:
                out.append(LabeledTree(tuple(parent)))
    return sorted(out)


def assert_validated(t):
    """``t`` is the tree the validating constructor builds from its parent array."""
    assert type(t) is LabeledTree and type(t.parent) is tuple
    assert LabeledTree(t.parent) == t


def assert_compositions_validated(t, i, s):
    assert_validated(operads.nap_compose(t, i, s))
    summands = operads.pl_compose(t, i, s)
    assert not summands.is_zero()
    for u in summands.support():
        assert_validated(u)


def test_iter_labeled_matches_filtered_product():
    for n in range(1, 7):
        walked = list(iter_labeled(n))
        assert walked == filtered_labeled(n) == enumerate_labeled(n)
        for t in walked:
            assert_validated(t)


def test_heap_ordered_trees_pass_validation():
    for n in range(1, 7):
        for t in enumerate_heap_ordered(n):
            assert_validated(t)


def test_act_results_pass_validation():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for t in enumerate_labeled(n):
            for sigma in perms:
                assert_validated(act(sigma, t))


def test_compositions_pass_validation():
    every = [t for n in range(1, 4) for t in enumerate_labeled(n)]
    for t, s in itertools.product(every, repeat=2):
        for i in range(1, t.n + 1):
            assert_compositions_validated(t, i, s)


@st.composite
def labeled_trees(draw, max_n):
    """Any labeled tree on at most ``max_n`` vertices, built by the validating
    constructor: vertices in a random order, each hung below an earlier one."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    parent = [0] * n
    for k in range(1, n):
        parent[order[k] - 1] = order[draw(st.integers(0, k - 1))]
    return LabeledTree(tuple(parent))


@settings(max_examples=150)
@given(labeled_trees(7), st.data())
def test_act_on_random_trees_passes_validation(t, data):
    assert_validated(act(data.draw(st.permutations(range(1, t.n + 1))), t))


@settings(max_examples=150)
@given(labeled_trees(4), labeled_trees(4), st.data())
def test_compositions_of_random_trees_pass_validation(t, s, data):
    assert_compositions_validated(t, data.draw(st.integers(1, t.n)), s)


@pytest.mark.parametrize(
    "parent,message",
    [
        ((0, 0), "exactly one root"),
        ((2, 1), "exactly one root"),
        ((0, 3, 2), "cycle"),
        ((2, 0, 4, 3), "cycle"),
        ((0, 5), "out of range"),
        ((0, -1), "out of range"),
    ],
)
def test_validating_constructors_reject_bad_parent_arrays(parent, message):
    with pytest.raises(ValueError, match=message):
        LabeledTree(parent)
    text = "%d;1;%s" % (len(parent), ",".join(str(p) for p in parent))
    with pytest.raises(ValueError, match=message):
        parse_labeled(text)
