"""Letter weights: the weighted tree enumerator and reconstruction of a free
algebra whose generators sit in different degrees."""

import pytest

from treelie import kernel
from treelie.nap_coalgebra import coproduct_basis
from treelie.rigidity import PresentedAlgebra, reconstruct
from treelie.tree_core import enumerate_trees

# -- oracle: the separate weighted enumerator that reconstruction used before
# the weights moved into ``enumerate_trees`` -----------------------------------


def _weighted_trees(letter_degrees, weight):
    """All trees over the letter alphabet whose vertex degrees sum to ``weight``."""
    letters = sorted(letter_degrees)
    memo = {}

    def upto(w):
        got = memo.get(w)
        if got is None:
            got = []
            for v in range(1, w + 1):
                got.extend(exact(v))
            memo[w] = got
        return got

    def exact(w):
        out = set()
        for a in letters:
            d = letter_degrees[a]
            if d > w:
                continue
            if d == w:
                out.add(kernel.leaf(a))
                continue
            pool = upto(w - d)
            for combo in _weighted_multisets(pool, letter_degrees, 0, w - d):
                out.add(kernel.node(a, combo))
        return sorted(out)

    return exact(weight)


def _weighted_multisets(pool, letter_degrees, start, budget):
    if budget == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        t = pool[i]
        w = _tree_weight(t, letter_degrees)
        if w > budget:
            continue
        for rest in _weighted_multisets(pool, letter_degrees, i, budget - w):
            yield (t,) + rest


def _tree_weight(t, letter_degrees):
    return letter_degrees[t.label] + sum(_tree_weight(c, letter_degrees) for c in t.children)


def _weighted_tree_counts(letter_degrees, n_max):
    """Independent count by the weighted Euler transform: t_n = sum over
    letters a of m_{n - w(a)}, where m_k counts multisets of trees of total
    weight k, m_0 = 1 and k m_k = sum_j (sum_{d | j} d t_d) m_{k-j}."""
    t = [0] * (n_max + 1)
    m = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        t[n] = sum(m[n - w] for w in letter_degrees.values() if w <= n)
        # m_n only needs t_1..t_n, all known now
        m[n] = sum(
            sum(d * t[d] for d in range(1, j + 1) if j % d == 0) * m[n - j] for j in range(1, n + 1)
        ) // n
    return t[1:]


@pytest.mark.parametrize(
    "weights",
    [{"a": 1, "b": 2}, {"a": 2}, {"p1_0": 1, "p2_0": 2, "p2_1": 2}],
    ids=["a1b2", "a2", "p1p2p2"],
)
def test_weighted_enumeration_matches_oracle(weights):
    counts = _weighted_tree_counts(weights, 7)
    for n in range(1, 8):
        got = enumerate_trees(list(weights), n, weights)
        assert got == _weighted_trees(weights, n)
        assert len(got) == counts[n - 1]


def test_unit_weights_are_the_default():
    for n in range(1, 6):
        assert enumerate_trees(["a", "b"], n, {"a": 1, "b": 1}) == enumerate_trees(["a", "b"], n)
        assert enumerate_trees(["a", "b"], n) == _weighted_trees({"a": 1, "b": 1}, n)


def test_weights_must_be_positive_integers():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            enumerate_trees(["a"], 3, {"a": bad})


def _weighted_free_presentation(weights, max_degree):
    """Structure constants of the free tree algebra with generator ``a`` in
    degree ``weights[a]``, truncated at ``max_degree``; built from the
    oracle enumerator and the kernel only."""
    basis = {d: _weighted_trees(weights, d) for d in range(1, max_degree + 1)}
    generators = {d: [t.key for t in ts] for d, ts in basis.items() if ts}
    product, coproduct = {}, {}
    for d1, ts in basis.items():
        for s in ts:
            cop = coproduct_basis(s)
            if not cop.is_zero():
                coproduct[s.key] = {(u.key, v.key): c for (u, v), c in cop.items()}
            for d2 in range(1, max_degree - d1 + 1):
                for t in basis[d2]:
                    counts = kernel.prelie_counts(s, t)
                    product[(s.key, t.key)] = {g.key: c for g, c in counts.items()}
    return PresentedAlgebra(generators, product, coproduct)


def test_reconstruct_generators_in_two_degrees():
    weights = {"a": 1, "b": 2}
    rep = reconstruct(_weighted_free_presentation(weights, 5), 5)
    assert rep.ok
    assert rep.primitive_dims == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
    assert rep.dims() == [1, 2, 4, 10, 27] == _weighted_tree_counts(weights, 5)
    assert [d.tree_count for d in rep.degrees] == [1, 2, 4, 10, 27]
