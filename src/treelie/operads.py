"""Partial compositions on labeled rooted trees.

Two compositions live here.  The permutative one substitutes a tree for a
vertex: the vertex's outgoing edge becomes the outgoing edge of the incoming
tree's root, and all incoming edges are grafted onto that root.  The pre-Lie
one sums instead over every way of distributing the vertex's child subtrees
across the incoming tree, so the permutative composition is one of its
summands.  Relabeling is by block substitution: the incoming tree occupies
ids i..i+m-1 and larger ids shift up.

The checkers verify unit, associativity and symmetric-group equivariance
exhaustively in low arity, the presentation of the permutative operad
(relator vanishing and root decomposition), and that composing abstract
operations matches evaluating the corresponding products on generators.
Each checker returns one outcome per case, ``None`` for a pass or else the
witness, for the check driver of ``treelie.checks``.
"""

import itertools

from treelie import tree_core
from treelie.freemod import Element, accumulate, bilinear
from treelie.prelie import nap_product, prelie_product
from treelie.tree_core import LabeledTree, act

unit = LabeledTree((0,))
mu = LabeledTree((0, 1))


def _relabel_maps(n, i, m):
    """Block relabeling for substitution at vertex i: host ids around i shift,
    incoming ids j map to i+j-1."""

    def host(j):
        return j if j < i else j + m - 1

    def sub(j):
        return i + j - 1

    return host, sub


def nap_compose(t, i, s):
    """Substitute ``s`` for vertex i of ``t`` (permutative composition)."""
    n, m = t.n, s.n
    if not 1 <= i <= n:
        raise ValueError("vertex %d out of range 1..%d" % (i, n))
    host, sub = _relabel_maps(n, i, m)
    parent = [0] * (n + m - 1)
    for j in range(1, m + 1):
        p = s.parent[j - 1]
        if p != 0:
            parent[sub(j) - 1] = sub(p)
        else:
            pi = t.parent[i - 1]
            parent[sub(j) - 1] = 0 if pi == 0 else host(pi)
    for j in range(1, n + 1):
        if j == i:
            continue
        p = t.parent[j - 1]
        if p == i:
            parent[host(j) - 1] = sub(s.root)
        elif p != 0:
            parent[host(j) - 1] = host(p)
    return LabeledTree._trusted(tuple(parent))


def pl_compose(t, i, s):
    """Pre-Lie composition: sum over all maps from the child subtrees of
    vertex i to the vertices of ``s``.  Coefficients are all 1 and the
    permutative composition is the all-to-the-root summand."""
    n, m = t.n, s.n
    if not 1 <= i <= n:
        raise ValueError("vertex %d out of range 1..%d" % (i, n))
    host, sub = _relabel_maps(n, i, m)
    children = t.children_of(i)
    base = nap_compose(t, i, s)
    # distinct target maps give distinct parent arrays, so no term repeats
    out = {}
    for targets in itertools.product(range(1, m + 1), repeat=len(children)):
        parent = list(base.parent)
        for c, target in zip(children, targets):
            parent[host(c) - 1] = sub(target)
        out[LabeledTree._trusted(tuple(parent))] = 1
    return Element._trusted(out)


def as_element(x):
    return x if isinstance(x, Element) else Element.of(x)


def compose_elements(compose, x, i, y):
    """Bilinear extension of a composition to formal combinations."""
    return Element._trusted(bilinear(lambda t, s: as_element(compose(t, i, s)), as_element(x), as_element(y)))


def act_element(sigma, x):
    return Element({act(sigma, t): c for t, c in as_element(x).items()})


def compose_permutation(sigma, i, tau):
    """Block substitution of permutations matching ``compose`` at slot i."""
    n, m = len(sigma), len(tau)
    si = sigma[i - 1]

    def shift(v):
        return v + (m - 1 if v > si else 0)

    rho = [0] * (n + m - 1)
    for j in range(1, n + m):
        if j < i:
            rho[j - 1] = shift(sigma[j - 1])
        elif j <= i + m - 1:
            rho[j - 1] = si + tau[j - i] - 1
        else:
            rho[j - 1] = shift(sigma[j - m])
    return tuple(rho)


def check_operad_axioms(compose, max_arity):
    """Unit, sequential/parallel associativity and equivariance, exhaustively
    over labeled trees of arity <= max_arity.  Returns one outcome per case:
    ``None`` for a pass, else the witness.

    Every composition of two trees, ``t o_i s``, is computed once into one
    table; the cases compose those results further or compare them."""
    trees = {n: tree_core.enumerate_labeled(n) for n in range(1, max_arity + 1)}
    perms = {n: list(itertools.permutations(range(1, n + 1))) for n in trees}
    every = [t for ts in trees.values() for t in ts]
    o = {(t, i, s): compose_elements(compose, t, i, s)
         for t, s in itertools.product(every, repeat=2) for i in range(1, t.n + 1)}
    out = []

    for t in every:
        for i in range(1, t.n + 1):
            out.append(None if o[t, i, unit] == as_element(t) else "unit: %s o_%d 1 != itself" % (t, i))
        out.append(None if o[unit, 1, t] == as_element(t) else "unit: 1 o_1 %s != itself" % t)

    for a, b, c in itertools.product(trees, repeat=3):
        for t, s, r in itertools.product(trees[a], trees[b], trees[c]):
            # sequential: (t o_i s) o_{i-1+j} r == t o_i (s o_j r)
            for i, j in itertools.product(range(1, a + 1), range(1, b + 1)):
                lhs = compose_elements(compose, o[t, i, s], i - 1 + j, r)
                rhs = compose_elements(compose, t, i, o[s, j, r])
                witness = "sequential associativity: %s o_%d %s o_%d %s"
                out.append(None if lhs == rhs else witness % (t, i, s, j, r))
            # parallel: (t o_i s) o_{j+b-1} r == (t o_j r) o_i s
            for i, j in itertools.combinations(range(1, a + 1), 2):
                lhs = compose_elements(compose, o[t, i, s], j + b - 1, r)
                rhs = compose_elements(compose, o[t, j, r], i, s)
                witness = "parallel associativity: %s o_%d %s / o_%d %s"
                out.append(None if lhs == rhs else witness % (t, i, s, j, r))

    for a, b in itertools.product(trees, repeat=2):
        for t, s, sigma, tau in itertools.product(trees[a], trees[b], perms[a], perms[b]):
            for i in range(1, a + 1):
                lhs = o[act(sigma, t), i, act(tau, s)]
                rhs = act_element(compose_permutation(sigma, i, tau), o[t, sigma[i - 1], s])
                witness = "equivariance: sigma=%s tau=%s i=%d t=%s s=%s"
                out.append(None if lhs == rhs else witness % (sigma, tau, i, t, s))
    return out


def corrupted_compose(t, i, s):
    """Deliberately wrong composition (incoming edges attach to the incoming
    tree's last vertex, not its root); negative control for the checker."""
    good = nap_compose(t, i, s)
    host, sub = _relabel_maps(t.n, i, s.n)
    parent = list(good.parent)
    for c in t.children_of(i):
        parent[host(c) - 1] = sub(s.n)
    return LabeledTree(tuple(parent))


def subtree_standardized(t, keep):
    """Restriction of ``t`` to a connected vertex subset, relabeled
    order-preservingly onto {1..|keep|}; returns (tree, old->new map)."""
    keep = sorted(keep)
    rank = {v: i + 1 for i, v in enumerate(keep)}
    parent = [0] * len(keep)
    for v in keep:
        p = t.parent[v - 1]
        parent[rank[v] - 1] = rank[p] if p in rank else 0
    return LabeledTree(tuple(parent)), rank


def _vertex_set(t, v):
    out = {v}
    for c in t.children_of(v):
        out |= _vertex_set(t, c)
    return out


def decomposition_check(t):
    """Root decomposition: for every choice of one root subtree T1, composing
    (root + T1) at the root with (root + the rest) rebuilds ``t`` after the
    tracked relabeling.  Returns the number of choices verified."""
    r = t.root
    subtrees = t.children_of(r)
    if not subtrees:
        return 0
    count = 0
    for first in subtrees:
        first_set = _vertex_set(t, first)
        rest = set(range(1, t.n + 1)) - first_set
        a, rank_a = subtree_standardized(t, first_set | {r})
        b, rank_b = subtree_standardized(t, rest)
        composed = nap_compose(a, rank_a[r], b)
        host, sub = _relabel_maps(a.n, rank_a[r], b.n)
        g = [0] * t.n
        for v in first_set:
            g[v - 1] = host(rank_a[v])
        for v in rest:
            g[v - 1] = sub(rank_b[v])
        if act(tuple(g), composed) != t:
            raise AssertionError("decomposition failed at %s (subtree %d)" % (t, first))
        count += 1
    return count


def nap_presentation_check(max_degree):
    """Relator vanishing and root-decomposition checks for the permutative
    operad presentation, one outcome per case (``None`` for a pass)."""
    relator_image = nap_compose(mu, 1, mu)
    witness = "relator image %s is not invariant under swapping labels 2,3" % relator_image
    out = [None if act((1, 3, 2), relator_image) == relator_image else witness]
    for n in range(2, max_degree + 1):
        for t in tree_core.enumerate_labeled(n):
            try:
                decomposition_check(t)
                out.append(None)
            except AssertionError as exc:
                out.append(str(exc))
    return out


def binary_words(n):
    """All binary product expressions on n ordered leaves (leaf = None)."""
    if n == 1:
        yield None
        return
    for left_size in range(1, n):
        for left in binary_words(left_size):
            for right in binary_words(n - left_size):
                yield (left_size, left, right)


def word_element(word, compose):
    """Operad element of a binary word: plug the right factor into slot 2 of
    the binary generator, then the left factor into slot 1."""
    if word is None:
        return Element.of(unit)
    left_size, left, right = word
    partial = compose_elements(compose, mu, 2, word_element(right, compose))
    return compose_elements(compose, partial, 1, word_element(left, compose))


def word_product(word, letters, product):
    """The same word evaluated directly with a bilinear product on Elements."""
    if word is None:
        letter = letters.pop(0)
        return Element.of(tree_core.leaf(letter))
    _, left, right = word
    x = word_product(left, letters, product)
    y = word_product(right, letters, product)
    return product(x, y)


def evaluate_element(x, letters):
    """Evaluate a combination of n-labeled trees on n generator letters."""
    return Element._trusted(accumulate({}, ((t.to_rooted(letters), c) for t, c in as_element(x).items())))


def evaluation_consistency_check(max_arity):
    """Composed operad words evaluated on distinct generators must match the
    corresponding product expressions in the free algebras; one outcome per
    word (``None`` for a pass)."""
    out = []
    for compose, product in ((nap_compose, nap_product), (pl_compose, prelie_product)):
        for n in range(1, max_arity + 1):
            letters = ["g%d" % i for i in range(1, n + 1)]
            for word in binary_words(n):
                via_operad = evaluate_element(word_element(word, compose), letters)
                direct = word_product(word, list(letters), product)
                witness = "word %r at arity %d: %s != %s"
                out.append(None if via_operad == direct else witness % (word, n, via_operad, direct))
    return out
