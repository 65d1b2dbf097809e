"""Partial compositions on labeled rooted trees.

Two compositions live here.  The permutative one substitutes a tree for a
vertex: the vertex's outgoing edge becomes the outgoing edge of the incoming
tree's root, and all incoming edges are grafted onto that root.  The pre-Lie
one sums instead over every way of distributing the vertex's child subtrees
across the incoming tree, so the permutative composition is one of its
summands.  Relabeling is by block substitution: the incoming tree occupies
ids i..i+m-1 and larger ids shift up.

One composer, ``_compose_into``, extends a composition bilinearly to
combinations of parent tuples (``{parent tuple: coeff}`` dicts).  A rule
says where the children of vertex i go: the incoming root (permutative), any
incoming vertex (pre-Lie) or the incoming tree's last vertex (the negative
control).  The kernels ``nap_parents``, ``pl_parents`` and
``corrupted_parents`` are the composer on two trees and carry their rule;
``nap_compose``/``pl_compose`` wrap them for ``LabeledTree`` and ``Element``.
The relabeling depends only on the shape of a composition (the two arities,
the slot and where i's children go), so a module table gives every id of a
shape its choices after composing: a composition maps its parent tuples
through it and multiplies the choices out, or is one tuple if i's children
have a single target.

The checkers verify unit, associativity and symmetric-group equivariance
exhaustively in low arity, the presentation of the permutative operad
(relator vanishing and root decomposition), and that composing abstract
operations matches evaluating the corresponding products on generators.
Each checker returns one outcome per case, ``None`` for a pass or else the
witness, for the check driver of ``treelie.checks``.  In the axiom walk one
side of every composition is a single tree and the other a combination, one
composer call each; the block permutations of the equivariance cases and
their inverse tables are computed once per pair of arities.
"""

import itertools
from collections import _count_elements

from treelie import tree_core
from treelie.freemod import Element, accumulate, bilinear
from treelie.prelie import nap_product, prelie_product
from treelie.tree_core import LabeledTree, act, act_parent, act_parent_with, inverse_table

unit = LabeledTree((0,))
mu = LabeledTree((0, 1))


_SHAPES = {}  # (len(p), i, len(q), where i's children go) -> the choices of _compose_into


def _shape(n, i, m, where):
    """The choices of one shape: two tables that take host id x (0..n) and
    incoming id x (1..m) to their ids after composing; incoming id 0, a
    placeholder, is overwritten by the incoming root's parent.  Ids below i
    stay, larger ids shift up by m - 1, incoming id x becomes i + x - 1, and
    vertex i's children go to incoming vertex ``where`` (0-based) or, if it
    is None, to any of them.  With one target every choice is a bare id;
    with several, each is a tuple of ids, to be multiplied out; the flag
    says which."""
    if not 1 <= i <= n:
        raise ValueError("vertex %d out of range 1..%d" % (i, n))
    targets = tuple(range(i, i + m)) if where is None else (i + where,)
    several = len(targets) > 1
    if several:
        one = lambda x: (x,)
    else:
        (targets,), one = targets, int
    host = tuple(one(x) if x < i else targets if x == i else one(x + m - 1) for x in range(n + 1))
    return host, tuple(one(x + i - 1) for x in range(m + 1)), several


def _compose_into(acc, x, i, y, rule):
    """Add ``a * b * (p o_i q)`` into ``acc`` for every term ``(p, a)`` of
    ``x`` and ``(q, b)`` of ``y``, dropping keys whose sum becomes zero;
    returns ``acc``.  ``q`` replaces vertex i of ``p``: its root takes i's
    parent, and ``rule(len(q), root position in q)`` says where i's children
    go: to that vertex of ``q`` (0-based), or if it is None to any vertex of
    ``q``, one term per map of the children to the vertices."""
    clean = not acc  # no sum can become zero while every coefficient added is 1
    for q, b in y.items():
        r, m = q.index(0), len(q)
        where, at = rule(m, r), i - 1 + r
        for p, a in x.items():
            key = (len(p), i, m, where)
            shape = _SHAPES.get(key)
            if shape is None:
                shape = _SHAPES[key] = _shape(*key)
            host, incoming, several = shape
            choices = list(map(host.__getitem__, p))
            top = choices[i - 1]  # vertex i's parent, which the incoming root takes
            choices[i - 1 : i] = map(incoming.__getitem__, q)
            choices[at] = top
            terms = itertools.product(*choices) if several else (tuple(choices),)
            c = a * b
            if c == 1:
                _count_elements(acc, terms)  # acc[t] += 1 for each term, in C
            else:
                clean, get = False, acc.get
                for t in terms:
                    acc[t] = get(t, 0) + c
    if not clean and 0 in acc.values():
        for t in [t for t, v in acc.items() if not v]:
            del acc[t]
    return acc


def _kernel(name, rule, doc):
    """A composition of two parent tuples, ``{parent tuple: 1}`` over its
    terms, that carries its ``rule`` for ``_compose_into``."""

    def parents(p, i, q):
        return _compose_into({}, {p: 1}, i, {q: 1}, rule)

    parents.__name__ = parents.__qualname__ = name
    parents.__doc__, parents.rule = doc, rule
    return parents


# a rule takes the size m of the incoming tree and the position r of its root to
# the position (0-based) that receives the children of vertex i, or None for any
nap_parents = _kernel("nap_parents", lambda m, r: r, """Permutative composition of parent tuples,
    ``{p o_i q: 1}``: the children of vertex i go to the root of ``q``.""")
pl_parents = _kernel("pl_parents", lambda m, r: None, """Pre-Lie composition of parent tuples: the
    sum over all maps from the children of vertex i to the vertices of ``q``, coefficients all 1.
    The all-to-the-root map gives the permutative summand.""")
corrupted_parents = _kernel("corrupted_parents", lambda m, r: m - 1, """Deliberately wrong composition
    (incoming edges attach to the incoming tree's last vertex, not its root); negative control
    for the checker.""")


def nap_compose(t, i, s):
    """Substitute ``s`` for vertex i of ``t`` (permutative composition)."""
    (parent,) = nap_parents(t.parent, i, s.parent)
    return LabeledTree._trusted(parent)


def pl_compose(t, i, s):
    """Pre-Lie composition of labeled trees, an Element of ``pl_parents``."""
    terms = pl_parents(t.parent, i, s.parent)
    return Element._trusted({LabeledTree._trusted(p): c for p, c in terms.items()})


def corrupted_compose(t, i, s):
    """``corrupted_parents`` on labeled trees."""
    (parent,) = corrupted_parents(t.parent, i, s.parent)
    return LabeledTree(parent)


def as_element(x):
    return x if isinstance(x, Element) else Element.of(x)


def compose_elements(compose, x, i, y):
    """Bilinear extension of a composition to formal combinations."""
    return Element._trusted(bilinear(lambda t, s: as_element(compose(t, i, s)), as_element(x), as_element(y)))


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


def check_operad_axioms(parents, max_arity):
    """Unit, sequential/parallel associativity and equivariance, exhaustively
    over labeled trees of arity <= max_arity, for a composition kernel on
    parent tuples such as ``pl_parents``.  Returns one outcome per case:
    ``None`` for a pass, else the witness.

    Combinations are ``{parent tuple: coeff}`` dicts; a ``LabeledTree`` is
    built only to render a witness.  Every ``t o_i s`` of two trees is
    computed once into one table; the cases compose or compare its values.
    One side of every other composition is a single tree, and each is one
    composer call on the kernel's rule over the combination on the other
    side (``over_left``/``over_right``)."""
    trees = {n: [t.parent for t in tree_core.enumerate_labeled(n)] for n in range(1, max_arity + 1)}
    perms = {n: list(itertools.permutations(range(1, n + 1))) for n in trees}
    acted = {(sigma, t): act_parent(sigma, t) for n in trees for sigma in perms[n] for t in trees[n]}
    every = [t for ts in trees.values() for t in ts]
    o = {(t, i, s): parents(t, i, s)
         for t, s in itertools.product(every, repeat=2) for i in range(1, len(t) + 1)}
    tree, rule = LabeledTree._trusted, parents.rule
    out = []

    def over_left(x, i, q):
        # x o_i q for a combination x
        return _compose_into({}, x, i, {q: 1}, rule)

    def over_right(p, i, y):
        # p o_i y for a combination y
        return _compose_into({}, {p: 1}, i, y, rule)

    for t in every:
        for i in range(1, len(t) + 1):
            out.append(None if o[t, i, unit.parent] == {t: 1} else "unit: %s o_%d 1 != itself" % (tree(t), i))
        out.append(None if o[unit.parent, 1, t] == {t: 1} else "unit: 1 o_1 %s != itself" % tree(t))

    for a, b, c in itertools.product(trees, repeat=3):
        for t, s, r in itertools.product(trees[a], trees[b], trees[c]):
            # sequential: (t o_i s) o_{i-1+j} r == t o_i (s o_j r)
            for i, j in itertools.product(range(1, a + 1), range(1, b + 1)):
                same = over_left(o[t, i, s], i - 1 + j, r) == over_right(t, i, o[s, j, r])
                witness = "sequential associativity: %s o_%d %s o_%d %s"
                out.append(None if same else witness % (tree(t), i, tree(s), j, tree(r)))
            # parallel: (t o_i s) o_{j+b-1} r == (t o_j r) o_i s
            for i, j in itertools.combinations(range(1, a + 1), 2):
                same = over_left(o[t, i, s], j + b - 1, r) == over_left(o[t, j, r], i, s)
                witness = "parallel associativity: %s o_%d %s / o_%d %s"
                out.append(None if same else witness % (tree(t), i, tree(s), j, tree(r)))

    for a, b in itertools.product(trees, repeat=2):
        # the block permutation of every (sigma, i, tau) and its inverse table,
        # computed once per arity pair
        blocks = []
        for sigma, tau in itertools.product(perms[a], perms[b]):
            rhos = [compose_permutation(sigma, i, tau) for i in range(1, a + 1)]
            blocks.append((sigma, tau, [(rho, inverse_table(rho)) for rho in rhos]))
        for t, s in itertools.product(trees[a], trees[b]):
            for sigma, tau, rhos in blocks:
                for i, (rho, inv) in enumerate(rhos, 1):
                    rhs = {act_parent_with(rho, inv, p): c for p, c in o[t, sigma[i - 1], s].items()}
                    same = o[acted[sigma, t], i, acted[tau, s]] == rhs
                    witness = "equivariance: sigma=%s tau=%s i=%d t=%s s=%s"
                    out.append(None if same else witness % (sigma, tau, i, tree(t), tree(s)))
    _SHAPES.clear()  # kept, the walk's shapes (144 at arity 3) hold memory that later checks reuse
    return out


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
        i, shift = rank_a[r], b.n - 1
        composed = nap_compose(a, i, b)
        # the block relabeling of ``_compose_into``
        g = [0] * t.n
        for v in first_set:
            g[v - 1] = rank_a[v] + (shift if rank_a[v] > i else 0)
        for v in rest:
            g[v - 1] = i + rank_b[v] - 1
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
