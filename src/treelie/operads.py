"""Partial compositions on labeled rooted trees.

Two compositions live here.  The permutative one substitutes a tree for a
vertex: the vertex's outgoing edge becomes the outgoing edge of the incoming
tree's root, and all incoming edges are grafted onto that root.  The pre-Lie
one sums instead over every way of distributing the vertex's child subtrees
across the incoming tree, so the permutative composition is one of its
summands.  Relabeling is by block substitution: the incoming tree occupies
ids i..i+m-1 and larger ids shift up.  Each composition is one kernel on
parent tuples returning ``{parent tuple: coeff}`` (``nap_parents``,
``pl_parents``), which ``nap_compose``/``pl_compose`` wrap for ``LabeledTree``
and ``Element``; the axiom walk runs on the kernels alone.  The relabelings
depend only on the shape of a composition (the two arities, the slot and
the position of the incoming root), so ``_substitute`` builds them once per
shape into a module table of tuples and applies them with ``map``; only the
pre-Lie kernel and the negative control look up the moved children.

The checkers verify unit, associativity and symmetric-group equivariance
exhaustively in low arity, the presentation of the permutative operad
(relator vanishing and root decomposition), and that composing abstract
operations matches evaluating the corresponding products on generators.
Each checker returns one outcome per case, ``None`` for a pass or else the
witness, for the check driver of ``treelie.checks``.  In the axiom walk one
side of every composition is a single tree, so the kernel is extended over
the other side only, and the block permutations of the equivariance cases
are computed once per pair of arities.
"""

import itertools

from treelie import tree_core
from treelie.freemod import Element, accumulate, bilinear
from treelie.prelie import nap_product, prelie_product
from treelie.tree_core import LabeledTree, act, act_parent

unit = LabeledTree((0,))
mu = LabeledTree((0, 1))


_SHAPES = {}  # (len(p), i, len(q), root position in q) -> the relabelings of _substitute


def _shape(n, i, m, r):
    """The relabelings of ``_substitute`` for one shape: host id x (0..n) to
    its id after composing, vertex i itself going to the incoming root i + r,
    and incoming id x (1..m) to i + x - 1; slot 0 of the incoming table is a
    placeholder for the incoming root's parent, which each call fills in."""
    shift, top = m - 1, i + r
    host = tuple(x if x < i else top if x == i else x + shift for x in range(n + 1))
    return host, (0,) + tuple(range(i, i + m))


def _substitute(p, i, q):
    """``q`` substituted for vertex i of ``p`` with i's children on the root
    of ``q``, as a parent list.  Host ids above i shift up by ``len(q) - 1``;
    incoming id j becomes i+j-1."""
    n = len(p)
    if not 1 <= i <= n:
        raise ValueError("vertex %d out of range 1..%d" % (i, n))
    r = q.index(0)
    key = (n, i, len(q), r)
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = _shape(n, i, len(q), r)
    host, incoming = shape
    base = list(map(host.__getitem__, p))
    block = list(map(incoming.__getitem__, q))
    block[r] = base[i - 1]  # the incoming root takes vertex i's parent
    base[i - 1 : i] = block
    return base


def _moved(p, i, m):
    """Positions in the composed parent list of the children of vertex i of
    ``p``, which move onto the ``m`` vertices of the incoming tree."""
    return [c if c < i - 1 else c + m - 1 for c, x in enumerate(p) if x == i]


def nap_parents(p, i, q):
    """Permutative composition of parent tuples, ``{p o_i q: 1}``."""
    return {tuple(_substitute(p, i, q)): 1}


def pl_parents(p, i, q):
    """Pre-Lie composition of parent tuples: the sum over all maps from the
    children of vertex i to the vertices of ``q``, coefficients all 1.  The
    all-to-the-root map gives the permutative summand."""
    base = _substitute(p, i, q)
    children = p.count(i)
    if not children:
        return {tuple(base): 1}
    out = {}
    targets = range(i, i + len(q))
    if children == 1:
        pos = p.index(i)
        if pos >= i:
            pos += len(q) - 1
        for target in targets:
            base[pos] = target
            out[tuple(base)] = 1
        return out
    moved = _moved(p, i, len(q))
    # distinct target maps give distinct parent arrays, so no term repeats
    for choice in itertools.product(targets, repeat=len(moved)):
        for pos, target in zip(moved, choice):
            base[pos] = target
        out[tuple(base)] = 1
    return out


def corrupted_parents(p, i, q):
    """Deliberately wrong composition (incoming edges attach to the incoming
    tree's last vertex, not its root); negative control for the checker."""
    base = _substitute(p, i, q)
    for pos in _moved(p, i, len(q)):
        base[pos] = i + len(q) - 1
    return {tuple(base): 1}


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
    One side of every other composition is a single tree, so the kernel is
    extended over the other side only (``over_left``/``over_right``)."""
    trees = {n: [t.parent for t in tree_core.enumerate_labeled(n)] for n in range(1, max_arity + 1)}
    perms = {n: list(itertools.permutations(range(1, n + 1))) for n in trees}
    acted = {(sigma, t): act_parent(sigma, t) for n in trees for sigma in perms[n] for t in trees[n]}
    every = [t for ts in trees.values() for t in ts]
    o = {(t, i, s): parents(t, i, s)
         for t, s in itertools.product(every, repeat=2) for i in range(1, len(t) + 1)}
    tree = LabeledTree._trusted
    out = []

    def over_left(x, i, q):
        # x o_i q for a combination x; a single tree with coefficient 1 is the kernel's own dict
        if len(x) == 1:
            ((p, c),) = x.items()
            if c == 1:
                return parents(p, i, q)
        acc = {}
        for p, c in x.items():
            accumulate(acc, parents(p, i, q).items(), c)
        return acc

    def over_right(p, i, y):
        # p o_i y for a combination y
        if len(y) == 1:
            ((q, c),) = y.items()
            if c == 1:
                return parents(p, i, q)
        acc = {}
        for q, c in y.items():
            accumulate(acc, parents(p, i, q).items(), c)
        return acc

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
        # the block permutation of every (sigma, i, tau), computed once per arity pair
        blocks = [(sigma, tau, [compose_permutation(sigma, i, tau) for i in range(1, a + 1)])
                  for sigma, tau in itertools.product(perms[a], perms[b])]
        for t, s in itertools.product(trees[a], trees[b]):
            for sigma, tau, rhos in blocks:
                for i, rho in enumerate(rhos, 1):
                    rhs = {act_parent(rho, p): c for p, c in o[t, sigma[i - 1], s].items()}
                    same = o[acted[sigma, t], i, acted[tau, s]] == rhs
                    witness = "equivariance: sigma=%s tau=%s i=%d t=%s s=%s"
                    out.append(None if same else witness % (sigma, tau, i, tree(t), tree(s)))
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
        # the block relabeling of ``_substitute``
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
