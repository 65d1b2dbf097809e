"""Rooted trees: parsing, rendering, enumeration and vertex surgery.

Two flavours of tree live here.  ``kernel.Tree`` (the kernel's canonical
unordered tree with labels drawn from a generator alphabet) is the basis of
the free algebras.  ``LabeledTree`` carries a bijective labelling of its
vertices by ``{1..n}`` and underlies the operad components; heap-ordered
trees are the labeled trees whose labels increase away from the root.

Grammar for generator-labeled trees::

    tree  := label ( '[' tree (',' tree)* ']' )?
    label := [A-Za-z0-9_]+

Whitespace between tokens is ignored.  Rendering always emits the canonical
form (children sorted by their own rendering), which makes the rendered
string a complete isomorphism invariant and the interchange format for
golden values.
"""

import functools
import itertools
import re

from treelie import kernel

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+")


class TreeSyntaxError(ValueError):
    """Raised on malformed tree text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def check_label(label):
    if not isinstance(label, str) or _LABEL_RE.fullmatch(label) is None:
        raise ValueError("invalid label %r: expected nonempty token over [A-Za-z0-9_]" % (label,))
    return label


def leaf(label):
    return kernel.leaf(check_label(label))


def node(label, children):
    return kernel.node(check_label(label), children)


# Deepest bracket nesting ``parse_tree`` accepts: a root-to-leaf path of at
# most this many vertices.  The parser and the kernel's vertex walks recurse
# once per level, so deeper input is rejected before any deep recursion.
MAX_TREE_DEPTH = 256


def parse_tree(text):
    """Parse tree-grammar text into its canonical ``kernel.Tree``.

    Raises TreeSyntaxError on malformed text and on nesting deeper than
    ``MAX_TREE_DEPTH`` levels.
    """
    tree, pos = _parse(text, _skip_ws(text, 0), 1)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise TreeSyntaxError("unexpected trailing input %r" % text[pos : pos + 10], pos)
    return tree


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse(text, pos, depth):
    if depth > MAX_TREE_DEPTH:
        raise TreeSyntaxError("tree nesting deeper than %d levels" % MAX_TREE_DEPTH, pos)
    m = _LABEL_RE.match(text, pos)
    if m is None:
        found = text[pos] if pos < len(text) else "end of input"
        raise TreeSyntaxError("expected label, found %r" % found, pos)
    label = m.group(0)
    pos = _skip_ws(text, m.end())
    if pos < len(text) and text[pos] == "[":
        children = []
        pos = _skip_ws(text, pos + 1)
        while True:
            child, pos = _parse(text, pos, depth + 1)
            children.append(child)
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos = _skip_ws(text, pos + 1)
                continue
            if pos < len(text) and text[pos] == "]":
                return kernel.node(label, children), pos + 1
            raise TreeSyntaxError("expected ',' or ']'", pos)
    return kernel.leaf(label), pos


def render_tree(tree):
    """Canonical string form; ``parse_tree(render_tree(t)) == t``."""
    return tree.key


def graft(host, position, shoot):
    """Graft the root of ``shoot`` onto the vertex of ``host`` at ``position``.

    Positions index the canonical preorder traversal, root = 0.
    """
    return kernel.graft_at(host, position, shoot)


def vertices(tree):
    """Subtrees rooted at each vertex, in canonical preorder."""
    out = [tree]
    for c in tree.children:
        out.extend(vertices(c))
    return out


def automorphism_count(tree):
    """Order of the automorphism group: equal sibling subtrees may permute."""
    out = 1
    run = 1
    for i, c in enumerate(tree.children):
        out *= automorphism_count(c)
        if i > 0 and c == tree.children[i - 1]:
            run += 1
            out *= run
        else:
            run = 1
    return out


def count_trees(n_max, letters=1):
    """Number of rooted trees of each degree 1..n_max with vertices labeled
    from ``letters`` letters, without building one, by the Euler-transform
    recursion a(n+1) = (1/n) sum_k (sum_{d|k} d a(d)) a(n-k+1) from
    a(1) = letters."""
    a = [0, letters]
    for n in range(1, n_max):
        s = 0
        for k in range(1, n + 1):
            div_sum = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
            s += div_sum * a[n - k + 1]
        a.append(s // n)
    return a[1 : n_max + 1]


def enumerate_trees(alphabet, degree, weights=None):
    """All canonical trees of total weight ``degree`` labeled from ``alphabet``.

    ``weights`` maps a letter to its positive integer weight (missing
    letters weigh 1); a tree's weight is the sum over its vertices, so with
    unit weights it is the number of vertices.  Deterministic output: sorted
    by the graded tree order.  Labels may repeat freely.
    """
    letters = [check_label(a) for a in alphabet]
    if not letters:
        raise ValueError("alphabet must be nonempty")
    if degree < 1:
        raise ValueError("degree must be >= 1, got %d" % degree)
    weights = weights or {}
    weighted = tuple(sorted({(a, weights.get(a, 1)) for a in letters}))
    for a, w in weighted:
        if not isinstance(w, int) or w < 1:
            raise ValueError("weight of %r must be a positive integer, got %r" % (a, w))
    return _trees_memo(weighted, degree)


_TREES_CACHE = {}  # (weighted alphabet, degree) -> the sorted trees of that weight
_POOLS = {}  # weighted alphabet -> (tree, weight) of every degree built so far, lightest first


def _trees_memo(weighted, degree):
    got = _TREES_CACHE.get((weighted, degree))
    if got is None:
        # degrees are built in increasing order, each extending the alphabet's pool
        low = degree
        while low > 1 and (weighted, low - 1) not in _TREES_CACHE:
            low -= 1
        pool = _POOLS.setdefault(weighted, [])
        for d in range(low, degree + 1):
            got = _TREES_CACHE[(weighted, d)] = _enumerate(weighted, d)
            pool.extend((t, d) for t in got)
    return got


def _enumerate(weighted, degree):
    """The trees of weight ``degree``, with subtrees from the alphabet's pool,
    which holds every lighter tree once the degree below is built."""
    if degree > 1:
        _trees_memo(weighted, degree - 1)
    pool = _POOLS.get(weighted, [])
    forests = {}  # budget -> child multisets; letters of equal weight share them
    out = set()
    for label, w in weighted:
        if w == degree:
            out.add(kernel.leaf(label))
        elif w < degree:
            budget = degree - w
            if budget not in forests:
                forests[budget] = list(_subtree_multisets(pool, 0, budget))
            for combo in forests[budget]:
                out.add(kernel.node(label, combo))
    return sorted(out)


def _subtree_multisets(pool, start, budget):
    """Nondecreasing tuples of pool trees (by pool index) with total weight = budget."""
    if budget == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        t, w = pool[i]
        if w > budget:
            break  # the pool is ordered by weight
        for rest in _subtree_multisets(pool, i, budget - w):
            yield (t,) + rest


@functools.total_ordering
class LabeledTree:
    """Rooted tree on vertex set {1..n} given by its parent array.

    ``parent[i-1]`` is the parent id of vertex i, with 0 marking the root.
    Serializes as ``n;root;parent(1),...,parent(n)``.  Immutable; equality,
    ordering, hash and ``repr`` are those of a frozen, ordered dataclass
    with the one field ``parent``.
    """

    __slots__ = ("parent",)

    def __init__(self, parent):
        object.__setattr__(self, "parent", parent)
        # a method of its own: the benchmark's tracer times the walk by this name
        self.__post_init__()

    @classmethod
    def _trusted(cls, parent):
        """Tree on the tuple ``parent`` without the validity walk of
        ``__post_init__``, for builders whose construction already gives one
        root, in-range parents and no cycle: the compositions, ``act`` and
        the enumerators."""
        t = object.__new__(cls)
        object.__setattr__(t, "parent", parent)
        return t

    def __post_init__(self):
        n = len(self.parent)
        if n == 0:
            raise ValueError("labeled tree needs at least one vertex")
        roots = [i + 1 for i, p in enumerate(self.parent) if p == 0]
        if len(roots) != 1:
            raise ValueError("expected exactly one root, found %d" % len(roots))
        for i, p in enumerate(self.parent):
            if p != 0 and not (1 <= p <= n):
                raise ValueError("parent of vertex %d out of range: %d" % (i + 1, p))
        # acyclicity: every vertex must reach the root
        for v in range(1, n + 1):
            seen, cur = set(), v
            while self.parent[cur - 1] != 0:
                if cur in seen:
                    raise ValueError("parent map has a cycle through vertex %d" % v)
                seen.add(cur)
                cur = self.parent[cur - 1]

    @property
    def n(self):
        return len(self.parent)

    @property
    def degree(self):
        return len(self.parent)

    @property
    def root(self):
        return self.parent.index(0) + 1

    def children_of(self, v):
        return [i + 1 for i, p in enumerate(self.parent) if p == v]

    def is_heap_ordered(self):
        return all(p < i + 1 for i, p in enumerate(self.parent) if p != 0)

    def to_rooted(self, labels):
        """Forget the ordering: canonical tree with vertex i labeled ``labels[i-1]``."""
        if len(labels) != self.n:
            raise ValueError("need %d labels, got %d" % (self.n, len(labels)))

        def build(v):
            return kernel.node(labels[v - 1], [build(c) for c in self.children_of(v)])

        return build(self.root)

    def __str__(self):
        parent = self.parent
        return "%d;%d;%s" % (len(parent), parent.index(0) + 1, ",".join(map(str, parent)))

    def __repr__(self):
        return "%s(parent=%r)" % (type(self).__qualname__, self.parent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parent == other.parent

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parent < other.parent

    def __hash__(self):
        return hash((self.parent,))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def parse_labeled(text):
    """Inverse of ``str(LabeledTree)``."""
    try:
        n_s, root_s, parents_s = text.strip().split(";")
        parent = tuple(int(p) for p in parents_s.split(","))
        n, root = int(n_s), int(root_s)
    except ValueError as exc:
        raise ValueError("malformed labeled tree %r" % text) from exc
    if n != len(parent):
        raise ValueError("vertex count %d does not match parent array length %d" % (n, len(parent)))
    t = LabeledTree(parent)
    if t.root != root:
        raise ValueError("declared root %d does not match parent array" % root)
    return t


def labeled_from_rooted(tree, letter_ids):
    """Labeled tree from a canonical tree whose letters map bijectively to ids.

    ``letter_ids`` maps each distinct label of ``tree`` to a vertex id; every
    label must occur exactly once in the tree.
    """
    parent = [0] * tree.degree

    def walk(t, parent_id):
        v = letter_ids[t.label]
        parent[v - 1] = parent_id
        for c in t.children:
            walk(c, v)

    walk(tree, 0)
    return LabeledTree(tuple(parent))


def iter_labeled(n):
    """All labeled rooted trees on {1..n}, one at a time in increasing order
    of their parent arrays; there are n^(n-1) of them.

    A depth-first walk gives vertex 1, 2, ... in turn each parent in
    ``0..n``, with at most one root, and skips a parent whose chain of
    already assigned parents leads back to the vertex.  An acyclic partial
    assignment always completes, so no array is built and then rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    return _labeled_walk(n, [0] * (n + 1), 1, False)


def _labeled_walk(n, parent, v, rooted):
    # parent[u] for u < v is assigned; parent[0] is unused
    for p in range(1 if rooted else 0, n + 1):
        cur = p
        while 0 < cur < v:
            cur = parent[cur]
        if cur == v:
            continue  # p's chain returns to v: a cycle
        parent[v] = p
        if v == n:
            yield LabeledTree._trusted(tuple(parent[1:]))
        else:
            yield from _labeled_walk(n, parent, v + 1, rooted or p == 0)


def enumerate_labeled(n):
    """All labeled rooted trees on {1..n} as a sorted list (``iter_labeled``)."""
    return list(iter_labeled(n))


def iter_heap_ordered(n):
    """All heap-ordered trees on {1..n}, one at a time in increasing order of
    their parent arrays; there are (n-1)! of them.

    The root is forced to be 1 and every other vertex picks a smaller parent,
    so no acyclicity filtering is required.
    """
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    # the product runs through the parent arrays in increasing order
    choices = itertools.product(*(range(1, v) for v in range(2, n + 1)))
    return (LabeledTree._trusted((0,) + choice) for choice in choices)


def enumerate_heap_ordered(n):
    """All heap-ordered trees on {1..n} as a sorted list (``iter_heap_ordered``)."""
    return list(iter_heap_ordered(n))


def act(sigma, tree):
    """Right action of a permutation on the labeling of a labeled tree.

    ``sigma`` is a sequence with ``sigma[i-1]`` the image of i.  The
    convention is ``parent' = sigma^{-1} . parent . sigma``, which gives
    ``act(sigma . tau, T) == act(tau, act(sigma, T))``.
    """
    n = tree.n
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma must be a permutation of 1..%d" % n)
    return LabeledTree._trusted(act_parent(sigma, tree.parent))


def act_parent(sigma, parent):
    """``act`` on a parent tuple, for a ``sigma`` already known to be a
    permutation of its ids."""
    inv = [0] * (len(sigma) + 1)  # inv[0] = 0 keeps the root a root
    for i, s in enumerate(sigma, 1):
        inv[s] = i
    return tuple([inv[parent[s - 1]] for s in sigma])
