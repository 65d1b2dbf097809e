"""The tree kernel: canonical rooted trees and grafting surgery.

Every hot tree operation of the package (canonicalization, grafting,
coproduct splitting) lives here, in pure Python.  ``BACKEND`` names the
implementation for reports such as the benchmark's environment line.

Trees are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): one table maps a leaf's label, or a node's
``(label, sorted child tuple)``, to the one tree of that shape.  The
children in such a key are themselves interned, so the key hashes and
compares by their identities without descending into them, and equal trees
are the same object: dicts and sets of trees hash and compare by identity.
"""

from operator import attrgetter

BACKEND = "python"

_INTERN = {}


class Tree:
    """Canonical unordered rooted tree with string vertex labels.

    Children are stored as a tuple sorted by canonical rendering, so the
    rendering ``key`` is a complete isomorphism invariant.  Instances are
    interned and immutable, so two trees are equal iff they are the same
    object; build them with :func:`leaf` and :func:`node`, never by calling
    ``Tree`` directly.
    """

    __slots__ = ("label", "children", "key", "degree")

    def __init__(self, label, children, key, degree):
        self.label = label
        self.children = children
        self.key = key
        self.degree = degree

    @property
    def arity(self):
        return len(self.children)

    # Graded order (degree first) so sorted term listings read degree by degree.
    def __lt__(self, other):
        return (self.degree, self.key) < (other.degree, other.key)

    def __le__(self, other):
        return (self.degree, self.key) <= (other.degree, other.key)

    def __gt__(self, other):
        return (self.degree, self.key) > (other.degree, other.key)

    def __ge__(self, other):
        return (self.degree, self.key) >= (other.degree, other.key)

    def __str__(self):
        return self.key

    def __repr__(self):
        return "Tree(%r)" % self.key


def leaf(label):
    """The one-vertex tree with the given label; interned under the label."""
    t = _INTERN.get(label)
    if t is None:
        t = Tree(label, (), label, 1)
        _INTERN[label] = t
    return t


_by_key = attrgetter("key")


def node(label, children):
    """Tree with root ``label`` and the given child subtrees (any order),
    interned under ``(label, children sorted by key)``; its rendering is
    built only when the tree is new."""
    kids = tuple(sorted(children, key=_by_key))
    if not kids:
        return leaf(label)
    shape = (label, kids)
    t = _INTERN.get(shape)
    if t is None:
        degree = 1
        for c in kids:
            degree += c.degree
        t = Tree(label, kids, label + "[" + ",".join([c.key for c in kids]) + "]", degree)
        _INTERN[shape] = t
    return t


def graft_at(host, index, shoot):
    """Attach ``shoot`` as a new child of the vertex at preorder position ``index``.

    Positions follow the canonical preorder of the stored form, root = 0.
    Raises IndexError when the position is out of range.
    """
    if index < 0 or index >= host.degree:
        raise IndexError("vertex position %d out of range for degree %d" % (index, host.degree))
    return _graft(host, index, shoot)


def _graft(host, index, shoot):
    if index == 0:
        return node(host.label, host.children + (shoot,))
    index -= 1
    children = host.children
    for i in range(len(children)):
        c = children[i]
        if index < c.degree:
            return node(host.label, children[:i] + (_graft(c, index, shoot),) + children[i + 1 :])
        index -= c.degree
    raise IndexError("unreachable")


def root_graft(host, shoot):
    """Attach ``shoot`` as a new child of the root of ``host``."""
    return node(host.label, host.children + (shoot,))


def prelie_terms(host, shoot):
    """Grafts of ``shoot`` onto every vertex of ``host`` (one per position)."""
    return [_graft(host, i, shoot) for i in range(host.degree)]


def prelie_counts(host, shoot):
    """Multiset of grafts as a dict tree -> multiplicity."""
    out = {}
    for i in range(host.degree):
        t = _graft(host, i, shoot)
        out[t] = out.get(t, 0) + 1
    return out


def coproduct_terms(t):
    """Pairs (t minus one root subtree, that subtree), one per child position."""
    children = t.children
    out = []
    for i in range(len(children)):
        rest = node(t.label, children[:i] + children[i + 1 :])
        out.append((rest, children[i]))
    return out


def coproduct_counts(t):
    """Same as :func:`coproduct_terms` but accumulated into a dict pair -> count."""
    children = t.children
    out = {}
    for i in range(len(children)):
        pair = (node(t.label, children[:i] + children[i + 1 :]), children[i])
        out[pair] = out.get(pair, 0) + 1
    return out


def intern_size():
    """Number of distinct trees built so far."""
    return len(_INTERN)
