"""Products on the free algebras of rooted trees.

The grafting sum over all vertices realizes the free pre-Lie product; the
single root graft realizes the free permutative (NAP) product.  Both extend
bilinearly to Elements, and the tensor powers become right modules through
slot-wise derivation.
"""

from treelie import kernel
from treelie.freemod import Element, TensorElement, accumulate


def prelie_product(x, y):
    """Pre-Lie product: sum of grafts of each y-term onto every vertex of each x-term."""
    acc = {}
    for s, cs in x.items():
        for t, ct in y.items():
            accumulate(acc, kernel.prelie_counts(s, t).items(), cs * ct)
    return Element._trusted(acc)


def nap_product(x, y):
    """NAP product: graft each y-term onto the root of each x-term."""
    grafts = ((kernel.root_graft(s, t), cs * ct) for s, cs in x.items() for t, ct in y.items())
    return Element._trusted(accumulate({}, grafts))


def bracket(x, y):
    """Lie bracket x o y - y o x of the pre-Lie product."""
    return prelie_product(x, y) - prelie_product(y, x)


def module_action(m, y, product=prelie_product):
    """Right action of an Element on a tensor power by derivation:
    (x1 (x) ... (x) xn) o y = sum_i x1 (x) ... (x) xi o y (x) ... (x) xn.

    ``product`` defaults to the free pre-Lie product; pass an algebra's own
    bilinear product to act in a presented algebra.
    """
    acc = {}
    for keys, c in m.items():
        for i in range(m.rank):
            head, tail = keys[:i], keys[i + 1 :]
            hit = product(Element.of(keys[i]), y)
            accumulate(acc, ((head + (k2,) + tail, c2) for k2, c2 in hit.items()), c)
    return TensorElement._trusted(m.rank, acc)
