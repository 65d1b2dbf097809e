"""The permutative coproduct on rooted trees and its iterates.

On a basis tree the coproduct removes one root subtree at a time:
Delta(B(v,T1,...,Tn)) = sum_i B(v,T1,...,without Ti,...,Tn) (x) Ti, so single
vertices are primitive.  Iterates expand the first slot repeatedly; the
insertion operator delta_y plugs an element after each tensor position.
"""

from treelie import kernel
from treelie.freemod import TensorElement, accumulate, expand_slot, linear


def coproduct_basis(t):
    """Coproduct of a single basis tree as a rank-2 tensor."""
    return TensorElement._trusted(2, kernel.coproduct_counts(t))


def coproduct(x):
    """Linear extension of the root-subtree-removal coproduct."""
    return TensorElement._trusted(2, linear(kernel.coproduct_counts, x))


def delta_k(x, k):
    """k-th iterated coproduct of an Element, a tensor of rank k+1.

    Delta^0 is the identity (rank-1 tensor); higher iterates apply the
    coproduct to the first slot: Delta^{k+1} = (Delta (x) Id^k) Delta^k.
    """
    if k < 0:
        raise ValueError("k must be >= 0, got %d" % k)
    out = TensorElement(1, {(t,): c for t, c in x.items()})
    for step in range(k):
        out = expand_slot(out, 0, coproduct_basis, step + 2)
        if out.is_zero():
            return TensorElement(k + 1, {})
    return out


def insert_y(y, t):
    """delta_y: insert ``y`` after each of the k slots of a rank-k tensor,
    giving k summands of rank k+1."""
    if t.rank < 1:
        raise ValueError("insertion needs rank >= 1")
    acc = {}
    for keys, c in t.items():
        inserted = (
            (keys[:i] + (ky,) + keys[i:], cy) for i in range(1, t.rank + 1) for ky, cy in y.items()
        )
        accumulate(acc, inserted, c)
    return TensorElement._trusted(t.rank + 1, acc)


def is_primitive(x):
    """True iff the coproduct of ``x`` vanishes."""
    return coproduct(x).is_zero()


def kronecker_pairing(x, y):
    """<x, y> = sum over shared basis keys of the coefficient products."""
    if len(x.terms) > len(y.terms):
        x, y = y, x
    return sum((c * y.terms.get(k, 0) for k, c in x.items()), 0)


def tensor_pairing(t, u):
    """Kronecker pairing of two equal-rank tensors."""
    if t.rank != u.rank:
        raise ValueError("rank mismatch: %d vs %d" % (t.rank, u.rank))
    return kronecker_pairing(t, u)
