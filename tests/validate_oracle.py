"""The relation checks as they were written before ``rigidity.degree_tuples``
and the relation predicates: ``validate`` with its own pair and triple scans
over the whole basis, and the tree-tuple walker of ``checks``.  Kept as the
oracles for the differential tests."""

import math

from treelie import tree_core
from treelie.freemod import Element, Filtration, expand_slot, swap_slots, tensor
from treelie.prelie import module_action


def _basis_upto(alphabet, max_degree):
    out = []
    for d in range(1, max_degree + 1):
        out.extend(tree_core.enumerate_trees(alphabet, d))
    return out


def tuples_with_total(alphabet, slots, total):
    """Ordered tuples of basis trees with degree sum <= total."""
    basis = _basis_upto(alphabet, total - slots + 1)

    def rec(prefix, remaining, budget):
        if remaining == 0:
            yield prefix
            return
        for t in basis:
            if t.degree + (remaining - 1) > budget:
                continue
            yield from rec(prefix + (t,), remaining - 1, budget - t.degree)
    yield from rec((), slots, total)


def validate(alg, max_degree, limit=5):
    """Check grading, the pre-Lie relation, the permutative coalgebra relation,
    the compatibility law and connectedness on all basis data up to
    ``max_degree``.  Connectedness asks one ``Filtration`` for every basis
    element: its filtration degree must be finite and at most its degree.
    The Filtration is kept in ``alg.cache("filtration")`` under
    ``max_degree``, where ``primitives_basis`` finds it.
    Returns a list of failure descriptions (empty = valid).
    """
    failures = []

    def fail(msg):
        if len(failures) < limit:
            failures.append(msg)

    basis_upto = [b for d in range(1, max_degree + 1) for b in alg.basis(d)]

    # grading of the structure constants
    for a in basis_upto:
        for (u, v), _ in alg.coproduct_basis(a).items():
            if u.degree + v.degree != a.degree:
                fail("grading: coproduct of %s has term %s (x) %s" % (a, u, v))
    for a in basis_upto:
        for b in basis_upto:
            if a.degree + b.degree > max_degree:
                continue
            for t, _ in alg.product_basis(a, b).items():
                if t.degree != a.degree + b.degree:
                    fail("grading: product %s o %s has term %s" % (a, b, t))
    if failures:
        return failures

    # compatibility: Delta(a o b) = a (x) b + Delta(a) o b
    for a in basis_upto:
        for b in basis_upto:
            if a.degree + b.degree > max_degree:
                continue
            lhs = alg.coproduct(alg.product_basis(a, b))
            rhs = tensor(Element.of(a), Element.of(b)) + module_action(
                alg.coproduct_basis(a), Element.of(b), product=alg.product
            )
            if lhs != rhs:
                fail("distributive law fails at (%s, %s)" % (a, b))

    # permutative coalgebra relation (Id - swap23)(Delta (x) Id)Delta = 0
    for a in basis_upto:
        t3 = expand_slot(alg.coproduct_basis(a), 0, alg.coproduct_basis, 3)
        if swap_slots(t3, 1, 2) != t3:
            fail("coalgebra relation fails at %s" % a)
    if failures:
        return failures

    # pre-Lie relation on basis triples
    for a in basis_upto:
        for b in basis_upto:
            if a.degree + b.degree >= max_degree:
                continue
            ab = alg.product_basis(a, b)
            for c in basis_upto:
                if a.degree + b.degree + c.degree > max_degree:
                    continue
                ac = alg.product_basis(a, c)
                assoc1 = alg.product(ab, Element.of(c)) - alg.product(
                    Element.of(a), alg.product_basis(b, c)
                )
                assoc2 = alg.product(ac, Element.of(b)) - alg.product(
                    Element.of(a), alg.product_basis(c, b)
                )
                if assoc1 != assoc2:
                    fail("pre-Lie relation fails at (%s, %s, %s)" % (a, b, c))

    # connectedness: finite filtration degree for every basis element.  With
    # the grading checked and every degree >= 1, induction on the degree
    # gives H_d inside C_d, so the filtration degree is at most the degree.
    filtration = alg.cache("filtration")[max_degree] = Filtration(alg.coproduct_basis, alg.basis, max_degree)
    for a in basis_upto:
        n = filtration.degree_of(Element.of(a))
        if n is math.inf:
            fail("connectedness fails at %s" % a)
        elif n > a.degree:
            fail("filtration bound fails at %s: filtration degree %d exceeds degree %d" % (a, n, a.degree))
    return failures
