"""The coproduct iterates and the checks that read them, as they were before
each check read the iterates of an element once and its products through
the run's shared algebra.

``delta_k`` builds Delta^k from Delta^0 on every call, and
``delta_iterates`` is the loop ``rigidity`` used for ``e`` and the U-operator
witness.  The checks below recompute every iterate and product per case with
the free ``prelie_product`` and ``module_action``.  They read the kernel's
``prelie_counts`` and ``coproduct_counts`` at each call, so a test that
replaces either on ``treelie.kernel`` reaches them too.  The pre-Lie and
permutative relations are evaluated at every ordered triple, as before both
walked one equation per pair of triples that differ by swapping the last two.
"""

import math

from treelie.checks import _basis_upto, _free, _run, _symmetrize_tail
from treelie.freemod import Element, TensorElement, accumulate, expand_slot, is_invariant_1k
from treelie.nap_coalgebra import coproduct, coproduct_basis, insert_y
from treelie.prelie import module_action, nap_product, prelie_product
from treelie.rigidity import ValidationError, ak_apply, degree_tuples, idempotent_e, prelie_holds, uk_apply


def delta_k(x, k):
    if k < 0:
        raise ValueError("k must be >= 0, got %d" % k)
    out = TensorElement(1, {(t,): c for t, c in x.items()})
    for step in range(k):
        out = expand_slot(out, 0, coproduct_basis, step + 2)
        if out.is_zero():
            return TensorElement(k + 1, {})
    return out


def delta_iterates(t, alg):
    cur = TensorElement(1, {(t,): 1})
    k = 0
    while True:
        k += 1
        cur = expand_slot(cur, 0, alg.coproduct_basis, k + 1)
        if cur.is_zero():
            return
        if k > t.degree:
            raise ValidationError(
                ["coproduct iterates of %s do not terminate; the coalgebra is not connected" % t]
            )
        yield k, cur


def check_prelie_relation(alphabet, total):
    alg = _free(alphabet)
    cases = (
        None if prelie_holds(alg, x, y, z) else "at (%s, %s, %s)" % (x, y, z)
        for x, y, z in degree_tuples(alg, 3, total)
    )
    return _run("pre-Lie relation over %s, total degree <= %d" % (list(alphabet), total), cases)


def check_nap_relation(alphabet, total):
    def cases():
        for x, y, z in degree_tuples(_free(alphabet), 3, total):
            lhs = nap_product(nap_product(Element.of(x), Element.of(y)), Element.of(z))
            rhs = nap_product(nap_product(Element.of(x), Element.of(z)), Element.of(y))
            yield None if lhs == rhs else "at (%s, %s, %s)" % (x, y, z)

    name = "permutative relation (xy)z = (xz)y over %s, total degree <= %d" % (list(alphabet), total)
    return _run(name, cases())


def check_deltak_invariance(alphabet, max_degree, k_max):
    def cases():
        for t in _basis_upto(alphabet, max_degree):
            for k in range(1, min(k_max, t.degree - 1) + 1):
                dk = delta_k(Element.of(t), k)
                if not dk.is_zero():
                    yield None if is_invariant_1k(dk) else "Delta^%d(%s)" % (k, t)

    name = "iterated coproducts land in the invariant subspace (degree <= %d, k <= %d)" % (max_degree, k_max)
    return _run(name, cases())


def check_deltak_bracketings(alphabet, max_degree, k_max):
    def cases():
        for t in _basis_upto(alphabet, max_degree):
            for k in range(1, k_max + 1):
                left = delta_k(Element.of(t), k + 1)
                right = expand_slot(coproduct(Element.of(t)), 0, lambda u: delta_k(Element.of(u), k), k + 2)
                yield None if left == right else "Delta^%d at %s" % (k + 1, t)

    return _run("the two coproduct recursions agree (degree <= %d, k <= %d)" % (max_degree, k_max), cases())


def check_iterated_distributive_law(alphabet, total, k_max):
    def cases():
        for x, y in degree_tuples(_free(alphabet), 2, total):
            ex = Element.of(x)
            ey = Element.of(y)
            for k in range(1, k_max + 1):
                lhs = delta_k(prelie_product(ex, ey), k)
                rhs = module_action(delta_k(ex, k), ey) + insert_y(ey, delta_k(ex, k - 1))
                yield None if lhs == rhs else "k=%d at (%s, %s)" % (k, x, y)

    name = "iterated law D^k(x o y) = D^k(x) o y + insert_y(D^{k-1}(x)), total degree <= %d, k <= %d"
    return _run(name % (total, k_max), cases())


def check_annihilation(alphabet, total):
    alg = _free(alphabet)
    cases = (
        None if idempotent_e(prelie_product(Element.of(x), Element.of(y)), alg).is_zero()
        else "e(%s o %s) != 0" % (x, y)
        for x, y in degree_tuples(alg, 2, total)
    )
    return _run("e kills products over %s (total degree <= %d)" % (list(alphabet), total), cases)


def check_delta_ak(max_degree, k_max):
    alg = _free(("a",))

    def cases():
        for t in _basis_upto(("a",), max_degree):
            for k in range(1, k_max + 1):
                x = delta_k(Element.of(t), k)
                if x.is_zero():
                    continue
                expanded = expand_slot(x, 0, coproduct_basis, k + 2)
                if not is_invariant_1k(x) or (
                    not expanded.is_zero() and not is_invariant_1k(expanded)
                ):
                    yield "domain membership fails for Delta^%d(%s)" % (k, t)
                lhs = alg.coproduct(ak_apply(k + 1, x, alg))
                rhs = k * uk_apply(x, alg) + uk_apply(expanded, alg)
                yield None if lhs == rhs else "k=%d at %s" % (k, t)

    name = "coproduct of A_{k+1} splits through the U operators (degree <= %d, k <= %d)"
    return _run(name % (max_degree, k_max), cases())


def check_derivation_ak(max_degree, k_max):
    alg = _free(("a",))

    def cases():
        for t, y in degree_tuples(alg, 2, max_degree):
            for k in range(0, k_max + 1):
                x = delta_k(Element.of(t), k)
                if not x.is_zero():
                    lhs = (k + 1) * ak_apply(k + 1, module_action(x, Element.of(y)), alg)
                    rhs = ak_apply(k + 2, insert_y(Element.of(y), x), alg)
                    yield None if lhs == rhs else "k=%d T=%s y=%s" % (k, t, y)

    name = "action/insertion exchange for A_k (total degree <= %d, k <= %d)" % (max_degree, k_max)
    return _run(name, cases())


def check_petit_dernier(max_total, k_max):
    alg = _free(("a",))

    def cases():
        for k in range(0, k_max + 1):
            rank = k + 1
            for keys_and_y in degree_tuples(alg, rank + 1, max_total):
                keys, y = keys_and_y[:rank], keys_and_y[rank]
                if list(keys[1:]) != sorted(keys[1:]):
                    continue
                x = _symmetrize_tail(keys)
                ey = Element.of(y)
                lhs = {}
                for tup, c in x.items():
                    for l in range(1, k + 2):
                        left = ak_apply(l, TensorElement.of(tup[:l]), alg)
                        right = ak_apply(k + 2 - l, TensorElement.of((y,) + tup[l:]), alg)
                        accumulate(lhs, prelie_product(left, right).items(), c * math.comb(k, l - 1))
                rhs = ak_apply(k + 1, module_action(x, ey), alg)
                ok = Element._trusted(lhs) == rhs
                yield None if ok else "k=%d keys=%s y=%s" % (k, [str(t) for t in keys], y)

    name = "split product expansion on symmetrized tensors (total degree <= %d, k <= %d)"
    return _run(name % (max_total, k_max), cases())
