"""Machine-checkable identity suites.

Every identity the package implements is exposed here as an exhaustive
check over bounded tree sets, with exact rational equality (no tolerances
anywhere).  The CLI ``check`` command and the acceptance tests drive these
functions; each returns a list of CheckResult carrying a counterexample
rendering on failure.
"""

import itertools
import math
import random
from dataclasses import dataclass

from treelie import operads, tree_core
from treelie.freemod import (
    Element,
    Filtration,
    TensorElement,
    accumulate,
    expand_slot,
    is_invariant_1k,
    swap_slots,
    tensor,
)
from treelie.nap_coalgebra import (
    coproduct,
    coproduct_basis,
    delta_k,
    insert_y,
    is_primitive,
    kronecker_pairing,
    tensor_pairing,
)
from treelie.prelie import bracket, module_action, nap_product, prelie_product
from treelie.rigidity import (
    FreeTreeAlgebra,
    PresentedAlgebra,
    ak_apply,
    change_of_basis,
    decomposables_rank,
    free_presentation,
    heap_coefficients,
    heap_coefficients_recursive,
    idempotent_e,
    mu_image_witness,
    mu_of_tensor,
    primitives_basis,
    projector_image,
    reconstruct,
    uk_apply,
)

ONE_LETTER = ("a",)
TWO_LETTERS = ("a", "b")


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self):
        status = "ok" if self.ok else "FAIL"
        return "%s %s%s" % (status, self.name, (": " + self.detail) if self.detail else "")


def _result(name, failures, count):
    if failures:
        return CheckResult(name, False, failures[0])
    return CheckResult(name, True, "%d cases" % count)


def _basis_upto(alphabet, max_degree):
    out = []
    for d in range(1, max_degree + 1):
        out.extend(tree_core.enumerate_trees(alphabet, d))
    return out


def _tuples_with_total(alphabet, slots, total):
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


def _of(t):
    return Element.of(t)


# ---------------------------------------------------------------------------
# pre-Lie suite


def check_prelie_relation(alphabet, total):
    failures, count = [], 0
    for x, y, z in _tuples_with_total(alphabet, 3, total):
        ex, ey, ez = _of(x), _of(y), _of(z)
        lhs = prelie_product(prelie_product(ex, ey), ez) - prelie_product(ex, prelie_product(ey, ez))
        rhs = prelie_product(prelie_product(ex, ez), ey) - prelie_product(ex, prelie_product(ez, ey))
        count += 1
        if lhs != rhs:
            failures.append("at (%s, %s, %s)" % (x, y, z))
            break
    return _result("pre-Lie relation over %s, total degree <= %d" % (list(alphabet), total), failures, count)


def check_trick_formula(alphabet, total):
    """Peeling the last root subtree: B(v,T1..Tn) = B(v,T1..Tn-1) o Tn
    - sum_i B(v,..,Ti o Tn,..)."""
    failures, count = [], 0
    for t in _basis_upto(alphabet, total):
        if t.arity < 1:
            continue
        children = t.children
        head = tree_core.node(t.label, children[:-1])
        tail = children[-1]
        rhs = dict(prelie_product(_of(head), _of(tail)).terms)
        for i in range(len(children) - 1):
            corr = prelie_product(_of(children[i]), _of(tail))
            rest = children[i + 1 : -1]
            peeled = ((tree_core.node(t.label, children[:i] + (s,) + rest), c) for s, c in corr.items())
            accumulate(rhs, peeled, -1)
        count += 1
        if Element._trusted(rhs) != _of(t):
            failures.append("at %s" % t)
            break
    return _result("root-subtree peeling formula, degree <= %d" % total, failures, count)


def check_freeness_dimensions(max_degree):
    failures, count = [], 0
    expected = _rooted_tree_counts(max_degree)
    for n in range(1, max_degree + 1):
        count += 1
        got = len(tree_core.enumerate_trees(ONE_LETTER, n))
        if got != expected[n - 1]:
            failures.append("degree %d: %d trees, recursion says %d" % (n, got, expected[n - 1]))
    return _result("one-generator dimensions match the counting recursion", failures, count)


def _rooted_tree_counts(n_max):
    """Independent count of unlabeled rooted trees by the Euler-transform
    recursion a(n+1) = (1/n) sum_k (sum_{d|k} d a(d)) a(n-k+1)."""
    a = [0, 1]
    for n in range(1, n_max):
        s = 0
        for k in range(1, n + 1):
            div_sum = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
            s += div_sum * a[n - k + 1]
        a.append(s // n)
    return a[1 : n_max + 1]


def check_module_axiom(seed, samples=25):
    """Right-module law (m o l1) o l2 - (m o l2) o l1 = m o [l1, l2] on random
    small tensors."""
    rng = random.Random(seed)
    basis = _basis_upto(TWO_LETTERS, 2)
    failures, count = [], 0
    for _ in range(samples):
        rank = rng.randint(1, 3)
        m = TensorElement(rank, _random_terms(rng, basis, rank, -3))
        l1, l2 = _of(rng.choice(basis)), _of(rng.choice(basis))
        lhs = module_action(module_action(m, l1), l2) - module_action(module_action(m, l2), l1)
        rhs = module_action(m, bracket(l1, l2))
        count += 1
        if lhs != rhs:
            failures.append("m=%s l1=%s l2=%s" % (m, l1, l2))
            break
    return _result("tensor powers form a right module (seed %d)" % seed, failures, count)


def _random_terms(rng, basis, rank, low):
    """One to three random (key tuple, coefficient in low..3) terms, summed."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        keys = tuple(rng.choice(basis) for _ in range(rank))
        terms.append((keys, rng.randint(low, 3)))
    return accumulate({}, terms)


def suite_prelie(max_degree, seed):
    return [
        check_prelie_relation(ONE_LETTER, max_degree),
        check_prelie_relation(TWO_LETTERS, max(2, max_degree - 1)),
        check_trick_formula(ONE_LETTER, max_degree),
        check_freeness_dimensions(max_degree + 2),
        check_module_axiom(seed),
    ]


# ---------------------------------------------------------------------------
# NAP product suite


def check_nap_relation(alphabet, total):
    failures, count = [], 0
    for x, y, z in _tuples_with_total(alphabet, 3, total):
        lhs = nap_product(nap_product(_of(x), _of(y)), _of(z))
        rhs = nap_product(nap_product(_of(x), _of(z)), _of(y))
        count += 1
        if lhs != rhs:
            failures.append("at (%s, %s, %s)" % (x, y, z))
            break
    return _result("permutative relation (xy)z = (xz)y over %s, total degree <= %d" % (list(alphabet), total), failures, count)


def suite_nap(max_degree, seed):
    return [
        check_nap_relation(ONE_LETTER, max_degree),
        check_nap_relation(TWO_LETTERS, max(2, max_degree - 1)),
    ]


# ---------------------------------------------------------------------------
# coalgebra suite


def check_nap_coalgebra_relation(alphabet, max_degree):
    failures, count = [], 0
    for t in _basis_upto(alphabet, max_degree):
        t3 = expand_slot(coproduct_basis(t), 0, coproduct_basis, 3)
        count += 1
        if swap_slots(t3, 1, 2) != t3:
            failures.append("at %s" % t)
            break
    return _result("coalgebra relation (Id - swap23)(D (x) Id)D = 0, degree <= %d" % max_degree, failures, count)


def check_deltak_invariance(alphabet, max_degree, k_max):
    failures, count = [], 0
    for t in _basis_upto(alphabet, max_degree):
        for k in range(1, min(k_max, t.degree - 1) + 1):
            dk = delta_k(_of(t), k)
            if dk.is_zero():
                continue
            count += 1
            if not is_invariant_1k(dk):
                failures.append("Delta^%d(%s)" % (k, t))
                break
    return _result("iterated coproducts land in the invariant subspace (degree <= %d, k <= %d)" % (max_degree, k_max), failures, count)


def check_deltak_bracketings(alphabet, max_degree, k_max):
    """Both recursions for Delta^{k+1} agree: expanding the first slot of
    Delta^k matches applying Delta first and expanding its left leg."""
    failures, count = [], 0
    for t in _basis_upto(alphabet, max_degree):
        for k in range(1, k_max + 1):
            left = delta_k(_of(t), k + 1)
            d1 = coproduct(_of(t))
            via_right = {}
            for (u, v), c in d1.items():
                dku = delta_k(_of(u), k)
                accumulate(via_right, ((keys + (v,), cu) for keys, cu in dku.items()), c)
            count += 1
            if left != TensorElement._trusted(k + 2, via_right):
                failures.append("Delta^%d at %s" % (k + 1, t))
                break
    return _result("the two coproduct recursions agree (degree <= %d, k <= %d)" % (max_degree, k_max), failures, count)


def _cooperation_patterns(n):
    if n == 0:
        return [None]
    out = []
    for m in range(n):
        for p1 in _cooperation_patterns(m):
            for p2 in _cooperation_patterns(n - 1 - m):
                out.append((p1, p2))
    return out


def _apply_cooperation(pattern, x):
    if pattern is None:
        return TensorElement(1, {(k,): c for k, c in x.items()})
    p1, p2 = pattern
    acc = {}
    for (u, v), c in coproduct(x).items():
        t1 = _apply_cooperation(p1, _of(u))
        t2 = _apply_cooperation(p2, _of(v))
        accumulate(acc, ((k1 + k2, c1 * c2) for k1, c1 in t1.items() for k2, c2 in t2.items()), c)
    return TensorElement._trusted(_pattern_rank(pattern), acc)


def _pattern_rank(pattern):
    if pattern is None:
        return 1
    return _pattern_rank(pattern[0]) + _pattern_rank(pattern[1])


def check_cooperation_vanishing(max_degree):
    """Elements of filtration degree n are killed by every n-fold cooperation
    built from the coproduct."""
    failures, count = [], 0
    filtration = Filtration(coproduct_basis, lambda d: tree_core.enumerate_trees(ONE_LETTER, d), max_degree)
    for t in _basis_upto(ONE_LETTER, max_degree):
        n = filtration.degree_of(_of(t))
        if n != t.degree:
            failures.append("filtration degree of %s is %s, expected %d" % (t, n, t.degree))
            break
        for pattern in _cooperation_patterns(n):
            count += 1
            if not _apply_cooperation(pattern, _of(t)).is_zero():
                failures.append("cooperation %r does not kill %s" % (pattern, t))
                break
        if failures:
            break
    return _result("cooperation vanishing on filtration degree <= %d" % max_degree, failures, count)


def check_cofreeness_pairing(alphabet, max_degree):
    """The coproduct is the graded-dual transpose of the root graft.

    On the unordered tree basis the dual pairing carries automorphism
    weights, <S, T> = |Aut T| delta_{S,T}, so the duality reads
    |Aut A| |Aut B| <Delta(T), A (x) B> = |Aut T| <T, A . B>; the plain
    Kronecker form holds whenever all three automorphism groups are trivial.
    """
    failures, count = [], 0
    for t in _basis_upto(alphabet, max_degree):
        d = coproduct(_of(t))
        aut_t = tree_core.automorphism_count(t)
        for da in range(1, t.degree):
            for a in tree_core.enumerate_trees(alphabet, da):
                aut_a = tree_core.automorphism_count(a)
                for b in tree_core.enumerate_trees(alphabet, t.degree - da):
                    aut_b = tree_core.automorphism_count(b)
                    lhs = tensor_pairing(d, tensor(_of(a), _of(b)))
                    rhs = kronecker_pairing(_of(t), nap_product(_of(a), _of(b)))
                    count += 1
                    if aut_a * aut_b * lhs != aut_t * rhs:
                        failures.append("T=%s A=%s B=%s" % (t, a, b))
                        break
                    if aut_t == aut_a == aut_b == 1 and lhs != rhs:
                        failures.append("plain pairing: T=%s A=%s B=%s" % (t, a, b))
                        break
    return _result("coproduct is the graded-dual transpose of the root graft (degree <= %d)" % max_degree, failures, count)


def check_primitives(alphabet, max_degree):
    failures, count = [], 0
    for a in alphabet:
        count += 1
        if not is_primitive(_of(tree_core.leaf(a))):
            failures.append("generator %s is not primitive" % a)
    for t in _basis_upto(alphabet, max_degree):
        count += 1
        if is_primitive(_of(t)) != (t.degree == 1):
            failures.append("primitivity of %s" % t)
            break
    return _result("primitives are exactly the single vertices (degree <= %d)" % max_degree, failures, count)


def suite_coalgebra(max_degree, seed):
    return [
        check_nap_coalgebra_relation(ONE_LETTER, max_degree + 1),
        check_nap_coalgebra_relation(TWO_LETTERS, max(2, max_degree - 1)),
        check_deltak_invariance(ONE_LETTER, max_degree, 4),
        check_deltak_bracketings(ONE_LETTER, max(2, max_degree - 1), 3),
        check_cooperation_vanishing(min(max_degree, 4)),
        check_cofreeness_pairing(ONE_LETTER, max_degree),
        check_cofreeness_pairing(TWO_LETTERS, max(2, max_degree - 2)),
        check_primitives(TWO_LETTERS, max(2, max_degree - 2)),
    ]


# ---------------------------------------------------------------------------
# compatibility suite


def check_distributive_law(alphabet, total):
    failures, count = [], 0
    for x, y in _tuples_with_total(alphabet, 2, total):
        lhs = coproduct(prelie_product(_of(x), _of(y)))
        rhs = tensor(_of(x), _of(y)) + module_action(coproduct(_of(x)), _of(y))
        count += 1
        if lhs != rhs:
            failures.append("at (%s, %s)" % (x, y))
            break
    return _result("D(x o y) = x (x) y + D(x) o y over %s, total degree <= %d" % (list(alphabet), total), failures, count)


def check_iterated_distributive_law(alphabet, total, k_max):
    failures, count = [], 0
    for x, y in _tuples_with_total(alphabet, 2, total):
        for k in range(1, k_max + 1):
            lhs = delta_k(prelie_product(_of(x), _of(y)), k)
            rhs = module_action(delta_k(_of(x), k), _of(y)) + insert_y(_of(y), delta_k(_of(x), k - 1))
            count += 1
            if lhs != rhs:
                failures.append("k=%d at (%s, %s)" % (k, x, y))
                break
    return _result("iterated law D^k(x o y) = D^k(x) o y + insert_y(D^{k-1}(x)), total degree <= %d, k <= %d" % (total, k_max), failures, count)


def suite_dlaw(max_degree, seed):
    return [
        check_distributive_law(ONE_LETTER, max_degree),
        check_distributive_law(TWO_LETTERS, max(2, max_degree - 1)),
        check_iterated_distributive_law(ONE_LETTER, max_degree, 4),
        check_iterated_distributive_law(TWO_LETTERS, max(2, max_degree - 1), 4),
    ]


# ---------------------------------------------------------------------------
# fundamental projector suite


def check_projector(alphabet, max_degree):
    alg = FreeTreeAlgebra(alphabet)
    failures, count = [], 0
    for t in _basis_upto(alphabet, max_degree):
        e_t = idempotent_e(_of(t), alg)
        count += 1
        if not alg.coproduct(e_t).is_zero():
            failures.append("D(e(%s)) != 0" % t)
            break
        if idempotent_e(e_t, alg) != e_t:
            failures.append("e(e(%s)) != e(%s)" % (t, t))
            break
    return _result("e projects onto primitives over %s (degree <= %d)" % (list(alphabet), max_degree), failures, count)


def check_annihilation(alphabet, total):
    alg = FreeTreeAlgebra(alphabet)
    failures, count = [], 0
    for x, y in _tuples_with_total(alphabet, 2, total):
        count += 1
        if not idempotent_e(prelie_product(_of(x), _of(y)), alg).is_zero():
            failures.append("e(%s o %s) != 0" % (x, y))
            break
    return _result("e kills products over %s (total degree <= %d)" % (list(alphabet), total), failures, count)


def check_decomposition(max_degree):
    """Primitive/decomposable splitting: dim e(H_n) + dim mu(H (x) H)_n = dim H_n,
    with the one-generator dims 1,1,2,4,9,20,... and primitives only in degree 1,
    where the image of e equals the primitives ker(Delta); plus the
    constructive witness mu(w) = x - e(x)."""
    alg = FreeTreeAlgebra(ONE_LETTER)
    expected = _rooted_tree_counts(max_degree)
    failures, count = [], 0
    for n in range(1, max_degree + 1):
        dim = len(alg.basis(n))
        image = projector_image(alg, n)
        prim = len(image)
        dec = decomposables_rank(alg, n)
        count += 1
        if dim != expected[n - 1]:
            failures.append("degree %d: dim %d != %d" % (n, dim, expected[n - 1]))
            break
        if image != primitives_basis(alg, n):
            failures.append("degree %d: image of e differs from ker(Delta)" % n)
            break
        if prim != (1 if n == 1 else 0):
            failures.append("degree %d: primitive dim %d" % (n, prim))
            break
        if prim + dec != dim:
            failures.append("degree %d: %d + %d != %d" % (n, prim, dec, dim))
            break
    for t in _basis_upto(ONE_LETTER, min(max_degree, 5)):
        w = mu_image_witness(_of(t), alg)
        count += 1
        if mu_of_tensor(w, alg) != _of(t) - idempotent_e(_of(t), alg):
            failures.append("witness fails at %s" % t)
            break
    return _result("primitive/decomposable splitting up to degree %d" % max_degree, failures, count)


def suite_fundamental(max_degree, seed):
    return [
        check_projector(ONE_LETTER, max_degree),
        check_projector(TWO_LETTERS, max_degree),
        check_annihilation(ONE_LETTER, max_degree),
        check_annihilation(TWO_LETTERS, max_degree),
        check_decomposition(max_degree),
    ]


# ---------------------------------------------------------------------------
# splitting-operator identities


def check_delta_ak(max_degree, k_max):
    """D A_{k+1} = k U_{k+1} + U_{k+2}(D (x) Id^k) on iterated coproducts,
    whose membership in the invariant domain is asserted alongside."""
    alg = FreeTreeAlgebra(ONE_LETTER)
    failures, count = [], 0
    for t in _basis_upto(ONE_LETTER, max_degree):
        for k in range(1, k_max + 1):
            x = delta_k(_of(t), k)
            if x.is_zero():
                continue
            expanded = expand_slot(x, 0, coproduct_basis, k + 2)
            if not is_invariant_1k(x) or (
                not expanded.is_zero() and not is_invariant_1k(expanded)
            ):
                failures.append("domain membership fails for Delta^%d(%s)" % (k, t))
                break
            lhs = alg.coproduct(ak_apply(k + 1, x, alg))
            rhs = k * uk_apply(x, alg) + uk_apply(expanded, alg)
            count += 1
            if lhs != rhs:
                failures.append("k=%d at %s" % (k, t))
                break
    return _result("coproduct of A_{k+1} splits through the U operators (degree <= %d, k <= %d)" % (max_degree, k_max), failures, count)


def check_derivation_ak(max_degree, k_max):
    """(k+1) A_{k+1}(x o y) = A_{k+2}(insert_y(x)) for invariant x = Delta^k(T)."""
    alg = FreeTreeAlgebra(ONE_LETTER)
    failures, count = [], 0
    for t, y in _tuples_with_total(ONE_LETTER, 2, max_degree):
        for k in range(0, k_max + 1):
            x = delta_k(_of(t), k)
            if x.is_zero():
                continue
            lhs = (k + 1) * ak_apply(k + 1, module_action(x, _of(y)), alg)
            rhs = ak_apply(k + 2, insert_y(_of(y), x), alg)
            count += 1
            if lhs != rhs:
                failures.append("k=%d T=%s y=%s" % (k, t, y))
                break
    return _result("action/insertion exchange for A_k (total degree <= %d, k <= %d)" % (max_degree, k_max), failures, count)


def _symmetrize_tail(keys):
    """Sum over all permutations of every slot but the first."""
    head, tail = keys[0], list(keys[1:])
    perms = (((head,) + perm, 1) for perm in itertools.permutations(tail))
    return TensorElement._trusted(len(keys), accumulate({}, perms))


def check_petit_dernier(max_total, k_max):
    """sum_l binom(k, l-1) A_l(x_1..x_l) o A_{k+2-l}(y (x) x_{l+1}..x_{k+1})
    = A_{k+1}(x o y) on explicitly symmetrized tensors."""
    alg = FreeTreeAlgebra(ONE_LETTER)
    failures, count = [], 0
    for k in range(0, k_max + 1):
        rank = k + 1
        for keys_and_y in _tuples_with_total(ONE_LETTER, rank + 1, max_total):
            keys, y = keys_and_y[:rank], keys_and_y[rank]
            if list(keys[1:]) != sorted(keys[1:]):
                continue  # one representative per symmetrized class
            x = _symmetrize_tail(keys)
            ey = _of(y)
            lhs = {}
            for tup, c in x.items():
                for l in range(1, k + 2):
                    left = ak_apply(l, TensorElement.of(tup[:l]), alg)
                    right = ak_apply(
                        k + 2 - l, TensorElement.of((y,) + tup[l:]), alg
                    )
                    accumulate(lhs, prelie_product(left, right).items(), c * math.comb(k, l - 1))
            rhs = ak_apply(k + 1, module_action(x, ey), alg)
            count += 1
            if Element._trusted(lhs) != rhs:
                failures.append("k=%d keys=%s y=%s" % (k, [str(t) for t in keys], y))
                break
    return _result("split product expansion on symmetrized tensors (total degree <= %d, k <= %d)" % (max_total, k_max), failures, count)


def check_mu_uk(seed, samples=20):
    """mu . U_k = A_k on random rank-3 tensors."""
    alg = FreeTreeAlgebra(TWO_LETTERS)
    rng = random.Random(seed)
    basis = _basis_upto(TWO_LETTERS, 2)
    failures, count = [], 0
    for _ in range(samples):
        x = TensorElement(3, _random_terms(rng, basis, 3, -2))
        count += 1
        if mu_of_tensor(uk_apply(x, alg), alg) != ak_apply(3, x, alg):
            failures.append("x=%s" % x)
            break
    return _result("the product of U_3 recovers A_3 (seed %d)" % seed, failures, count)


def suite_section4(max_degree, seed):
    return [
        check_delta_ak(max_degree, 4),
        check_derivation_ak(max_degree, 3),
        check_petit_dernier(max(2, max_degree - 1), 3),
        check_mu_uk(seed),
    ]


# ---------------------------------------------------------------------------
# operad suite


def check_heap_counts(k_max, n_max):
    failures, count = [], 0
    for k in range(1, k_max + 1):
        count += 1
        if len(tree_core.enumerate_heap_ordered(k)) != math.factorial(k - 1):
            failures.append("|HO(%d)| != %d" % (k, math.factorial(k - 1)))
    for n in range(1, n_max + 1):
        count += 1
        if len(tree_core.enumerate_labeled(n)) != n ** (n - 1):
            failures.append("|RT(%d)| != %d" % (n, n ** (n - 1)))
    return _result("heap-ordered and labeled tree counts (k <= %d, n <= %d)" % (k_max, n_max), failures, count)


def check_heap_expansion(k_max):
    """The heap-ordered expansion of A_k: support inside HO(k), evaluation
    reproduces A_k on ordered generators, and the inductive rule agrees."""
    failures, count = [], 0
    for k in range(1, k_max + 1):
        hc = heap_coefficients(k)
        count += 1
        if any(not u.is_heap_ordered() for u in hc.coeffs):
            failures.append("support of the A_%d expansion leaves HO(%d)" % (k, k))
            break
        letters = ["x%d" % i for i in range(1, k + 1)]
        alg = FreeTreeAlgebra(letters)
        direct = ak_apply(k, TensorElement.of(tuple(tree_core.leaf(a) for a in letters)), alg)
        if hc.evaluate(letters) != direct:
            failures.append("evaluating the expansion differs from A_%d" % k)
            break
        if heap_coefficients_recursive(k).coeffs != hc.coeffs:
            failures.append("inductive coefficients differ at k=%d" % k)
            break
    return _result("heap-ordered expansion of A_k (k <= %d)" % k_max, failures, count)


def check_operads(seed, spot_samples=15):
    results = []
    for name, compose in (("permutative", operads.nap_compose), ("pre-Lie", operads.pl_compose)):
        rep = operads.check_operad_axioms(compose, 3)
        results.append(CheckResult("%s composition axioms, arity <= 3" % name, rep.ok,
                                   rep.failures[0] if rep.failures else "%d checks" % rep.checks))
    # arity-4 spot checks: sequential associativity on sampled triples
    rng = random.Random(seed)
    four = tree_core.enumerate_labeled(4)
    failures, count = [], 0
    for compose in (operads.nap_compose, operads.pl_compose):
        for _ in range(spot_samples):
            t, s, r = rng.choice(four), rng.choice(four), rng.choice(four)
            i, j = rng.randint(1, 4), rng.randint(1, 4)
            lhs = operads.compose_elements(compose, operads.compose_elements(compose, t, i, s), i - 1 + j, r)
            rhs = operads.compose_elements(compose, t, i, operads.compose_elements(compose, s, j, r))
            count += 1
            if lhs != rhs:
                failures.append("arity-4 associativity at %s o_%d %s o_%d %s" % (t, i, s, j, r))
                break
    results.append(_result("arity-4 associativity spot checks (seed %d)" % seed, failures, count))
    corrupted = operads.check_operad_axioms(operads.corrupted_compose, 2)
    results.append(CheckResult("corrupted composition is rejected", not corrupted.ok,
                               "" if not corrupted.ok else "negative control passed the axioms"))
    pres = operads.nap_presentation_check(5)
    results.append(CheckResult("permutative presentation (relator + decomposition)", pres.ok,
                               pres.failures[0] if pres.failures else "%d checks" % pres.checks))
    ev = operads.evaluation_consistency_check(4)
    results.append(CheckResult("operad words evaluate to the free products", ev.ok,
                               ev.failures[0] if ev.failures else "%d checks" % ev.checks))
    return results


def suite_operads(max_degree, seed):
    return check_operads(seed) + [
        check_heap_counts(min(max_degree + 2, 7), min(max_degree + 1, 6)),
        check_heap_expansion(5),
    ]


# ---------------------------------------------------------------------------
# reconstruction suite


def check_reconstruction(max_degree, seed):
    results = []
    alg = free_presentation(ONE_LETTER, max_degree)
    rep = reconstruct(alg, max_degree)
    expected = _rooted_tree_counts(max_degree)
    results.append(CheckResult(
        "self-reconstruction of the one-generator tree algebra",
        rep.ok and rep.dims() == expected,
        "dims %s" % ",".join(str(d) for d in rep.dims()) if rep.ok else rep.summary().splitlines()[0],
    ))
    twisted = change_of_basis(alg, seed)
    rep2 = reconstruct(twisted, max_degree)
    results.append(CheckResult(
        "reconstruction after a seeded change of basis (seed %d)" % seed,
        rep2.ok and rep2.dims() == expected,
        "dims %s" % ",".join(str(d) for d in rep2.dims()) if rep2.ok else rep2.summary().splitlines()[0],
    ))
    doc = alg.to_json()
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    bad = PresentedAlgebra.from_json(doc)
    rep3 = reconstruct(bad, max_degree)
    results.append(CheckResult(
        "perturbed coproduct is rejected at validation",
        bool(rep3.validation_failures) and not rep3.degrees,
        rep3.validation_failures[0] if rep3.validation_failures else "validation unexpectedly passed",
    ))
    return results


def suite_reconstruction(max_degree, seed):
    return check_reconstruction(min(max_degree, 5), seed)


SUITES = {
    "prelie": suite_prelie,
    "nap": suite_nap,
    "coalgebra": suite_coalgebra,
    "dlaw": suite_dlaw,
    "fundamental": suite_fundamental,
    "section4": suite_section4,
    "operads": suite_operads,
}


def run_suite(name, max_degree, seed):
    """Results for one named suite; ``all`` runs every suite plus the
    reconstruction block."""
    if name == "all":
        out = []
        for key in sorted(SUITES):
            out.extend(SUITES[key](max_degree, seed))
        out.extend(suite_reconstruction(max_degree, seed))
        return out
    fn = SUITES.get(name)
    if fn is None:
        raise KeyError(name)
    return fn(max_degree, seed)
