"""Machine-checkable identity suites.

Every identity the package implements is exposed here as an exhaustive
check over bounded tree sets, with exact rational equality (no tolerances
anywhere).  The CLI ``check`` command and the acceptance tests drive these
functions.  A check walks its cases through the one driver ``_run`` and
returns one CheckResult, carrying the first counterexample's rendering on
failure; a suite returns a list of them.  The pre-Lie, coalgebra and
distributive relations are the predicates of ``treelie.rigidity`` that
``validate`` also calls, here on the free tree algebra, and the pre-Lie and
permutative ones go through its walk ``symmetric_outcomes``.
"""

import functools
import itertools
import math
import operator
import random

from treelie import operads, tree_core
from treelie.freemod import (
    Element,
    Filtration,
    TensorElement,
    accumulate,
    expand_slot,
    is_invariant_1k,
    tensor,
)
from treelie.nap_coalgebra import (
    coproduct,
    coproduct_basis,
    insert_y,
    is_primitive,
    iterates,
    kronecker_pairing,
    tensor_pairing,
)
from treelie.prelie import bracket, module_action, nap_product
from treelie.rigidity import (
    FreeTreeAlgebra,
    PresentedAlgebra,
    Record,
    ak_apply,
    change_of_basis,
    coalgebra_relation_holds,
    decomposables_rank,
    degree_tuples,
    distributive_law_holds,
    evaluate_monomial,
    free_presentation,
    heap_coefficients,
    heap_coefficients_recursive,
    idempotent_e,
    mu_image_witness,
    mu_of_tensor,
    prelie_holds,
    primitives_basis,
    projector_image,
    reconstruct,
    symmetric_outcomes,
    uk_apply,
)

ONE_LETTER = ("a",)
TWO_LETTERS = ("a", "b")


class CheckResult(Record):
    _fields = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self):
        status = "ok" if self.ok else "FAIL"
        return "%s %s%s" % (status, self.name, (": " + self.detail) if self.detail else "")


def _run(name, outcomes, noun="cases"):
    """The one check driver: ``outcomes`` yields one item per case, ``None``
    for a pass or the failure message.  The first failure ends the check
    (``FAIL name: message``); otherwise the cases are counted
    (``ok name: K cases``, or ``K checks`` with ``noun="checks"``)."""
    count = 0
    for outcome in outcomes:
        if outcome is not None:
            return CheckResult(name, False, outcome)
        count += 1
    return CheckResult(name, True, "%d %s" % (count, noun))


# While ``run_suite`` runs: the free algebra on each alphabet, shared by its
# checks so that products, A_k and e(t) are computed once per run.
_shared = None


def _free(alphabet):
    """The free tree algebra on ``alphabet``: the shared one inside
    ``run_suite``, a fresh one outside it."""
    if _shared is None:
        return FreeTreeAlgebra(alphabet)
    alphabet = tuple(alphabet)
    alg = _shared.get(alphabet)
    if alg is None:
        alg = _shared[alphabet] = FreeTreeAlgebra(alphabet)
    return alg


def _basis_upto(alphabet, max_degree):
    out = []
    for d in range(1, max_degree + 1):
        out.extend(tree_core.enumerate_trees(alphabet, d))
    return out


def _by_first(tuples):
    """``(head, group)`` for each run of tuples with the same first key:
    ``degree_tuples`` is ordered by its first slot, so each key heads one run."""
    return itertools.groupby(tuples, key=operator.itemgetter(0))


def _iterates_upto(x, k_max):
    """[Delta^0(x), ..., Delta^k_max(x)], each one expansion of the one before."""
    return list(itertools.islice(iterates(x), k_max + 1))


# ---------------------------------------------------------------------------
# pre-Lie suite


def _at(outcomes):
    """``symmetric_outcomes`` as check outcomes: ``at (a, b, c)`` for a failing triple."""
    return (t and "at (%s, %s, %s)" % t for t in outcomes)


def check_prelie_relation(alphabet, total):
    cases = _at(symmetric_outcomes(_free(alphabet), total, prelie_holds))
    return _run("pre-Lie relation over %s, total degree <= %d" % (list(alphabet), total), cases)


def check_trick_formula(alphabet, total):
    """Peeling the last root subtree: B(v,T1..Tn) = B(v,T1..Tn-1) o Tn
    - sum_i B(v,..,Ti o Tn,..).  ``evaluate_monomial``, which ``reconstruct``
    runs, evaluates a tree by this formula; on the free algebra with every
    letter standing for itself it must return the tree.  By induction on
    (degree, arity), that is the formula on every tree of the set."""
    alg = _free(alphabet)
    reps = {a: Element.of(tree_core.leaf(a)) for a in alphabet}
    memo = {}

    def cases():
        for t in _basis_upto(alphabet, total):
            if t.arity < 1:
                continue
            yield None if evaluate_monomial(t, reps, alg, memo) == Element.of(t) else "at %s" % t

    return _run("root-subtree peeling formula, degree <= %d" % total, cases())


def check_freeness_dimensions(max_degree):
    expected = tree_core.count_trees(max_degree)

    def cases():
        for n in range(1, max_degree + 1):
            got = len(tree_core.enumerate_trees(ONE_LETTER, n))
            want = expected[n - 1]
            yield None if got == want else "degree %d: %d trees, recursion says %d" % (n, got, want)

    return _run("one-generator dimensions match the counting recursion", cases())


def check_module_axiom(seed):
    """Right-module law (m o l1) o l2 - (m o l2) o l1 = m o [l1, l2] on random
    small tensors."""
    rng = random.Random(seed)
    basis = _basis_upto(TWO_LETTERS, 2)

    def cases():
        for _ in range(25):
            rank = rng.randint(1, 3)
            m = TensorElement(rank, _random_terms(rng, basis, rank, -3))
            l1, l2 = Element.of(rng.choice(basis)), Element.of(rng.choice(basis))
            lhs = module_action(module_action(m, l1), l2) - module_action(module_action(m, l2), l1)
            rhs = module_action(m, bracket(l1, l2))
            yield None if lhs == rhs else "m=%s l1=%s l2=%s" % (m, l1, l2)

    return _run("tensor powers form a right module (seed %d)" % seed, cases())


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


def _nap_holds(alg, x, y, z):
    """Permutative relation (xy)z = (xz)y on basis trees, in ``prelie_holds``' shape."""
    ex, ey, ez = Element.of(x), Element.of(y), Element.of(z)
    return nap_product(nap_product(ex, ey), ez) == nap_product(nap_product(ex, ez), ey)


def check_nap_relation(alphabet, total):
    name = "permutative relation (xy)z = (xz)y over %s, total degree <= %d" % (list(alphabet), total)
    return _run(name, _at(symmetric_outcomes(_free(alphabet), total, _nap_holds)))


def suite_nap(max_degree, seed):
    return [
        check_nap_relation(ONE_LETTER, max_degree),
        check_nap_relation(TWO_LETTERS, max(2, max_degree - 1)),
    ]


# ---------------------------------------------------------------------------
# coalgebra suite


def check_nap_coalgebra_relation(alphabet, max_degree):
    alg = _free(alphabet)
    cases = (
        None if coalgebra_relation_holds(alg, t) else "at %s" % t for t in _basis_upto(alphabet, max_degree)
    )
    return _run("coalgebra relation (Id - swap23)(D (x) Id)D = 0, degree <= %d" % max_degree, cases)


def check_deltak_invariance(alphabet, max_degree, k_max):
    def cases():
        for t in _basis_upto(alphabet, max_degree):
            dt = _iterates_upto(Element.of(t), min(k_max, t.degree - 1))
            for k in range(1, len(dt)):
                dk = dt[k]
                if not dk.is_zero():
                    yield None if is_invariant_1k(dk) else "Delta^%d(%s)" % (k, t)

    name = "iterated coproducts land in the invariant subspace (degree <= %d, k <= %d)" % (max_degree, k_max)
    return _run(name, cases())


def check_deltak_bracketings(alphabet, max_degree, k_max):
    """Both recursions for Delta^{k+1} agree: expanding the first slot of
    Delta^k matches applying Delta first and expanding its left leg."""

    def cases():
        for t in _basis_upto(alphabet, max_degree):
            et = Element.of(t)
            dt = _iterates_upto(et, k_max + 1)
            split = coproduct(et)
            legs = functools.cache(lambda u: _iterates_upto(Element.of(u), k_max))
            for k in range(1, k_max + 1):
                # (Delta^k (x) Id) Delta: Delta^k spliced into the left slot
                right = expand_slot(split, 0, lambda u: legs(u)[k], k + 2)
                yield None if dt[k + 1] == right else "Delta^%d at %s" % (k + 1, t)

    return _run("the two coproduct recursions agree (degree <= %d, k <= %d)" % (max_degree, k_max), cases())


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
    # (p1 (x) p2) Delta: splice p2 into the right slot, then p1 into the left
    right = expand_slot(
        coproduct(x), 1, lambda v: _apply_cooperation(p2, Element.of(v)), 1 + _pattern_rank(p2)
    )
    return expand_slot(right, 0, lambda u: _apply_cooperation(p1, Element.of(u)), _pattern_rank(pattern))


def _pattern_rank(pattern):
    if pattern is None:
        return 1
    return _pattern_rank(pattern[0]) + _pattern_rank(pattern[1])


def check_cooperation_vanishing(max_degree):
    """Elements of filtration degree n are killed by every n-fold cooperation
    built from the coproduct."""
    filtration = Filtration(coproduct_basis, lambda d: tree_core.enumerate_trees(ONE_LETTER, d), max_degree)

    def cases():
        for t in _basis_upto(ONE_LETTER, max_degree):
            n = filtration.degree_of(Element.of(t))
            if n != t.degree:
                yield "filtration degree of %s is %s, expected %d" % (t, n, t.degree)
            for pattern in _cooperation_patterns(n):
                killed = _apply_cooperation(pattern, Element.of(t)).is_zero()
                yield None if killed else "cooperation %r does not kill %s" % (pattern, t)

    return _run("cooperation vanishing on filtration degree <= %d" % max_degree, cases())


def check_cofreeness_pairing(alphabet, max_degree):
    """The coproduct is the graded-dual transpose of the root graft.

    On the unordered tree basis the dual pairing carries automorphism
    weights, <S, T> = |Aut T| delta_{S,T}, so the duality reads
    |Aut A| |Aut B| <Delta(T), A (x) B> = |Aut T| <T, A . B>; the plain
    Kronecker form holds whenever all three automorphism groups are trivial.
    """
    name = "coproduct is the graded-dual transpose of the root graft (degree <= %d)" % max_degree
    return _run(name, cofreeness_outcomes(alphabet, max_degree))


def cofreeness_outcomes(alphabet, max_degree):
    """The cases of ``check_cofreeness_pairing``, one per triple (T, A, B)
    with degree(A) + degree(B) = degree(T), in the order of T, then of A,
    then of B.  Degree by degree, the pairs (A, B) are laid out once, with
    A (x) B, A . B and |Aut A| |Aut B|, and every tree T of that degree
    walks the table."""
    aut = {t: tree_core.automorphism_count(t) for t in _basis_upto(alphabet, max_degree)}
    for n in range(2, max_degree + 1):
        pairs = []
        for da in range(1, n):
            for a in tree_core.enumerate_trees(alphabet, da):
                ea = Element.of(a)
                for b in tree_core.enumerate_trees(alphabet, n - da):
                    eb = Element.of(b)
                    pairs.append((a, b, aut[a] * aut[b], tensor(ea, eb), nap_product(ea, eb)))
        for t in tree_core.enumerate_trees(alphabet, n):
            et = Element.of(t)
            d = coproduct(et)
            aut_t = aut[t]
            for a, b, aut_ab, ab, graft in pairs:
                lhs = tensor_pairing(d, ab)
                rhs = kronecker_pairing(et, graft)
                if aut_ab * lhs != aut_t * rhs:
                    yield "T=%s A=%s B=%s" % (t, a, b)
                elif aut_t == aut_ab == 1 and lhs != rhs:
                    yield "plain pairing: T=%s A=%s B=%s" % (t, a, b)
                else:
                    yield None


def check_primitives(alphabet, max_degree):
    def cases():
        for a in alphabet:
            yield None if is_primitive(Element.of(tree_core.leaf(a))) else "generator %s is not primitive" % a
        for t in _basis_upto(alphabet, max_degree):
            yield None if is_primitive(Element.of(t)) == (t.degree == 1) else "primitivity of %s" % t

    return _run("primitives are exactly the single vertices (degree <= %d)" % max_degree, cases())


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
    alg = _free(alphabet)
    cases = (
        None if distributive_law_holds(alg, x, y) else "at (%s, %s)" % (x, y)
        for x, y in degree_tuples(alg, 2, total)
    )
    return _run("D(x o y) = x (x) y + D(x) o y over %s, total degree <= %d" % (list(alphabet), total), cases)


def check_iterated_distributive_law(alphabet, total, k_max):
    alg = _free(alphabet)

    def cases():
        for x, pairs in _by_first(degree_tuples(alg, 2, total)):
            dx = _iterates_upto(Element.of(x), k_max)
            for _, y in pairs:
                ey = Element.of(y)
                dxy = _iterates_upto(alg.product_basis(x, y), k_max)
                for k in range(1, k_max + 1):
                    rhs = module_action(dx[k], ey, product=alg.product) + insert_y(ey, dx[k - 1])
                    yield None if dxy[k] == rhs else "k=%d at (%s, %s)" % (k, x, y)

    name = "iterated law D^k(x o y) = D^k(x) o y + insert_y(D^{k-1}(x)), total degree <= %d, k <= %d"
    return _run(name % (total, k_max), cases())


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
    alg = _free(alphabet)

    def cases():
        for t in _basis_upto(alphabet, max_degree):
            e_t = idempotent_e(Element.of(t), alg)
            if not alg.coproduct(e_t).is_zero():
                yield "D(e(%s)) != 0" % t
            yield None if idempotent_e(e_t, alg) == e_t else "e(e(%s)) != e(%s)" % (t, t)

    return _run("e projects onto primitives over %s (degree <= %d)" % (list(alphabet), max_degree), cases())


def check_annihilation(alphabet, total):
    alg = _free(alphabet)
    cases = (
        None if idempotent_e(alg.product_basis(x, y), alg).is_zero()
        else "e(%s o %s) != 0" % (x, y)
        for x, y in degree_tuples(alg, 2, total)
    )
    return _run("e kills products over %s (total degree <= %d)" % (list(alphabet), total), cases)


def check_decomposition(max_degree):
    """Primitive/decomposable splitting: dim e(H_n) + dim mu(H (x) H)_n = dim H_n,
    with the one-generator dims 1,1,2,4,9,20,... and primitives only in degree 1,
    where the image of e equals the primitives ker(Delta); plus the
    constructive witness mu(w) = x - e(x)."""
    alg = _free(ONE_LETTER)
    expected = tree_core.count_trees(max_degree)

    def cases():
        for n in range(1, max_degree + 1):
            dim = len(alg.basis(n))
            image = projector_image(alg, n)
            prim = len(image)
            dec = decomposables_rank(alg, n)
            if dim != expected[n - 1]:
                yield "degree %d: dim %d != %d" % (n, dim, expected[n - 1])
            if image != primitives_basis(alg, n):
                yield "degree %d: image of e differs from ker(Delta)" % n
            if prim != (1 if n == 1 else 0):
                yield "degree %d: primitive dim %d" % (n, prim)
            yield None if prim + dec == dim else "degree %d: %d + %d != %d" % (n, prim, dec, dim)
        for t in _basis_upto(ONE_LETTER, min(max_degree, 5)):
            w = mu_image_witness(Element.of(t), alg)
            ok = mu_of_tensor(w, alg) == Element.of(t) - idempotent_e(Element.of(t), alg)
            yield None if ok else "witness fails at %s" % t

    return _run("primitive/decomposable splitting up to degree %d" % max_degree, cases())


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
    alg = _free(ONE_LETTER)

    def cases():
        for t in _basis_upto(ONE_LETTER, max_degree):
            # step k reads Delta^k(t) and Delta^{k+1}(t), the next step's Delta^k
            dt = _iterates_upto(Element.of(t), k_max + 1)
            u = functools.cache(lambda k: uk_apply(dt[k], alg))
            invariant = functools.cache(lambda k: dt[k].is_zero() or is_invariant_1k(dt[k]))
            for k in range(1, k_max + 1):
                x = dt[k]
                if x.is_zero():
                    break  # so are all later iterates
                if not (invariant(k) and invariant(k + 1)):
                    yield "domain membership fails for Delta^%d(%s)" % (k, t)
                lhs = alg.coproduct(ak_apply(k + 1, x, alg))
                yield None if lhs == k * u(k) + u(k + 1) else "k=%d at %s" % (k, t)

    name = "coproduct of A_{k+1} splits through the U operators (degree <= %d, k <= %d)"
    return _run(name % (max_degree, k_max), cases())


def check_derivation_ak(max_degree, k_max):
    """(k+1) A_{k+1}(x o y) = A_{k+2}(insert_y(x)) for invariant x = Delta^k(T)."""
    alg = _free(ONE_LETTER)

    def cases():
        for t, pairs in _by_first(degree_tuples(alg, 2, max_degree)):
            dt = _iterates_upto(Element.of(t), k_max)
            for _, y in pairs:
                ey = Element.of(y)
                for k, x in enumerate(dt):
                    if not x.is_zero():
                        lhs = (k + 1) * ak_apply(k + 1, module_action(x, ey, product=alg.product), alg)
                        rhs = ak_apply(k + 2, insert_y(ey, x), alg)
                        yield None if lhs == rhs else "k=%d T=%s y=%s" % (k, t, y)

    name = "action/insertion exchange for A_k (total degree <= %d, k <= %d)" % (max_degree, k_max)
    return _run(name, cases())


def _symmetrize_tail(keys):
    """Sum over all permutations of every slot but the first."""
    head, tail = keys[0], list(keys[1:])
    perms = (((head,) + perm, 1) for perm in itertools.permutations(tail))
    return TensorElement._trusted(len(keys), accumulate({}, perms))


def check_petit_dernier(max_total, k_max):
    """sum_l binom(k, l-1) A_l(x_1..x_l) o A_{k+2-l}(y (x) x_{l+1}..x_{k+1})
    = A_{k+1}(x o y) on explicitly symmetrized tensors."""
    alg = _free(ONE_LETTER)

    def cases():
        for k in range(0, k_max + 1):
            rank = k + 1
            for keys_and_y in degree_tuples(alg, rank + 1, max_total):
                keys, y = keys_and_y[:rank], keys_and_y[rank]
                if list(keys[1:]) != sorted(keys[1:]):
                    continue  # one representative per symmetrized class
                x = _symmetrize_tail(keys)
                ey = Element.of(y)
                lhs = {}
                for tup, c in x.items():
                    for l in range(1, k + 2):
                        left = ak_apply(l, TensorElement.of(tup[:l]), alg)
                        right = ak_apply(
                            k + 2 - l, TensorElement.of((y,) + tup[l:]), alg
                        )
                        accumulate(lhs, alg.product(left, right).items(), c * math.comb(k, l - 1))
                rhs = ak_apply(k + 1, module_action(x, ey, product=alg.product), alg)
                ok = Element._trusted(lhs) == rhs
                yield None if ok else "k=%d keys=%s y=%s" % (k, [str(t) for t in keys], y)

    name = "split product expansion on symmetrized tensors (total degree <= %d, k <= %d)"
    return _run(name % (max_total, k_max), cases())


def check_mu_uk(seed):
    """mu . U_k = A_k on random rank-3 tensors."""
    alg = _free(TWO_LETTERS)
    rng = random.Random(seed)
    basis = _basis_upto(TWO_LETTERS, 2)

    def cases():
        for _ in range(20):
            x = TensorElement(3, _random_terms(rng, basis, 3, -2))
            yield None if mu_of_tensor(uk_apply(x, alg), alg) == ak_apply(3, x, alg) else "x=%s" % x

    return _run("the product of U_3 recovers A_3 (seed %d)" % seed, cases())


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
    def cases():
        for k in range(1, k_max + 1):
            ok = len(tree_core.enumerate_heap_ordered(k)) == math.factorial(k - 1)
            yield None if ok else "|HO(%d)| != %d" % (k, math.factorial(k - 1))
        for n in range(1, n_max + 1):
            ok = len(tree_core.enumerate_labeled(n)) == n ** (n - 1)
            yield None if ok else "|RT(%d)| != %d" % (n, n ** (n - 1))

    return _run("heap-ordered and labeled tree counts (k <= %d, n <= %d)" % (k_max, n_max), cases())


def check_heap_expansion(k_max):
    """The heap-ordered expansion of A_k: support inside HO(k), evaluation
    reproduces A_k on ordered generators, and the inductive rule agrees."""

    def cases():
        for k in range(1, k_max + 1):
            hc = heap_coefficients(k)
            if any(not u.is_heap_ordered() for u in hc.support()):
                yield "support of the A_%d expansion leaves HO(%d)" % (k, k)
            letters = ["x%d" % i for i in range(1, k + 1)]
            alg = _free(letters)
            direct = ak_apply(k, TensorElement.of(tuple(tree_core.leaf(a) for a in letters)), alg)
            if operads.evaluate_element(hc, letters) != direct:
                yield "evaluating the expansion differs from A_%d" % k
            ok = heap_coefficients_recursive(k) == hc
            yield None if ok else "inductive coefficients differ at k=%d" % k

    return _run("heap-ordered expansion of A_k (k <= %d)" % k_max, cases())


def check_operads(seed):
    results = [
        _run("%s composition axioms, arity <= 3" % name, operads.check_operad_axioms(parents, 3), "checks")
        for name, parents in (("permutative", operads.nap_parents), ("pre-Lie", operads.pl_parents))
    ]
    # arity-4 spot checks: sequential associativity on sampled triples
    rng = random.Random(seed)
    four = tree_core.enumerate_labeled(4)

    def cases():
        for compose in (operads.nap_compose, operads.pl_compose):
            for _ in range(15):
                t, s, r = rng.choice(four), rng.choice(four), rng.choice(four)
                i, j = rng.randint(1, 4), rng.randint(1, 4)
                ts = operads.compose_elements(compose, t, i, s)
                lhs = operads.compose_elements(compose, ts, i - 1 + j, r)
                rhs = operads.compose_elements(compose, t, i, operads.compose_elements(compose, s, j, r))
                yield None if lhs == rhs else "arity-4 associativity at %s o_%d %s o_%d %s" % (t, i, s, j, r)

    results.append(_run("arity-4 associativity spot checks (seed %d)" % seed, cases()))
    rejected = any(operads.check_operad_axioms(operads.corrupted_parents, 2))
    results.append(CheckResult("corrupted composition is rejected", rejected,
                               "" if rejected else "negative control passed the axioms"))
    results.append(_run("permutative presentation (relator + decomposition)",
                        operads.nap_presentation_check(5), "checks"))
    results.append(_run("operad words evaluate to the free products",
                        operads.evaluation_consistency_check(4), "checks"))
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
    expected = tree_core.count_trees(max_degree)
    for name, presented in (
        ("self-reconstruction of the one-generator tree algebra", alg),
        ("reconstruction after a seeded change of basis (seed %d)" % seed, change_of_basis(alg, seed)),
    ):
        rep = reconstruct(presented, max_degree)
        detail = "dims %s" % ",".join(str(d) for d in rep.dims()) if rep.ok else rep.summary().splitlines()[0]
        results.append(CheckResult(name, rep.ok and rep.dims() == expected, detail))
    # the perturbed basis element a[a] has degree 2
    degree = max(max_degree, 2)
    doc = (alg if degree == max_degree else free_presentation(ONE_LETTER, degree)).to_json()
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    bad = PresentedAlgebra.from_json(doc)
    rep3 = reconstruct(bad, degree)
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
    reconstruction block.  The checks of the run share one free algebra per
    alphabet, released when the run returns."""
    global _shared
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    _shared = {}
    try:
        if name != "all":
            return SUITES[name](max_degree, seed)
        out = []
        for key in sorted(SUITES):
            out.extend(SUITES[key](max_degree, seed))
        out.extend(suite_reconstruction(max_degree, seed))
        return out
    finally:
        _shared = None
