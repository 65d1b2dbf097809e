"""Rigidity structure: the splitting operators A_k, the primitive projector,
and reconstruction of a presented algebra as a free one.

``Algebra`` is the one interface every algebra here implements: a subclass
supplies ``basis(degree)``, ``product_basis(a, b)`` and ``coproduct_basis(a)``
on basis keys, and the base extends them bilinearly (``product``) and
linearly (``coproduct``) and keeps named per-algebra caches.  The two
subclasses are the free tree algebra and a presented algebra.

A "presented algebra" is a graded vector space with finitely many basis
names per degree plus structure constants for a binary product and a binary
coproduct.  After validating the grading, the pre-Lie relation, the
permutative coalgebra relation and the product/coproduct compatibility law
(connectedness follows from the grading, since every degree is at least 1),
the reconstruction builds the unique algebra morphism from the free pre-Lie
algebra on the primitives and reports, degree by degree, whether it is an
isomorphism that also intertwines the coproducts.
"""

import functools
import itertools
import json
import math
import random
import reprlib
from fractions import Fraction

from treelie import kernel, tree_core
from treelie.freemod import (
    Element,
    Filtration,
    TensorElement,
    accumulate,
    bilinear,
    expand_slot,
    linear,
    parse_rational,
    rank_of_family,
    render_rational,
    rref,
    sparse_nullspace,
    swap_slots,
    tensor,
)
from treelie.nap_coalgebra import coproduct_basis as _tree_coproduct_basis
from treelie.prelie import module_action, prelie_product


class ValidationError(ValueError):
    """A presented algebra failed its hypothesis checks."""

    def __init__(self, failures):
        super().__init__(failures[0] if failures else "validation failed")
        self.failures = list(failures)


class Algebra:
    """Bilinear structure over basis maps, written once for every algebra.

    Subclasses define ``basis(degree)``, ``product_basis(a, b)`` (an
    Element) and ``coproduct_basis(a)`` (a rank-2 TensorElement) on basis
    keys, and set ``self._caches = {}`` in their ``__init__``.
    """

    def cache(self, name):
        return self._caches.setdefault(name, {})

    def product(self, x, y):
        return Element._trusted(bilinear(self.product_basis, x, y))

    def coproduct(self, x):
        return TensorElement._trusted(2, linear(self.coproduct_basis, x))


def degree_tuples(alg, slots, total):
    """Ordered ``slots``-tuples of basis keys of ``alg`` with degree sum at most
    ``total``, in lexicographic order of the degree-sorted basis.  Every degree
    is at least 1, so each slot reads ``alg.basis(d)`` bucket by bucket and
    stops at the first bucket that leaves no degree for the slots after it."""
    buckets = [alg.basis(d) for d in range(1, total - slots + 2)]

    def walk(remaining, budget):
        if remaining == 0:
            yield ()
            return
        for d in range(1, budget - remaining + 2):
            for a in buckets[d - 1]:
                for rest in walk(remaining - 1, budget - d):
                    yield (a,) + rest

    return walk(slots, total)


def prelie_triples(alg, total):
    """The triples ``(a, b, c)`` of ``degree_tuples(alg, 3, total)`` with ``b``
    strictly before ``c`` in the degree-sorted basis, in the same order: one
    of each pair ``(a, b, c)``, ``(a, c, b)``, and none with ``b == c``."""
    buckets = [alg.basis(d) for d in range(1, total - 1)]
    flat = [k for keys in buckets for k in keys]
    upto = list(itertools.accumulate(map(len, buckets)))  # upto[d - 1]: keys of degree <= d
    for a in flat:
        budget = total - a.degree
        for i, b in enumerate(flat):
            rest = budget - b.degree
            if rest < b.degree:
                break
            for c in flat[i + 1 : upto[rest - 1]]:
                yield a, b, c


def prelie_holds(alg, a, b, c):
    """Pre-Lie relation: the associator (a o b) o c - a o (b o c) is symmetric in b and c."""
    ea, eb, ec = Element.of(a), Element.of(b), Element.of(c)
    assoc1 = alg.product(alg.product_basis(a, b), ec) - alg.product(ea, alg.product_basis(b, c))
    assoc2 = alg.product(alg.product_basis(a, c), eb) - alg.product(ea, alg.product_basis(c, b))
    return assoc1 == assoc2


def coalgebra_relation_holds(alg, a):
    """Permutative coalgebra relation (Id - swap23)(Delta (x) Id)Delta(a) = 0."""
    t3 = expand_slot(alg.coproduct_basis(a), 0, alg.coproduct_basis, 3)
    return swap_slots(t3, 1, 2) == t3


def distributive_law_holds(alg, a, b):
    """Compatibility law Delta(a o b) = a (x) b + Delta(a) o b."""
    eb = Element.of(b)
    rhs = tensor(Element.of(a), eb) + module_action(alg.coproduct_basis(a), eb, product=alg.product)
    return alg.coproduct(alg.product_basis(a, b)) == rhs


class FreeTreeAlgebra(Algebra):
    """The free pre-Lie algebra / permutative coalgebra on labeled rooted trees.

    Serves as the product/coproduct oracle for the operators below; basis
    keys are kernel trees over a fixed finite alphabet.
    """

    def __init__(self, alphabet):
        self.alphabet = tuple(sorted({tree_core.check_label(a) for a in alphabet}))
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        self._caches = {}

    def basis(self, degree):
        return tree_core.enumerate_trees(self.alphabet, degree)

    def product_basis(self, s, t):
        cache = self.cache("product")
        got = cache.get((s, t))
        if got is None:
            got = Element._trusted(kernel.prelie_counts(s, t))
            cache[(s, t)] = got
        return got

    def coproduct_basis(self, t):
        return _tree_coproduct_basis(t)


@functools.total_ordering
class BasisKey:
    """Named basis element of a presented algebra; ordered by (degree, name).

    Immutable; equality, ordering, hash and ``repr`` are those of a frozen,
    ordered dataclass with the fields ``degree`` and ``name``.  The hash is
    computed once, since the structure-constant loops hash keys millions of
    times.
    """

    __slots__ = ("degree", "name", "_hash")

    def __init__(self, degree, name):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((degree, name)))

    def __str__(self):
        return self.name

    def __repr__(self):
        return "%s(degree=%r, name=%r)" % (type(self).__qualname__, self.degree, self.name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.name) == (other.degree, other.name)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.name) < (other.degree, other.name)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# The zero structure constants every absent product and coproduct entry
# shares; no caller writes to an Element it did not build.
_ZERO = Element()
_ZERO_TENSOR = TensorElement(2)


class PresentedAlgebra(Algebra):
    """Graded algebra/coalgebra given by basis names and structure constants.

    ``generators`` maps degree -> list of names; ``product`` maps a name pair
    to a dict name -> coefficient; ``coproduct`` maps a name to a dict
    (name, name) -> coefficient.  Unspecified entries are zero.
    """

    def __init__(self, generators, product, coproduct):
        self._by_degree = {}
        self._by_name = {}
        for d in sorted(generators):
            names = list(generators[d])
            if d < 1:
                raise ValueError("generator degrees must be >= 1, got %d" % d)
            keys = []
            for name in names:
                if name in self._by_name:
                    raise ValueError("duplicate basis name %r" % name)
                key = BasisKey(int(d), str(name))
                self._by_name[name] = key
                keys.append(key)
            self._by_degree[int(d)] = keys
        self._product = {}
        for (a, b), terms in product.items():
            self._require(a), self._require(b)
            elem = Element({self._require(n): c for n, c in terms.items()})
            if not elem.is_zero():
                self._product[(a, b)] = elem
        self._coproduct = {}
        for a, terms in coproduct.items():
            self._require(a)
            tens = TensorElement(
                2, {(self._require(u), self._require(v)): c for (u, v), c in terms.items()}
            )
            if not tens.is_zero():
                self._coproduct[a] = tens
        self._caches = {}

    def _require(self, name):
        key = self._by_name.get(name)
        if key is None:
            raise ValueError("unknown basis name %r" % name)
        return key

    @property
    def max_degree(self):
        return max(self._by_degree, default=0)

    def degrees(self):
        return sorted(self._by_degree)

    def basis(self, degree):
        return list(self._by_degree.get(degree, ()))

    def key(self, name):
        return self._require(name)

    def product_basis(self, a, b):
        return self._product.get((a.name, b.name), _ZERO)

    def coproduct_basis(self, a):
        return self._coproduct.get(a.name, _ZERO_TENSOR)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        gens = {str(d): [k.name for k in self._by_degree[d]] for d in sorted(self._by_degree)}
        prod = {}
        for (a, b) in sorted(self._product):
            elem = self._product[(a, b)]
            prod.setdefault(a, {})[b] = [
                [render_rational(c), k.name] for k, c in elem.sorted_items()
            ]
        cop = {}
        for a in sorted(self._coproduct):
            tens = self._coproduct[a]
            cop[a] = [
                [render_rational(c), u.name, v.name] for (u, v), c in tens.sorted_items()
            ]
        return {"generators": gens, "product": prod, "coproduct": cop}

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("presented algebra document must be a JSON object")
        try:
            generators = {}
            for d, names in doc.get("generators", {}).items():
                if type(names) is not list or not set(map(type, names)) <= {str}:
                    raise _malformed("generators of degree %s" % d, "an array of strings", names)
                if str(int(d)) != d:  # so that no two keys name one degree
                    raise _malformed("generator degree", "an integer in canonical decimal form", d)
                generators[int(d)] = names
            named = []  # every name a term mentions, checked even if its sum is zero
            product = {}
            for a, by_right in doc.get("product", {}).items():
                for b, terms in by_right.items():
                    terms = _terms(terms, 2, "product of %r and %r", a, b)
                    pairs = [(name, parse_rational(c)) for c, name in terms]
                    named.extend(name for name, _ in pairs)
                    product[(a, b)] = accumulate({}, pairs)
            coproduct = {}
            for a, terms in doc.get("coproduct", {}).items():
                pairs = [((u, v), parse_rational(c)) for c, u, v in _terms(terms, 3, "coproduct of %r", a)]
                named.extend(name for pair, _ in pairs for name in pair)
                coproduct[a] = accumulate({}, pairs)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError("malformed presented algebra document: %s" % exc) from exc
        alg = cls(generators, product, coproduct)
        for name in named:
            alg.key(name)
        return alg

    def write(self, stream):
        """Write the document ``load`` reads: indented, keys sorted, one
        trailing newline."""
        json.dump(self.to_json(), stream, indent=1, sort_keys=True)
        stream.write("\n")

    def dump(self, path):
        with open(path, "w") as fh:
            self.write(fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                doc = json.load(fh, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ValueError("invalid JSON in %s: %s" % (path, exc)) from exc
            except RecursionError as exc:
                raise ValueError("JSON nested too deeply in %s" % path) from exc
        return cls.from_json(doc)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key given twice, which ``json``
    would otherwise resolve silently to its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError("malformed presented algebra document: repeated key %s" % reprlib.repr(repeated))
    return doc


def _malformed(where, expected, value):
    return ValueError("%s: expected %s, got %s" % (where, expected, reprlib.repr(value)))


def _terms(terms, width, where, *keys):
    """``terms``, checked to be a JSON array of arrays of ``width`` strings
    (``where % keys`` names it in the error): a string or object in place of
    an array would be misread item by item."""
    if type(terms) is not list:
        raise _malformed(where % keys, "an array of terms", terms)
    for t in terms:
        if type(t) is not list or len(t) != width or not set(map(type, t)) <= {str}:
            raise _malformed("a term of the " + where % keys, "an array of %d strings" % width, t)
    return terms


def free_presentation(alphabet, max_degree):
    """Structure constants of the free tree algebra, truncated at ``max_degree``.

    Basis names are the canonical tree renderings.
    """
    alg = FreeTreeAlgebra(alphabet)
    generators = {d: [t.key for t in alg.basis(d)] for d in range(1, max_degree + 1)}
    product = {}
    coproduct = {}
    for d1 in range(1, max_degree + 1):
        for s in alg.basis(d1):
            cop = alg.coproduct_basis(s)
            if not cop.is_zero():
                coproduct[s.key] = {(u.key, v.key): c for (u, v), c in cop.items()}
            for d2 in range(1, max_degree - d1 + 1):
                for t in alg.basis(d2):
                    prod = alg.product_basis(s, t)
                    product[(s.key, t.key)] = {g.key: c for g, c in prod.items()}
    return PresentedAlgebra(generators, product, coproduct)


def change_of_basis(alg, seed):
    """Conjugate all structure constants by a random degree-preserving
    invertible map (seeded, exact); returns a new PresentedAlgebra whose
    basis elements are named ``f<degree>_<index>``.

    Each degree's map is a product of elementary row additions, so it has
    determinant 1 and an integer inverse, built alongside it by undoing each
    row operation on the right.  An integral algebra (such as a free one)
    therefore keeps integral structure constants, all of them ``int``."""
    rng = random.Random(seed)
    degrees = alg.degrees()
    mats, invs = {}, {}
    for d in degrees:
        m = len(alg.basis(d))
        mat = [[int(i == j) for j in range(m)] for i in range(m)]
        inv = [list(row) for row in mat]
        for _ in range(3 * m):
            i, j = rng.randrange(m), rng.randrange(m)
            if i == j:
                continue
            lam = rng.choice([-2, -1, 1, 2])
            mat[j] = [a + lam * b for a, b in zip(mat[j], mat[i])]
            # mat became E @ mat with E = I + lam e_j e_i^T, so inv becomes inv @ E^-1
            for row in inv:
                row[i] -= lam * row[j]
        mats[d] = mat
        invs[d] = inv

    names = {d: ["f%d_%d" % (d, i) for i in range(len(alg.basis(d)))] for d in degrees}
    # old basis key -> its coordinates in the new basis: a sparse column of the inverse
    column = {
        k: {names[d][i]: row[j] for i, row in enumerate(invs[d]) if row[j]}
        for d in degrees
        for j, k in enumerate(alg.basis(d))
    }

    def to_new(x):
        """Element over old keys -> Element over the new basis names."""
        return Element._trusted(linear(column.__getitem__, x))

    def psi(d, i):
        """New basis vector i of degree d as an Element over old keys."""
        basis = alg.basis(d)
        return Element({basis[j]: mats[d][j][i] for j in range(len(basis))})

    generators = {d: list(names[d]) for d in degrees}
    product = {}
    coproduct = {}
    for d1 in degrees:
        for i in range(len(names[d1])):
            cop = alg.coproduct(psi(d1, i))
            terms = linear(lambda uv: tensor(to_new(Element.of(uv[0])), to_new(Element.of(uv[1]))), cop)
            if terms:
                coproduct[names[d1][i]] = terms
            for d2 in degrees:
                if d1 + d2 > alg.max_degree:
                    continue
                for j in range(len(names[d2])):
                    prod = alg.product(psi(d1, i), psi(d2, j))
                    product[(names[d1][i], names[d2][j])] = to_new(prod)
    return PresentedAlgebra(generators, product, coproduct)


# ---------------------------------------------------------------------------
# validation of the hypotheses


def validate(alg, max_degree, limit=5):
    """Check grading, the compatibility law, the permutative coalgebra
    relation and the pre-Lie relation on all basis data up to ``max_degree``.
    Returns a list of failure descriptions (empty = valid).

    Connectedness needs no pass of its own: once the grading is checked, the
    coproduct of a degree-``d`` key lies in ``sum H_i (x) H_{d-i}`` with
    ``i, d - i >= 1`` (every degree is at least 1), so by induction on ``d``
    every basis element has filtration degree at most its degree.
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
    for a, b in degree_tuples(alg, 2, max_degree):
        for t, _ in alg.product_basis(a, b).items():
            if t.degree != a.degree + b.degree:
                fail("grading: product %s o %s has term %s" % (a, b, t))
    if failures:
        return failures

    for a, b in degree_tuples(alg, 2, max_degree):
        if not distributive_law_holds(alg, a, b):
            fail("distributive law fails at (%s, %s)" % (a, b))
    for a in basis_upto:
        if not coalgebra_relation_holds(alg, a):
            fail("coalgebra relation fails at %s" % a)
    if failures:
        return failures

    # the relation at (a, b, c) and at (a, c, b) is one equation, and holds
    # when b == c; only on a failure are all ordered triples walked, so that
    # the failures are listed in that walk's order
    if not all(prelie_holds(alg, a, b, c) for a, b, c in prelie_triples(alg, max_degree)):
        for a, b, c in degree_tuples(alg, 3, max_degree):
            if not prelie_holds(alg, a, b, c):
                fail("pre-Lie relation fails at (%s, %s, %s)" % (a, b, c))
    return failures


# ---------------------------------------------------------------------------
# the operators A_k, U_k and the projector


def _ak_tuple(keys, alg, cache):
    got = cache.get(keys)
    if got is None:
        k = len(keys)
        if k == 1:
            got = Element.of(keys[0])
        else:
            acc = {}
            for l in range(1, k):
                left = _ak_tuple(keys[:l], alg, cache)
                right = _ak_tuple(keys[l:], alg, cache)
                accumulate(acc, alg.product(left, right).items(), math.comb(k - 2, l - 1))
            got = Element._trusted(acc)
        cache[keys] = got
    return got


def ak_apply(k, x, alg):
    """Apply A_k to a rank-k tensor: A_1 = Id, A_2 = the product, and
    A_{k+1} = sum_l binom(k-1, l-1) mu(A_l (x) A_{k+1-l})."""
    if x.rank != k:
        raise ValueError("rank mismatch: A_%d applied to rank %d" % (k, x.rank))
    cache = alg.cache("ak")
    return Element._trusted(linear(lambda keys: _ak_tuple(keys, alg, cache), x))


def uk_apply(x, alg):
    """Apply U_k (k = rank of x >= 2): sum_l binom(k-2, l-1) A_l (x) A_{k-l},
    so that mu . U_k = A_k."""
    k = x.rank
    if k < 2:
        raise ValueError("U_k needs rank >= 2, got %d" % k)
    cache = alg.cache("ak")
    acc = {}
    for keys, c in x.items():
        for l in range(1, k):
            left = _ak_tuple(keys[:l], alg, cache)
            right = _ak_tuple(keys[l:], alg, cache)
            accumulate(acc, tensor(left, right).items(), c * math.comb(k - 2, l - 1))
    return TensorElement._trusted(2, acc)


def mu_of_tensor(w, alg):
    """Apply the product to each pair of a rank-2 tensor."""
    if w.rank != 2:
        raise ValueError("expected rank 2, got %d" % w.rank)
    return Element._trusted(linear(lambda uv: alg.product_basis(*uv), w))


def _delta_iterates(t, alg):
    """Yield (k, Delta^k(t)) for k = 1, 2, ... until the iterate vanishes."""
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


def idempotent_e(x, alg):
    """The projector e(x) = x + sum_k ((-1)^k / k!) A_{k+1}(Delta^k(x)).

    The sum is finite because the iterated coproduct of a connected element
    vanishes beyond its filtration degree.  Basis values are cached on the
    algebra, so linear extension is cheap.  A basis value is summed as n! e(t)
    with n = degree(t): the iterates stop at k <= n, so every weight n!/k!
    is an integer, and each term is divided by n! once at the end.
    """
    cache = alg.cache("e")

    def on_basis(t):
        got = cache.get(t)
        if got is None:
            n = math.factorial(t.degree)
            terms = {t: n}
            for k, dk in _delta_iterates(t, alg):
                accumulate(terms, ak_apply(k + 1, dk, alg).items(), (-1) ** k * (n // math.factorial(k)))
            terms = {s: c // n if c % n == 0 else Fraction(c, n) for s, c in terms.items()}
            got = cache[t] = Element._trusted(terms)
        return got

    return Element._trusted(linear(on_basis, x))


def mu_image_witness(x, alg):
    """Rank-2 tensor w with mu(w) = x - e(x), built from the U operators."""
    acc = {}
    for t, c in x.items():
        for k, dk in _delta_iterates(t, alg):
            accumulate(acc, uk_apply(dk, alg).items(), -c * Fraction((-1) ** k, math.factorial(k)))
    return TensorElement._trusted(2, acc)


def primitives_basis(alg, degree):
    """Reduced echelon basis of the primitives ``ker Delta`` in degree
    ``degree``: the space ``C_1`` of a Filtration up to the degree, which
    lays out the coproducts of that degree only.  On an algebra that passes
    ``validate`` this is also the image of the projector e (see
    ``projector_image``)."""
    if not alg.basis(degree):
        return []
    return Filtration(alg.coproduct_basis, alg.basis, degree).space(1, degree)


def projector_image(alg, degree):
    """Reduced echelon basis of the image of e on the degree-``degree`` piece."""
    basis = alg.basis(degree)
    index = {k: i for i, k in enumerate(basis)}
    rows = []
    for b in basis:
        img = idempotent_e(Element.of(b), alg)
        if not img.is_homogeneous(degree):
            raise ValueError("projector broke the grading at %s" % b)
        rows.append({index[k]: c for k, c in img.items()})
    return [Element._trusted({basis[j]: c for j, c in row.items()}) for row in rref(rows).values()]


def decomposables_rank(alg, degree):
    """Rank of the span of all products landing in the given degree."""
    products = []
    for d1 in range(1, degree):
        for a in alg.basis(d1):
            for b in alg.basis(degree - d1):
                p = alg.product_basis(a, b)
                if not p.is_zero():
                    products.append(p)
    return rank_of_family(products, degree)


# ---------------------------------------------------------------------------
# heap-ordered expansion of A_k


def heap_coefficients(k):
    """Expansion of A_k over heap-ordered trees, A_k = sum_U c(U) . U, as an
    Element over labeled trees: read off by expanding A_k on k distinct
    ordered generators in the free tree algebra."""
    if k < 1:
        raise ValueError("arity must be >= 1, got %d" % k)
    letters = ["x%d" % i for i in range(1, k + 1)]
    alg = FreeTreeAlgebra(letters)
    x = TensorElement.of(tuple(kernel.leaf(a) for a in letters))
    expanded = ak_apply(k, x, alg)
    ids = {a: i + 1 for i, a in enumerate(letters)}
    return Element._trusted({tree_core.labeled_from_rooted(t, ids): c for t, c in expanded.items()})


def graft_labeled(host, v, shoot):
    """Graft a labeled tree onto vertex v of another, shifting the shoot's
    labels above the host's."""
    n = host.n
    parent = list(host.parent) + [0] * shoot.n
    for i, p in enumerate(shoot.parent):
        parent[n + i] = v if p == 0 else n + p
    return tree_core.LabeledTree(tuple(parent))


def heap_coefficients_recursive(k):
    """The coefficients by the inductive rule: summing, over splits l,
    binom(k-2, l-1) c(T) c(T') <T o T', U> with T' relabeled above T.

    Grafting a shifted heap-ordered tree anywhere on a heap-ordered tree is
    again heap-ordered, so the support stays inside the heap-ordered trees.
    """
    if k < 1:
        raise ValueError("arity must be >= 1, got %d" % k)
    if k == 1:
        return Element.of(tree_core.LabeledTree((0,)))

    def grafts(t, tp):  # distinct vertices v give distinct trees
        return {graft_labeled(t, v, tp): 1 for v in range(1, t.n + 1)}

    coeffs = {}
    for l in range(1, k):
        split = bilinear(grafts, heap_coefficients_recursive(l), heap_coefficients_recursive(k - l))
        accumulate(coeffs, split.items(), math.comb(k - 2, l - 1))
    return Element._trusted(coeffs)


# ---------------------------------------------------------------------------
# reconstruction


class Record:
    """Field-wise equality and ``repr`` over the attributes named in
    ``_fields``, as a dataclass generates them.  Defining ``__eq__`` alone
    leaves a record unhashable, like a mutable dataclass."""

    _fields = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


class DegreeReport(Record):
    _fields = ("degree", "algebra_dim", "tree_count", "image_rank", "coalgebra_ok")

    def __init__(self, degree, algebra_dim, tree_count, image_rank, coalgebra_ok):
        self.degree = degree
        self.algebra_dim = algebra_dim
        self.tree_count = tree_count
        self.image_rank = image_rank
        self.coalgebra_ok = coalgebra_ok

    @property
    def isomorphic(self):
        return self.algebra_dim == self.tree_count == self.image_rank and self.coalgebra_ok


class ReconstructionReport(Record):
    _fields = ("max_degree", "validation_failures", "primitive_dims", "degrees", "kernel_witness")

    def __init__(self, max_degree, validation_failures, primitive_dims, degrees, kernel_witness=None):
        self.max_degree = max_degree
        self.validation_failures = validation_failures
        self.primitive_dims = primitive_dims
        self.degrees = degrees
        self.kernel_witness = kernel_witness

    @property
    def ok(self):
        return not self.validation_failures and all(d.isomorphic for d in self.degrees)

    def dims(self):
        return [d.algebra_dim for d in self.degrees]

    def summary(self):
        lines = []
        if self.validation_failures:
            for f in self.validation_failures:
                lines.append("validation failed: %s" % f)
            return "\n".join(lines)
        lines.append("validation: ok (degree <= %d)" % self.max_degree)
        prim = ", ".join(
            "degree %d: %d" % (d, n) for d, n in sorted(self.primitive_dims.items()) if n
        )
        lines.append("primitives: %s" % (prim or "none"))
        for rep in self.degrees:
            lines.append(
                "degree %d: algebra dim %d, tree monomials %d, image rank %d, coalgebra %s -> %s"
                % (
                    rep.degree,
                    rep.algebra_dim,
                    rep.tree_count,
                    rep.image_rank,
                    "ok" if rep.coalgebra_ok else "FAIL",
                    "isomorphic" if rep.isomorphic else "NOT isomorphic",
                )
            )
        if self.kernel_witness:
            lines.append("kernel witness: %s" % self.kernel_witness)
        if self.ok:
            lines.append(
                "isomorphism up to degree %d, dims %s"
                % (self.max_degree, ",".join(str(d) for d in self.dims()))
            )
        else:
            lines.append("reconstruction failed")
        return "\n".join(lines)


def evaluate_monomial(tree, reps, alg, memo):
    """Evaluate a tree monomial in ``alg`` by peeling root subtrees.

    A root with subtrees is rewritten as (tree minus its last subtree) o
    (last subtree) minus the grafting corrections, which recurses strictly
    downward in (degree, arity).
    """
    got = memo.get(tree)
    if got is not None:
        return got
    if tree.arity == 0:
        out = reps[tree.label]
    else:
        children = tree.children
        head = evaluate_monomial(kernel.node(tree.label, children[:-1]), reps, alg, memo)
        tail = children[-1]
        acc = dict(alg.product(head, evaluate_monomial(tail, reps, alg, memo)).terms)
        for i in range(len(children) - 1):
            correction = prelie_product(Element.of(children[i]), Element.of(tail))
            for s, c in correction.items():
                smaller = kernel.node(tree.label, children[:i] + (s,) + children[i + 1 : -1])
                accumulate(acc, evaluate_monomial(smaller, reps, alg, memo).items(), -c)
        out = Element._trusted(acc)
    memo[tree] = out
    return out


def reconstruct(alg, max_degree):
    """Validate ``alg`` and rebuild it from its primitives as a free algebra.

    Returns a ReconstructionReport; no reconstruction is attempted when
    validation fails.
    """
    failures = validate(alg, max_degree)
    if failures:
        return ReconstructionReport(max_degree, failures, {}, [])

    reps = {}
    letter_degrees = {}
    primitive_dims = {}
    for d in range(1, max_degree + 1):
        prims = primitives_basis(alg, d)
        primitive_dims[d] = len(prims)
        for i, p in enumerate(prims):
            label = "p%d_%d" % (d, i)
            reps[label] = p
            letter_degrees[label] = d

    memo = {}

    def phi(tree):
        return evaluate_monomial(tree, reps, alg, memo)

    degrees = []
    witness = None
    for n in range(1, max_degree + 1):
        trees = []
        if letter_degrees:
            trees = tree_core.enumerate_trees(list(letter_degrees), n, letter_degrees)
        images = []
        coalgebra_ok = True
        for t in trees:
            img = phi(t)
            images.append(img)
            # coalgebra morphism: (phi (x) phi) Delta = Delta_alg phi
            lhs = linear(lambda uv: tensor(phi(uv[0]), phi(uv[1])), _tree_coproduct_basis(t))
            if TensorElement._trusted(2, lhs) != alg.coproduct(img):
                coalgebra_ok = False
        dim = len(alg.basis(n))
        rank = rank_of_family(images, n)
        rep = DegreeReport(n, dim, len(trees), rank, coalgebra_ok)
        degrees.append(rep)
        if rank < len(trees) and witness is None:
            witness = _kernel_witness(trees, images, n, alg)
    return ReconstructionReport(max_degree, [], primitive_dims, degrees, witness)


def _kernel_witness(trees, images, degree, alg):
    # one row per basis key, one column per tree: the first nullspace vector
    # is a combination of trees whose images cancel
    rows = {}
    for j, x in enumerate(images):
        for k, c in x.items():
            rows.setdefault(k, {})[j] = c
    null = sparse_nullspace(rows.values(), len(trees))
    if not null:
        return None
    combo = null[0]
    return " + ".join("%s * %s" % (render_rational(combo[j]), t) for j, t in enumerate(trees) if j in combo)
