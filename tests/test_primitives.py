"""Differential tests: ``primitives_basis``, now the space ``C_1 = ker Delta``
of the coalgebra filtration, against the image of the projector e it used
to compute (kept here as the oracle), and the check that compares them;
and the projector's integer-weight sum against its old ``Fraction`` sum."""

import math
from fractions import Fraction

import pytest
from dense_linalg import echelon, element_vector

from treelie import checks, rigidity, tree_core
from treelie.freemod import Element, accumulate, linear
from treelie.rigidity import (
    FreeTreeAlgebra,
    ak_apply,
    change_of_basis,
    free_presentation,
    idempotent_e,
    primitives_basis,
    projector_image,
)


def oracle_primitives_basis(alg, degree):
    """Echelonized basis of the image of e on the degree-``degree`` piece."""
    basis = alg.basis(degree)
    if not basis:
        return []
    index = {k: i for i, k in enumerate(basis)}
    rows = []
    for b in basis:
        img = idempotent_e(Element.of(b), alg)
        if not img.is_homogeneous(degree):
            raise ValueError("projector broke the grading at %s" % b)
        rows.append(element_vector(img, index))
    ech, _ = echelon(rows)
    return [Element({basis[j]: row[j] for j in range(len(basis))}) for row in ech]


CASES = [(["a"], 6), (["a", "b"], 4), (["a", "b", "c"], 3)]


def _assert_matches_oracle(alg, max_degree):
    for d in range(1, max_degree + 2):  # a presentation has no basis at max_degree + 1
        expected = oracle_primitives_basis(alg, d)
        assert primitives_basis(alg, d) == expected
        assert projector_image(alg, d) == expected


@pytest.mark.parametrize("alphabet,max_degree", CASES)
def test_free_tree_algebra_matches_e_image(alphabet, max_degree):
    _assert_matches_oracle(FreeTreeAlgebra(alphabet), max_degree)


@pytest.mark.parametrize("alphabet,max_degree", CASES)
def test_free_presentation_matches_e_image(alphabet, max_degree):
    _assert_matches_oracle(free_presentation(alphabet, max_degree), max_degree)


@pytest.mark.parametrize("alphabet,max_degree", CASES)
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_change_of_basis_matches_e_image(alphabet, max_degree, seed):
    alg = change_of_basis(free_presentation(alphabet, max_degree), seed)
    assert any(len(primitives_basis(alg, d)) for d in range(1, max_degree + 1))
    _assert_matches_oracle(alg, max_degree)


def test_decomposition_check_compares_e_image_with_primitives(monkeypatch):
    assert checks.check_decomposition(4).ok
    # a projector whose image (all of H_n) is not ker Delta
    monkeypatch.setattr(rigidity, "idempotent_e", lambda x, alg: x)
    result = checks.check_decomposition(4)
    assert not result.ok
    assert result.detail == "degree 2: image of e differs from ker(Delta)"


def oracle_idempotent_e(x, alg):
    """e(x) = x + sum_k ((-1)^k / k!) A_{k+1}(Delta^k(x)), summed with
    ``Fraction`` weights as ``idempotent_e`` did before it summed
    degree(t)! e(t) in integers."""

    def on_basis(t):
        terms = {t: 1}
        for k, dk in rigidity._delta_iterates(t, alg):
            accumulate(terms, ak_apply(k + 1, dk, alg).items(), Fraction((-1) ** k, math.factorial(k)))
        return Element._trusted(terms)

    return Element._trusted(linear(on_basis, x))


class HalvedProducts(FreeTreeAlgebra):
    """The free algebra with every product halved.  It is no longer pre-Lie,
    but its A_k take non-integral values, so e's sums reach the division by
    degree(t)! with ``Fraction`` terms."""

    def product_basis(self, s, t):
        return Element._trusted({k: Fraction(c, 2) for k, c in super().product_basis(s, t).items()})


@pytest.mark.parametrize(
    "alg, max_degree",
    [
        (FreeTreeAlgebra(["a", "b"]), 6),
        (change_of_basis(free_presentation(["a"], 5), 7), 5),
        (change_of_basis(free_presentation(["a", "b"], 3), 42), 3),
        (HalvedProducts(["a", "b"]), 4),
    ],
)
def test_integer_projector_matches_fraction_oracle(alg, max_degree):
    values = []
    for t in (k for d in range(1, max_degree + 1) for k in alg.basis(d)):
        got = idempotent_e(Element.of(t), alg)
        assert got == oracle_idempotent_e(Element.of(t), alg)
        values.extend(got.terms.values())
    assert all(type(c) is int or c.denominator != 1 for c in values)  # an int when integral
    assert any(type(c) is Fraction for c in values) == isinstance(alg, HalvedProducts)


def test_projector_stores_no_iterated_coproduct_term():
    """e(t) sums A_{k+1} over the terms of Delta^k(t) without storing them in
    the ``ak`` cache: each term determines t, whose value e caches, so only
    proper sub-tuples of the terms are read again."""
    trees = [t for d in range(1, 6) for t in tree_core.enumerate_trees(("a", "b"), d)]
    assert len(trees) == 286
    for t in trees:
        alg = FreeTreeAlgebra(["a", "b"])
        got = idempotent_e(Element.of(t), alg)
        assert got == oracle_idempotent_e(Element.of(t), FreeTreeAlgebra(["a", "b"]))
        terms = {keys for _, dk in rigidity._delta_iterates(t, alg) for keys in dk.terms}
        assert not terms & alg.cache("ak").keys()
