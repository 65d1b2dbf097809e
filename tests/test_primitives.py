"""Differential tests: ``primitives_basis``, now the space ``C_1 = ker Delta``
of the coalgebra filtration, against the image of the projector e it used
to compute (kept here as the oracle), and the check that compares them."""

import pytest
from dense_linalg import echelon

from treelie import checks, rigidity
from treelie.freemod import Element, element_vector
from treelie.rigidity import (
    FreeTreeAlgebra,
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
