import pytest

from operad_oracle import check_operad_axioms as oracle_axioms
from treelie import checks, operads as O
from treelie.freemod import Element
from treelie.prelie import nap_product, prelie_product
from treelie.tree_core import LabeledTree, act, enumerate_labeled, parse_tree


def test_vertex_substitution_example():
    # (root 2, children 1 and 3) with a 2-chain substituted at vertex 2
    t = LabeledTree((2, 0, 2))
    s = LabeledTree((0, 1))
    got = O.nap_compose(t, 2, s)
    assert got == LabeledTree((2, 0, 2, 2))  # root 2 with children 1, 3, 4


def test_unit_axioms():
    for t in enumerate_labeled(3):
        assert O.nap_compose(O.unit, 1, t) == t
        for i in range(1, 4):
            assert O.nap_compose(t, i, O.unit) == t
            assert O.pl_compose(t, i, O.unit) == Element.of(t)


def test_nap_compose_range_error():
    with pytest.raises(ValueError):
        O.nap_compose(O.mu, 3, O.mu)


def test_pl_compose_mu_mu():
    cherry = LabeledTree((0, 1, 1))
    path = LabeledTree((0, 1, 2))
    assert O.pl_compose(O.mu, 1, O.mu) == Element.of(cherry) + Element.of(path)
    assert O.pl_compose(O.mu, 2, O.mu) == Element.of(path)
    assert O.nap_compose(O.mu, 1, O.mu) == cherry


def test_nap_summand_of_pl():
    for t in enumerate_labeled(3)[:6]:
        for s in enumerate_labeled(2):
            for i in range(1, 4):
                full = O.pl_compose(t, i, s)
                assert full.coeff(O.nap_compose(t, i, s)) == 1


def test_evaluation_of_mu_words():
    a, b, c = (Element.of(parse_tree(x)) for x in "abc")
    letters = ["a", "b", "c"]
    left = O.evaluate_element(O.pl_compose(O.mu, 1, O.mu), letters)
    right = O.evaluate_element(O.pl_compose(O.mu, 2, O.mu), letters)
    assert left == prelie_product(prelie_product(a, b), c)
    assert right == prelie_product(a, prelie_product(b, c))
    nap_left = O.evaluate_element(Element.of(O.nap_compose(O.mu, 1, O.mu)), letters)
    assert nap_left == nap_product(nap_product(a, b), c)


def _failures(outcomes):
    return [w for w in outcomes if w is not None]


def test_operad_axioms_match_oracle():
    # arity 3 is asserted by test_operads_suite and the acceptance suite
    for compose in (O.nap_compose, O.pl_compose, O.corrupted_compose):
        for max_arity in (1, 2):
            assert O.check_operad_axioms(compose, max_arity) == list(oracle_axioms(compose, max_arity))


def test_corrupted_composition_fails_with_witness():
    failures = _failures(O.check_operad_axioms(O.corrupted_compose, 2))
    assert failures
    assert all(isinstance(w, str) and w for w in failures)


def test_relator_vanishing():
    image = O.nap_compose(O.mu, 1, O.mu)
    assert act((1, 3, 2), image) == image


def test_presentation_check():
    outcomes = O.nap_presentation_check(5)
    assert len(outcomes) == 701
    assert not _failures(outcomes), _failures(outcomes)[0]


def test_decomposition_check_counts_choices():
    # every root subtree may play the detached role
    t = LabeledTree((0, 1, 1, 2))
    assert O.decomposition_check(t) == 2
    assert O.decomposition_check(O.unit) == 0


def test_compose_permutation_blocks():
    sigma = (2, 1)
    tau = (1, 2)
    # substituting a 2-block into slot 1 of the swap
    assert O.compose_permutation(sigma, 1, tau) == (2, 3, 1)
    assert O.compose_permutation((1, 2), 2, (2, 1)) == (1, 3, 2)


def test_equivariance_spot():
    t = LabeledTree((0, 1, 1))
    s = O.mu
    sigma, tau = (2, 3, 1), (2, 1)
    for i in (1, 2, 3):
        lhs = O.compose_elements(O.nap_compose, act(sigma, t), i, act(tau, s))
        rho = O.compose_permutation(sigma, i, tau)
        rhs = O.act_element(rho, O.compose_elements(O.nap_compose, t, sigma[i - 1], s))
        assert lhs == rhs


def test_evaluation_consistency():
    outcomes = O.evaluation_consistency_check(4)
    assert len(outcomes) == 18
    assert not _failures(outcomes), _failures(outcomes)[0]


@pytest.mark.usefixtures("shared_operad_walk")
def test_operads_suite():
    for r in checks.check_operads(seed=9):
        assert r.ok, r.line()
