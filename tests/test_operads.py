import collections
import itertools
import random

import operad_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tree_core import labeled_trees
from treelie import checks, operads as O
from treelie.freemod import Element, accumulate
from treelie.prelie import nap_product, prelie_product
from treelie.tree_core import LabeledTree, act, enumerate_labeled, parse_tree

# each kernel on parent tuples, its public wrapper and its LabeledTree oracle
KERNELS = [
    (O.nap_parents, O.nap_compose, oracle.nap_compose),
    (O.pl_parents, O.pl_compose, oracle.pl_compose),
    (O.corrupted_parents, O.corrupted_compose, oracle.corrupted_compose),
]


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
    for parents, compose, _ in KERNELS:
        for i in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                compose(O.mu, i, O.mu)
            with pytest.raises(ValueError, match="out of range"):
                parents(O.mu.parent, i, O.mu.parent)


def _assert_wrappers_match_oracle(t, i, s):
    for _, compose, slow in KERNELS:
        assert compose(t, i, s) == slow(t, i, s)


def test_compositions_match_oracle():
    every = [t for n in range(1, 4) for t in enumerate_labeled(n)]
    for t, s in itertools.product(every, repeat=2):
        for i in range(1, t.n + 1):
            _assert_wrappers_match_oracle(t, i, s)


@settings(max_examples=200)
@given(labeled_trees(5), labeled_trees(5), st.data())
def test_compositions_of_random_trees_match_oracle(t, s, data):
    _assert_wrappers_match_oracle(t, data.draw(st.integers(1, t.n)), s)


def _assert_pl_parents_matches_oracle(p, i, q):
    got = O.pl_parents(p, i, q)
    assert list(got.items()) == list(oracle.pl_parents(p, i, q).items())  # same terms, same order
    return p.count(i)  # children of vertex i, which move onto q


def test_pl_parents_matches_generic_oracle():
    every = [t.parent for n in range(1, 4) for t in enumerate_labeled(n)]
    moved = collections.Counter()
    for p, q in itertools.product(every, repeat=2):
        for i in range(1, len(p) + 1):
            moved[min(_assert_pl_parents_matches_oracle(p, i, q), 2)] += 1
    # compositions with no, one and several moved children are all exercised
    assert set(moved) == {0, 1, 2} and min(moved.values()) > 10


@settings(max_examples=200)
@given(labeled_trees(5), labeled_trees(5), st.data())
def test_pl_parents_of_random_trees_matches_generic_oracle(t, s, data):
    _assert_pl_parents_matches_oracle(t.parent, data.draw(st.integers(1, t.n)), s.parent)


# each kernel on parent tuples and its oracle, which rebuilds the relabelings per call
PARENT_KERNELS = [
    (O.nap_parents, oracle.nap_parents),
    (O.pl_parents, oracle.pl_parents),
    (O.corrupted_parents, oracle.corrupted_parents),
]
UP_TO_4 = [t.parent for n in range(1, 5) for t in enumerate_labeled(n)]


def _assert_kernels_match_oracle(p, i, q):
    for fast, slow in PARENT_KERNELS:
        assert list(fast(p, i, q).items()) == list(slow(p, i, q).items())  # same terms, same order


def test_kernels_match_oracle_up_to_arity_4():
    for p, q in itertools.product(UP_TO_4, repeat=2):
        for i in range(1, len(p) + 1):
            _assert_kernels_match_oracle(p, i, q)


def test_kernels_reject_slots_out_of_range():
    for p in UP_TO_4:
        for i in (0, len(p) + 1):
            for fast, slow in PARENT_KERNELS:
                for kernel in (fast, slow):
                    with pytest.raises(ValueError, match="vertex %d out of range 1..%d" % (i, len(p))):
                        kernel(p, i, O.mu.parent)


@settings(max_examples=200)
@given(labeled_trees(6), labeled_trees(6), st.data())
def test_kernels_of_random_trees_match_oracle(t, s, data):
    _assert_kernels_match_oracle(t.parent, data.draw(st.integers(1, t.n)), s.parent)


@pytest.mark.parametrize("seed", [1, 2])
def test_kernels_agree_in_any_call_order(monkeypatch, seed):
    # an empty shape table, filled in a shuffled order of shapes and kernels
    monkeypatch.setattr(O, "_SHAPES", {})
    cases = [
        (fast, slow, p, i, q)
        for p, q in itertools.product(UP_TO_4, repeat=2)
        for i in range(1, len(p) + 1)
        for fast, slow in PARENT_KERNELS
    ]
    random.Random(seed).shuffle(cases)
    for fast, slow, p, i, q in cases:
        assert list(fast(p, i, q).items()) == list(slow(p, i, q).items())
    assert O._SHAPES  # the kernels did go through the table


UP_TO_4_BY_ARITY = {n: [t.parent for t in enumerate_labeled(n)] for n in range(1, 5)}


def _combinations(n):
    """Combinations of 1-4 labeled trees of arity n, coefficients in -3..3."""
    coefficients = st.integers(-3, 3).filter(bool)
    return st.dictionaries(st.sampled_from(UP_TO_4_BY_ARITY[n]), coefficients, min_size=1, max_size=4)


def _oracle_into(acc, x, i, y, slow):
    for p, a in x.items():
        for q, b in y.items():
            accumulate(acc, slow(p, i, q).items(), a * b)
    return acc


@settings(max_examples=200)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_composer_on_combinations_matches_oracle(n, m, data):
    x, y, i = data.draw(_combinations(n)), data.draw(_combinations(m)), data.draw(st.integers(1, n))
    for fast, slow in PARENT_KERNELS:
        expected = _oracle_into({}, x, i, y, slow)
        assert O._compose_into({}, x, i, y, fast.rule) == expected
        # an accumulator holding the opposite of some terms, which cancel, and a key of no tree
        cancelled = data.draw(st.lists(st.sampled_from(sorted(expected)), max_size=3)) if expected else []
        acc = {t: -expected[t] for t in cancelled}
        acc[()] = data.draw(st.integers(-3, 3).filter(bool))
        got = O._compose_into(dict(acc), x, i, y, fast.rule)
        assert got == _oracle_into(acc, x, i, y, slow)
        assert 0 not in got.values() and not set(cancelled) & set(got)


def test_composer_drops_what_coefficient_1_cancels():
    # every composition adds coefficient 1 to an accumulator that holds -1 for each of its terms
    for fast, slow in PARENT_KERNELS:
        for p, q in itertools.product(UP_TO_4, repeat=2):
            for i in range(1, len(p) + 1):
                acc = {t: -1 for t in slow(p, i, q)}
                assert O._compose_into(acc, {p: 1}, i, {q: 1}, fast.rule) == {}


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
    # the passing kernels at arity 3 are asserted by test_operads_suite and
    # the acceptance suite
    for parents, _, slow in KERNELS:
        for max_arity in (1, 2):
            expected = list(oracle.check_operad_axioms(slow, max_arity))
            assert O.check_operad_axioms(parents, max_arity) == expected


def test_corrupted_axioms_match_oracle_in_arity_3():
    # pins the order and text of the arity-3 witnesses
    outcomes = O.check_operad_axioms(O.corrupted_parents, 3)
    assert len(outcomes) == 26597
    assert len(_failures(outcomes)) == 3572
    assert outcomes == list(oracle.check_operad_axioms(oracle.corrupted_compose, 3))


def test_corrupted_composition_fails_with_witness():
    failures = _failures(O.check_operad_axioms(O.corrupted_parents, 2))
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
        rhs = oracle.act_element(rho, O.compose_elements(O.nap_compose, t, sigma[i - 1], s))
        assert lhs == rhs


def test_evaluation_consistency():
    outcomes = O.evaluation_consistency_check(4)
    assert len(outcomes) == 18
    assert not _failures(outcomes), _failures(outcomes)[0]


@pytest.mark.usefixtures("shared_operad_walk")
def test_operads_suite():
    for r in checks.check_operads(seed=9):
        assert r.ok, r.line()
