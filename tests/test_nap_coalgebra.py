import itertools
import random

import checks_oracle
import cofreeness_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelie import checks, nap_coalgebra
from treelie.freemod import Element, TensorElement, accumulate, is_invariant_1k
from treelie.nap_coalgebra import (
    coproduct,
    delta_k,
    insert_y,
    is_primitive,
    iterates,
    kronecker_pairing,
    tensor_pairing,
)
from treelie.rigidity import FreeTreeAlgebra, _delta_iterates
from treelie.tree_core import enumerate_trees, parse_tree


def E(text):
    return Element.of(parse_tree(text))


def T(*texts):
    return TensorElement.of(tuple(parse_tree(s) for s in texts))


def test_coproduct_examples():
    assert coproduct(E("a")).is_zero()
    assert coproduct(E("a[b]")) == T("a", "b")
    assert coproduct(E("a[b,c]")) == T("a[c]", "b") + T("a[b]", "c")


def test_coproduct_multiplicity():
    assert coproduct(E("a[b,b]")) == 2 * T("a[b]", "b")


def test_coproduct_degree_split():
    d = coproduct(E("a[b,c[d]]"))
    for (u, v), _ in d.items():
        assert u.degree + v.degree == 4


def test_delta_k_examples():
    x = E("a[b,c]")
    assert delta_k(x, 0) == TensorElement(1, {(parse_tree("a[b,c]"),): 1})
    assert delta_k(x, 2) == T("a", "c", "b") + T("a", "b", "c")
    assert delta_k(E("a[b[c]]"), 2).is_zero()


def test_delta_k_vanishes_beyond_degree():
    # iterates may die earlier (the first slot of a path becomes primitive
    # after one step) but never survive past the filtration degree
    survivors = {"a": 0, "a[a]": 1, "a[a,a]": 2, "a[a[a]]": 1}
    for text, last in survivors.items():
        t = E(text)
        assert not delta_k(t, last).is_zero()
        for k in range(last + 1, t.max_degree() + 2):
            assert delta_k(t, k).is_zero()
        # the stream is left at its first zero iterate, so a huge k is cheap
        assert delta_k(t, 10**9) == TensorElement(10**9 + 1, {})


def test_delta_k_bracketings_agree():
    assert checks.check_deltak_bracketings(("a",), 5, 3).ok
    assert checks.check_deltak_bracketings(("a", "b"), 4, 3).ok


def test_delta_k_rejects_negative():
    with pytest.raises(ValueError):
        delta_k(E("a"), -1)


_AB = ("a", "b")
_AB_UPTO_6 = [t for d in range(1, 7) for t in enumerate_trees(_AB, d)]
_elements = st.lists(
    st.tuples(st.sampled_from(_AB_UPTO_6), st.integers(-3, 3)), min_size=1, max_size=4
).map(lambda terms: Element._trusted(accumulate({}, terms)))


@settings(max_examples=120, deadline=None)
@given(_elements, st.integers(0, 6))
def test_iterate_stream_matches_the_per_k_loop(x, k):
    """Each item of the stream, and ``delta_k``, equal the loop that rebuilt
    Delta^k from Delta^0, rank included once the iterates vanish; the
    iterates of ``e`` and the U-operator witness stop where they stopped."""
    stream = list(itertools.islice(iterates(x), k + 1))
    for j, dj in enumerate(stream):
        expected = checks_oracle.delta_k(x, j)
        assert dj == expected and dj.rank == expected.rank == j + 1
    got = delta_k(x, k)
    assert got == stream[k] and got.rank == k + 1
    alg = FreeTreeAlgebra(_AB)
    for t in x.terms:
        assert list(_delta_iterates(t, alg)) == list(checks_oracle.delta_iterates(t, alg))


def test_insert_y_examples():
    assert insert_y(E("b"), TensorElement.of((parse_tree("a"),))) == T("a", "b")
    assert insert_y(E("c"), T("a", "b")) == T("a", "c", "b") + T("a", "b", "c")
    assert insert_y(E("c"), coproduct(E("a[b]"))) == T("a", "c", "b") + T("a", "b", "c")


def test_is_primitive():
    assert is_primitive(E("a"))
    assert is_primitive(E("a") - 3 * E("b"))
    assert not is_primitive(E("a[b]"))


def test_nap_coalgebra_relation():
    assert checks.check_nap_coalgebra_relation(("a",), 7).ok
    assert checks.check_nap_coalgebra_relation(("a", "b"), 5).ok


def test_deltak_images_invariant():
    assert checks.check_deltak_invariance(("a",), 6, 4).ok
    assert checks.check_deltak_invariance(("a", "b"), 5, 4).ok


def test_delta2_invariant_for_any_degree3_element():
    rng = random.Random(5)
    basis = enumerate_trees(["a", "b"], 3)
    for _ in range(20):
        x = Element()
        for _ in range(rng.randint(1, 4)):
            x = x + rng.randint(-3, 3) * Element.of(rng.choice(basis))
        d2 = delta_k(x, 2)
        if not d2.is_zero():
            assert is_invariant_1k(d2)


def test_distributive_law():
    assert checks.check_distributive_law(("a",), 6).ok
    assert checks.check_distributive_law(("a", "b"), 5).ok


def test_iterated_distributive_law():
    assert checks.check_iterated_distributive_law(("a",), 5, 4).ok


def test_cooperation_vanishing():
    assert checks.check_cooperation_vanishing(4).ok


def test_cofreeness_pairing():
    assert checks.check_cofreeness_pairing(("a",), 5).ok
    assert checks.check_cofreeness_pairing(("a", "b"), 4).ok


COFREENESS_CASES = [(("a",), 6, "a[a,a]"), (("a", "b"), 4, "a[b,b]")]


@pytest.mark.parametrize("alphabet,max_degree,doubled", COFREENESS_CASES)
def test_cofreeness_walk_matches_per_triple_oracle(monkeypatch, alphabet, max_degree, doubled):
    """The degree-by-degree pair table yields the per-triple walk's outcomes,
    in order: on the free coalgebra, and with the coproduct of one tree
    (which has a nontrivial automorphism) doubled, so that the witnesses are
    compared too."""
    expected = list(cofreeness_oracle.cofreeness_outcomes(alphabet, max_degree))
    assert list(checks.cofreeness_outcomes(alphabet, max_degree)) == expected
    assert len(expected) > 100 and not any(expected)

    target = parse_tree(doubled)

    def doubled_coproduct(x):
        d = coproduct(x)
        return 2 * d if x.terms.keys() == {target} else d

    monkeypatch.setattr(checks, "coproduct", doubled_coproduct)
    monkeypatch.setattr(nap_coalgebra, "coproduct", doubled_coproduct)
    expected = list(cofreeness_oracle.cofreeness_outcomes(alphabet, max_degree))
    witnesses = [w for w in expected if w is not None]
    assert witnesses and all(w.startswith("T=%s " % doubled) for w in witnesses)
    assert list(checks.cofreeness_outcomes(alphabet, max_degree)) == expected
    result = checks.check_cofreeness_pairing(alphabet, max_degree)
    assert not result.ok and result.detail == witnesses[0]


def test_pairing_basics():
    assert kronecker_pairing(E("a"), E("a")) == 1
    assert kronecker_pairing(E("a"), E("b")) == 0
    assert kronecker_pairing(2 * E("a[b]") + E("a"), 3 * E("a[b]")) == 6
    assert tensor_pairing(T("a", "b"), T("a", "b")) == 1
    with pytest.raises(ValueError):
        tensor_pairing(T("a", "b"), TensorElement.of((parse_tree("a"),)))


def test_primitives_exhaustive():
    assert checks.check_primitives(("a", "b"), 4).ok
