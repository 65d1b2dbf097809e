import types
from fractions import Fraction

import pytest
from basis_change_oracle import change_of_basis as oracle_change_of_basis

from treelie import checks, freemod, kernel, rigidity, tree_core
from treelie.freemod import Element, TensorElement, tensor
from treelie.prelie import prelie_product
from treelie.rigidity import (
    FreeTreeAlgebra,
    PresentedAlgebra,
    ValidationError,
    ak_apply,
    change_of_basis,
    decomposables_rank,
    evaluate_monomial,
    free_presentation,
    heap_coefficients,
    heap_coefficients_recursive,
    idempotent_e,
    mu_image_witness,
    mu_of_tensor,
    primitives_basis,
    reconstruct,
    uk_apply,
    validate,
)
from treelie.tree_core import LabeledTree, enumerate_heap_ordered, parse_tree


def E(text):
    return Element.of(parse_tree(text))


def T(*texts):
    return TensorElement.of(tuple(parse_tree(s) for s in texts))


@pytest.fixture(scope="module")
def alg():
    return FreeTreeAlgebra(["a", "b"])


# -- the Algebra interface ----------------------------------------------------


def test_free_algebra_product_is_the_grafting_product():
    alg = FreeTreeAlgebra(["a", "b"])
    basis = [t for d in range(1, 4) for t in alg.basis(d)]
    x = E("a") + Fraction(-2, 3) * E("a[b]") + 5 * E("b[a,a]")
    y = 3 * E("b") - E("a[a]")
    assert alg.product(x, y) == prelie_product(x, y)
    for s in basis:
        for t in basis:
            assert alg.product(Element.of(s), Element.of(t)) == prelie_product(Element.of(s), Element.of(t))
    assert len(alg.cache("product")) == len(basis) ** 2  # every basis pair, cached once


def test_presented_product_and_coproduct_match_the_free_ones():
    free = FreeTreeAlgebra(["a"])
    pres = free_presentation(["a"], 4)

    def up(x):
        return Element({pres.key(t.key): c for t, c in x.items()})

    x = E("a") - 2 * E("a[a]")
    y = Fraction(1, 2) * E("a") + E("a[a]")
    assert pres.product(up(x), up(y)) == up(free.product(x, y))
    z = E("a[a[a],a]") - 3 * E("a[a,a]")
    got = pres.coproduct(up(z))
    want = free.coproduct(z)
    assert {(u.name, v.name): c for (u, v), c in got.items()} == {
        (u.key, v.key): c for (u, v), c in want.items()
    }


def _cached_free_presentation(alphabet, max_degree):
    """``free_presentation`` built, as it once was, through the product
    cache of ``FreeTreeAlgebra.product_basis``."""
    alg = FreeTreeAlgebra(alphabet)
    degrees = range(1, max_degree + 1)
    generators = {d: [t.key for t in alg.basis(d)] for d in degrees}
    product, coproduct = {}, {}
    for d1 in degrees:
        for s in alg.basis(d1):
            cop = alg.coproduct_basis(s)
            if not cop.is_zero():
                coproduct[s.key] = {(u.key, v.key): c for (u, v), c in cop.items()}
            for d2 in range(1, max_degree - d1 + 1):
                for t in alg.basis(d2):
                    product[(s.key, t.key)] = {g.key: c for g, c in alg.product_basis(s, t).items()}
    return PresentedAlgebra(generators, product, coproduct)


@pytest.mark.parametrize(
    "alphabet,max_degree", [(["a"], d) for d in range(1, 9)] + [(["a", "b"], d) for d in range(1, 6)]
)
def test_free_presentation_reads_the_kernel_as_the_cache_did(alphabet, max_degree):
    assert free_presentation(alphabet, max_degree).to_json() == (
        _cached_free_presentation(alphabet, max_degree).to_json()
    )


# -- A_k / U_k ---------------------------------------------------------------


def test_a1_is_identity(alg):
    x = TensorElement.of((parse_tree("a[b]"),), Fraction(3, 2))
    assert ak_apply(1, x, alg) == Fraction(3, 2) * E("a[b]")


def test_a2_is_the_product(alg):
    assert ak_apply(2, T("a", "b"), alg) == E("a[b]")
    x = T("a[b]", "a")
    assert ak_apply(2, x, alg) == prelie_product(E("a[b]"), E("a"))


def test_a3_expansion(alg):
    got = ak_apply(3, T("a", "a", "a"), alg)
    assert got == E("a[a,a]") + 2 * E("a[a[a]]")


def test_ak_rank_mismatch(alg):
    with pytest.raises(ValueError):
        ak_apply(2, T("a", "b", "a"), alg)
    with pytest.raises(ValueError):
        uk_apply(TensorElement.of((parse_tree("a"),)), alg)


def test_u2_u3(alg):
    assert uk_apply(T("a", "b"), alg) == T("a", "b")
    got = uk_apply(T("a", "b", "c"), alg)
    expect = tensor(E("a"), prelie_product(E("b"), E("c"))) + tensor(
        prelie_product(E("a"), E("b")), E("c")
    )
    assert got == expect


def test_mu_uk_recovers_ak(alg):
    assert checks.check_mu_uk(seed=3).ok


# -- the projector -----------------------------------------------------------


def test_e_examples(alg):
    assert idempotent_e(E("a"), alg) == E("a")
    assert idempotent_e(E("a[b]"), alg).is_zero()
    assert idempotent_e(E("a[a,a]"), alg).is_zero()
    assert idempotent_e(E("a[a[a]]"), alg).is_zero()


def test_e_is_linear(alg):
    x = 2 * E("a") - Fraction(1, 3) * E("a[b]")
    assert idempotent_e(x, alg) == 2 * E("a")


def test_e_image_is_primitive(alg):
    for text in ["a[b,b]", "a[a[b],b]", "b[a,a,b]"]:
        img = idempotent_e(E(text), alg)
        assert alg.coproduct(img).is_zero()


def test_projector_and_annihilation():
    assert checks.check_projector(("a",), 5).ok
    assert checks.check_annihilation(("a", "b"), 5).ok


def test_decomposition_witness(alg):
    for text in ["a[b]", "a[a,a]", "a[a[b],b]"]:
        x = E(text)
        w = mu_image_witness(x, alg)
        assert mu_of_tensor(w, alg) == x - idempotent_e(x, alg)


def test_decomposition_dims():
    assert checks.check_decomposition(6).ok


def test_primitives_basis_examples():
    one = FreeTreeAlgebra(["a"])
    assert primitives_basis(one, 1) == [E("a")]
    assert primitives_basis(one, 2) == []
    two = FreeTreeAlgebra(["a", "b"])
    assert primitives_basis(two, 1) == [E("a"), E("b")]


def test_decomposables_rank_counts():
    one = FreeTreeAlgebra(["a"])
    assert decomposables_rank(one, 2) == 1
    assert decomposables_rank(one, 4) == 4


# -- heap-ordered expansion ---------------------------------------------------


def test_heap_coefficients_small():
    h1 = heap_coefficients(1)
    assert h1.terms == {LabeledTree((0,)): 1}
    h2 = heap_coefficients(2)
    assert h2.terms == {LabeledTree((0, 1)): 1}
    h3 = heap_coefficients(3)
    cherry = LabeledTree((0, 1, 1))
    path = LabeledTree((0, 1, 2))
    assert h3.terms == {cherry: 1, path: 2}


def test_heap_support_and_reproduction():
    assert checks.check_heap_expansion(5).ok


def test_heap_recursive_agreement():
    for k in range(1, 6):
        assert heap_coefficients_recursive(k).terms == heap_coefficients(k).terms


def test_heap_support_is_all_of_ho4():
    h4 = heap_coefficients(4)
    assert set(h4.terms) == set(enumerate_heap_ordered(4))
    assert all(c > 0 for c in h4.terms.values())


# -- section-4 identities -----------------------------------------------------


def test_section4_identities():
    assert checks.check_delta_ak(5, 4).ok
    assert checks.check_derivation_ak(5, 3).ok
    assert checks.check_petit_dernier(4, 3).ok


# -- presented algebras -------------------------------------------------------


def test_presented_json_round_trip(tmp_path):
    alg = free_presentation(["a"], 4)
    doc = alg.to_json()
    again = PresentedAlgebra.from_json(doc)
    assert again.to_json() == doc
    path = tmp_path / "alg.json"
    alg.dump(path)
    assert PresentedAlgebra.load(path).to_json() == doc


def test_presented_rejects_bad_names():
    with pytest.raises(ValueError):
        PresentedAlgebra({1: ["a", "a"]}, {}, {})
    with pytest.raises(ValueError):
        PresentedAlgebra({1: ["a"]}, {("a", "z"): {"a": 1}}, {})
    with pytest.raises(ValueError):
        PresentedAlgebra({0: ["a"]}, {}, {})


def test_presented_rejects_float_constants():
    # the structure constants of a presented algebra are exact: a float
    # product or coproduct constant is refused when the algebra is built
    generators = {1: ["a"], 2: ["b"]}
    with pytest.raises(TypeError):
        PresentedAlgebra(generators, {("a", "a"): {"b": 0.5}}, {})
    with pytest.raises(TypeError):
        PresentedAlgebra(generators, {}, {"b": {("a", "a"): 2.0}})
    with pytest.raises(TypeError):
        PresentedAlgebra(generators, {("a", "a"): {"b": 0.5}}, {"b": {("a", "a"): 2.0}})


def test_presented_defaults_to_zero():
    alg = PresentedAlgebra({1: ["a"], 2: ["m"]}, {}, {})
    a = alg.key("a")
    assert alg.product_basis(a, a).is_zero()
    assert alg.coproduct_basis(a).is_zero()


def _dropped_product(alg):
    doc = alg.to_json()
    del doc["product"]["a"]["a"]
    return PresentedAlgebra.from_json(doc)


def _wrong_coproduct(alg):
    doc = alg.to_json()
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    return PresentedAlgebra.from_json(doc)


def test_shared_zeros_are_never_written(monkeypatch):
    # every absent product and coproduct entry is one shared empty Element or
    # TensorElement; made read-only, any caller that wrote into one would raise
    free = free_presentation(["a", "b"], 3)
    cases = [
        (free, True),
        (change_of_basis(free, 3), True),
        (_dropped_product(free), False),
        (_wrong_coproduct(free), False),
    ]
    monkeypatch.setattr(rigidity._ZERO, "terms", types.MappingProxyType({}))
    monkeypatch.setattr(rigidity._ZERO_TENSOR, "terms", types.MappingProxyType({}))
    for alg, free_up_to_3 in cases:
        assert alg.coproduct_basis(alg.basis(1)[0]) is rigidity._ZERO_TENSOR
        assert (validate(alg, 3) == []) == free_up_to_3
        report = reconstruct(alg, 3)
        assert report.ok == free_up_to_3 and bool(report.validation_failures) != free_up_to_3
    dropped = cases[2][0]
    assert dropped.product_basis(dropped.key("a"), dropped.key("a")) is rigidity._ZERO


def test_validate_free_presentation():
    alg = free_presentation(["a"], 5)
    assert validate(alg, 5) == []


def test_validate_catches_grading():
    alg = PresentedAlgebra({1: ["a"], 2: ["m"]}, {("a", "a"): {"a": 1}}, {})
    failures = validate(alg, 3)
    assert failures and "grading" in failures[0]


def test_validate_catches_dlaw():
    doc = free_presentation(["a"], 4).to_json()
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    failures = validate(PresentedAlgebra.from_json(doc), 4)
    assert failures and "distributive law" in failures[0]


def test_validate_catches_prelie():
    # NAP structure constants: root grafting is permutative but not pre-Lie
    from treelie.prelie import nap_product
    from treelie.tree_core import enumerate_trees

    generators = {d: [t.key for t in enumerate_trees(["a"], d)] for d in range(1, 5)}
    product = {}
    coproduct = {}
    for d1 in range(1, 5):
        for s in enumerate_trees(["a"], d1):
            cop = checks.coproduct_basis(s)
            if not cop.is_zero():
                coproduct[s.key] = {(u.key, v.key): c for (u, v), c in cop.items()}
            for d2 in range(1, 5 - d1):
                for t in enumerate_trees(["a"], d2):
                    prod = nap_product(Element.of(s), Element.of(t))
                    product[(s.key, t.key)] = {g.key: c for g, c in prod.items()}
    failures = validate(PresentedAlgebra.from_json(PresentedAlgebra(generators, product, coproduct).to_json()), 4)
    assert failures
    assert any("pre-Lie" in f or "distributive" in f for f in failures)


def test_nonconnected_projector_raises():
    # ungraded circular coproduct: Delta(a) = a (x) a never vanishes, so the
    # iterates that e and the U-operator witness read must refuse to run forever
    alg = PresentedAlgebra.from_json(
        {"generators": {"1": ["a"]}, "product": {}, "coproduct": {"a": [["1", "a", "a"]]}}
    )
    for operator in (idempotent_e, mu_image_witness):
        with pytest.raises(ValidationError) as info:
            operator(Element.of(alg.key("a")), alg)
        assert info.value.failures == [
            "coproduct iterates of a do not terminate; the coalgebra is not connected"
        ]


# -- reconstruction -----------------------------------------------------------


def test_self_reconstruction():
    alg = free_presentation(["a"], 5)
    rep = reconstruct(alg, 5)
    assert rep.ok
    assert rep.dims() == [1, 1, 2, 4, 9]
    assert rep.primitive_dims == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}
    assert "isomorphism up to degree 5" in rep.summary()


def test_self_reconstruction_two_letters():
    alg = free_presentation(["a", "b"], 3)
    rep = reconstruct(alg, 3)
    assert rep.ok
    assert rep.dims() == [2, 4, 14]


def test_reconstruction_after_change_of_basis():
    alg = free_presentation(["a"], 4)
    for seed in (1, 42):
        rep = reconstruct(change_of_basis(alg, seed), 4)
        assert rep.ok
        assert rep.dims() == [1, 1, 2, 4]


def test_twisted_reconstruction_runs_no_elimination(monkeypatch):
    """On an algebra that passes, every rank is full and every primitive
    space past degree 1 is 0: the certificate mod p answers them all, and
    degree 1, whose coproducts are zero, is all primitive without ``rref``."""
    calls = []
    exact = freemod.rref

    def counting_rref(rows):
        calls.append(1)
        return exact(rows)

    monkeypatch.setattr(freemod, "rref", counting_rref)
    monkeypatch.setattr(rigidity, "rref", counting_rref)
    rep = reconstruct(change_of_basis(free_presentation(["a", "b"], 4), 3), 4)
    assert rep.ok and rep.dims() == [2, 4, 14, 52]
    assert rep.primitive_dims == {1: 2, 2: 0, 3: 0, 4: 0}
    assert calls == []


@pytest.mark.parametrize(
    "alphabet,max_degree,seed",
    [
        (["a"], 5, 1),
        (["a"], 4, 7),
        (["a", "b"], 3, 2),
        (["a"], 6, 3),
        (["a"], 5, 11),
        (["a", "b"], 3, 9),
        (["a", "b", "c"], 3, 4),
    ],
)
def test_change_of_basis_matches_dense_oracle(alphabet, max_degree, seed):
    """The integer matrices and the inverse built by undoing each row
    operation give the document of the ``Fraction`` matrices inverted by
    elimination."""
    free = free_presentation(alphabet, max_degree)
    expected = oracle_change_of_basis(free, seed).to_json()
    assert change_of_basis(free, seed).to_json() == expected


@pytest.mark.parametrize("alphabet,max_degree", [(["a"], 5), (["a", "b"], 3)])
def test_change_of_basis_constants_are_int(alphabet, max_degree):
    free = free_presentation(alphabet, max_degree)
    for seed in range(20):
        alg = change_of_basis(free, seed)
        keys = [k for d in alg.degrees() for k in alg.basis(d)]
        coefficients = [c for a in keys for b in keys for c in alg.product_basis(a, b).terms.values()]
        coefficients += [c for a in keys for c in alg.coproduct_basis(a).terms.values()]
        assert coefficients and all(type(c) is int for c in coefficients)


def test_loaded_integer_constants_are_int():
    doc = free_presentation(["a"], 3).to_json()
    doc["product"]["a"]["a"] = [["1/2", "a[a]"], ["-4/2", "a[a]"]]
    alg = PresentedAlgebra.from_json(doc)
    a, aa = alg.key("a"), alg.key("a[a]")
    assert alg.product_basis(a, a).terms == {aa: Fraction(-3, 2)}
    coefficients = alg.product_basis(aa, a).terms.values()
    assert coefficients and all(type(c) is int for c in coefficients)


def test_reconstruction_rejects_corruption():
    alg = free_presentation(["a"], 4)
    doc = alg.to_json()
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    rep = reconstruct(PresentedAlgebra.from_json(doc), 4)
    assert not rep.ok
    assert rep.validation_failures
    assert not rep.degrees
    assert "distributive law" in rep.summary()


def test_reconstruct_on_free_context_directly():
    rep = reconstruct(FreeTreeAlgebra(["a"]), 4)
    assert rep.ok and rep.dims() == [1, 1, 2, 4]


def phi_by_substitution(tree, leaf_map):
    """Direct evaluation when every primitive is represented by a single
    letter: relabel each vertex through ``leaf_map`` (label -> label)."""
    return kernel.node(leaf_map[tree.label], [phi_by_substitution(c, leaf_map) for c in tree.children])


def test_phi_by_substitution():
    t = parse_tree("p1_0[p1_0,p1_1]")
    assert phi_by_substitution(t, {"p1_0": "a", "p1_1": "b"}) == parse_tree("a[a,b]")


def test_phi_matches_substitution_on_free_algebra(alg):
    # on the free algebra the primitives of degree 1 are its letters, so
    # peeling root subtrees must agree with relabeling the vertices
    reps = {"p1_%d" % i: p for i, p in enumerate(primitives_basis(alg, 1))}
    leaf_map = {}
    for label, rep in reps.items():
        ((leaf, coeff),) = rep.items()
        assert coeff == 1 and leaf.arity == 0
        leaf_map[label] = leaf.label
    assert sorted(leaf_map.values()) == ["a", "b"]
    memo = {}
    for n in range(1, 6):
        for t in tree_core.enumerate_trees(sorted(reps), n):
            assert evaluate_monomial(t, reps, alg, memo) == Element.of(phi_by_substitution(t, leaf_map))


def test_reconstruction_suite():
    for r in checks.check_reconstruction(5, 42):
        assert r.ok, r.line()
