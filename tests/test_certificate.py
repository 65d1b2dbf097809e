"""The certificate of ``reconstruct`` against the path it stands in for.

``reconstruct`` first tries ``rigidity._certify``: phi from the free algebra
on the primitives must be bijective and carry the coproduct and the product,
and a primitive space is read as 0 where the trees number ``dim H_n``.  Any
input it does not certify goes through ``rigidity._validated_reconstruction``
(``validate``, then the reconstruction), which is also the oracle here: both
must give equal reports and print the same summary."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_relations import BASES, KINDS, _base_doc, _perturb
from test_weighted import _weighted_free_presentation

from treelie import rigidity
from treelie.rigidity import PresentedAlgebra, change_of_basis, free_presentation, primitives_basis, reconstruct

# free algebras whose generators sit in several degrees: P_2, P_3 != 0
WEIGHTS = [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 1, "b": 3, "c": 3}, {"a": 2}]


def _same_report(alg, max_degree):
    got = reconstruct(alg, max_degree)
    want = rigidity._validated_reconstruction(alg, max_degree)
    assert got == want
    assert got.summary() == want.summary()
    return got


def _inputs():
    """(algebra, max_degree) of a free, twisted or weighted presentation: an
    algebra free on its primitives, which the certificate must certify."""
    free = st.sampled_from([(("a",), 6), (("a", "b"), 4), (("a", "b", "c"), 3)]).flatmap(
        lambda an: st.tuples(st.just(an[0]), st.integers(1, an[1]), st.integers(1, an[1]))
    )
    plain = free.map(lambda a: (free_presentation(a[0], a[1]), min(a[1], a[2])))
    twisted = st.tuples(free, st.integers(0, 2**16)).map(
        lambda f: (change_of_basis(free_presentation(f[0][0], f[0][1]), f[1]), min(f[0][1], f[0][2]))
    )
    weighted = st.tuples(st.sampled_from(range(len(WEIGHTS))), st.integers(1, 6)).map(
        lambda w: (_weighted_free_presentation(WEIGHTS[w[0]], 6), w[1])
    )
    return st.one_of(plain, twisted, weighted)


@settings(max_examples=60, deadline=None)
@given(_inputs())
def test_certified_reports_match_the_validated_path(case):
    alg, max_degree = case
    assert rigidity._certify(alg, max_degree) is not None
    assert _same_report(alg, max_degree).ok


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_perturbed_reports_match_the_validated_path(base, data):
    """Changed constants: most are rejected, through ``validate`` or by the
    reconstruction, and a few changes leave an algebra free on its
    primitives; the report is the validated path's either way."""
    doc = copy.deepcopy(_base_doc(base))
    kinds = data.draw(st.sampled_from([KINDS, ["product"], ["new in product", "new coproduct"]]))
    for _ in range(data.draw(st.integers(1, 2))):
        _perturb(doc, data, kinds)
    top = BASES[base][1]
    _same_report(PresentedAlgebra.from_json(doc), data.draw(st.sampled_from([top, top - 1])))


@settings(max_examples=40, deadline=None)
@given(_inputs())
def test_a_full_rank_means_no_primitives(case):
    """The certificate computes ``primitives_basis`` only in the degrees where
    phi's images do not span; in every other degree the space is 0."""
    alg, max_degree = case
    asked = []

    def recording(alg, degree):
        asked.append(degree)
        return primitives_basis(alg, degree)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rigidity, "primitives_basis", recording)
        m.setattr(rigidity, "validate", None)  # certified: validate never runs
        rep = reconstruct(alg, max_degree)
    assert rep.ok
    for n in range(1, max_degree + 1):
        if n not in asked:
            assert primitives_basis(alg, n) == []
            assert rep.primitive_dims[n] == 0


def _doubled(doc, section, *path):
    """``doc`` with the first coefficient under ``doc[section][path...]`` doubled."""
    terms = doc[section]
    for key in path:
        terms = terms[key]
    terms[0][0] = str(2 * int(terms[0][0]))
    return doc


def _run_counting(monkeypatch, alg, free):
    """Reconstruct ``alg``, recording each coproduct and each product of basis
    keys the certificate reads after its grading pass and before ``validate``
    runs, with whether it agrees with the free algebra ``free`` of the same
    names; returns the report, the number of ``validate`` runs and the
    record."""
    top = alg.max_degree
    # the grading pass reads each key's coproduct and each pair's product once
    grading = sum(len(alg.basis(d)) for d in range(1, top + 1)) + len(list(rigidity.degree_tuples(alg, 2, top)))
    calls = {"validate": 0}
    read = []
    validate = rigidity.validate

    def counting_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    def recording(name):
        own, theirs = getattr(alg, name), getattr(free, name)

        def record(*keys):
            got = own(*keys)
            if not calls["validate"]:
                read.append((name, keys, got == theirs(*(free.key(k.name) for k in keys))))
            return got

        return record

    monkeypatch.setattr(rigidity, "validate", counting_validate)
    alg.coproduct_basis = recording("coproduct_basis")
    alg.product_basis = recording("product_basis")
    rep = reconstruct(alg, top)
    return rep, calls["validate"], read[grading:]


def test_a_doubled_coproduct_stops_the_certificate_at_its_tree(monkeypatch):
    """The coproduct of a degree-3 key is doubled: the certificate stops at
    the coalgebra comparison of that key, evaluates nothing above degree 3,
    and the validated path runs once and reports the failure."""
    free = free_presentation(["a"], 6)
    doc = _doubled(free.to_json(), "coproduct", "a[a,a]")
    rep, validated, read = _run_counting(monkeypatch, PresentedAlgebra.from_json(doc), free)
    assert validated == 1
    assert rep.validation_failures and not rep.degrees
    assert max(k.degree for _, keys, _ in read for k in keys) <= 3
    assert all(agreed for _, _, agreed in read[:-1])
    assert read[-1] == ("coproduct_basis", (free.key("a[a,a]"),), False)


def test_a_product_phi_does_not_use_stops_the_certificate_at_its_pair(monkeypatch):
    """The product of ``a[a[a]]`` and ``a`` is changed, a product the
    definition of phi never reads: every coproduct comparison passes, and
    the certificate stops at the comparison of that pair."""
    free = free_presentation(["a"], 5)
    doc = _doubled(free.to_json(), "product", "a[a[a]]", "a")
    rep, validated, read = _run_counting(monkeypatch, PresentedAlgebra.from_json(doc), free)
    assert validated == 1
    assert rep.validation_failures
    assert all(agreed for _, _, agreed in read[:-1])
    assert read[-1] == ("product_basis", (free.key("a[a[a]]"), free.key("a")), False)


@pytest.mark.parametrize("alphabet,max_degree", [(["a"], 5), (["a", "b"], 3)])
def test_a_degree_past_the_basis_is_not_certified(alphabet, max_degree):
    """Past the top degree of a document ``H_n = 0`` while phi has trees
    there: the certificate fails and the validated path reports it."""
    alg = free_presentation(alphabet, max_degree - 1)
    assert rigidity._certify(alg, max_degree) is None
    assert not _same_report(alg, max_degree).ok
