"""Differential tests for ``freemod.Filtration`` against the per-element
filtration computation it replaced, kept here as the oracle on the dense
``Fraction`` row reduction of ``dense_linalg``, and the property that lets
``validate`` skip connectedness: a graded coproduct bounds the filtration
degree by the degree."""

import math
import random
from fractions import Fraction

import pytest
import validate_oracle
from dense_linalg import echelon, element_vector, in_row_span, nullspace, reduce_mod_rows, transpose
from hypothesis import given, settings
from hypothesis import strategies as st

from treelie import checks, cli, freemod, rigidity, tree_core
from treelie.freemod import (
    Element,
    Filtration,
    TensorElement,
    accumulate,
    filtration_degree,
    reduce_row,
    rref,
    sparse_nullspace,
)
from treelie.nap_coalgebra import coproduct_basis
from treelie.tree_core import parse_tree


def oracle_filtration_degree(x, coproduct, basis=None):
    """The original one-element computation: rebuilds every C_n from scratch."""
    if x.is_zero():
        raise ValueError("the zero element has no filtration degree")
    if basis is None:
        letters = sorted({v.label for k in x.support() for v in tree_core.vertices(k)})

        def basis(d):
            return tree_core.enumerate_trees(letters, d)

    dmax = x.max_degree()
    bases = {d: list(basis(d)) for d in range(1, dmax + 1)}
    index = {d: {k: i for i, k in enumerate(bases[d])} for d in bases}
    deltas = {d: [coproduct(k) for k in bases[d]] for d in bases}

    def locate(key):
        d = key.degree
        i = index.get(d, {}).get(key)
        return (d, i) if i is not None else None

    layout = {}
    for d in bases:
        blocks = set()
        strays = {}
        for t in deltas[d]:
            for (u, v), _ in t.items():
                lu, lv = locate(u), locate(v)
                if lu is not None and lv is not None:
                    blocks.add((lu[0], lv[0]))
                elif (u, v) not in strays:
                    strays[(u, v)] = len(strays)
        layout[d] = (sorted(blocks), strays)

    def tensor_vector(t, d):
        blocks, strays = layout[d]
        offsets = {}
        total = 0
        for d1, d2 in blocks:
            offsets[(d1, d2)] = total
            total += len(bases[d1]) * len(bases[d2])
        vec = [Fraction(0)] * (total + len(strays))
        for (u, v), c in t.items():
            lu, lv = locate(u), locate(v)
            if lu is not None and lv is not None:
                vec[offsets[(lu[0], lv[0])] + lu[1] * len(bases[lv[0]]) + lv[1]] += c
            else:
                vec[total + strays[(u, v)]] += c
        return vec

    c_space = {}
    for n in range(1, dmax + 1):
        c_space[n] = {}
        for d in bases:
            dim = len(bases[d])
            blocks, strays = layout[d]
            span = {}
            if n > 1:
                for d1, d2 in blocks:
                    span_rows = []
                    for i in range(1, n):
                        left, _ = c_space[i][d1]
                        right, _ = c_space[n - i][d2]
                        for lv in left:
                            for rv in right:
                                span_rows.append([a * b for a in lv for b in rv])
                    span[(d1, d2)] = echelon(span_rows) if span_rows else ([], [])
            reduced = []
            for t in deltas[d]:
                row = []
                full = tensor_vector(t, d)
                pos = 0
                for d1, d2 in blocks:
                    width = len(bases[d1]) * len(bases[d2])
                    vec = full[pos : pos + width]
                    pos += width
                    if n > 1:
                        ech, piv = span[(d1, d2)]
                        vec = reduce_mod_rows(vec, ech, piv)
                    row.extend(vec)
                row.extend(full[pos:])
                reduced.append(row)
            if not reduced or not reduced[0]:
                kern = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
            else:
                kern = nullspace(transpose(reduced))
            c_space[n][d] = echelon(kern) if kern else ([], [])
        ok = True
        for d in x.degrees():
            vec = element_vector(x.homogeneous_part(d), index[d])
            ech, piv = c_space[n][d]
            if not in_row_span(vec, ech, piv):
                ok = False
                break
        if ok:
            return n
    return math.inf


def _random_combination(rng, keys):
    picked = rng.sample(keys, rng.randint(1, min(4, len(keys))))
    x = Element({k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3])) for k in picked})
    return x if not x.is_zero() else Element.of(keys[0])


@pytest.mark.parametrize("alphabet,max_degree", [(["a"], 5), (["a", "b"], 3)])
def test_free_algebra_matches_oracle(alphabet, max_degree):
    alg = rigidity.FreeTreeAlgebra(alphabet)
    filt = Filtration(coproduct_basis, alg.basis, max_degree)
    keys = [t for d in range(1, max_degree + 1) for t in alg.basis(d)]
    for t in keys:
        x = Element.of(t)
        assert filt.degree_of(x) == oracle_filtration_degree(x, coproduct_basis) == t.degree
        assert filtration_degree(x, coproduct_basis) == t.degree
    rng = random.Random(20)
    for _ in range(25):
        x = _random_combination(rng, keys)
        expected = oracle_filtration_degree(x, coproduct_basis, alg.basis)
        assert filt.degree_of(x) == expected
        assert filtration_degree(x, coproduct_basis, alg.basis) == expected


def test_primitive_combinations_have_degree_one():
    # e projects onto the primitives, which make up C_1
    alg = rigidity.FreeTreeAlgebra(["a", "b"])
    filt = Filtration(coproduct_basis, alg.basis, 3)
    for t in alg.basis(3):
        x = rigidity.idempotent_e(Element.of(t), alg)
        if not x.is_zero():
            assert filt.degree_of(x) == oracle_filtration_degree(x, coproduct_basis) == 1


@pytest.mark.parametrize("alphabet,max_degree,seed", [(["a"], 5, 3), (["a", "b"], 3, 8)])
def test_change_of_basis_matches_oracle(alphabet, max_degree, seed):
    alg = rigidity.change_of_basis(rigidity.free_presentation(alphabet, max_degree), seed)
    filt = Filtration(alg.coproduct_basis, alg.basis, max_degree)
    keys = [k for d in alg.degrees() for k in alg.basis(d)]
    for k in keys:
        x = Element.of(k)
        assert filt.degree_of(x) == oracle_filtration_degree(x, alg.coproduct_basis, alg.basis) <= k.degree
    rng = random.Random(seed)
    for _ in range(15):
        x = _random_combination(rng, keys)
        assert filt.degree_of(x) == oracle_filtration_degree(x, alg.coproduct_basis, alg.basis)


def test_nonconnected_fake_coproduct_is_infinite():
    x = parse_tree("a")

    def bad(t):
        return TensorElement.of((t, t))

    def basis(d):
        return [x] if d == 1 else []

    assert oracle_filtration_degree(Element.of(x), bad, basis) == math.inf
    assert Filtration(bad, basis, 1).degree_of(Element.of(x)) == math.inf
    assert Filtration(bad, basis, 3).degree_of(Element.of(x)) == math.inf


def test_ungraded_coproduct_with_strays_matches_oracle():
    # extra terms off the graded blocks: a[a] also maps to a[a] (x) a (an
    # off-block pair), and a[b] to b (x) a[a,a] (a key above the degree).
    def ungraded(t):
        out = coproduct_basis(t)
        if t == parse_tree("a[a]"):
            out = out + TensorElement.of((t, parse_tree("a")))
        if t == parse_tree("a[b]"):
            out = out + TensorElement.of((parse_tree("b"), parse_tree("a[a,a]")))
        return out

    alg = rigidity.FreeTreeAlgebra(["a", "b"])
    keys = [t for d in range(1, 4) for t in alg.basis(d)]
    rng = random.Random(5)
    xs = [Element.of(t) for t in keys] + [_random_combination(rng, keys) for _ in range(20)]
    seen = set()
    for x in xs:
        expected = oracle_filtration_degree(x, ungraded, alg.basis)
        seen.add(expected)
        assert Filtration(ungraded, alg.basis, x.max_degree()).degree_of(x) == expected
        assert filtration_degree(x, ungraded, alg.basis) == expected
    assert math.inf in seen and 1 in seen


SMALL_COEFFS = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_coproducts_with_strays_match_oracle(data):
    """Small named bases (1-3 keys per degree up to a top degree 2-4) with
    random graded coproducts; a few keys also get an off-grade pair or a
    pair with a key outside the basis, in range or above the top degree."""
    top = data.draw(st.integers(2, 4), label="top")
    bases = {
        d: [rigidity.BasisKey(d, "g%d_%d" % (d, i)) for i in range(data.draw(st.integers(1, 3)))]
        for d in range(1, top + 1)
    }
    keys = [k for d in bases for k in bases[d]]
    outside = [rigidity.BasisKey(1, "x"), rigidity.BasisKey(top, "y"), rigidity.BasisKey(top + 1, "z")]
    stray_pair = st.tuples(st.sampled_from(keys + outside), st.sampled_from(keys + outside))
    strays = data.draw(st.sets(st.sampled_from(keys), max_size=2), label="strays")
    images = {}
    for k in keys:
        legs = [(u, v) for i in range(1, k.degree) for u in bases[i] for v in bases[k.degree - i]]
        terms = []
        if legs:
            terms = data.draw(st.lists(st.tuples(st.sampled_from(legs), SMALL_COEFFS), max_size=3))
        if k in strays:
            terms += [(data.draw(stray_pair), data.draw(SMALL_COEFFS))]
        images[k] = TensorElement._trusted(2, accumulate({}, terms))

    def coproduct(k):
        return images[k]

    def basis(d):
        return bases.get(d, [])

    combo = st.dictionaries(st.sampled_from(keys), SMALL_COEFFS, min_size=1, max_size=3)
    combos = data.draw(st.lists(combo, max_size=3), label="combos")
    filtrations = {m: Filtration(coproduct, basis, m) for m in bases}
    for x in [Element.of(k) for k in keys] + [Element(c) for c in combos]:
        expected = oracle_filtration_degree(x, coproduct, basis)
        assert filtrations[x.max_degree()].degree_of(x) == expected
        assert filtration_degree(x, coproduct, basis) == expected


def test_degree_of_rejects_zero_and_too_high_degree():
    filt = Filtration(coproduct_basis, lambda d: tree_core.enumerate_trees(["a"], d), 2)
    with pytest.raises(ValueError):
        filt.degree_of(Element())
    with pytest.raises(ValueError):
        filt.degree_of(Element.of(parse_tree("a[a,a]")))


class _CountingFiltration(Filtration):
    built = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)


def test_validate_builds_no_filtration(monkeypatch):
    alg = rigidity.free_presentation(["a", "b"], 3)

    def refuse(self, *args):
        raise AssertionError("validate built a Filtration")

    monkeypatch.setattr(Filtration, "__init__", refuse)
    assert rigidity.validate(alg, 3) == []


def test_reconstruct_lays_out_each_degree_once_and_never_runs_e(monkeypatch):
    calls = []
    laid_out = []
    lay_out = Filtration._lay_out

    def counting(self, d):
        laid_out.append(d)
        return lay_out(self, d)

    monkeypatch.setattr(Filtration, "_lay_out", counting)
    monkeypatch.setattr(rigidity, "idempotent_e", lambda *args: calls.append(args))
    alg = rigidity.change_of_basis(rigidity.free_presentation(["a", "b"], 3), 3)
    assert rigidity.reconstruct(alg, 3).ok
    assert laid_out and len(set(laid_out)) == len(laid_out)
    assert calls == []


COEFFS = ["0", "1", "-1", "2", "1/2"]


def _graded_doc(data):
    """A presented algebra document with 1-3 names per degree up to a top
    degree 2-5 and random coefficients on degree-admissible coproduct legs
    and product targets; no relation is imposed."""
    top = data.draw(st.integers(2, 5), label="top")
    names = {d: ["g%d_%d" % (d, i) for i in range(data.draw(st.integers(1, 3)))] for d in range(1, top + 1)}
    product = {}
    for d1 in range(1, top):
        for d2 in range(1, top - d1 + 1):
            targets = st.tuples(st.sampled_from(COEFFS), st.sampled_from(names[d1 + d2]))
            for a in names[d1]:
                for b in names[d2]:
                    product.setdefault(a, {})[b] = [list(t) for t in data.draw(st.lists(targets, max_size=2))]
    coproduct = {}
    for d in range(2, top + 1):
        legs = [(u, v) for i in range(1, d) for u in names[i] for v in names[d - i]]
        terms = st.tuples(st.sampled_from(COEFFS), st.sampled_from(legs))
        for a in names[d]:
            coproduct[a] = [[c, u, v] for c, (u, v) in data.draw(st.lists(terms, max_size=3))]
    doc = {"generators": {str(d): ns for d, ns in names.items()}, "product": product, "coproduct": coproduct}
    return doc, top


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grading_bounds_the_filtration_degree(data):
    """With the grading holding and every degree >= 1, every basis element
    has filtration degree at most its degree, so ``validate`` needs no
    connectedness pass: it reports what the oracle, which still runs one,
    reports."""
    doc, top = _graded_doc(data)
    alg = rigidity.PresentedAlgebra.from_json(doc)
    filtration = Filtration(alg.coproduct_basis, alg.basis, top)
    for d in range(1, top + 1):
        for k in alg.basis(d):
            assert filtration.degree_of(Element.of(k)) <= k.degree
    for limit in (1, 5):
        expected = validate_oracle.validate(rigidity.PresentedAlgebra.from_json(doc), top, limit)
        assert rigidity.validate(alg, top, limit) == expected


def _exact_build(self, n, d):
    """``Filtration._build`` without its shortcuts: every space is the
    ``rref`` of the nullspace of the reduced coproduct rows."""
    dim = len(self._bases[d])
    if n > 1:
        below = self._space(n - 1, d)
        if len(below) == dim:
            return below
    columns, rows = self._lay_out(d)
    if n > 1:
        span = self._tensor_span(n, columns)
        rows = [reduce_row(row, span) for row in rows]
    transposed = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            transposed.setdefault(c, {})[i] = v
    return rref(sparse_nullspace(transposed.values(), dim))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_certificate_keeps_the_filtration(data):
    """Every ``C_n`` within ``H_d`` and every ``primitives_basis`` equal
    the exact path's, with the certificate's prime lowered to 2, 3 or 5 so
    that reductions lose rank and the documents' 1/2 has no value mod 2."""
    doc, top = _graded_doc(data)
    prime = data.draw(st.sampled_from([2, 3, 5, freemod.RANK_PRIME]), label="prime")

    def spaces():
        alg = rigidity.PresentedAlgebra.from_json(doc)
        filtration = Filtration(alg.coproduct_basis, alg.basis, top)
        degrees = range(1, top + 1)
        got = [filtration.space(n, d) for n in degrees for d in degrees]
        return got + [rigidity.primitives_basis(alg, d) for d in degrees]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Filtration, "_build", _exact_build)
        expected = spaces()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freemod, "RANK_PRIME", prime)
        assert spaces() == expected


def test_cooperation_vanishing_builds_one_filtration(monkeypatch):
    monkeypatch.setattr(checks, "Filtration", _CountingFiltration)
    _CountingFiltration.built = 0
    assert checks.check_cooperation_vanishing(5).ok
    assert _CountingFiltration.built == 1


def test_reconstruct_present_a_7(tmp_path, capsys):
    path = str(tmp_path / "a7.json")
    assert cli.main(["present", "a", "7", "-o", path]) == 0
    assert cli.main(["reconstruct", path, "7"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "isomorphism up to degree 7, dims 1,1,2,4,9,20,48"
