"""Differential tests: the dense functions of ``freemod``, now conversions
over its sparse elimination kernel, and the kernel's callers against the
dense ``Fraction`` row reduction they replaced (``dense_linalg``)."""

from fractions import Fraction

import dense_linalg as dense
import pytest
from dense_linalg import element_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from treelie import freemod
from treelie.freemod import (
    Element,
    echelon,
    nullspace,
    rank_mod_p,
    rank_of_family,
    render_rational,
    rref,
    sparse_nullspace,
)
from treelie.rigidity import _kernel_witness
from treelie.tree_core import enumerate_trees

# mostly zeros, as in the filtration and coproduct matrices
ints = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
entries = st.one_of(ints, fractions)


@st.composite
def matrices(draw, shape=None):
    """Int/Fraction matrices of any shape (empty, wide, tall), some rows
    zero or repeated as they are or scaled."""
    nrows, ncols = shape or (draw(st.integers(0, 6)), draw(st.integers(0, 7)))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "copy" and i > 0:
            f = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            rows[i] = [f * v for v in rows[draw(st.integers(0, i - 1))]]
    return rows


def _all_fractions(rows):
    return all(isinstance(v, Fraction) for row in rows for v in row)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_echelon_rank_nullspace_match_dense(rows):
    got = echelon(rows)
    assert got == dense.echelon(rows)
    assert _all_fractions(got[0])
    null = nullspace(rows)
    assert null == dense.nullspace(rows)
    assert _all_fractions(null)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_sparse_kernel_shapes(rows):
    ncols = len(rows[0]) if rows else 0
    sparse = [{c: v for c, v in enumerate(r) if v} for r in rows]
    before = [dict(r) for r in sparse]
    ech = rref(sparse)
    assert sparse == before  # the input is not changed
    assert list(ech) == sorted(ech)
    for p, row in ech.items():
        assert 0 not in row.values()
        assert min(row) == p and row[p] == 1
        assert all(q == p or q not in row for q in ech)
    for vec in sparse_nullspace(sparse, ncols):
        assert 0 not in vec.values()
        for r in sparse:
            assert sum(v * vec.get(c, 0) for c, v in r.items()) == 0


def test_rank_of_family_matches_dense():
    trees = enumerate_trees(["a", "b"], 3)
    index = {t: i for i, t in enumerate(trees)}
    family = [
        Element.of(trees[0]) + Element.of(trees[1], Fraction(1, 2)),
        Element.of(trees[2], 3) - Element.of(trees[0]),
        Element.of(trees[1], -2) + Element.of(trees[2], 3),
        Element.of(trees[3]),
        Element.of(trees[3], Fraction(-5, 7)),
    ]
    for k in range(len(family) + 1):
        rows = [element_vector(x, index) for x in family[:k]]
        assert rank_of_family(family[:k], 3) == dense.matrix_rank(rows)



def _rank_mod(rows, p):
    """Rank of a dense matrix over the integers mod ``p``, or None when an
    entry's denominator is divisible by ``p``: the oracle of ``rank_mod_p``."""
    mat = []
    for r in rows:
        if any(Fraction(v).denominator % p == 0 for v in r):
            return None
        mat.append([Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in r])
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] * inv
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from([2, 3, 5, freemod.RANK_PRIME]))
def test_rank_certificate_matches_dense(rows, prime):
    """With the prime lowered to 2, 3 or 5, reductions lose rank and
    denominators vanish mod p: ``rank_mod_p`` is the rank of the matrix mod
    p (None when a denominator vanishes), and ``rank_of_family``, which
    takes it only when it is full, stays the exact rank."""
    trees = enumerate_trees(["a", "b"], 3)
    family = [Element(dict(zip(trees, r))) for r in rows]
    sparse = [{c: v for c, v in enumerate(r) if v} for r in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freemod, "RANK_PRIME", prime)
        assert rank_mod_p(sparse) == _rank_mod(rows, prime)
        assert rank_of_family(family, 3) == dense.matrix_rank(rows)


def test_rank_of_family_falls_back_when_the_certificate_fails(monkeypatch):
    """Mod 2 the row 2 * t vanishes and 1/2 * t has no value; both are rank
    1 over Q, found by ``rref``."""
    t = enumerate_trees(["a"], 3)[0]
    monkeypatch.setattr(freemod, "RANK_PRIME", 2)
    for c in (2, Fraction(1, 2)):
        assert rank_of_family([Element.of(t, c)], 3) == 1
    assert rank_mod_p([{0: 2}]) == 0 and rank_mod_p([{0: Fraction(1, 2)}]) is None
    assert rank_of_family([Element.of(t, 3)], 3) == 1 and rank_mod_p([{0: 3}]) == 1


def oracle_kernel_witness(trees, images):
    """``rigidity._kernel_witness`` on the dense row reduction."""
    keys = set()
    for x in images:
        keys.update(x.support())
    if not keys:
        return "1 * %s" % trees[0] if trees else None
    index = {k: i for i, k in enumerate(sorted(keys))}
    rows = [element_vector(x, index) for x in images]
    null = dense.nullspace(dense.transpose(rows))
    if not null:
        return None
    return " + ".join("%s * %s" % (render_rational(c), t) for c, t in zip(null[0], trees) if c)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), max_size=6))
def test_kernel_witness_matches_dense(coeffs):
    keys = enumerate_trees(["a", "b"], 3)[:4]
    images = [Element(dict(zip(keys, row))) for row in coeffs]
    trees = ["t%d" % i for i in range(len(images))]
    assert _kernel_witness(trees, images, 3, None) == oracle_kernel_witness(trees, images)
