"""Acceptance suite: every criterion is an exact (zero-tolerance) identity
over rationals, checked exhaustively on the stated tree sets.  One pass/fail
line is printed per criterion; run with ``pytest -s`` to see them.
"""

import math

import pytest

from treelie import checks
from treelie.rigidity import free_presentation, reconstruct
from treelie.tree_core import enumerate_heap_ordered, enumerate_labeled, enumerate_trees

SEED = 42


def _report(number, name, results):
    ok = all(r.ok for r in results)
    print("criterion %d (%s): %s" % (number, name, "PASS" if ok else "FAIL"))
    for r in results:
        assert r.ok, r.line()


def test_criterion_1_prelie_relation():
    results = [
        checks.check_prelie_relation(("a",), 6),
        checks.check_prelie_relation(("a", "b"), 5),
    ]
    _report(1, "pre-Lie relation, 1 generator <= 6 and 2 generators <= 5", results)


def test_criterion_2_nap_relations_and_invariance():
    results = [
        checks.check_nap_relation(("a",), 6),
        checks.check_nap_relation(("a", "b"), 5),
        checks.check_nap_coalgebra_relation(("a",), 7),
        checks.check_nap_coalgebra_relation(("a", "b"), 5),
        checks.check_deltak_invariance(("a",), 6, 4),
        checks.check_deltak_invariance(("a", "b"), 6, 4),
    ]
    _report(2, "permutative algebra/coalgebra relations and invariance", results)


def test_criterion_3_distributive_law():
    results = [
        checks.check_distributive_law(("a",), 6),
        checks.check_distributive_law(("a", "b"), 6),
        checks.check_iterated_distributive_law(("a",), 6, 4),
        checks.check_iterated_distributive_law(("a", "b"), 6, 4),
    ]
    _report(3, "distributive law and its iterate, total degree <= 6", results)


def test_criterion_4_projector_properties():
    results = [
        checks.check_projector(("a",), 6),
        checks.check_projector(("a", "b"), 6),
        checks.check_annihilation(("a",), 6),
        checks.check_annihilation(("a", "b"), 6),
    ]
    _report(4, "projector and annihilation, alphabets of size 1 and 2, degree <= 6", results)


def test_criterion_5_decomposition():
    results = [checks.check_decomposition(6)]
    _report(5, "primitive + decomposable splitting with dims 1,1,2,4,9,20", results)


def test_criterion_6_splitting_identities():
    results = [
        checks.check_delta_ak(6, 4),
        checks.check_derivation_ak(6, 3),
        checks.check_petit_dernier(6, 3),
    ]
    _report(6, "coproduct/action identities for the A_k operators", results)


@pytest.mark.usefixtures("shared_operad_walk")
def test_criterion_7_operads():
    results = checks.check_operads(SEED)
    _report(7, "operad axioms, presentation and evaluation", results)


def test_criterion_8_reconstruction():
    results = checks.check_reconstruction(5, SEED)
    rep = reconstruct(free_presentation(["a"], 5), 5)
    results.append(
        checks.CheckResult(
            "coalgebra morphism identity holds degree-wise",
            rep.ok and all(d.coalgebra_ok for d in rep.degrees),
            "dims %s" % ",".join(str(d) for d in rep.dims()),
        )
    )
    _report(8, "self-reconstruction, twisted reconstruction, corrupted rejection", results)


def test_criterion_9_heap_expansion_and_counts():
    results = [
        checks.check_heap_expansion(5),
        checks.check_heap_counts(7, 6),
    ]
    # spell the counting laws out once more, directly
    for k in range(1, 8):
        assert len(enumerate_heap_ordered(k)) == math.factorial(k - 1)
    for n in range(1, 7):
        assert len(enumerate_labeled(n)) == n ** (n - 1)
    assert [len(enumerate_trees(["a"], n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    _report(9, "heap-ordered expansion of A_k and enumeration counts", results)
