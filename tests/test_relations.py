"""The degree-bucketed tuple walker, the three relation predicates and the
check driver, against the code they replaced (``validate_oracle``)."""

import copy
import itertools

import pytest
import validate_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from test_weighted import _weighted_free_presentation

from treelie import checks
from treelie.rigidity import (
    FreeTreeAlgebra,
    PresentedAlgebra,
    degree_tuples,
    free_presentation,
    prelie_holds,
    prelie_triples,
    symmetric_outcomes,
    validate,
)

# -- the walker ---------------------------------------------------------------


@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
@pytest.mark.parametrize("slots", [1, 2, 3, 4, 5])
def test_degree_tuples_match_the_old_walker(alphabet, slots):
    alg = FreeTreeAlgebra(alphabet)
    for total in range(0, 8):
        assert list(degree_tuples(alg, slots, total)) == list(validate_oracle.tuples_with_total(alphabet, slots, total))


def test_degree_tuples_skip_empty_degrees():
    """Buckets may be empty: a presented algebra with nothing in degree 2."""
    alg = PresentedAlgebra({1: ["x"], 3: ["y", "z"], 4: ["w"]}, {}, {})
    basis = [k for d in range(1, 5) for k in alg.basis(d)]
    for slots, total in itertools.product(range(1, 4), range(0, 9)):
        scan = [t for t in itertools.product(basis, repeat=slots) if sum(k.degree for k in t) <= total]
        assert list(degree_tuples(alg, slots, total)) == scan


def _presented(data):
    """A presented algebra with a few names in each of some degrees, and
    gaps: only ``basis`` is read."""
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    return PresentedAlgebra({d: ["x%d_%d" % (d, i) for i in range(n)] for d, n in enumerate(sizes, 1) if n}, {}, {})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["free a", "free a,b", "weighted", "presented"]), st.integers(1, 3), st.integers(0, 8), st.data())
def test_flat_degree_tuples_match_the_recursive_walker(kind, slots, total, data):
    if kind == "presented":
        alg = _presented(data)
    elif kind == "weighted":
        alg = _weighted_free_presentation(data.draw(st.sampled_from([{"a": 1, "b": 2}, {"a": 2, "b": 3}])), 8)
    else:
        alg = FreeTreeAlgebra(kind.split()[1].split(","))
    assert list(degree_tuples(alg, slots, total)) == list(validate_oracle.degree_tuples(alg, slots, total))


def _before(alg, total):
    """The triples of ``degree_tuples(alg, 3, total)`` whose second key comes
    strictly before the third in the degree-sorted basis."""
    position = {k: i for i, k in enumerate(k for d in range(1, total + 1) for k in alg.basis(d))}
    return [(a, b, c) for a, b, c in degree_tuples(alg, 3, total) if position[b] < position[c]]


@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")])
def test_prelie_triples_are_the_ordered_triples_with_b_before_c(alphabet):
    alg = FreeTreeAlgebra(alphabet)
    for total in range(0, 8):
        assert list(prelie_triples(alg, total)) == _before(alg, total)


def test_prelie_triples_skip_empty_degrees():
    alg = PresentedAlgebra({1: ["x"], 3: ["y", "z"], 4: ["w"]}, {}, {})
    for total in range(0, 10):
        assert list(prelie_triples(alg, total)) == _before(alg, total)


# -- validate against the old pair and triple scans ----------------------------

BASES = {"a": (["a"], 5), "a,b": (["a", "b"], 3), "a4": (["a"], 4)}
_DOCS = {}


def _base_doc(name):
    if name not in _DOCS:
        _DOCS[name] = free_presentation(*BASES[name]).to_json()
    return _DOCS[name]


KINDS = ["product", "coproduct", "product degree", "coproduct degree", "new in product", "new coproduct"]


def _perturb(doc, data, kinds=KINDS):
    """One random change: a product or coproduct coefficient (possibly to zero),
    an extra term of the wrong degree, or a new top-degree basis element ``p``,
    either added to a product landing there (which can break the pre-Lie
    relation alone) or given a graded coproduct (the coalgebra relation)."""
    degree = {n: int(d) for d, names in doc["generators"].items() for n in names}
    names, top = sorted(degree), max(degree.values())
    pairs = sorted((a, b) for a in doc["product"] for b in doc["product"][a])
    kind = data.draw(st.sampled_from(kinds))
    coeff = data.draw(st.sampled_from(["0", "-1", "2", "1/2"] if kind in ("product", "coproduct") else ["1", "-3"]))
    if kind == "product":
        a, b = data.draw(st.sampled_from(pairs))
        terms = doc["product"][a][b]
        terms[data.draw(st.integers(0, len(terms) - 1))][0] = coeff
    elif kind == "coproduct":
        # an earlier "new coproduct" change may have left a name with no terms
        named = sorted(a for a, terms in doc["coproduct"].items() if terms)
        terms = doc["coproduct"][data.draw(st.sampled_from(named))]
        terms[data.draw(st.integers(0, len(terms) - 1))][0] = coeff
    elif kind == "product degree":
        a, b = data.draw(st.sampled_from(pairs))
        wrong = [n for n in names if degree[n] != degree[a] + degree[b]]
        doc["product"][a][b].append([coeff, data.draw(st.sampled_from(wrong))])
    elif kind == "coproduct degree":
        a = data.draw(st.sampled_from(names))
        u, v = data.draw(st.sampled_from([(u, v) for u in names for v in names if degree[u] + degree[v] != degree[a]]))
        doc["coproduct"].setdefault(a, []).append([coeff, u, v])
    else:
        p = "p%d" % len(names)
        doc["generators"][str(top)].append(p)
        if kind == "new in product":
            a, b = data.draw(st.sampled_from([(a, b) for a, b in pairs if degree[a] + degree[b] == top]))
            doc["product"][a][b].append([coeff, p])
        else:
            legs = [(u, v) for u in names for v in names if degree[u] + degree[v] == top]
            doc["coproduct"][p] = [[coeff, u, v] for u, v in data.draw(st.lists(st.sampled_from(legs), max_size=2))]


def _same_failures(doc, max_degree, limit):
    got = validate(PresentedAlgebra.from_json(doc), max_degree, limit)
    assert got == validate_oracle.validate(PresentedAlgebra.from_json(doc), max_degree, limit)
    return got


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.sampled_from([1, 5]), st.data())
def test_validate_matches_the_oracle_on_perturbed_constants(base, limit, data):
    doc = copy.deepcopy(_base_doc(base))
    for _ in range(data.draw(st.integers(1, 2))):
        _perturb(doc, data)
    top = BASES[base][1]
    _same_failures(doc, data.draw(st.sampled_from([top, top, top - 1])), limit)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_halved_prelie_walk_fails_exactly_when_the_full_walk_fails(base, data):
    """``symmetric_outcomes`` walks ``prelie_triples`` and falls back to
    every ordered triple on a failure: the two walks give the same verdict,
    the walker yields the ordered walk's outcomes, and ``validate`` prints
    what the full walk of the oracle prints."""
    doc = copy.deepcopy(_base_doc(base))
    # a new basis element added to one product can break the pre-Lie relation alone
    kinds = data.draw(st.sampled_from([KINDS, ["new in product"]]))
    for _ in range(data.draw(st.integers(1, 2))):
        _perturb(doc, data, kinds)
    max_degree = data.draw(st.sampled_from([BASES[base][1], BASES[base][1] - 1]))
    alg = PresentedAlgebra.from_json(doc)
    halved = all(prelie_holds(alg, *t) for t in prelie_triples(alg, max_degree))
    full = all(prelie_holds(alg, *t) for t in degree_tuples(alg, 3, max_degree))
    assert halved == full
    ordered = [None if prelie_holds(alg, *t) else t for t in degree_tuples(alg, 3, max_degree)]
    assert list(symmetric_outcomes(alg, max_degree, prelie_holds)) == ordered
    _same_failures(doc, max_degree, 5)


def _with_primitive(product_pair=None, coproduct=()):
    """``present a 4`` plus a primitive ``p`` in degree 4, added to one product
    landing there and given the coproduct ``coproduct``."""
    doc = copy.deepcopy(_base_doc("a4"))
    doc["generators"]["4"].append("p")
    if product_pair:
        doc["product"][product_pair[0]][product_pair[1]].append(["1", "p"])
    if coproduct:
        doc["coproduct"]["p"] = [["1", u, v] for u, v in coproduct]
    return doc


@pytest.mark.parametrize("limit", [1, 5])
def test_validate_matches_the_oracle_on_each_relation(limit):
    """Fixed perturbations, one per failure path: product and coproduct
    grading, the compatibility law, the coalgebra relation and the pre-Lie
    relation."""
    assert _same_failures(copy.deepcopy(_base_doc("a")), 5, limit) == []
    doc = copy.deepcopy(_base_doc("a"))
    doc["product"]["a"]["a[a]"].append(["1", "a"])
    assert _same_failures(doc, 5, limit)[0] == "grading: product a o a[a] has term a"
    doc = copy.deepcopy(_base_doc("a"))
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    assert _same_failures(doc, 5, limit)[0] == "distributive law fails at (a, a)"
    doc = _with_primitive(coproduct=[("a[a[a]]", "a")])
    assert _same_failures(doc, 4, limit) == ["coalgebra relation fails at p"]
    doc = _with_primitive(product_pair=("a[a[a]]", "a"))
    assert _same_failures(doc, 4, limit)[0] == "pre-Lie relation fails at (a, a, a[a])"
    doc = _with_primitive(coproduct=[("p", "a")])
    assert _same_failures(doc, 4, limit) == ["grading: coproduct of p has term p (x) a"]


# -- the check driver ---------------------------------------------------------


def test_driver_counts_cases_and_stops_at_the_first_failure():
    assert checks._run("x", iter([])).line() == "ok x: 0 cases"
    assert checks._run("x", iter([None, None, None])).line() == "ok x: 3 cases"
    consumed = []

    def outcomes():
        for outcome in (None, "first", "second"):
            consumed.append(outcome)
            yield outcome

    assert checks._run("x", outcomes()).line() == "FAIL x: first"
    assert consumed == [None, "first"]


def test_driver_reports_the_first_failing_tuple(monkeypatch):
    """The pre-Lie check walks ``symmetric_outcomes``: on success it evaluates
    the halved triples only and still counts every ordered triple; on a
    failure it walks the ordered triples up to the first failure, which it
    reports."""
    alg = FreeTreeAlgebra(("a", "b"))
    triples = list(degree_tuples(alg, 3, 4))
    halved = list(prelie_triples(alg, 4))
    assert checks.check_prelie_relation(("a", "b"), 4).detail == "%d cases" % len(triples)
    bad = set()
    seen = []

    def prelie_holds(alg, x, y, z):
        seen.append((x, y, z))
        return (x, y, z) not in bad

    monkeypatch.setattr(checks, "prelie_holds", prelie_holds)
    assert checks.check_prelie_relation(("a", "b"), 4).detail == "%d cases" % len(triples)
    assert seen == halved
    # a relation symmetric in its last two slots fails at (x, y, z) and at (x, z, y)
    bad.update(t for x, y, z in (triples[8], triples[11]) for t in ((x, y, z), (x, z, y)))
    seen.clear()
    result = checks.check_prelie_relation(("a", "b"), 4)
    assert not result.ok
    assert result.detail == "at (%s, %s, %s)" % triples[8]
    assert result.line() == "FAIL pre-Lie relation over ['a', 'b'], total degree <= 4: " + result.detail
    # the halved walk up to its first failure, then the ordered walk up to the same triple
    assert seen == halved[: halved.index(triples[8]) + 1] + triples[:9]
