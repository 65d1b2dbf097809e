"""Differential tests: the hand-written key, tree and report classes against
the dataclasses they replace (``tests/dataclass_oracle.py``), and the
import-time check that treelie's CLI loads neither ``dataclasses`` nor
``inspect``."""

import operator
import subprocess
import sys
from pathlib import Path

import dataclass_oracle as old
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treelie import checks, rigidity, tree_core

COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)

# small value spaces, so that equal keys, equal degrees and equal names all occur
basis_fields = st.tuples(st.integers(1, 3), st.sampled_from(["a", "b", "a[a]", "p1_0", ""]))
parents = st.sampled_from([t.parent for n in range(1, 5) for t in tree_core.iter_labeled(n)]).map(
    lambda parent: (parent,)
)

# (new class, dataclass, constructor arguments, a field name)
KINDS = [
    (rigidity.BasisKey, old.BasisKey, basis_fields, "degree"),
    (tree_core.LabeledTree, old.LabeledTree, parents, "parent"),
]


def _outcome(op, x, y):
    try:
        return op(x, y)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("new, oracle, args, field", KINDS)
def test_comparisons_hash_and_repr_match_the_dataclass(new, oracle, args, field):
    @given(args, args)
    def check(u, v):
        for op in COMPARISONS:
            assert op(new(*u), new(*v)) == op(oracle(*u), oracle(*v))
        assert hash(new(*u)) == hash(oracle(*u))
        assert repr(new(*u)) == repr(oracle(*u))
        # a plain tuple of the same fields is never equal, and is not ordered against
        for op in COMPARISONS:
            for plain in (u, u[0]):
                assert _outcome(op, new(*u), plain) == _outcome(op, oracle(*u), plain)
                assert _outcome(op, plain, new(*u)) == _outcome(op, plain, oracle(*u))

    check()


@pytest.mark.parametrize("new, oracle, args, field", KINDS)
def test_sorted_sets_and_dicts_match_the_dataclass(new, oracle, args, field):
    @given(st.lists(args, max_size=12))
    def check(items):
        assert [repr(x) for x in sorted(new(*u) for u in items)] == [
            repr(x) for x in sorted(oracle(*u) for u in items)
        ]
        # equal hashes and equality give the same dict and set iteration order
        assert [repr(x) for x in dict.fromkeys(new(*u) for u in items)] == [
            repr(x) for x in dict.fromkeys(oracle(*u) for u in items)
        ]
        assert [repr(x) for x in {new(*u) for u in items}] == [repr(x) for x in {oracle(*u) for u in items}]

    check()


@pytest.mark.parametrize("new, oracle, args, field", KINDS)
def test_keys_and_trees_are_immutable(new, oracle, args, field):
    @given(args)
    def check(u):
        for obj in (new(*u), oracle(*u)):
            before = repr(obj)
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert repr(obj) == before

    check()


def test_keyword_construction_and_trusted_trees():
    assert rigidity.BasisKey(name="x", degree=2) == rigidity.BasisKey(2, "x")
    assert str(rigidity.BasisKey(2, "x")) == "x"
    assert tree_core.LabeledTree(parent=(2, 0)) == tree_core.LabeledTree._trusted((2, 0))
    assert hash(tree_core.LabeledTree._trusted((2, 0))) == hash(old.LabeledTree((2, 0)))
    with pytest.raises(ValueError):
        tree_core.LabeledTree((1, 2))  # the constructor still runs the validity walk


# (new class, dataclass, number of fields, number with a default)
REPORTS = [
    (rigidity.DegreeReport, old.DegreeReport, 5, 0),
    (rigidity.ReconstructionReport, old.ReconstructionReport, 5, 1),
    (checks.CheckResult, old.CheckResult, 3, 1),
]
field_values = st.one_of(
    st.integers(0, 2),
    st.booleans(),
    st.sampled_from(["", "x", None]),
    st.lists(st.integers(0, 1), max_size=2),
)


@pytest.mark.parametrize("new, oracle, size, defaults", REPORTS)
def test_reports_match_the_dataclass(new, oracle, size, defaults):
    fields = st.lists(field_values, min_size=size, max_size=size)

    @given(fields, fields, st.booleans())
    def check(u, v, use_defaults):
        if use_defaults:
            u = u[: size - defaults]
        assert repr(new(*u)) == repr(oracle(*u))
        assert repr(new(**dict(zip(new._fields, u)))) == repr(oracle(*u))
        for op in (operator.eq, operator.ne):
            assert op(new(*u), new(*v)) == op(oracle(*u), oracle(*v))
            assert op(new(*u), tuple(u)) == op(oracle(*u), tuple(u))
        mine, theirs = new(*u), oracle(*u)
        for obj in (mine, theirs):
            with pytest.raises(TypeError):
                hash(obj)
            setattr(obj, new._fields[0], v[0])  # fields stay assignable, as in the dataclass
        assert repr(mine) == repr(theirs)

    check()


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, %r); import treelie.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))" % src
    )
    out = subprocess.run([sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
