"""Shared fixtures.

``shared_operad_walk`` lets the tests that run the whole operad suite share
one exhaustive arity-3 axiom walk: ``operads.check_operad_axioms`` is
deterministic, so its outcome list for one ``(parents, max_arity)`` is
computed once per session, and every caller gets a copy of it.
"""

import pytest

from treelie import operads


@pytest.fixture(scope="session")
def _operad_axioms_memo():
    walk = operads.check_operad_axioms
    memo = {}

    def check_operad_axioms(parents, max_arity):
        got = memo.get((parents, max_arity))
        if got is None:
            got = memo[(parents, max_arity)] = walk(parents, max_arity)
        return list(got)

    return check_operad_axioms


@pytest.fixture
def shared_operad_walk(monkeypatch, _operad_axioms_memo):
    """Memoize ``operads.check_operad_axioms`` for the session while one test runs."""
    monkeypatch.setattr(operads, "check_operad_axioms", _operad_axioms_memo)
