"""The checks that read each element's iterates once, and its products through
the run's shared algebra, and the relations walked once per equation by
``symmetric_outcomes``, return the results of the per-case walks in
``checks_oracle``: the same verdict, the same first witness and the same case
count.  They are compared on the free algebra and on two perturbed kernels,
which every path reads at each call: the coproduct of one tree doubled, and
one graft dropped from the products of one host tree.
"""

import checks_oracle
import pytest

from treelie import checks, kernel
from treelie.tree_core import parse_tree

CASES = [
    ("check_prelie_relation", (("a",), 6)),
    ("check_prelie_relation", (("a", "b"), 5)),
    ("check_nap_relation", (("a",), 6)),
    ("check_nap_relation", (("a", "b"), 5)),
    ("check_deltak_invariance", (("a",), 6, 4)),
    ("check_deltak_invariance", (("a", "b"), 5, 4)),
    ("check_deltak_bracketings", (("a",), 5, 3)),
    ("check_deltak_bracketings", (("a", "b"), 4, 3)),
    ("check_iterated_distributive_law", (("a",), 6, 4)),
    ("check_iterated_distributive_law", (("a", "b"), 4, 4)),
    ("check_annihilation", (("a",), 6)),
    ("check_annihilation", (("a", "b"), 4)),
    ("check_delta_ak", (6, 4)),
    ("check_derivation_ak", (6, 3)),
    ("check_petit_dernier", (5, 3)),
]


def _double_one_coproduct(monkeypatch):
    target = parse_tree("a[a,a[a]]")
    counts = kernel.coproduct_counts

    def doubled(t):
        got = counts(t)
        return {pair: 2 * c for pair, c in got.items()} if t is target else got

    monkeypatch.setattr(kernel, "coproduct_counts", doubled)


def _drop_one_graft(monkeypatch):
    host = parse_tree("a[a]")
    counts = kernel.prelie_counts

    def dropped(s, t):
        got = counts(s, t)
        if s is host:
            got = dict(got)
            top = kernel.root_graft(s, t)
            got[top] -= 1
            if not got[top]:
                del got[top]
        return got

    monkeypatch.setattr(kernel, "prelie_counts", dropped)


PERTURBATIONS = {"free": None, "coproduct doubled": _double_one_coproduct, "graft dropped": _drop_one_graft}


@pytest.mark.parametrize("shared", [False, True], ids=["fresh algebra", "shared algebra"])
@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
def test_reuse_keeps_every_result(monkeypatch, perturbation, shared):
    perturb = PERTURBATIONS[perturbation]
    if perturb is not None:
        perturb(monkeypatch)

    def results(module):
        if shared:
            # as inside run_suite: one algebra per alphabet for all the checks
            monkeypatch.setattr(checks, "_shared", {})
        return [getattr(module, name)(*args) for name, args in CASES]

    expected = results(checks_oracle)
    assert results(checks) == expected
    failed = [r for r in expected if not r.ok]
    if perturb is None:
        assert not failed
    else:  # each perturbation fails several of the checks, with their witnesses compared
        assert len(failed) >= 6
