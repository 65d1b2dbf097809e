"""The benchmark's workloads: generated inputs and job lists, from a seed.

A workload is a list of ``treelie`` CLI jobs, each with the expectation the
oracle checks, plus the presented-algebra files those jobs read.  Inputs are
described here and written by ``make_inputs.py`` in a separate process; this
module does not import treelie.

Input recipes (``inputs`` entries):
  - ``renamed``: the free presentation on ``letters`` up to ``degree`` with
    every basis name replaced by a seeded bijection within each degree and
    each degree's generator list shuffled;
  - ``perturbed``: a renamed presentation whose coproduct on one seeded
    basis element of degree >= 2 is doubled, which breaks the
    product/coproduct compatibility law;
  - ``twisted``: ``change_of_basis(free_presentation(letters, degree), seed)``.
"""

import random

from oracle import enumerate_count

# one line per workload, copied into BENCHMARK.json
WHY = {
    "reconstruct": "free presentations renamed (sparse integers: a/6, a,b/3) or in a seeded random basis (dense rationals: a/5, a,b/3), and one that must exit 3: filtration_degree/echelon, Element sums",
    "checks": "identity suites, operad axioms and tree enumeration: kernel grafting, coproduct splitting, prelie, nap_coalgebra, idempotent_e/ak_apply, LabeledTree checks, pl/nap_compose",
}


def _job(job_id, argv, expect):
    return {"id": job_id, "argv": list(argv), "expect": expect}


def _reconstruct(path, spec):
    """Reconstruct job on one generated input, judged by its recipe."""
    if spec["recipe"] == "perturbed":
        expect = {"kind": "rejected"}
    else:
        expect = {"kind": "reconstruct", "letters": len(spec["letters"]), "degree": spec["degree"]}
    return _job(path[: -len(".json")], ["reconstruct", path, str(spec["degree"])], expect)


def _enumerate(job_id, kind, *params):
    expect = {"kind": "enumerate", "count": enumerate_count(kind, params)}
    return _job(job_id, ["enumerate", kind] + list(params), expect)


def _check(suite, degree, seed):
    return _job("check-%s-%d" % (suite, degree), ["check", suite, str(degree), str(seed)], {"kind": "check"})


def plan(workload, seed):
    """``(inputs, jobs)`` for one workload and seed.

    ``inputs`` maps a file name to its recipe; jobs name those files
    relative to the run's input directory.
    """
    rng = random.Random("%s:%d" % (workload, seed))

    def sub_seed():
        return rng.randrange(2**31)

    if workload == "reconstruct":
        # jobs of 0.1-1 s, so a run holds many passes.  The median job is a
        # twisted a/5, well apart from its neighbours; its cost varies with
        # the change of basis, so three seeds of it average that out.
        inputs = {
            "free-ab3.json": {"recipe": "renamed", "letters": ["a", "b"], "degree": 3, "seed": sub_seed()},
            "free-a6.json": {"recipe": "renamed", "letters": ["a"], "degree": 6, "seed": sub_seed()},
            "perturbed-a7.json": {"recipe": "perturbed", "letters": ["a"], "degree": 7, "seed": sub_seed()},
            "twisted-a5-1.json": {"recipe": "twisted", "letters": ["a"], "degree": 5, "seed": sub_seed()},
            "twisted-a5-2.json": {"recipe": "twisted", "letters": ["a"], "degree": 5, "seed": sub_seed()},
            "twisted-a5-3.json": {"recipe": "twisted", "letters": ["a"], "degree": 5, "seed": sub_seed()},
            "twisted-ab3.json": {"recipe": "twisted", "letters": ["a", "b"], "degree": 3, "seed": sub_seed()},
        }
    elif workload == "checks":
        check_seed = sub_seed()
        inputs = {}
        jobs = [
            _check("fundamental", 6, check_seed),
            _check("dlaw", 6, check_seed),
            _check("coalgebra", 6, check_seed),
            _check("prelie", 7, check_seed),
            _check("section4", 7, check_seed),
            _check("nap", 7, check_seed),
            # the only job that loads the operad layer; its size is fixed (about 11 s)
            _check("operads", 5, sub_seed()),
            _enumerate("enumerate-trees-ab7", "trees", "a,b", "7"),
            _enumerate("enumerate-trees-a9", "trees", "a", "9"),
            _enumerate("enumerate-labeled-6", "labeled", "6"),
            _enumerate("enumerate-heap-8", "heap", "8"),
        ]
    else:
        raise KeyError(workload)
    if inputs:
        jobs = [_reconstruct(path, spec) for path, spec in inputs.items()]
    return inputs, jobs


WORKLOADS = tuple(WHY)
