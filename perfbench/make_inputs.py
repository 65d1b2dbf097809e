"""Write one workload's input files for a seed (the benchmark's set-up step).

Usage: python perfbench/make_inputs.py WORKLOAD SEED OUTDIR

Runs in a fresh process with ``src`` on ``PYTHONPATH``, so its wall time
includes ``import treelie`` and every ``free_presentation`` and
``change_of_basis`` call.  Prints ``treelie.kernel.BACKEND`` on stdout.
"""

import json
import os
import random
import sys
from fractions import Fraction

import workloads
from treelie import kernel, rigidity


def renamed_doc(letters, degree, rng):
    """Free presentation with names replaced by a bijection within each degree
    and each degree's generator order shuffled; constants stay 0/1 integers."""
    doc = rigidity.free_presentation(letters, degree).to_json()
    rename = {}
    generators = {}
    for d, names in doc["generators"].items():
        fresh = ["t%s_%d" % (d, i) for i in range(len(names))]
        rng.shuffle(fresh)
        rename.update(zip(names, fresh))
        order = list(fresh)
        rng.shuffle(order)
        generators[d] = order
    product = {}
    for a, by_right in doc["product"].items():
        product[rename[a]] = {
            rename[b]: [[c, rename[t]] for c, t in terms] for b, terms in by_right.items()
        }
    coproduct = {
        rename[a]: [[c, rename[u], rename[v]] for c, u, v in terms]
        for a, terms in doc["coproduct"].items()
    }
    return {"generators": generators, "product": product, "coproduct": coproduct}


def perturbed_doc(letters, degree, rng):
    """A renamed presentation with one coproduct of degree >= 2 doubled."""
    doc = renamed_doc(letters, degree, rng)
    target = rng.choice(sorted(doc["coproduct"]))
    doc["coproduct"][target] = [
        [str(2 * Fraction(c)), u, v] for c, u, v in doc["coproduct"][target]
    ]
    return doc


def twisted_doc(letters, degree, seed):
    free = rigidity.free_presentation(letters, degree)
    return rigidity.change_of_basis(free, seed).to_json()


def write_inputs(workload, seed, outdir):
    inputs, _ = workloads.plan(workload, seed)
    for name, spec in inputs.items():
        rng = random.Random(spec["seed"])
        if spec["recipe"] == "renamed":
            doc = renamed_doc(spec["letters"], spec["degree"], rng)
        elif spec["recipe"] == "perturbed":
            doc = perturbed_doc(spec["letters"], spec["degree"], rng)
        elif spec["recipe"] == "twisted":
            doc = twisted_doc(spec["letters"], spec["degree"], spec["seed"])
        else:
            raise ValueError("unknown recipe %r" % spec["recipe"])
        with open(os.path.join(outdir, name), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def main(argv):
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    write_inputs(workload, seed, outdir)
    print(kernel.BACKEND)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
