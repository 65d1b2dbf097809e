"""Byte-for-byte stdout of fixed CLI invocations.

The files under ``tests/golden/`` hold the expected stdout of each case; a
refactor of the algebra layer must leave every one of them unchanged.  To
regenerate them after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from treelie import cli
from treelie.rigidity import change_of_basis, free_presentation

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


def _present(alphabet, degree):
    def build(path):
        cli.main(["present", alphabet, str(degree), "-o", str(path)])

    return build


def _twisted(path):
    change_of_basis(free_presentation(["a"], 4), 7).dump(str(path))


CASES = {
    **{"check_%s_5_42" % s: (["check", s, "5", "42"], None)
       for s in ("prelie", "nap", "coalgebra", "dlaw", "fundamental", "section4", "operads")},
    # the sizes of the benchmark's check jobs
    **{"check_%s_%d_42" % (s, n): (["check", s, str(n), "42"], None)
       for s, n in (("dlaw", 6), ("section4", 7), ("prelie", 7), ("nap", 7), ("coalgebra", 6),
                    ("fundamental", 6))},
    "reconstruct_present_a_5": (["reconstruct", "{file}", "5"], _present("a", 5)),
    "reconstruct_present_ab_3": (["reconstruct", "{file}", "3"], _present("a,b", 3)),
    "reconstruct_twisted_a_4_seed7": (["reconstruct", "{file}", "4"], _twisted),
    "e": (["e", "a[a,b[a]]"], None),
    "coproduct_3": (["coproduct", "a[b[c],d,e[f]]", "3"], None),
    "product_prelie": (["product", "prelie", "a[b,c[d]]", "e[f]"], None),
    "product_nap": (["product", "nap", "a[b,c[d]]", "e[f]"], None),
    "enumerate_trees_ab_5": (["enumerate", "trees", "a,b", "5"], None),
    # help goes through argparse, which main imports only for help and usage
    # errors; its line breaks follow COLUMNS, which the test and the
    # regeneration below set to 80
    "help": (["-h"], None),
    **{"help_" + verb: ([verb, "-h"], None)
       for verb in ("product", "coproduct", "e", "check", "reconstruct", "enumerate", "present")},
}


def golden_path(name):
    """The golden file of a case.  Argparse 3.13 prints ``-o, --output
    OUTPUT`` on one line and narrows the help column, so ``help_present``
    has a second file for 3.13 and later."""
    if name == "help_present" and sys.version_info >= (3, 13):
        name += "_py313"
    return GOLDEN / (name + ".txt")


def run_case(name, tmpdir):
    argv, make_input = CASES[name]
    if make_input is not None:
        path = pathlib.Path(tmpdir) / (name + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            make_input(path)
        argv = [a.replace("{file}", str(path)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # help exits through argparse
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.usefixtures("shared_operad_walk")  # only check_operads_5_42 walks the axioms
def test_golden_stdout(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_case(name, tmp_path)
    assert code == 0
    assert out.encode() == golden_path(name).read_bytes()


# Verbs whose stdout must not depend on PYTHONHASHSEED: trees hash by
# identity and strings by a per-process seed, so any output that followed
# the iteration order of a set or dict of trees would differ between these
# runs.  Each name is a case above (compared with its golden file as well) or,
# for ``check_all_4_42``, has no golden file.
HASH_SEED_CASES = {
    "check_all_4_42": (["check", "all", "4", "42"], None),
    **{name: CASES[name] for name in (
        "product_prelie", "coproduct_3", "e", "enumerate_trees_ab_5", "reconstruct_twisted_a_4_seed7")},
}


def _run_with_hash_seed(argv, seed):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
    proc = subprocess.run([sys.executable, "-m", "treelie.cli", *argv], env=env, capture_output=True)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name", sorted(HASH_SEED_CASES))
def test_stdout_does_not_depend_on_the_hash_seed(name, tmp_path):
    argv, make_input = HASH_SEED_CASES[name]
    if make_input is not None:
        path = tmp_path / (name + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            make_input(path)
        argv = [a.replace("{file}", str(path)) for a in argv]
    first = _run_with_hash_seed(argv, 0)
    assert first[0] == 0
    assert _run_with_hash_seed(argv, 2718281) == first
    golden = GOLDEN / (name + ".txt")
    if golden.exists():
        assert first[1] == golden.read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, out = run_case(name, tmp)
            if code != 0:
                sys.exit("%s exited %d" % (name, code))
            golden_path(name).write_bytes(out.encode())
            print("wrote", name)
