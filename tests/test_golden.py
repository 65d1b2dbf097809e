"""Byte-for-byte stdout of fixed CLI invocations.

The files under ``tests/golden/`` hold the expected stdout of each case; a
refactor of the algebra layer must leave every one of them unchanged.  To
regenerate them after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from treelie import cli
from treelie.rigidity import change_of_basis, free_presentation

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _present(alphabet, degree):
    def build(path):
        cli.main(["present", alphabet, str(degree), "-o", str(path)])

    return build


def _twisted(path):
    change_of_basis(free_presentation(["a"], 4), 7).dump(str(path))


CASES = {
    **{"check_%s_5_42" % s: (["check", s, "5", "42"], None)
       for s in ("prelie", "nap", "coalgebra", "dlaw", "fundamental", "section4", "operads")},
    "reconstruct_present_a_5": (["reconstruct", "{file}", "5"], _present("a", 5)),
    "reconstruct_present_ab_3": (["reconstruct", "{file}", "3"], _present("a,b", 3)),
    "reconstruct_twisted_a_4_seed7": (["reconstruct", "{file}", "4"], _twisted),
    "e": (["e", "a[a,b[a]]"], None),
    "coproduct_3": (["coproduct", "a[b[c],d,e[f]]", "3"], None),
    "product_prelie": (["product", "prelie", "a[b,c[d]]", "e[f]"], None),
    "product_nap": (["product", "nap", "a[b,c[d]]", "e[f]"], None),
    "enumerate_trees_ab_5": (["enumerate", "trees", "a,b", "5"], None),
}


def run_case(name, tmpdir):
    argv, make_input = CASES[name]
    if make_input is not None:
        path = pathlib.Path(tmpdir) / (name + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            make_input(path)
        argv = [a.replace("{file}", str(path)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path):
    code, out = run_case(name, tmp_path)
    assert code == 0
    assert out.encode() == (GOLDEN / (name + ".txt")).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, out = run_case(name, tmp)
            if code != 0:
                sys.exit("%s exited %d" % (name, code))
            (GOLDEN / (name + ".txt")).write_bytes(out.encode())
            print("wrote", name)
