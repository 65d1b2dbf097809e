import json
import os
import pathlib
import subprocess
import sys
import time
import types

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from treelie import checks, cli, rigidity, tree_core
from treelie.freemod import parse_element, parse_tensor_element
from treelie.tree_core import parse_tree


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_prelie(capsys):
    code, out, _ = run_cli(capsys, "product", "prelie", "a[b]", "c")
    assert code == 0
    assert out == "1 * a[b,c] + 1 * a[b[c]]\n"


def test_product_nap(capsys):
    code, out, _ = run_cli(capsys, "product", "nap", "a", "b")
    assert code == 0
    assert out == "1 * a[b]\n"


def test_product_self(capsys):
    code, out, _ = run_cli(capsys, "product", "prelie", "a", "a")
    assert code == 0
    assert out == "1 * a[a]\n"


def test_product_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "product", "prelie", "a[", "b")
    assert code == 2
    assert "parse error" in err


def _chain(depth):
    return "a[" * (depth - 1) + "a" + "]" * (depth - 1)


def test_deep_tree_exits_2_with_one_line(capsys):
    for argv in (("product", "prelie", _chain(3000), "a"), ("coproduct", _chain(257)), ("e", _chain(3000))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "parse error: tree nesting deeper than 256 levels (at position 512)\n"


def test_tree_at_depth_limit_runs(capsys):
    code, out, _ = run_cli(capsys, "product", "nap", _chain(256), "b")
    assert code == 0
    assert out == "1 * a[%s,b]\n" % _chain(255)
    code, out, _ = run_cli(capsys, "coproduct", _chain(256))
    assert code == 0
    assert out == "1 * a (x) %s\n" % _chain(255)


def test_coproduct_default_k(capsys):
    code, out, _ = run_cli(capsys, "coproduct", "a[b]")
    assert code == 0
    assert out == "1 * a (x) b\n"


def test_coproduct_of_generator_is_zero(capsys):
    code, out, _ = run_cli(capsys, "coproduct", "a", "1")
    assert code == 0
    assert out == "0\n"


def test_coproduct_k2(capsys):
    code, out, _ = run_cli(capsys, "coproduct", "a[b,c]", "2")
    assert code == 0
    assert out == "1 * a (x) b (x) c + 1 * a (x) c (x) b\n"


def test_e_command(capsys):
    assert run_cli(capsys, "e", "a")[1] == "1 * a\n"
    assert run_cli(capsys, "e", "a[a]")[1] == "0\n"
    assert run_cli(capsys, "e", "a[a,a]")[1] == "0\n"


def test_outputs_reparse(capsys):
    _, out, _ = run_cli(capsys, "product", "prelie", "a[b]", "c")
    x = parse_element(out.strip(), parse_tree)
    assert str(x) == out.strip()
    _, out, _ = run_cli(capsys, "coproduct", "a[b,c]", "2")
    t = parse_tensor_element(out.strip(), parse_tree)
    assert str(t) == out.strip()


def test_enumerate_trees(capsys):
    code, out, err = run_cli(capsys, "enumerate", "trees", "a", "4")
    assert code == 0
    assert out.splitlines() == ["a[a,a,a]", "a[a,a[a]]", "a[a[a,a]]", "a[a[a[a]]]"]
    assert "count: 4" in err


def test_enumerate_labeled(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "labeled", "3")
    assert code == 0
    assert len(out.splitlines()) == 9


def test_enumerate_heap(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "heap", "4")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_enumerate_usage_errors(capsys):
    assert run_cli(capsys, "enumerate", "trees", "a")[0] == 2
    assert run_cli(capsys, "enumerate", "labeled", "x")[0] == 2
    assert run_cli(capsys, "enumerate", "labeled", "0")[0] == 2
    assert run_cli(capsys, "enumerate", "heap", "0")[0] == 2


def test_check_small_suite(capsys):
    code, out, _ = run_cli(capsys, "check", "nap", "3", "0")
    assert code == 0
    assert "checks passed" in out
    assert all(line.startswith(("ok", "FAIL")) or "passed" in line for line in out.splitlines())


def test_check_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "prelie", "0", "0")
    assert code == 2
    assert "max_degree" in err


def test_check_unknown_suite(capsys):
    assert run_cli(capsys, "check", "nonsense", "3")[0] == 2


def test_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        checks.SUITES, "nap", lambda d, s: [checks.CheckResult("forced", False, "witness")]
    )
    code, out, _ = run_cli(capsys, "check", "nap", "3", "0")
    assert code == 1
    assert "FAIL forced: witness" in out


def _must_not_start(*args, **kwargs):
    raise AssertionError("a job over the size limit must not start")


TREES_LIMIT = " exceeds the enumerate trees limit of 500000 trees\n"
PRESENT_LIMIT = " exceeds the present limit of 300000 product pairs\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("enumerate", "heap", "11"), "N 11 exceeds the enumerate heap limit 10\n"),
        (("check", "all", "9"), "max_degree 9 exceeds the check limit 8\n"),
        (("check", "prelie", "1000", "3"), "max_degree 1000 exceeds the check limit 8\n"),
        (("e", "a[b,c,d,e,f,g,h]"), "degree 8 exceeds the e limit 7\n"),
        (("e", "a[%s]" % ",".join(["b"] * 20)), "degree 21 exceeds the e limit 7\n"),
        (("coproduct", "r[a,b,c,d,e,f,g,h,i]", "2"), "degree 10 exceeds the coproduct limit 9 for k >= 2\n"),
        (("coproduct", "r[a,b,c,d,e,f,g,h,i]", "8"), "degree 10 exceeds the coproduct limit 9 for k >= 2\n"),
        (("coproduct", _chain(256), "2"), "degree 256 exceeds the coproduct limit 9 for k >= 2\n"),
        (("reconstruct", "doc.json", "65"), "max_degree 65 exceeds the reconstruct limit 64\n"),
        (("reconstruct", "doc.json", "1000000"), "max_degree 1000000 exceeds the reconstruct limit 64\n"),
        (("enumerate", "trees", "a,b", "11"), "degree 11 on a,b" + TREES_LIMIT),
        (("enumerate", "trees", "a", "17"), "degree 17 on a" + TREES_LIMIT),
        (("enumerate", "trees", "a,a", "17"), "degree 17 on a,a" + TREES_LIMIT),
        (("enumerate", "trees", "a,b,c,d,e,f", "8"), "degree 8 on a,b,c,d,e,f" + TREES_LIMIT),
        (("enumerate", "trees", "a", "1000000000"), "degree 1000000000 on a" + TREES_LIMIT),
        (("present", "a", "16"), "degree 16 on a" + PRESENT_LIMIT),
        (("present", "a,b", "10"), "degree 10 on a,b" + PRESENT_LIMIT),
        (("present", "a", "40"), "degree 40 on a" + PRESENT_LIMIT),
        (("present", "a", "1000000000"), "degree 1000000000 on a" + PRESENT_LIMIT),
        (("present", "a,b,c,d,e,f,g,h", "5"), "degree 5 on a,b,c,d,e,f,g,h" + PRESENT_LIMIT),
    ],
)
def test_size_limits_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(rigidity, "free_presentation", _must_not_start)
    monkeypatch.setattr(rigidity.PresentedAlgebra, "load", _must_not_start)
    monkeypatch.setattr(tree_core, "enumerate_trees", _must_not_start)
    monkeypatch.setattr(cli, "delta_k", _must_not_start)
    monkeypatch.setattr(tree_core, "iter_labeled", _must_not_start)
    monkeypatch.setattr(tree_core, "iter_heap_ordered", _must_not_start)
    monkeypatch.setattr(checks, "run_suite", _must_not_start)
    monkeypatch.setattr(rigidity, "idempotent_e", _must_not_start)
    assert run_cli(capsys, *argv) == (2, "", message)


def test_sizes_inside_the_limits_are_accepted(capsys, monkeypatch):
    monkeypatch.setattr(tree_core, "iter_labeled", lambda n: iter(["labeled %d" % n]))
    monkeypatch.setattr(tree_core, "iter_heap_ordered", lambda n: iter(["heap %d" % n]))
    monkeypatch.setattr(
        checks, "run_suite", lambda name, n, seed: [checks.CheckResult("%s %d" % (name, n), True)]
    )
    assert run_cli(capsys, "enumerate", "labeled", "11")[:2] == (0, "labeled 11\n")
    assert run_cli(capsys, "enumerate", "heap", "10")[:2] == (0, "heap 10\n")
    assert run_cli(capsys, "check", "all", "8")[:2] == (0, "ok all 8\n1/1 checks passed\n")
    # the counting recursion admits a,b 10 (433,196 trees) and a 16 (235,381)
    monkeypatch.setattr(tree_core, "enumerate_trees", lambda alphabet, d: ["%s %d" % (",".join(alphabet), d)])
    assert run_cli(capsys, "enumerate", "trees", "a,b", "10")[:2] == (0, "a,b 10\n")
    assert run_cli(capsys, "enumerate", "trees", "a", "16")[:2] == (0, "a 16\n")

    def free_presentation(alphabet, n):
        return types.SimpleNamespace(write=lambda stream: stream.write("%s %d\n" % (",".join(alphabet), n)))

    # the pair count admits a 15 (255,875 pairs) and a,b 9 (198,016)
    monkeypatch.setattr(rigidity, "free_presentation", free_presentation)
    assert run_cli(capsys, "present", "a", "15") == (0, "a 15\n", "")
    assert run_cli(capsys, "present", "a,b", "9") == (0, "a,b 9\n", "")

    def unreadable(path):
        raise OSError("not read: %s" % path)

    # max_degree 64 passes the limit and reaches the file
    monkeypatch.setattr(rigidity.PresentedAlgebra, "load", unreadable)
    assert run_cli(capsys, "reconstruct", "doc.json", "64") == (4, "", "i/o error: not read: doc.json\n")
    monkeypatch.setattr(rigidity, "idempotent_e", lambda x, alg: x)
    assert run_cli(capsys, "e", "a[b,c,d,e,f,g]")[:2] == (0, "1 * a[b,c,d,e,f,g]\n")
    # the coproduct limit binds only for k >= 2: a 9-vertex tree at any k,
    # and a larger one at k <= 1, reach the computation
    monkeypatch.setattr(cli, "delta_k", lambda x, k: "delta %d of %s" % (k, x))
    star = "r[a,b,c,d,e,f,g,h]"
    assert run_cli(capsys, "coproduct", star, "8")[:2] == (0, "delta 8 of 1 * %s\n" % star)
    big = "r[a,b,c,d,e,f,g,h,i]"
    for k in ("0", "1"):
        assert run_cli(capsys, "coproduct", big, k)[:2] == (0, "delta %s of 1 * %s\n" % (k, big))


def test_check_deterministic(capsys):
    one = run_cli(capsys, "check", "dlaw", "4", "11")
    two = run_cli(capsys, "check", "dlaw", "4", "11")
    assert one == two


def test_present_and_reconstruct(tmp_path, capsys):
    path = tmp_path / "free_a.json"
    code, _, _ = run_cli(capsys, "present", "a", "5", "-o", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "reconstruct", str(path), "5")
    assert code == 0
    assert "isomorphism up to degree 5, dims 1,1,2,4,9" in out


def test_present_stdout_is_json(capsys):
    code, out, _ = run_cli(capsys, "present", "a,b", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"]["1"] == ["a", "b"]


def test_reconstruct_validation_failure_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    run_cli(capsys, "present", "a", "4", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "reconstruct", str(path), "4")
    assert code == 3
    assert "validation failed: distributive law" in out


def test_reconstruct_missing_file_exit_4(tmp_path, capsys):
    code, _, err = run_cli(capsys, "reconstruct", str(tmp_path / "nope.json"), "4")
    assert code == 4
    assert "i/o error" in err


def test_reconstruct_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "reconstruct", str(path), "4")
    assert code == 2
    assert "format error" in err


GENERATORS_NOT_STRINGS = "generators of degree 1: expected an array of strings, got "
PRODUCT = '{"generators": {"1": ["a", "b"], "2": ["c"]}, "product": {"a": {"a": %s}}}'
COPRODUCT = '{"generators": {"1": ["x"], "2": ["y"]}, "coproduct": {"y": %s}}'


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"generators": {"1": [["x"]]}}', GENERATORS_NOT_STRINGS + "[['x']]"),
        ('{"generators": {"1": "ab"}}', GENERATORS_NOT_STRINGS + "'ab'"),
        ('{"generators": {"1": {"x": 1}}}', GENERATORS_NOT_STRINGS + "{'x': 1}"),
        ('{"generators": {"1": "ab"}, "product": {"a": {"a": ["1b"]}}}', GENERATORS_NOT_STRINGS + "'ab'"),
        (
            PRODUCT % '["1b"]',
            "a term of the product of 'a' and 'a': expected an array of 2 strings, got '1b'",
        ),
        (PRODUCT % '"1b"', "product of 'a' and 'a': expected an array of terms, got '1b'"),
        (COPRODUCT % '["1xx"]', "a term of the coproduct of 'y': expected an array of 3 strings, got '1xx'"),
        (
            PRODUCT % '[["1", "a"], ["1", 7]]',
            "a term of the product of 'a' and 'a': expected an array of 2 strings, got ['1', 7]",
        ),
        (
            COPRODUCT % '[["1", "x", ["x"]]]',
            "a term of the coproduct of 'y': expected an array of 3 strings, got ['1', 'x', ['x']]",
        ),
    ],
)
def test_reconstruct_malformed_document_exits_2_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "reconstruct", str(path), "1")
    assert (code, out, err) == (2, "", "format error: malformed presented algebra document: %s\n" % message)


NOT_CANONICAL = "generator degree: expected an integer in canonical decimal form, got "


@pytest.mark.parametrize(
    "text,message",
    [
        # each of these used to be read as a valid document of one degree, exit 0
        ('{"generators": {"1": ["a"], "01": ["b"]}}', NOT_CANONICAL + "'01'"),
        ('{"generators": {"1": ["a"], "1": ["b"]}}', "repeated key '1'"),
        ('{"generators": {"1_0": ["a"]}}', NOT_CANONICAL + "'1_0'"),
        ('{"generators": {" 2": ["a"]}}', NOT_CANONICAL + "' 2'"),
    ],
)
def test_reconstruct_refuses_ambiguous_degree_keys(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "reconstruct", str(path), "1")
    assert (code, out, err) == (2, "", "format error: malformed presented algebra document: %s\n" % message)


def test_reconstruct_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run_cli(capsys, "reconstruct", str(path), "1")
    assert (code, out, err) == (2, "", "format error: JSON nested too deeply in %s\n" % path)


def test_present_rejects_bad_alphabet(capsys):
    code, _, err = run_cli(capsys, "present", "a,-", "3")
    assert code == 2


def _with_coefficient(tmp_path, capsys, coeff):
    path = tmp_path / "coeff.json"
    run_cli(capsys, "present", "a", "3", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["product"]["a"]["a"] = [[coeff, "a[a]"]]
    path.write_text(json.dumps(doc))
    return path


def test_reconstruct_rejects_float_coefficient_exit_2(tmp_path, capsys):
    # 0.1 has no exact binary value; it must not turn into 3602879701896397/2^55
    path = _with_coefficient(tmp_path, capsys, 0.1)
    code, out, err = run_cli(capsys, "reconstruct", str(path), "3")
    assert code == 2
    assert out == ""
    assert err.startswith("format error:") and err.count("\n") == 1
    assert "0.1" in err


def test_reconstruct_rejects_integral_float_coefficient_exit_2(tmp_path, capsys):
    path = _with_coefficient(tmp_path, capsys, 1.0)
    code, out, err = run_cli(capsys, "reconstruct", str(path), "3")
    assert code == 2
    assert out == ""
    assert err.startswith("format error:") and err.count("\n") == 1


def test_reconstruct_accepts_string_coefficient(tmp_path, capsys):
    path = _with_coefficient(tmp_path, capsys, "1")
    code, out, _ = run_cli(capsys, "reconstruct", str(path), "3")
    assert code == 0
    assert "isomorphism up to degree 3, dims 1,1,2" in out


def test_reconstruct_max_degree_above_file_exit_2(tmp_path, capsys):
    path = tmp_path / "free_a3.json"
    run_cli(capsys, "present", "a", "3", "-o", str(path))
    code, out, err = run_cli(capsys, "reconstruct", str(path), "5")
    assert code == 2
    assert out == ""
    assert err == "max_degree 5 exceeds the presented degree 3\n"


REQUIRED = "the following arguments are required: "


@pytest.mark.parametrize(
    "argv,message",
    [
        # refusals of check and enumerate, in the words present and reconstruct use
        (("check", "all", "0"), "max_degree must be >= 1"),
        (("enumerate", "trees", "a"), "enumerate trees needs ALPHABET and DEGREE"),
        (("enumerate", "trees", "a", "x"), "DEGREE must be an integer"),
        (("enumerate", "heap", "3", "4"), "enumerate heap needs N"),
        (("enumerate", "labeled", "x"), "N must be an integer"),
        # argparse's own errors, without a usage block, named by the parser at fault
        (("check", "all", "x"), "treelie check: error: argument max_degree: invalid int value: 'x'"),
        (("reconstruct", "f"), "treelie reconstruct: error: " + REQUIRED + "max_degree"),
        (("product", "prelie", "a", "b", "c"), "treelie: error: unrecognized arguments: c"),
        ((), "treelie: error: " + REQUIRED + "command"),
        # input echoed in a refusal keeps it on one line
        (("enumerate", "trees", "a,b\nc", "17"), "degree 17 on a,b\\nc" + TREES_LIMIT[:-1]),
    ],
)
def test_usage_errors_are_one_stderr_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message + "\n")


# 80 bytes whose coefficient would make Fraction build a billion-digit integer
EXPONENT_BOMB = '{"generators":{"1":["a"],"2":["b"]},"product":{"a":{"a":[["1e999999999","b"]]}}}'


@pytest.mark.parametrize(
    "coefficient,reason",
    [
        ("1e999999999", "rational exponent outside -2000..2000: '1e999999999'"),
        ("1" * 5000, "rational longer than 2000 characters: '111111111111...1111111111111'"),
        ("1/" + "3" * 4301, "rational longer than 2000 characters: '1/3333333333...3333333333333'"),
    ],
)
def test_huge_coefficients_exit_2_with_one_line_at_once(tmp_path, capsys, coefficient, reason):
    path = tmp_path / "bomb.json"
    path.write_text(EXPONENT_BOMB.replace("1e999999999", coefficient))
    start = time.perf_counter()
    result = run_cli(capsys, "reconstruct", str(path), "2")
    assert time.perf_counter() - start < 1
    assert result == (2, "", "format error: malformed presented algebra document: %s\n" % reason)


_FREE_A3 = rigidity.free_presentation(["a"], 3)
_BAD_A3 = _FREE_A3.to_json()
_BAD_A3["coproduct"]["a[a]"] = [["2", "a", "a"]]
_DOCUMENTS = {"free.json": _FREE_A3, "bad.json": rigidity.PresentedAlgebra.from_json(_BAD_A3)}
_NUMBERS = ["0", "1", "-1", "2", "3", "7", "8", "9", "10", "11", "15", "16", "17", "64", "65"]
_NUMBERS += ["1000000000", str(10**30), "x", "1.5", "", " 2", "1_0", "9" * 5000]
_TREES = ["a", "a[b]", "a[b,c[d]]", "r[a,b,c,d,e,f]", "r[a,b,c,d,e,f,g]", "r[a,b,c,d,e,f,g,h,i]"]
_TREES += [_chain(257), "a[", "]", "", "a[b", "a[]", "-", "a b", "a[b,,c]", "a\nb"]
_ALPHABETS = ["a", "a,b", "a,a", "a,b,c", "a,b,c,d,e,f", "", "a,-", ",", "a,b\nc"]
_numbers, _trees, _alphabets = st.sampled_from(_NUMBERS), st.sampled_from(_TREES), st.sampled_from(_ALPHABETS)
_optional = st.lists(_numbers, max_size=1)
_argv = st.one_of(
    st.tuples(st.just("product"), st.sampled_from(["prelie", "nap", "lie"]), _trees, _trees),
    st.tuples(st.just("coproduct"), _trees, _optional),
    st.tuples(st.just("e"), _trees),
    st.tuples(st.just("check"), st.sampled_from(sorted(checks.SUITES) + ["all", "no"]), _numbers, _optional),
    st.tuples(st.just("reconstruct"), st.sampled_from(sorted(_DOCUMENTS) + ["missing", "a\nb"]), _numbers),
    st.tuples(
        st.just("enumerate"),
        st.sampled_from(["trees", "labeled", "heap", "forest"]),
        st.lists(_alphabets | _numbers, max_size=3),
    ),
    st.tuples(st.just("present"), _alphabets, _numbers),
)


def _flatten(parts):
    return [a for part in parts for a in ([part] if isinstance(part, str) else part)]


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_argv.map(_flatten), st.sampled_from(["keep", "drop", "extra"]))
@example(["check", "all", "x"], "keep")
@example(["present", "a", "40"], "keep")
@example(["reconstruct", "missing", "3"], "keep")
@example(["reconstruct", "bad.json", "3"], "keep")
def test_every_refusal_is_one_stderr_line(capsys, monkeypatch, argv, change):
    """Generated argv for every verb, the heavy work cut to its smallest size:
    exit code 0-4, never a traceback, and on exit 2 or 4 nothing on stdout and
    exactly one line on stderr."""
    trees, labeled, heap = tree_core.enumerate_trees, tree_core.iter_labeled, tree_core.iter_heap_ordered
    delta_k, load = cli.delta_k, rigidity.PresentedAlgebra.load
    monkeypatch.setattr(tree_core, "enumerate_trees", lambda alphabet, d, *w: trees(alphabet, min(d, 3), *w))
    monkeypatch.setattr(tree_core, "iter_labeled", lambda n: labeled(min(n, 3)))
    monkeypatch.setattr(tree_core, "iter_heap_ordered", lambda n: heap(min(n, 3)))
    monkeypatch.setattr(cli, "delta_k", lambda x, k: delta_k(x, min(k, 2)))
    monkeypatch.setattr(rigidity, "idempotent_e", lambda x, alg: x)
    monkeypatch.setattr(rigidity, "free_presentation", lambda alphabet, n: _FREE_A3)
    monkeypatch.setattr(rigidity.PresentedAlgebra, "load", lambda path: _DOCUMENTS.get(path) or load(path))
    monkeypatch.setattr(
        checks, "run_suite", lambda name, n, seed: [checks.CheckResult("%s %d" % (name, n), seed % 2 == 0)]
    )
    argv = argv[:-1] if change == "drop" else argv + ["extra"] if change == "extra" else argv
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code in (2, 4):
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [["enumerate", "labeled", "6"], ["present", "a,b", "5"]])
def test_closed_stdout_exits_4_with_one_line(argv):
    """A reader that closes the pipe early (``| head -1``): the command stops
    with exit 4 and one stderr line, not a ``BrokenPipeError`` traceback.
    Both outputs are larger than a pipe's buffer, so the writer is still
    writing when the pipe closes."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    command = [sys.executable, "-m", "treelie.cli", *argv]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 4
    assert "Traceback" not in err
    assert err.startswith("i/o error: stdout closed") and err.count("\n") == 1 and err.endswith("\n")
