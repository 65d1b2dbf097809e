import io
import json
import os
import pathlib
import subprocess
import sys
import time
import types

import pytest
from element_oracle import parse_element, parse_tensor_element
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from treelie import checks, cli, nap_coalgebra, rigidity, tree_core
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
    monkeypatch.setattr(nap_coalgebra, "delta_k", _must_not_start)
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
    monkeypatch.setattr(nap_coalgebra, "delta_k", lambda x, k: "delta %d of %s" % (k, x))
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


NOT_CANONICAL = "generator degree: expected an integer in canonical decimal form, got "
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
        # a section that is not an object, named rather than read by ``.items()``
        ('{"generators": []}', "generators: expected an object, got []"),
        ('{"generators": null}', "generators: expected an object, got None"),
        ('{"generators": {"1": ["a"]}, "product": []}', "product: expected an object, got []"),
        ('{"generators": {"1": ["a"]}, "product": null}', "product: expected an object, got None"),
        ('{"generators": {"1": ["a"]}, "product": {"a": []}}', "products of 'a': expected an object, got []"),
        ('{"generators": {"1": ["a"]}, "product": {"a": null}}',
         "products of 'a': expected an object, got None"),
        ('{"generators": {"1": ["a"]}, "coproduct": [["1", "a", "a"]]}',
         "coproduct: expected an object, got [['1', 'a', 'a']]"),
        ('{"generators": {"1": ["a"]}, "coproduct": null}', "coproduct: expected an object, got None"),
        # a degree key that ``int()`` cannot read
        ('{"generators": {"x": ["a"]}}', NOT_CANONICAL + "'x'"),
    ],
)
def test_reconstruct_malformed_document_exits_2_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "reconstruct", str(path), "1")
    assert (code, out, err) == (2, "", "format error: malformed presented algebra document: %s\n" % message)


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
_NUMBERS += ["1000000000", str(10**30), "x", "1.5", "", " 2", "1_0", "9" * 5000, "--"]
_TREES = ["a", "a[b]", "a[b,c[d]]", "r[a,b,c,d,e,f]", "r[a,b,c,d,e,f,g]", "r[a,b,c,d,e,f,g,h,i]"]
_TREES += [_chain(257), "a[", "]", "", "a[b", "a[]", "-", "a b", "a[b,,c]", "a\nb", "--"]
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
@example(["check", "nap", "--", "--"], "keep")
@example(["coproduct", "a", "--", "--"], "keep")
def test_every_refusal_is_one_stderr_line(capsys, monkeypatch, argv, change):
    """Generated argv for every verb, the heavy work cut to its smallest size:
    exit code 0-4, never a traceback, and on exit 2 or 4 nothing on stdout and
    exactly one line on stderr."""
    trees, labeled, heap = tree_core.enumerate_trees, tree_core.iter_labeled, tree_core.iter_heap_ordered
    delta_k, load = nap_coalgebra.delta_k, rigidity.PresentedAlgebra.load
    monkeypatch.setattr(tree_core, "enumerate_trees", lambda alphabet, d, *w: trees(alphabet, min(d, 3), *w))
    monkeypatch.setattr(tree_core, "iter_labeled", lambda n: labeled(min(n, 3)))
    monkeypatch.setattr(tree_core, "iter_heap_ordered", lambda n: heap(min(n, 3)))
    monkeypatch.setattr(nap_coalgebra, "delta_k", lambda x, k: delta_k(x, min(k, 2)))
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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "nap", "--", "--"],
        ["present", "a", "--", "--"],
        ["coproduct", "a", "--", "--"],
        ["reconstruct", "--", "--", "3"],
        ["enumerate", "trees", "--", "a", "--"],
    ],
)
def test_a_second_double_dash_is_refused(capsys, argv):
    # argparse would read the second "--" as an empty value, or drop it
    assert run_cli(capsys, *argv) == (2, "", "treelie: error: '--' may appear only once\n")


# words the reader must leave to argparse (options, help, negative numbers,
# "--") or read as argparse does (spaces, underscores, over-long integers)
_INSERTED = [["-h"], ["--"], ["--", "--"], ["-o", "F"], ["--output=F"], ["-3"], [" 2"], ["1_0"], ["9" * 5000]]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    _argv.map(_flatten),
    st.sampled_from(["keep", "drop", "extra"]),
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_INSERTED)), max_size=2),
)
@example(["present", "a", "3"], "keep", [(3, ["-o", "F"])])
@example(["coproduct", "a[b]"], "keep", [(2, ["-3"])])
@example(["check", "all"], "keep", [(2, [" 2"]), (3, ["1_0"])])
def test_reader_sets_what_argparse_sets(argv, change, inserted):
    """Whenever ``_read_argv`` reads an argv, argparse reads it too and sets
    the same attributes to the same values."""
    argv = argv[:-1] if change == "drop" else argv + ["extra"] if change == "extra" else argv
    for position, words in inserted:
        argv[position:position] = words
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv,read",
    [
        (["reconstruct", "/in/free-a6.json", "6"], True),
        (["check", "fundamental", "6", "1234"], True),
        (["check", "all", " 2"], True),
        (["coproduct", "a[b]"], True),
        (["enumerate", "trees", "a,b", "7"], True),
        (["enumerate", "heap", "8", "9", "x"], True),
        (["present", "a", "3"], True),
        (["present", "a", "3", "-o", "F"], False),
        (["-h"], False),
        (["check", "-h"], False),
        (["coproduct", "a", "-1"], False),
        (["e", "--", "a"], False),
        (["check", "all", "9" * 5000], False),
        (["check", "some", "3"], False),
        (["product", "prelie", "a"], False),
        (["product", "prelie", "a", "b", "c"], False),
        (["enumerate", "trees"], False),
        (["unknown"], False),
        ([], False),
    ],
)
def test_reader_reads_plain_words_and_leaves_the_rest(argv, read):
    assert (cli._read_argv(argv) is not None) == read


def _env():
    """The environment of a fresh interpreter that imports this checkout's
    ``treelie``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    return env


def _process(*argv, prefix=("-m", "treelie.cli")):
    """Exit code, stdout and stderr of ``python PREFIX ARGV`` run as its own
    process; the default prefix runs the command, which ends through
    ``cli.run``."""
    command = [sys.executable, *prefix, *argv]
    proc = subprocess.run(command, env=_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [["enumerate", "labeled", "6"], ["present", "a,b", "5"]])
def test_closed_stdout_exits_4_with_one_line(argv):
    """A reader that closes the pipe early (``| head -1``): the command stops
    with exit 4 and one stderr line, not a ``BrokenPipeError`` traceback.
    Both outputs are larger than a pipe's buffer, so the writer is still
    writing when the pipe closes."""
    command = [sys.executable, "-m", "treelie.cli", *argv]
    with subprocess.Popen(command, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 4
    assert "Traceback" not in err
    assert err.startswith("i/o error: stdout closed") and err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture(scope="module")
def perturbed_a7(tmp_path_factory):
    """``present a 7`` with the coproduct of ``a[a]`` doubled: exit 3."""
    doc = rigidity.free_presentation(["a"], 7).to_json()
    doc["coproduct"]["a[a]"] = [["2", "a", "a"]]
    path = tmp_path_factory.mktemp("perturbed") / "perturbed-a7.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["enumerate", "labeled", "7"], 0),
        (["present", "a,b", "5"], 0),
        (["check", "all", "x"], 2),
        (["reconstruct", "{perturbed}", "7"], 3),
        (["reconstruct", "{missing}", "4"], 4),
    ],
    ids=["enumerate-labeled-7", "present-ab-5", "refusal", "perturbed-a7", "missing-file"],
)
def test_process_prints_what_main_prints(capsys, tmp_path, perturbed_a7, argv, expected_code):
    """The command as its own process, which ends by ``os._exit`` after
    flushing, writes the same stdout and stderr and exits with the same
    code as ``main`` called in process.  ``enumerate labeled 7`` writes
    117,649 lines, far more than a pipe holds."""
    argv = [a.format(perturbed=perturbed_a7, missing=tmp_path / "missing.json") for a in argv]
    in_process = run_cli(capsys, *argv)
    assert in_process[0] == expected_code
    assert _process(*argv) == in_process


def test_present_output_file_is_complete(tmp_path):
    path = tmp_path / "free_a4.json"
    assert _process("present", "a", "4", "-o", str(path)) == (0, "", "")
    expected = io.StringIO()
    rigidity.free_presentation(["a"], 4).write(expected)
    assert path.read_text() == expected.getvalue()


def test_profiler_still_prints_its_report():
    """Under ``cProfile`` the process exits normally, so the profiler's
    report follows the command's own output."""
    code, out, err = _process("-m", "treelie.cli", "enumerate", "trees", "a", "3", prefix=("-m", "cProfile"))
    assert code == 0 and err == "count: 2\n"
    assert out.startswith("a[a,a]\na[a[a]]\n")
    assert "function calls" in out and "Ordered by:" in out


# loaded only to print help or a usage error
_ARGPARSE = ("argparse", "gettext", "locale")


def test_import_loads_neither_the_suites_nor_json():
    """``import treelie.cli`` in a fresh interpreter leaves the modules that
    only some verbs use, and argparse, unloaded."""
    probe = "import sys, treelie.cli; print([m for m in %r if m in sys.modules])"
    unused = ("json", "treelie.checks", "treelie.operads", "treelie.freemod", "treelie.rigidity") + _ARGPARSE
    code, out, err = _process(prefix=("-c", probe % (unused,)))
    assert (code, out, err) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["enumerate", "trees", "a", "4"], ["treelie", "treelie.cli", "treelie.kernel", "treelie.tree_core"]),
        (["enumerate", "labeled", "3"], ["treelie", "treelie.cli", "treelie.kernel", "treelie.tree_core"]),
        (["check", "nap", "2", "1"], None),
        (["reconstruct", "{file}", "3"], None),
    ],
    ids=["enumerate-trees", "enumerate-labeled", "check", "reconstruct"],
)
def test_well_formed_runs_load_no_argparse(tmp_path, argv, modules):
    """A well-formed run in a fresh interpreter loads neither argparse nor
    what it imports; ``enumerate`` loads no treelie module but ``tree_core``
    and the kernel."""
    path = tmp_path / "free_a3.json"
    rigidity.free_presentation(["a"], 3).dump(str(path))
    probe = (
        "import sys, treelie.cli; code = treelie.cli.main(sys.argv[1:]); "
        "print(code, [m for m in %r if m in sys.modules], sorted(m for m in sys.modules if 'treelie' in m))"
    )
    argv = [a.format(file=path) for a in argv]
    code, out, _ = _process(*argv, prefix=("-c", probe % (_ARGPARSE,)))
    last = out.splitlines()[-1]
    assert code == 0 and last.startswith("0 [] ")
    if modules is not None:
        assert last == "0 [] %r" % modules


@pytest.mark.parametrize("twist", [None, 3], ids=["free", "twisted"])
def test_integer_reconstruct_loads_no_fractions(tmp_path, twist):
    """``reconstruct`` of a document whose constants are all integers, in
    a fresh interpreter, loads neither ``fractions`` nor the ``decimal`` and
    ``numbers`` it imports; rational text still reads as a ``Fraction``."""
    alg = rigidity.free_presentation(["a", "b"], 4)
    if twist is not None:
        alg = rigidity.change_of_basis(alg, twist)
    path = tmp_path / "doc.json"
    alg.dump(str(path))
    rational = ("fractions", "decimal", "numbers")
    probe = (
        "import sys, treelie.cli; code = treelie.cli.main(sys.argv[1:]); "
        "loaded = [m for m in %r if m in sys.modules]; "
        "from treelie.freemod import parse_rational; print(code, loaded, type(parse_rational('1/2')).__name__)"
    )
    code, out, err = _process("reconstruct", str(path), "4", prefix=("-c", probe % (rational,)))
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[-2:] == ["isomorphism up to degree 4, dims 2,4,14,52", "0 [] Fraction"]


def test_check_suite_names_are_the_suites():
    assert cli.CHECK_SUITES == tuple(sorted(checks.SUITES))


def test_check_all_at_degree_1_passes(capsys):
    """Unstubbed: the perturbed-coproduct check builds its document at
    degree 2, where the perturbed element ``a[a]`` lives."""
    code, out, err = run_cli(capsys, "check", "all", "1")
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[-1] == "%d/%d checks passed" % (len(lines) - 1, len(lines) - 1)
    assert "ok perturbed coproduct is rejected at validation: distributive law fails at (a, a)" in lines
