import json

import pytest

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
    ],
)
def test_size_limits_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "delta_k", _must_not_start)
    monkeypatch.setattr(tree_core, "enumerate_labeled", _must_not_start)
    monkeypatch.setattr(tree_core, "enumerate_heap_ordered", _must_not_start)
    monkeypatch.setattr(checks, "run_suite", _must_not_start)
    monkeypatch.setattr(rigidity, "idempotent_e", _must_not_start)
    assert run_cli(capsys, *argv) == (2, "", message)


def test_sizes_inside_the_limits_are_accepted(capsys, monkeypatch):
    monkeypatch.setattr(tree_core, "enumerate_labeled", lambda n: ["labeled %d" % n])
    monkeypatch.setattr(tree_core, "enumerate_heap_ordered", lambda n: ["heap %d" % n])
    monkeypatch.setattr(
        checks, "run_suite", lambda name, n, seed: [checks.CheckResult("%s %d" % (name, n), True)]
    )
    assert run_cli(capsys, "enumerate", "labeled", "11")[:2] == (0, "labeled 11\n")
    assert run_cli(capsys, "enumerate", "heap", "10")[:2] == (0, "heap 10\n")
    assert run_cli(capsys, "check", "all", "8")[:2] == (0, "ok all 8\n1/1 checks passed\n")
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
