"""Tests of the benchmark itself: oracle, harness, inputs, tracer.

Run from the repository root:  python -m pytest -q perfbench/test_perfbench.py
(The repository's own suite under ``tests/`` does not collect this file.)
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import harness
import layers
import oracle
import run
import tracer
import workloads

SELFTEST_DIR = os.path.join(harness.HERE, "_work", "selftest")


@pytest.fixture
def workdir():
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    os.makedirs(SELFTEST_DIR)
    yield SELFTEST_DIR
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)


@pytest.fixture
def spawner(workdir):
    with harness.Spawner(workdir) as sp:
        yield sp


def test_rooted_tree_counts_match_known_sequences():
    # OEIS A000081 and A038055 (rooted trees with 2 vertex colours)
    assert oracle.rooted_tree_counts(1, 10) == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert oracle.rooted_tree_counts(2, 8) == [2, 4, 14, 52, 214, 916, 4116, 18996]


def test_labeled_and_heap_ordered_counts():
    assert [oracle.labeled_tree_count(n) for n in range(1, 7)] == [1, 2, 9, 64, 625, 7776]
    assert [oracle.heap_ordered_count(n) for n in range(1, 9)] == [1, 1, 2, 6, 24, 120, 720, 5040]


def _job(argv, expect):
    return {"id": "-".join(argv), "argv": argv, "expect": expect}


def test_oracle_accepts_correct_jobs(spawner, workdir):
    jobs = [
        _job(["enumerate", "heap", "5"], {"kind": "enumerate", "count": 24}),
        _job(["enumerate", "trees", "a,b", "3"], {"kind": "enumerate", "count": 14}),
        _job(["check", "nap", "4", "1"], {"kind": "check"}),
    ]
    results, _ = harness.run_jobs(spawner, jobs, workdir, time.monotonic() + 60, 30)
    assert [r.error for r in results] == [None] * len(jobs)


def test_oracle_counts_wrong_expectations_as_failed(spawner, workdir):
    jobs = [
        _job(["enumerate", "heap", "5"], {"kind": "enumerate", "count": 25}),
        _job(["check", "nap", "0"], {"kind": "check"}),
        _job(["enumerate", "heap", "5"], {"kind": "rejected"}),
    ]
    results, _ = harness.run_jobs(spawner, jobs, workdir, time.monotonic() + 60, 30)
    assert all(not r.ok for r in results)
    assert "count: 25" in results[0].error
    assert "exit code 2" in results[1].error


def test_generated_inputs_reconstruct_and_wrong_dims_fail(spawner, workdir):
    argv = [sys.executable, os.path.join(harness.HERE, "make_inputs.py"), "reconstruct", "3", workdir]
    assert spawner.run(argv, 60).returncode == 0
    good = {"kind": "reconstruct", "letters": 1, "degree": 5}
    wrong = {"kind": "reconstruct", "letters": 2, "degree": 5}
    jobs = [_job(["reconstruct", "twisted-a5-1.json", "5"], e) for e in (good, wrong)]
    results, _ = harness.run_jobs(spawner, jobs, workdir, time.monotonic() + 60, 30)
    assert results[0].ok, results[0].error
    assert not results[1].ok


def test_hung_job_is_killed_and_counted_as_did_not_finish(spawner, workdir):
    jobs = [_job(["enumerate", "labeled", "10"], {"kind": "enumerate", "count": 10**9})]
    start = time.monotonic()
    results, _ = harness.run_jobs(spawner, jobs, workdir, time.monotonic() + 60, 1.0)
    assert time.monotonic() - start < 10
    assert results[0].error.startswith("did not finish")
    assert results[0].outcome.timed_out


def test_jobs_past_the_run_deadline_are_not_started(spawner, workdir):
    jobs = [_job(["enumerate", "heap", "3"], {"kind": "enumerate", "count": 2})]
    results, _ = harness.run_jobs(spawner, jobs, workdir, time.monotonic() - 1, 30)
    assert results[0].outcome is None and results[0].error.startswith("did not finish")


def test_peak_rss_is_the_job_s_own():
    """A job's peak RSS must not include the runner's resident size."""
    ballast = bytearray(100 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    os.makedirs(SELFTEST_DIR, exist_ok=True)
    with harness.Spawner(SELFTEST_DIR) as sp:
        out = sp.run([sys.executable, "-c", "pass"], 30)
    del ballast
    assert out.returncode == 0
    assert out.maxrss_kb < 60 * 1024


def test_inputs_depend_only_on_the_seed(spawner, workdir):
    digests = []
    for seed in (5, 5, 6):
        d = os.path.join(workdir, "s%d-%d" % (seed, len(digests)))
        os.makedirs(d)
        argv = [sys.executable, os.path.join(harness.HERE, "make_inputs.py"), "reconstruct", str(seed), d]
        assert spawner.run(argv, 60).returncode == 0
        digests.append(run._inputs_digest(d))
    assert digests[0] == digests[1] != digests[2]


def test_perturbed_input_is_rejected(spawner, workdir):
    argv = [sys.executable, os.path.join(harness.HERE, "make_inputs.py"), "reconstruct", "2", workdir]
    assert spawner.run(argv, 60).returncode == 0
    jobs = [_job(["reconstruct", "perturbed-a7.json", "7"], {"kind": "rejected"})]
    results, _ = harness.run_jobs(spawner, jobs, workdir, time.monotonic() + 60, 60)
    assert results[0].ok, results[0].error


def test_traced_job_has_identical_stdout_and_all_layer_metrics(spawner, workdir):
    jobs = [_job(["check", "nap", "4", "1"], {"kind": "check"})]
    trace_file = os.path.join(workdir, "trace.json")
    plain, plain_wall = harness.run_jobs(spawner, jobs, workdir, time.monotonic() + 60, 30)
    traced, traced_wall = harness.run_jobs(
        spawner,
        jobs,
        workdir,
        time.monotonic() + 60,
        30,
        argv_for=lambda job: harness.traced_argv(job, workdir, trace_file),
    )
    assert traced[0].ok and plain[0].ok
    assert traced[0].outcome.stdout == plain[0].outcome.stdout
    with open(trace_file) as fh:
        doc = json.load(fh)
    values = layers.metrics([doc], [], [traced[0].outcome], traced_wall, plain_wall, 1)
    assert [name for name, _ in layers.PER_LAYER] == list(values)
    assert values["kernel.calls"] > 0 and values["prelie.nap_product.calls"] > 0
    assert values["checks.run_suite.s"] > 0


REBIND_CHECK = """
import sys
import treelie.cli
import tracer
from treelie import freemod, kernel, prelie
originals = {id(getattr(kernel, n)) for n in tracer.KERNEL_FUNCTIONS}
originals |= {id(prelie.prelie_product), id(freemod.echelon), id(freemod.filtration_degree)}
default = prelie.module_action.__defaults__[0]
tracer.install(tracer.Tracer("check"))
left = [(n, k) for n, m in list(sys.modules.items()) if n.startswith("treelie")
        for k, v in vars(m).items() if id(v) in originals]
assert not left, left
assert prelie.module_action.__wrapped__.__defaults__[0] is not default
print("ok")
"""


def test_tracer_rebinds_every_binding_of_a_wrapped_function():
    proc = subprocess.run(
        [sys.executable, "-c", REBIND_CHECK],
        cwd=harness.HERE,
        env=dict(harness.child_env(), PYTHONPATH=os.pathsep.join([os.path.join(harness.ROOT, "src"), harness.HERE])),
        capture_output=True,
        timeout=60,
    )
    assert proc.stdout == b"ok\n", proc.stderr.decode()


def test_span_self_times_exclude_children_once():
    t = tracer.Tracer("unit")

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner_span = t.span("inner", lambda: busy(0.02))

    def hot():
        busy(0.01)
        inner_span()

    hot_agg = t.aggregate("hot", hot)

    def outer():
        busy(0.01)
        hot_agg()

    t.span("outer", outer)()
    totals = layers.SpanTotals([{"spans": t.spans}])
    calls, _, hot_self, _, _ = t.stats["hot"]
    assert calls == 1 and totals.calls == {"outer": 1, "inner": 1}
    assert totals.self_s["inner"] >= 0.02 and hot_self >= 0.01 and totals.self_s["outer"] >= 0.01
    # self times partition the outer span: the span inside the aggregate is subtracted once
    parts = totals.self_s["outer"] + hot_self + totals.self_s["inner"]
    assert parts == pytest.approx(totals.total["outer"], abs=1e-6)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_sources(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(harness.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout
