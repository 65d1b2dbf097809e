"""treelie benchmark: seeded workloads of cold ``treelie`` CLI processes.

Usage:
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job is a fresh
``python -m treelie.cli ...`` process importing ``src/treelie`` of that
checkout.  Jobs run one at a time, started by ``spawner.py`` for this single
runner process: a closed loop with one client.  The workload's inputs are
generated from the seed in a separate set-up process first.

``--trace 0`` runs the job list in passes for ``--seconds`` (a new pass
starts only if it should end in time; there is always one) and reports the
end-to-end metrics.  Every job is preceded by a run of ``reference.py``, a
fixed computation, and job times are reported in units of its median wall
time over the run, which cancels the host's drift in speed: ``wall_ref``
(the job list's wall time, summed from each job's median over the passes)
and ``job_ref.p50`` (median job wall time, spawn to exit).  The same times
in seconds are printed as ``wall_s`` and ``job_s.p50``.  ``peak_rss_mb`` is
the highest job peak RSS and ``setup_s`` the median of several set-ups.  ``--trace 1`` runs pairs of
an untraced and a traced pass of the same inputs for ``--seconds`` and reports
the per-layer metrics listed in ``layers.PER_LAYER``; every traced job's
stdout must equal its untraced stdout byte for byte.

Human-readable lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload in turn, each printing its own lines and result.  Details of
the run (each job's outcome, the environment and, for traced runs, every
span) are written under ``perfbench/_work/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import harness
import layers
import oracle
import workloads

RUN_BUDGET_S = 160  # the whole run, set-up included, must end well inside 180 s
JOB_TIMEOUT_S = 60
SETUP_REPEATS = 15

END_TO_END = (("wall_ref", "ref"), ("job_ref.p50", "ref"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
REFERENCE_ARGV = [sys.executable, os.path.join(harness.HERE, "reference.py")]


class SetupFailed(Exception):
    pass


def environment(backend):
    """What the numbers depend on besides the code: never compare results
    across different kernel backends or Python versions."""
    sha = None
    if os.path.isdir(os.path.join(harness.ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": backend,
    }


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(harness.ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _inputs_digest(input_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(input_dir)):
        with open(os.path.join(input_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _checked(out, what):
    if out.timed_out or out.returncode != 0:
        sys.stderr.write(out.stderr.decode("utf-8", "replace"))
        raise SetupFailed("%s failed (exit %s%s)" % (what, out.returncode, ", timed out" if out.timed_out else ""))
    return out


def set_up(spawner, args, input_dir, repeats, deadline):
    """Write the inputs ``repeats`` times in fresh processes; returns
    (wall times, kernel backend, whether every repeat wrote the same bytes)."""
    argv = [sys.executable, os.path.join(harness.HERE, "make_inputs.py"), args.workload, str(args.seed), input_dir]
    times, digests, backend = [], set(), None
    for _ in range(repeats):
        for name in os.listdir(input_dir):
            os.remove(os.path.join(input_dir, name))
        out = _checked(spawner.run(argv, deadline - time.monotonic()), "set-up")
        times.append(out.wall_s)
        digests.add(_inputs_digest(input_dir))
        backend = out.stdout.decode().strip()
    return times, backend, len(digests) == 1


def batch_wall(results):
    """The job list's wall time: each job's median wall time, summed.  A slow
    spell that hits one job in one pass and another job in the next raises
    both pass totals, but neither median."""
    by_job = {}
    for r in results:
        if r.outcome is not None:
            by_job.setdefault(r.job["id"], []).append(r.outcome.wall_s)
    return sum(statistics.median(w) for w in by_job.values())


def _another_pass(start, seconds, deadline, pass_wall):
    """Whether one more pass of ``pass_wall`` seconds should end within
    ``seconds`` of ``start`` and well before the run's deadline."""
    now = time.monotonic()
    return now - start + pass_wall <= seconds and now + 1.5 * pass_wall <= deadline


def untraced_run(spawner, args, jobs, input_dir, deadline):
    """Set-ups, then passes of the job list for --seconds, each job preceded
    by a run of the reference computation; end-to-end metrics."""
    setup_times, backend, setup_stable = set_up(spawner, args, input_dir, SETUP_REPEATS, deadline)
    expected = _checked(spawner.run(REFERENCE_ARGV, 60), "reference").stdout
    start = time.monotonic()
    results, refs, pass_walls = [], [], []
    while True:
        pass_start = time.monotonic()
        for job in jobs:
            out = _checked(spawner.run(REFERENCE_ARGV, deadline - time.monotonic()), "reference")
            if out.stdout != expected:
                raise SetupFailed("the reference computation printed %r, not %r" % (out.stdout, expected))
            refs.append(out.wall_s)
            results += harness.run_jobs(spawner, [job], input_dir, deadline, JOB_TIMEOUT_S)[0]
        wall = time.monotonic() - pass_start
        pass_walls.append(wall)
        if not _another_pass(start, args.seconds, deadline, wall):
            break
    walls = [r.outcome.wall_s for r in results if r.outcome is not None]
    rss = [r.outcome.maxrss_kb for r in results if r.outcome is not None]
    ref = statistics.median(refs)
    wall_s, job_s = batch_wall(results), statistics.median(walls)
    passes = "sum over %d jobs of the median of %d pass(es)" % (len(jobs), len(pass_walls))
    metrics = {
        "reference_s": (ref, "s", "median of %d runs of reference.py" % len(refs)),
        "wall_s": (wall_s, "s", passes),
        "job_s.p50": (job_s, "s", "n=%d jobs" % len(walls)),
        "wall_ref": (wall_s / ref, "ref", "wall_s / reference_s"),
        "job_ref.p50": (job_s / ref, "ref", "job_s.p50 / reference_s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB", "max over %d jobs" % len(rss)),
        "setup_s": (
            statistics.median(setup_times),
            "s",
            "median of %d set-ups%s" % (len(setup_times), "" if setup_stable else ", NOT deterministic"),
        ),
    }
    extra = {"pass_walls": pass_walls, "setup_times": setup_times, "reference_walls": refs}
    return results, metrics, backend, setup_stable, extra


def traced_run(spawner, args, jobs, input_dir, work, deadline):
    """One traced set-up, then pairs of an untraced and a traced pass for
    --seconds (at least one pair); per-layer metrics from the first traced
    pass, and the tracing overhead from all of them."""
    trace_dir = os.path.join(work, "traces")
    os.makedirs(trace_dir)
    setup_trace = os.path.join(trace_dir, "setup.json")
    argv = [
        sys.executable,
        os.path.join(harness.HERE, "trace_child.py"),
        setup_trace,
        "setup",
        "setup",
        args.workload,
        str(args.seed),
        input_dir,
    ]
    out = _checked(spawner.run(argv, deadline - time.monotonic()), "traced set-up")
    backend = out.stdout.decode().strip()

    def trace_file(job, pass_no):
        return os.path.join(trace_dir, "%s.%d.json" % (job["id"], pass_no))

    start = time.monotonic()
    untraced, traced = [], []
    while True:
        u, u_wall = harness.run_jobs(spawner, jobs, input_dir, deadline, JOB_TIMEOUT_S)
        pass_no = len(traced) // len(jobs)
        t, t_wall = harness.run_jobs(
            spawner,
            jobs,
            input_dir,
            deadline,
            JOB_TIMEOUT_S,
            argv_for=lambda job: harness.traced_argv(job, input_dir, trace_file(job, pass_no)),
        )
        for ur, tr in zip(u, t):
            if tr.ok and ur.ok and tr.outcome.stdout != ur.outcome.stdout:
                tr.error = "traced stdout differs from the untraced run"
        untraced += u
        traced += t
        if not _another_pass(start, args.seconds, deadline, u_wall + t_wall):
            break
    results = untraced + traced
    if not all(r.ok for r in results):
        return results, {}, backend, True, {}

    docs = []
    for job in jobs:
        with open(trace_file(job, 0)) as fh:
            docs.append(json.load(fh))
    with open(setup_trace) as fh:
        setup_doc = json.load(fh)
    first = traced[: len(jobs)]
    cases = sum(oracle.check_cases(r.outcome.stdout) for r in first)
    traced_wall, untraced_wall = batch_wall(traced), batch_wall(untraced)
    values = layers.metrics(docs, [setup_doc], [r.outcome for r in first], traced_wall, untraced_wall, cases)
    metrics = {name: (values[name], unit, "") for name, unit in layers.PER_LAYER}

    # all spans of the run in one file: name, start, end, parent span, job id
    spans = [span[:4] + [doc["job"]] for doc in [setup_doc] + docs for span in doc["spans"]]
    with open(os.path.join(work, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": spans}, fh)
    return results, metrics, backend, True, {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}


def run_workload(args):
    """One run of ``args.workload``: prints its summary and JSON result."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(harness.HERE, "_work", "%s-%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    input_dir = os.path.join(work, "inputs")
    os.makedirs(input_dir)
    _, jobs = workloads.plan(args.workload, args.seed)

    try:
        with harness.Spawner(work) as spawner:
            # compile the package's bytecode once, untimed, so no timed process pays for it
            _checked(spawner.run([sys.executable, "-c", "import treelie.cli"], 60), "import treelie.cli")
            if args.trace:
                outcome = traced_run(spawner, args, jobs, input_dir, work, deadline)
            else:
                outcome = untraced_run(spawner, args, jobs, input_dir, deadline)
        results, metrics, backend, setup_stable, extra = outcome
    except SetupFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    failed = [r for r in results if not r.ok]
    env = environment(backend)
    reported = layers.PER_LAYER if args.trace else END_TO_END
    metrics_json = {name: {"value": metrics[name][0], "unit": unit} for name, unit in reported if name in metrics}
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for r in failed:
        print("FAILED %s: %s" % (r.job["id"], r.error))
    print("failed_frac = %g (%d/%d jobs)" % (len(failed) / len(results), len(failed), len(results)))
    for name, (value, unit, note) in metrics.items():
        print("%s = %.6g %s%s" % (name, value, unit, " (%s)" % note if note else ""))
    print("env: " + json.dumps(env, sort_keys=True))

    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(
            {
                "args": vars(args),
                "env": env,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
                "jobs": [
                    {
                        "id": r.job["id"],
                        "argv": r.job["argv"],
                        "error": r.error,
                        "returncode": r.outcome and r.outcome.returncode,
                        "wall_s": r.outcome and r.outcome.wall_s,
                        "maxrss_kb": r.outcome and r.outcome.maxrss_kb,
                    }
                    for r in results
                ],
                **extra,
            },
            fh,
            indent=1,
        )

    result = {
        "correct": not failed and setup_stable,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics_json,
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the spawner and its current job are killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(harness.ROOT, "src", "treelie", "cli.py")):
        print("perfbench: no treelie sources at %s/src/treelie" % harness.ROOT, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": name})) for name in names)


if __name__ == "__main__":
    sys.exit(main())
