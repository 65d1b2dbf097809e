"""End-to-end timings of the treelie CLI on fixed jobs, for the committed
performance trajectory (``BENCH_*.json`` at the repository root).

Usage::

    python benchmarks/bench_e2e.py --label NAME --out BENCH_N.json [--repo DIR]

Every job is a fresh ``python -m treelie.cli ...`` process with ``DIR/src``
as its ``PYTHONPATH`` and no other ``PYTHON*`` setting of the caller but
``PYTHONHOME``; ``DIR`` defaults to the checkout this script lives
in, so one copy of the script measures the source of any commit.  The job
list runs ``REPEATS`` = 3 times, in passes of alternating direction (first
to last, last to first, first to last), so drift within a run reaches every
job at both ends.  Per run of a job it records the wall time, the peak RSS
of the job's own process, the exit code, the size and SHA-256 of its stdout,
and whether it finished within ``TIMEOUT_S`` = 60 s; all of them are kept
under ``runs``, and the job's own fields are those of its median-wall run.
A job still running at ``TIMEOUT_S`` is killed and recorded as "did not
finish"; a job that dies by a signal for any other reason (say an
out-of-memory kill) is a failure with that negative exit code, not a
timeout.  Linux carries the peak RSS of the forking process into its child,
so a peak near this script's own size (about 19 MB) is an upper bound, not
a reading.  Just before each run of a job it times
``perfbench/reference.py`` of this checkout, a fixed computation that never
imports treelie, and stores ``wall_ref`` = median job wall / the median
reference wall of the run, so runs on a host whose speed drifts can be
compared.  The inputs of
``reconstruct`` are written once, untimed, into a temporary directory by the
measured source itself: free presentations by its ``present`` verb, twisted
ones (the same algebra in a seeded random basis, whose integer constants are
dense) by its ``rigidity.change_of_basis(free_presentation(...), seed)``.

The result, with the git sha of ``DIR`` (and whether ``src/`` differs from
it) and the Python version, is stored
under ``NAME`` in the output file; labels already in the file are kept.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(CHECKOUT, "perfbench", "reference.py")
# the headline is the largest degree that finishes within this many seconds
TIMEOUT_S = 60
# passes over the job list; each job keeps its median run
REPEATS = 3
# the seed of the twisted inputs' change of basis
TWIST_SEED = 3
# writes a twisted input with the measured source: alphabet, degree, seed, path
TWIST = (
    "import sys; from treelie import rigidity; alphabet, n, seed, path = sys.argv[1:]; "
    "free = rigidity.free_presentation(alphabet.split(','), int(n)); "
    "rigidity.change_of_basis(free, int(seed)).dump(path)"
)

# (name, CLI arguments, presentation to write first as (alphabet, degree,
# twist), twist None or the seed of change_of_basis); "{input}" in the
# arguments is that presentation's file.  The first job does almost no
# algebra: it times a cold start, interpreter plus imports.
JOBS = [("product prelie a b", ["product", "prelie", "a", "b"], None)]
JOBS += [("check %s 5 42" % suite, ["check", suite, "5", "42"], None) for suite in ("operads", "all")]
# the two suites whose size the check limit, 8, bounds: e's A_k cache and the cofreeness walk
JOBS += [("check %s 8 42" % suite, ["check", suite, "8", "42"], None) for suite in ("fundamental", "coalgebra")]
# the suites that read the most coproduct iterates, above the benchmark's sizes (dlaw 6, section4 7)
JOBS += [
    ("check %s %d 42" % (suite, n), ["check", suite, str(n), "42"], None)
    for suite, n in (("dlaw", 7), ("section4", 8))
]
JOBS += [("enumerate labeled %d" % n, ["enumerate", "labeled", str(n)], None) for n in (7, 8)]
JOBS += [
    ("reconstruct present %s %d" % (alphabet, n), ["reconstruct", "{input}", str(n)], (alphabet, n, None))
    for alphabet, sizes in (("a", (12, 13, 14, 15)), ("a,b", (7, 8, 9)))
    for n in sizes
]
# the dense ladder: the rank certificate's case, which the free algebras hardly exercise
JOBS += [
    ("reconstruct twisted %s %d" % (alphabet, n), ["reconstruct", "{input}", str(n)], (alphabet, n, TWIST_SEED))
    for alphabet, sizes in (("a", (8, 9, 10)), ("a,b", (5, 6)))
    for n in sizes
]


def run_process(argv, env):
    """Run ``argv`` to completion or until ``TIMEOUT_S`` seconds have passed.

    Returns wall seconds, peak RSS in MB of the child alone (from ``wait4``),
    the exit code, whether it finished, and the stdout byte count and hash.
    """
    digest, nbytes = hashlib.sha256(), 0
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(TIMEOUT_S, kill)
    timer.start()
    try:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            nbytes += len(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:  # interrupted: leave no job running
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    return {
        # the timer may fire just after a job has exited by itself
        "finished": not (timed_out.is_set() and proc.returncode == -signal.SIGKILL),
        "exit": proc.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_bytes": nbytes,
        "stdout_sha256": digest.hexdigest(),
    }


def git(repo, *args):
    """Output of a git command in ``repo``, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", repo, *args], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def job_env(repo):
    """The caller's environment without its ``PYTHON*`` settings (but
    ``PYTHONHOME``), with ``repo/src`` as the whole ``PYTHONPATH``: a shell's
    ``PYTHONDONTWRITEBYTECODE`` or ``PYTHONUNBUFFERED`` would otherwise make
    every job compile treelie or write its output unbuffered."""
    env = {k: v for k, v in os.environ.items() if not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env["PYTHONPATH"] = os.path.join(repo, "src")
    return env


def bench(repo, workdir):
    env = job_env(repo)
    cli = [sys.executable, "-m", "treelie.cli"]
    argvs = []
    for name, args, present in JOBS:
        if present:
            alphabet, n, twist = present
            filename = "%s-%d%s.json" % (alphabet.replace(",", ""), n, "" if twist is None else "-twisted")
            path = os.path.join(workdir, filename)
            if twist is None:
                subprocess.run(cli + ["present", alphabet, str(n), "-o", path], env=env, check=True)
            else:
                write = [sys.executable, "-c", TWIST, alphabet, str(n), str(twist), path]
                subprocess.run(write, env=env, check=True)
            args = [path if a == "{input}" else a for a in args]
        argvs.append(cli + args)
    runs = [[] for _ in JOBS]
    for rep in range(REPEATS):
        order = range(len(JOBS)) if rep % 2 == 0 else range(len(JOBS) - 1, -1, -1)
        for k in order:
            run = {"ref_s": run_process([sys.executable, REFERENCE], env)["wall_s"]}
            run.update(run_process(argvs[k], env))
            runs[k].append(run)
            status = ""
            if not run["finished"]:
                status = "  did not finish"
            elif run["exit"]:
                status = "  exit %d" % run["exit"]
            print("%d %-32s %8.2f s %8.1f MB  (reference %.3f s)%s" % (
                rep + 1, JOBS[k][0], run["wall_s"], run["peak_rss_mb"], run["ref_s"], status), file=sys.stderr)
    jobs = [
        dict(sorted(job_runs, key=lambda r: r["wall_s"])[REPEATS // 2], name=name, runs=job_runs)
        for (name, _, _), job_runs in zip(JOBS, runs)
    ]
    # one slow or fast reference run must not scale its job alone
    ref = statistics.median(r["ref_s"] for job in jobs for r in job["runs"])
    for job in jobs:
        job["wall_ref"] = round(job["wall_s"] / ref, 2)
    return {
        "git_sha": git(repo, "rev-parse", "HEAD"),
        # true when src/ differs from that commit: the numbers are of the edited tree
        "src_modified": bool(git(repo, "status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "timeout_s": TIMEOUT_S,
        "repeats": REPEATS,
        "ref_median_s": ref,
        "jobs": jobs,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="JSON file to add the run to")
    parser.add_argument("--repo", default=CHECKOUT, help="checkout whose src/ is measured")
    args = parser.parse_args()
    # on SIGTERM unwind normally, so the running job is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as workdir:
        result = bench(os.path.abspath(args.repo), workdir)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc[args.label] = result
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
