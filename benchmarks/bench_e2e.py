"""End-to-end timings of the treelie CLI on fixed jobs, for the committed
performance trajectory (``BENCH_*.json`` at the repository root).

Usage::

    python benchmarks/bench_e2e.py --label NAME --out BENCH_N.json [--repo DIR]

Every job is a fresh ``python -m treelie.cli ...`` process with ``DIR/src``
first on ``PYTHONPATH``; ``DIR`` defaults to the checkout this script lives
in, so one copy of the script measures the source of any commit.  Per job it
records the wall time, the peak RSS of the job's own process, the exit code,
the size and SHA-256 of its stdout, and whether it finished within
``TIMEOUT_S`` = 60 s.  A job still running then is killed and recorded as
"did not finish"; a job that dies by a signal for any other reason (say an
out-of-memory kill) is a failure with that negative exit code, not a
timeout.  Linux carries the peak RSS of the forking process into its child,
so a peak near this script's own size (about 19 MB) is an upper bound, not
a reading.  Just before each job it times ``perfbench/reference.py`` of
this checkout, a fixed computation that never imports treelie, and stores
``wall_ref`` = job wall / the median reference wall of the run, so runs on
a host whose speed drifts can be compared.  The inputs of ``reconstruct``
are written by the measured source's own ``present`` verb into a temporary
directory, untimed.

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

# (name, CLI arguments, presentation to write first as (alphabet, degree));
# "{input}" in the arguments is that presentation's file.  The first job does
# almost no algebra: it times a cold start, interpreter plus imports.
JOBS = [("product prelie a b", ["product", "prelie", "a", "b"], None)]
JOBS += [("check %s 5 42" % suite, ["check", suite, "5", "42"], None) for suite in ("operads", "all")]
JOBS += [("enumerate labeled %d" % n, ["enumerate", "labeled", str(n)], None) for n in (7, 8)]
JOBS += [
    ("reconstruct present %s %d" % (alphabet, n), ["reconstruct", "{input}", str(n)], (alphabet, n))
    for alphabet, sizes in (("a", (12, 13, 14)), ("a,b", (7, 8, 9)))
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


def bench(repo, workdir):
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    cli = [sys.executable, "-m", "treelie.cli"]
    jobs = []
    for name, args, present in JOBS:
        if present:
            alphabet, n = present
            path = os.path.join(workdir, "%s-%d.json" % (alphabet.replace(",", ""), n))
            subprocess.run(cli + ["present", alphabet, str(n), "-o", path], env=env, check=True)
            args = [path if a == "{input}" else a for a in args]
        job = {"name": name, "ref_s": run_process([sys.executable, REFERENCE], env)["wall_s"]}
        job.update(run_process(cli + args, env))
        jobs.append(job)
        status = ""
        if not job["finished"]:
            status = "  did not finish"
        elif job["exit"]:
            status = "  exit %d" % job["exit"]
        print("%-32s %8.2f s %8.1f MB  (reference %.3f s)%s" % (
            name, job["wall_s"], job["peak_rss_mb"], job["ref_s"], status), file=sys.stderr)
    # one slow or fast reference run must not scale its job alone
    ref = statistics.median(job["ref_s"] for job in jobs)
    for job in jobs:
        job["wall_ref"] = round(job["wall_s"] / ref, 2)
    return {
        "git_sha": git(repo, "rev-parse", "HEAD"),
        # true when src/ differs from that commit: the numbers are of the edited tree
        "src_modified": bool(git(repo, "status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "timeout_s": TIMEOUT_S,
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
