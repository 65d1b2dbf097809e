"""Run benchmark processes one at a time with a deadline.

Each job is a fresh interpreter started by ``spawner.py`` (see there for
why), which reports the job's exit code, wall time from spawn to reap and
peak RSS.  A job still running at its deadline is killed and reported as
``timed_out``.  stdout and stderr go to files in the run's directory and
are read back after the job.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool
    spawned_at: float


def child_env():
    """The caller's environment with ``src`` on the path and a fixed hash seed.

    ``TREELIE_*`` switches are dropped, so the checkout's own code runs with
    its default kernel backend, and so are ``PYTHON*`` settings such as
    ``PYTHONUNBUFFERED`` or ``PYTHONDONTWRITEBYTECODE``, so jobs get CPython's
    default output buffering and bytecode cache whatever the caller's shell
    sets.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("TREELIE_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """One ``spawner.py`` process for the run; use as a context manager.

    The spawner and its jobs share a process group, which is killed if the
    run ends abnormally, so no job outlives the benchmark.
    """

    def __init__(self, work_dir):
        self.out_path = os.path.join(work_dir, "job.stdout")
        self.err_path = os.path.join(work_dir, "job.stderr")
        self.env = child_env()
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", os.path.join(HERE, "spawner.py")],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        return False

    def run(self, argv, timeout):
        """Run ``argv`` to completion or until ``timeout`` seconds have passed."""
        req = {"argv": argv, "env": self.env, "stdout": self.out_path, "stderr": self.err_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        rep = json.loads(line)
        with open(self.out_path, "rb") as fh:
            stdout = fh.read()
        with open(self.err_path, "rb") as fh:
            stderr = fh.read()
        return Outcome(
            returncode=rep["returncode"],
            stdout=stdout,
            stderr=stderr,
            wall_s=rep["wall_s"],
            maxrss_kb=rep["maxrss_kb"],
            timed_out=rep["timed_out"],
            spawned_at=rep["spawned_at"],
        )


@dataclass
class JobResult:
    job: dict
    outcome: Outcome
    error: str  # None when the oracle accepts the outcome

    @property
    def ok(self):
        return self.error is None


def _job_args(job, input_dir):
    return [os.path.join(input_dir, a) if a.endswith(".json") else a for a in job["argv"]]


def cli_argv(job, input_dir):
    """``python -m treelie.cli`` argv for a job, with input files resolved."""
    return [sys.executable, "-m", "treelie.cli"] + _job_args(job, input_dir)


def traced_argv(job, input_dir, trace_file):
    """The same job run through ``trace_child.py``, which records spans."""
    script = os.path.join(HERE, "trace_child.py")
    return [sys.executable, script, trace_file, job["id"], "cli"] + _job_args(job, input_dir)


def run_jobs(spawner, jobs, input_dir, deadline, job_timeout, argv_for=None):
    """Run ``jobs`` one after another and judge each with the oracle.

    A job gets ``job_timeout`` seconds, less if the run's ``deadline`` (a
    ``time.monotonic`` value) comes first; a job that does not finish, or is
    not started because the deadline has passed, is failed as "did not
    finish".  Returns ``(results, wall_s)``.
    """
    argv_for = argv_for or (lambda job: cli_argv(job, input_dir))
    outcomes = []
    start = time.monotonic()
    for job in jobs:
        left = min(job_timeout, deadline - time.monotonic())
        outcomes.append(spawner.run(argv_for(job), left) if left > 0 else None)
    wall_s = time.monotonic() - start
    results = []
    for job, out in zip(jobs, outcomes):
        if out is None:
            error = "did not finish: the run's deadline passed before it started"
        elif out.timed_out:
            error = "did not finish within %.1f s" % out.wall_s
        else:
            error = oracle.judge(job["expect"], out.returncode, out.stdout, out.stderr)
        results.append(JobResult(job, out, error))
    return results, wall_s
