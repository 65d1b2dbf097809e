"""Start benchmark processes from a small interpreter so their peak RSS is their own.

On Linux a process's ``ru_maxrss`` keeps the resident size of the process
that spawned it (the memory image replaced by ``exec``), so a job started
straight from the benchmark runner (run.py) would report at least the runner's size.
The runner therefore starts this script once per run, with ``python -S -I``
and only a few standard modules (about 10 MB), and sends it one request per
job as a JSON line on stdin:

  {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout": S}

It spawns the job, waits for it to exit or kills it at the timeout, reaps it
with ``wait4`` and answers with one JSON line (if the runner goes away
mid-job, it kills the job and exits instead):

  {"returncode": N, "wall_s": S, "maxrss_kb": K, "timed_out": B, "spawned_at": T}

``wall_s`` runs from just before the spawn to the reap; ``spawned_at`` is
the ``time.monotonic`` stamp of the spawn, comparable across processes.
"""

import json
import os
import select
import signal
import sys
import time


def run(req):
    file_actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = req["argv"]
    spawned_at = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, req["env"], file_actions=file_actions)
    pidfd = os.pidfd_open(pid)
    try:
        # stdin turns readable mid-job only when the runner has gone away
        ready, _, _ = select.select([pidfd, sys.stdin], [], [], max(req["timeout"], 0.0))
        exited = pidfd in ready
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    if sys.stdin in ready and not exited:
        sys.exit(1)
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": time.monotonic() - spawned_at,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": not exited,
        "spawned_at": spawned_at,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
