"""Run one treelie job with the benchmark's tracer installed.

Usage:
  python perfbench/trace_child.py TRACE_FILE JOB_ID cli ARGS...
  python perfbench/trace_child.py TRACE_FILE JOB_ID setup WORKLOAD SEED OUTDIR

``cli`` runs ``treelie.cli.main(ARGS)`` exactly as ``python -m treelie.cli``
would, so stdout and the exit code are the job's own; ``setup`` runs
``make_inputs.py``.  The spans, aggregates and table sizes go to TRACE_FILE
when the job ends, with ``time.monotonic`` stamps taken once treelie is
imported, so the caller can compute start-up time from its spawn stamp.
"""

import sys
import time

import treelie.cli

imported_at = time.monotonic()

import tracer  # noqa: E402  (imported after treelie so start-up excludes it)


def main(argv):
    trace_file, job_id, kind, args = argv[0], argv[1], argv[2], argv[3:]
    t = tracer.Tracer(job_id)
    tracer.install(t)
    installed_at = time.monotonic()
    code = 0
    try:
        if kind == "cli":
            code = treelie.cli.main(args)
        else:
            import make_inputs

            code = make_inputs.main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        extra = {"imported_at": imported_at, "install_s": installed_at - imported_at}
        extra.update(tracer.gauges(t))
        t.dump(trace_file, extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
