"""Expected results for benchmark jobs, computed without importing treelie.

Tree counts come from closed formulas and the Euler-transform recurrence, and
``judge`` compares one finished job (exit code, stdout, stderr) with its
expectation.  Anything it does not accept counts as a failed job.
"""

import math
import re

_CHECK_LINE = re.compile(r"ok [^\n]*")
_PASSED = re.compile(r"(\d+)/(\d+) checks passed")
_CASES = re.compile(r": (\d+) (?:cases|checks)$")


def rooted_tree_counts(colours, n_max):
    """Rooted unordered trees with 1..n_max vertices, each vertex coloured
    from ``colours`` colours: a(1) = colours and
    a(n+1) = (1/n) sum_{i=1..n} (sum_{d | i} d a(d)) a(n+1-i)."""
    a = [0, colours]
    for n in range(1, n_max):
        total = 0
        for i in range(1, n + 1):
            total += sum(d * a[d] for d in range(1, i + 1) if i % d == 0) * a[n + 1 - i]
        if total % n:
            raise ArithmeticError("Euler transform gave a non-integer count")
        a.append(total // n)
    return a[1 : n_max + 1]


def labeled_tree_count(n):
    """Rooted trees on the vertex set {1..n} (Cayley): n^(n-1)."""
    return n ** (n - 1)


def heap_ordered_count(n):
    """Rooted trees on {1..n} whose labels increase away from the root: (n-1)!."""
    return math.factorial(n - 1)


def enumerate_count(kind, params):
    """Expected ``count:`` of ``treelie enumerate KIND PARAMS``."""
    if kind == "trees":
        alphabet, degree = params
        return rooted_tree_counts(len(set(alphabet.split(","))), int(degree))[-1]
    (n,) = params
    if kind == "labeled":
        return labeled_tree_count(int(n))
    if kind == "heap":
        return heap_ordered_count(int(n))
    raise ValueError("unknown enumerate kind %r" % kind)


def reconstruct_stdout(letters, degree):
    """Full stdout of a successful ``reconstruct`` of the free algebra on
    ``letters`` generators up to ``degree``, in any basis."""
    dims = rooted_tree_counts(letters, degree)
    lines = [
        "validation: ok (degree <= %d)" % degree,
        "primitives: degree 1: %d" % letters,
    ]
    for n, dim in enumerate(dims, start=1):
        lines.append(
            "degree %d: algebra dim %d, tree monomials %d, image rank %d, coalgebra ok -> isomorphic"
            % (n, dim, dim, dim)
        )
    lines.append("isomorphism up to degree %d, dims %s" % (degree, ",".join(map(str, dims))))
    return "\n".join(lines) + "\n"


def judge(expect, returncode, stdout, stderr):
    """None when the job's outcome matches ``expect``, else the reason it does not.

    ``expect`` is a dict with a ``kind``:
      - ``reconstruct`` (``letters``, ``degree``): exit 0 and the exact report;
      - ``rejected``: exit 3 and only ``validation failed: ...`` lines;
      - ``check``: exit 0, only ``ok`` lines, then ``K/K checks passed``;
      - ``enumerate`` (``count``): exit 0, ``count: K`` on stderr and K
        distinct lines on stdout.
    """
    kind = expect["kind"]
    text = stdout.decode("utf-8", "replace")
    lines = text.splitlines()
    if kind == "reconstruct":
        if returncode != 0:
            return "exit code %d, expected 0" % returncode
        want = reconstruct_stdout(expect["letters"], expect["degree"])
        if text != want:
            return "report differs from the expected free-algebra report: %r" % lines[-1:]
        return None
    if kind == "rejected":
        if returncode != 3:
            return "exit code %d, expected 3" % returncode
        if not lines or not all(line.startswith("validation failed: ") for line in lines):
            return "expected only 'validation failed:' lines, got %r" % lines[:1]
        return None
    if kind == "check":
        if returncode != 0:
            return "exit code %d, expected 0" % returncode
        if len(lines) < 2:
            return "no check lines"
        body, last = lines[:-1], lines[-1]
        bad = [line for line in body if not _CHECK_LINE.fullmatch(line)]
        if bad:
            return "non-ok line %r" % bad[0]
        m = _PASSED.fullmatch(last)
        if m is None or int(m.group(1)) != len(body) or int(m.group(2)) != len(body):
            return "last line %r is not %d/%d checks passed" % (last, len(body), len(body))
        return None
    if kind == "enumerate":
        if returncode != 0:
            return "exit code %d, expected 0" % returncode
        want = expect["count"]
        if stderr.decode("utf-8", "replace").strip() != "count: %d" % want:
            return "stderr %r, expected 'count: %d'" % (stderr[-40:], want)
        if len(lines) != want or len(set(lines)) != want:
            return "%d lines (%d distinct) on stdout, expected %d" % (len(lines), len(set(lines)), want)
        return None
    raise ValueError("unknown expectation kind %r" % kind)


def check_cases(stdout):
    """Sum of the case and check counts printed on ``ok`` lines of ``check``."""
    total = 0
    for line in stdout.decode("utf-8", "replace").splitlines():
        m = _CASES.search(line)
        if m and line.startswith("ok "):
            total += int(m.group(1))
    return total
