"""Command-line front end.

Verbs: ``product``, ``coproduct``, ``e``, ``check``, ``reconstruct``,
``enumerate`` and ``present`` (emit the structure constants of a free tree
algebra, the input format that ``reconstruct`` consumes).

Exit codes: 0 success, 1 check/reconstruction failure, 2 usage or parse
error, 3 validation failure, 4 I/O error.  Every refusal, argparse's own
included, is raised as ``Refused`` and printed by ``main`` as one stderr line;
so is a stdout that its reader closed early (exit 4).

The ``treelie`` command and ``python -m treelie.cli`` enter through ``run``,
which ends the process without the interpreter's teardown; tests call
``main``.  The grammar is one table, ``VERBS``: ``main`` reads an argv of a
verb and plain words that fit it straight from the table, and imports
argparse, which builds its parser from the same table, only for the rest
(help, options and usage errors).  Each verb imports the algebra it uses when
it runs: ``enumerate`` loads ``tree_core`` alone, ``check`` its suites, and
``reconstruct`` and ``present`` ``rigidity`` and ``json``.
"""

import itertools
import os
import sys
import types

from treelie import tree_core

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# Largest sizes accepted, checked before any work.  MAX_HEAP bounds run time
# only: ``enumerate heap`` streams in flat memory, and ``enumerate heap 11``
# would print 10! trees.  MAX_CHECK_DEGREE bounds run time and memory: on a
# 2-vCPU host ``check all 8`` takes about 28 s and 75 MB, of which ``check
# fundamental 8`` (the A_k sums of e on both alphabets) takes about 17 s and
# 74 MB and ``check coalgebra 8`` about 4 s.  MAX_E_DEGREE bounds run time
# (``e`` of a root with 7 leaves was still running at 30 s).
MAX_CHECK_DEGREE = 8
MAX_E_DEGREE = 7
MAX_HEAP = 10
# The k-th iterated coproduct, k >= 2, grows like k! in the number of root
# subtrees; Delta^0 and Delta^1 are linear in the tree and stay unlimited.
MAX_COPRODUCT_DEGREE = 9
# ``enumerate trees`` builds every tree of the degree before printing one, in
# about 5-6 s and 220 MB for the 433,196 trees of ``a,b 10``; each further
# degree costs about 5x.  Rooted tree counts never fall as the degree grows,
# and one letter has 634,847 trees of degree 17, so the count is taken at
# degree 17 at most.
MAX_TREES = 500_000
# ``present ALPHABET N`` builds the product of every pair of trees of total
# degree at most N: 255,875 pairs for ``a 15`` (about 54 s and 140 MB of
# JSON), 198,016 for ``a,b 9``; ``present a 14`` takes about 10 s and peaks
# at 226 MB (230 MB while each product was also cached).  The pair count
# never falls as N grows, and one letter has 688,112 pairs at degree 16, so
# it is taken at degree 16 at most.
MAX_PRESENT_PAIRS = 300_000
# ``reconstruct FILE N`` walks every degree up to N, and the file's size does
# not bound N: 29 bytes, {"generators":{"4000":["x"]}}, name degree 4000.
# ``present a 14`` (48 MB of JSON) is the largest free presentation in use.
MAX_RECONSTRUCT_DEGREE = 64
# ``enumerate`` writes its lines in chunks of this many, one ``print`` each.
ENUMERATE_CHUNK = 4096
# The names of ``checks.SUITES``, sorted, so that the grammar does not import
# the suites.
CHECK_SUITES = ("coalgebra", "dlaw", "fundamental", "nap", "operads", "prelie", "section4")


class Refused(Exception):
    """A refusal: ``main`` prints the message as one stderr line and exits
    with ``code``."""

    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_tree_arg(text):
    from treelie.freemod import Element

    try:
        return Element.of(tree_core.parse_tree(text))
    except (tree_core.TreeSyntaxError, ValueError) as exc:
        raise Refused("parse error: %s" % exc) from None


def _integer(text, name):
    try:
        return int(text)
    except ValueError:
        raise Refused("%s must be an integer" % name) from None


def _check_max_degree(max_degree, limit, verb):
    if max_degree < 1:
        raise Refused("max_degree must be >= 1")
    if max_degree > limit:
        raise Refused("max_degree %d exceeds the %s limit %d" % (max_degree, verb, limit))


def cmd_product(args):
    from treelie.prelie import nap_product, prelie_product

    x = _parse_tree_arg(args.lhs)
    y = _parse_tree_arg(args.rhs)
    product = prelie_product if args.kind == "prelie" else nap_product
    print(product(x, y))


def cmd_coproduct(args):
    from treelie import nap_coalgebra

    x = _parse_tree_arg(args.tree)
    if args.k < 0:
        raise Refused("k must be >= 0")
    degree = x.max_degree()
    if args.k >= 2 and degree > MAX_COPRODUCT_DEGREE:
        raise Refused("degree %d exceeds the coproduct limit %d for k >= 2" % (degree, MAX_COPRODUCT_DEGREE))
    print(nap_coalgebra.delta_k(x, args.k))


def cmd_e(args):
    from treelie import rigidity

    x = _parse_tree_arg(args.tree)
    degree = x.max_degree()
    if degree > MAX_E_DEGREE:
        raise Refused("degree %d exceeds the e limit %d" % (degree, MAX_E_DEGREE))
    letters = sorted({v.label for t in x.support() for v in tree_core.vertices(t)})
    print(rigidity.idempotent_e(x, rigidity.FreeTreeAlgebra(letters)))


def cmd_check(args):
    _check_max_degree(args.max_degree, MAX_CHECK_DEGREE, "check")
    from treelie import checks

    results = checks.run_suite(args.suite, args.max_degree, args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print("%d/%d checks passed" % (len(results) - len(failed), len(results)))
    if failed:
        return EXIT_CHECK_FAILED


def cmd_reconstruct(args):
    _check_max_degree(args.max_degree, MAX_RECONSTRUCT_DEGREE, "reconstruct")
    from treelie import rigidity

    try:
        alg = rigidity.PresentedAlgebra.load(args.file)
    except OSError as exc:
        raise Refused("i/o error: %s" % exc, EXIT_IO) from None
    except ValueError as exc:
        raise Refused("format error: %s" % exc) from None
    if args.max_degree > alg.max_degree:
        raise Refused("max_degree %d exceeds the presented degree %d" % (args.max_degree, alg.max_degree))
    report = rigidity.reconstruct(alg, args.max_degree)
    print(report.summary())
    if report.validation_failures:
        return EXIT_VALIDATION
    if not report.ok:
        return EXIT_CHECK_FAILED


def cmd_enumerate(args):
    if args.kind == "trees":
        if len(args.params) != 2:
            raise Refused("enumerate trees needs ALPHABET and DEGREE")
        alphabet, degree = args.params[0].split(","), _integer(args.params[1], "DEGREE")
        if degree >= 1 and tree_core.count_trees(min(degree, 17), len(set(alphabet)))[-1] > MAX_TREES:
            message = "degree %d on %s exceeds the enumerate trees limit of %d trees"
            raise Refused(message % (degree, args.params[0], MAX_TREES))
        enum, params = tree_core.enumerate_trees, (alphabet, degree)
    else:
        if len(args.params) != 1:
            raise Refused("enumerate %s needs N" % args.kind)
        n = _integer(args.params[0], "N")
        if args.kind == "heap" and n > MAX_HEAP:
            raise Refused("N %d exceeds the enumerate heap limit %d" % (n, MAX_HEAP))
        # the trees stream: n^(n-1) labeled or (n-1)! heap-ordered ones are
        # printed as they are built
        enum = tree_core.iter_labeled if args.kind == "labeled" else tree_core.iter_heap_ordered
        params = (n,)
    try:
        items = iter(enum(*params))
    except ValueError as exc:
        raise Refused("error: %s" % exc) from None
    count = 0
    for chunk in iter(lambda: [str(item) for item in itertools.islice(items, ENUMERATE_CHUNK)], []):
        print("\n".join(chunk))
        count += len(chunk)
    print("count: %d" % count, file=sys.stderr)


def cmd_present(args):
    try:
        alphabet = [tree_core.check_label(a) for a in args.alphabet.split(",")]
    except ValueError as exc:
        raise Refused("error: %s" % exc) from None
    if args.max_degree < 1:
        raise Refused("max_degree must be >= 1")
    n = min(args.max_degree, 16)
    t = tree_core.count_trees(n, len(set(alphabet)))
    if sum(t[d - 1] * t[e - 1] for d in range(1, n) for e in range(1, n + 1 - d)) > MAX_PRESENT_PAIRS:
        message = "degree %d on %s exceeds the present limit of %d product pairs"
        raise Refused(message % (args.max_degree, args.alphabet, MAX_PRESENT_PAIRS))
    from treelie import rigidity

    alg = rigidity.free_presentation(alphabet, args.max_degree)
    if args.output:
        try:
            alg.dump(args.output)
        except OSError as exc:
            raise Refused("i/o error: %s" % exc, EXIT_IO) from None
    else:
        alg.write(sys.stdout)


# The grammar: for each verb, its handler, its help line, its positionals in
# order as (dest, keywords of ``add_argument``) and its options as (flags,
# keywords naming the ``dest``).  Only a verb's last positional may be
# optional ("?") or repeated ("+").  ``_build_parser`` builds argparse's
# parser from it, and ``_read_argv`` reads well-formed argv with it without
# importing argparse.
VERBS = {
    "product": (cmd_product, "product of two trees", [
        ("kind", {"choices": ["prelie", "nap"]}),
        ("lhs", {"help": "tree in grammar form, e.g. a[b,c[d]]"}),
        ("rhs", {}),
    ], []),
    "coproduct": (cmd_coproduct, "k-th iterated coproduct of a tree", [
        ("tree", {}),
        ("k", {"nargs": "?", "type": int, "default": 1}),
    ], []),
    "e": (cmd_e, "primitive projector applied to a tree", [("tree", {})], []),
    "check": (cmd_check, "run an identity suite", [
        ("suite", {"choices": CHECK_SUITES + ("all",)}),
        ("max_degree", {"type": int}),
        ("seed", {"nargs": "?", "type": int, "default": 0}),
    ], []),
    "reconstruct": (cmd_reconstruct, "validate and reconstruct a presented algebra", [
        ("file", {}),
        ("max_degree", {"type": int}),
    ], []),
    "enumerate": (cmd_enumerate, "list trees of one kind", [
        ("kind", {"choices": ["trees", "labeled", "heap"]}),
        ("params", {"nargs": "+", "help": "trees: ALPHABET DEGREE; labeled/heap: N"}),
    ], []),
    "present": (cmd_present, "emit the structure constants of a free tree algebra as JSON", [
        ("alphabet", {"help": "comma-separated generator labels, e.g. a or a,b"}),
        ("max_degree", {"type": int}),
    ], [(("-o", "--output"), {"dest": "output", "help": "write to a file instead of stdout"})]),
}


def _read_argv(argv):
    """The attributes ``_build_parser().parse_args(argv)`` would set, for a
    known verb followed by words that fit its positionals; ``None`` for
    anything else (a word starting with ``-``, such as ``-h``, an option, a
    negative number or ``--``, and every usage error), which argparse reads."""
    if not argv or argv[0] not in VERBS or any(a.startswith("-") for a in argv):
        return None
    run, _, positionals, options = VERBS[argv[0]]
    words, last = argv[1:], positionals[-1][1].get("nargs")
    required = len(positionals) - (last == "?")
    if len(words) < required or (len(words) > len(positionals) and last != "+"):
        return None
    args = {"command": argv[0], "run": run}
    args.update((spec["dest"], spec.get("default")) for _, spec in options)
    for i, (dest, spec) in enumerate(positionals):
        repeated, values = spec.get("nargs") == "+", []
        for word in words[i:] if repeated else words[i : i + 1]:
            try:
                value = spec.get("type", str)(word)
            except ValueError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            values.append(value)
        args[dest] = values if repeated else values[0] if values else spec["default"]
    return types.SimpleNamespace(**args)


def _parse_args(argv):
    """Argparse's reading of an argv that ``_read_argv`` leaves.  An argv that
    holds ``--`` twice is refused first: Python 3.11's argparse reads the
    second ``--`` as an empty list for a positional, or drops it."""
    if argv.count("--") > 1:
        raise Refused("treelie: error: '--' may appear only once")
    return _build_parser().parse_args(argv)


def _build_parser():
    """Argparse's parser for the grammar in ``VERBS``: it prints help and
    reads what ``_read_argv`` leaves.  Its usage errors are one-line
    refusals."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise Refused("%s: error: %s" % (self.prog, message))

    parser = Parser(
        prog="treelie",
        description="Exact computer algebra on rooted trees: grafting products, "
        "the permutative coproduct, the primitive projector and freeness "
        "reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help, positionals, options) in VERBS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for dest, spec in positionals:
            p.add_argument(dest, **spec)
        for flags, spec in options:
            p.add_argument(*flags, **spec)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv) or _parse_args(argv)
        code = args.run(args) or EXIT_OK
        sys.stdout.flush()  # a closed stdout is met here, not at interpreter exit
        return code
    except Refused as exc:
        # a line break in echoed input (a path, an alphabet) would split the line
        print("\\n".join(str(exc).splitlines()), file=sys.stderr)
        return exc.code
    except BrokenPipeError as exc:
        # the reader closed stdout: what is still buffered goes to devnull, so
        # that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("i/o error: stdout closed: %s" % exc, file=sys.stderr)
        return EXIT_IO


def run():
    """Entry point of the ``treelie`` command: ``main``, then the process ends
    at once, skipping the interpreter's teardown (freeing every module and
    cache one object at a time), which can take longer than a small job's own
    algebra.  Handlers registered with ``atexit`` do not run.  Under a profiler
    or tracer (``python -m cProfile``, a debugger, coverage) the process exits
    normally, so that the tool can write its report."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


def _observed():
    """Whether a profiler or tracer is installed: through ``sys.setprofile``
    or ``sys.settrace``, or, from Python 3.12 on (where ``cProfile`` uses it),
    as a ``sys.monitoring`` tool."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


if __name__ == "__main__":
    run()
