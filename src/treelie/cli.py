"""Command-line front end.

Verbs: ``product``, ``coproduct``, ``e``, ``check``, ``reconstruct``,
``enumerate`` and ``present`` (emit the structure constants of a free tree
algebra, the input format that ``reconstruct`` consumes).

Exit codes: 0 success, 1 check/reconstruction failure, 2 usage or parse
error, 3 validation failure, 4 I/O error.
"""

import argparse
import itertools
import json
import sys

from treelie import checks, rigidity, tree_core
from treelie.freemod import Element
from treelie.nap_coalgebra import delta_k
from treelie.prelie import nap_product, prelie_product
from treelie.tree_core import TreeSyntaxError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# Largest sizes accepted, checked before any work.  MAX_HEAP bounds run time
# only: ``enumerate heap`` streams in flat memory, and ``enumerate heap 11``
# would print 10! trees.  MAX_CHECK_DEGREE bounds run time and memory
# (``check all 8`` takes about 62 s and 330 MB on a 2-vCPU host), MAX_E_DEGREE
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
# ``reconstruct FILE N`` enumerates the trees on the primitives in every
# degree up to N, in time quadratic in N even for a one-name document (3.2 s
# at N = 4000 on a 2-vCPU host); ``present a 14`` (48 MB of JSON) is the
# largest free presentation in use.
MAX_RECONSTRUCT_DEGREE = 64
# ``enumerate`` writes its lines in chunks of this many, one ``print`` each.
ENUMERATE_CHUNK = 4096


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="treelie",
        description="Exact computer algebra on rooted trees: grafting products, "
        "the permutative coproduct, the primitive projector and freeness "
        "reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="product of two trees")
    p.add_argument("kind", choices=["prelie", "nap"])
    p.add_argument("lhs", help="tree in grammar form, e.g. a[b,c[d]]")
    p.add_argument("rhs")

    p = sub.add_parser("coproduct", help="k-th iterated coproduct of a tree")
    p.add_argument("tree")
    p.add_argument("k", nargs="?", type=int, default=1)

    p = sub.add_parser("e", help="primitive projector applied to a tree")
    p.add_argument("tree")

    p = sub.add_parser("check", help="run an identity suite")
    p.add_argument("suite", choices=sorted(checks.SUITES) + ["all"])
    p.add_argument("max_degree", type=int)
    p.add_argument("seed", nargs="?", type=int, default=0)

    p = sub.add_parser("reconstruct", help="validate and reconstruct a presented algebra")
    p.add_argument("file")
    p.add_argument("max_degree", type=int)

    p = sub.add_parser("enumerate", help="list trees of one kind")
    p.add_argument("kind", choices=["trees", "labeled", "heap"])
    p.add_argument("params", nargs="+", help="trees: ALPHABET DEGREE; labeled/heap: N")

    p = sub.add_parser(
        "present",
        help="emit the structure constants of a free tree algebra as JSON",
    )
    p.add_argument("alphabet", help="comma-separated generator labels, e.g. a or a,b")
    p.add_argument("max_degree", type=int)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    return parser


def _parse_tree_arg(text):
    try:
        return Element.of(tree_core.parse_tree(text))
    except (TreeSyntaxError, ValueError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_product(args):
    x = _parse_tree_arg(args.lhs)
    y = _parse_tree_arg(args.rhs)
    product = prelie_product if args.kind == "prelie" else nap_product
    print(product(x, y))
    return EXIT_OK


def cmd_coproduct(args):
    x = _parse_tree_arg(args.tree)
    if args.k < 0:
        print("k must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    degree = x.max_degree()
    if args.k >= 2 and degree > MAX_COPRODUCT_DEGREE:
        message = "degree %d exceeds the coproduct limit %d for k >= 2" % (degree, MAX_COPRODUCT_DEGREE)
        print(message, file=sys.stderr)
        return EXIT_USAGE
    print(delta_k(x, args.k))
    return EXIT_OK


def cmd_e(args):
    x = _parse_tree_arg(args.tree)
    degree = x.max_degree()
    if degree > MAX_E_DEGREE:
        print("degree %d exceeds the e limit %d" % (degree, MAX_E_DEGREE), file=sys.stderr)
        return EXIT_USAGE
    letters = sorted({v.label for t in x.support() for v in tree_core.vertices(t)})
    print(rigidity.idempotent_e(x, rigidity.FreeTreeAlgebra(letters)))
    return EXIT_OK


def cmd_check(args, parser):
    if args.max_degree < 1:
        parser.error("max_degree must be >= 1")
    if args.max_degree > MAX_CHECK_DEGREE:
        message = "max_degree %d exceeds the check limit %d" % (args.max_degree, MAX_CHECK_DEGREE)
        print(message, file=sys.stderr)
        return EXIT_USAGE
    results = checks.run_suite(args.suite, args.max_degree, args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print("%d/%d checks passed" % (len(results) - len(failed), len(results)))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_reconstruct(args):
    if args.max_degree < 1:
        print("max_degree must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.max_degree > MAX_RECONSTRUCT_DEGREE:
        message = "max_degree %d exceeds the reconstruct limit %d" % (args.max_degree, MAX_RECONSTRUCT_DEGREE)
        print(message, file=sys.stderr)
        return EXIT_USAGE
    try:
        alg = rigidity.PresentedAlgebra.load(args.file)
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print("format error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.max_degree > alg.max_degree:
        print(
            "max_degree %d exceeds the presented degree %d" % (args.max_degree, alg.max_degree),
            file=sys.stderr,
        )
        return EXIT_USAGE
    report = rigidity.reconstruct(alg, args.max_degree)
    print(report.summary())
    if report.validation_failures:
        return EXIT_VALIDATION
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_enumerate(args, parser):
    if args.kind == "trees":
        if len(args.params) != 2:
            parser.error("enumerate trees needs ALPHABET and DEGREE")
        alphabet = args.params[0].split(",")
        try:
            degree = int(args.params[1])
        except ValueError:
            parser.error("DEGREE must be an integer")
        if degree >= 1 and checks._rooted_tree_counts(min(degree, 17), len(set(alphabet)))[-1] > MAX_TREES:
            message = "degree %d on %s exceeds the enumerate trees limit of %d trees"
            print(message % (degree, args.params[0], MAX_TREES), file=sys.stderr)
            return EXIT_USAGE
        try:
            items = tree_core.enumerate_trees(alphabet, degree)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
    else:
        if len(args.params) != 1:
            parser.error("enumerate %s needs N" % args.kind)
        try:
            n = int(args.params[0])
        except ValueError:
            parser.error("N must be an integer")
        if args.kind == "heap" and n > MAX_HEAP:
            print("N %d exceeds the enumerate heap limit %d" % (n, MAX_HEAP), file=sys.stderr)
            return EXIT_USAGE
        # the trees stream: n^(n-1) labeled or (n-1)! heap-ordered ones are
        # printed as they are built
        enum = tree_core.iter_labeled if args.kind == "labeled" else tree_core.iter_heap_ordered
        try:
            items = enum(n)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
    count = 0
    items = iter(items)
    for chunk in iter(lambda: [str(item) for item in itertools.islice(items, ENUMERATE_CHUNK)], []):
        print("\n".join(chunk))
        count += len(chunk)
    print("count: %d" % count, file=sys.stderr)
    return EXIT_OK


def cmd_present(args):
    try:
        alphabet = [tree_core.check_label(a) for a in args.alphabet.split(",")]
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.max_degree < 1:
        print("max_degree must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    alg = rigidity.free_presentation(alphabet, args.max_degree)
    if args.output:
        try:
            alg.dump(args.output)
        except OSError as exc:
            print("i/o error: %s" % exc, file=sys.stderr)
            return EXIT_IO
    else:
        json.dump(alg.to_json(), sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "product":
        return cmd_product(args)
    if args.command == "coproduct":
        return cmd_coproduct(args)
    if args.command == "e":
        return cmd_e(args)
    if args.command == "check":
        return cmd_check(args, parser)
    if args.command == "reconstruct":
        return cmd_reconstruct(args)
    if args.command == "enumerate":
        return cmd_enumerate(args, parser)
    if args.command == "present":
        return cmd_present(args)
    parser.error("unknown command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
