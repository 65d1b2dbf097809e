"""In-memory tracing of one treelie process, installed from outside the library.

``install`` wraps public functions of the treelie modules and rebinds every
name that refers to them: module attributes, the kernel implementation's
globals, names imported with ``from ... import``, and function defaults
(``module_action(..., product=prelie_product)``).  Two kinds of wrapper exist:

- a *span* records (name, start, end, parent span, time of aggregated calls
  made directly under it) for coarse calls such as ``validate``;
- an *aggregate* keeps calls, busy time and self time per name for hot
  calls (kernel surgery, ``Element.__add__``, echelon ...), which run
  millions of times, and records no span.

Every wrapper pushes a frame, so the self time of a span can later be derived
from the span tree as its duration minus its child spans minus the
aggregated calls directly below it.  Nothing is printed; ``dump`` writes one
JSON file when the process ends.
"""

import functools
import json
import sys
import time
import types

clock = time.perf_counter


class _Frame:
    __slots__ = ("span_id", "is_span", "child_s", "agg_s", "spans_inside_s")

    def __init__(self, span_id, is_span):
        self.span_id = span_id  # nearest enclosing span, this frame's own if a span
        self.is_span = is_span
        self.child_s = 0.0  # time of direct child frames of any kind
        self.agg_s = 0.0  # spans only: aggregated time directly below, spans excluded
        self.spans_inside_s = 0.0  # aggregates only: time of spans nested inside


class Tracer:
    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []  # [name, start, end, parent span id, agg_s]
        self.stats = {}  # name -> [calls, busy_s, self_s, measured_sum, measured_max]
        self.stack = [_Frame(None, True)]
        self.algebras = []

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(len(spans), True)
            record = [name, 0.0, 0.0, parent.span_id, 0.0]
            spans.append(record)
            stack.append(frame)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[2] = end
                record[4] = frame.agg_s
                dur = end - record[1]
                parent.child_s += dur
                if not parent.is_span:
                    parent.spans_inside_s += dur

        return wrapper

    def aggregate(self, name, fn, measure=None):
        """Wrap ``fn`` under the aggregate ``name``; ``measure(*args)``, if
        given, adds a size per call to the aggregate's sum and maximum."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(parent.span_id, False)
            if measure is not None:
                size = measure(*args)
                stat[3] += size
                if size > stat[4]:
                    stat[4] = size
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame.child_s
                parent.child_s += dur
                if parent.is_span:
                    parent.agg_s += dur - frame.spans_inside_s
                else:
                    parent.spans_inside_s += frame.spans_inside_s

        return wrapper

    def dump(self, path, extra):
        doc = {"job": self.job_id, "spans": self.spans, "stats": self.stats}
        doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _treelie_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "treelie" or n.startswith("treelie.")]


def _rebind(orig, new):
    """Point every module-level binding and function default of ``orig`` in
    the loaded treelie modules at ``new``."""
    for mod in _treelie_modules():
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)
                continue
            while isinstance(value, types.FunctionType):
                if value.__defaults__ and any(d is orig for d in value.__defaults__):
                    value.__defaults__ = tuple(new if d is orig else d for d in value.__defaults__)
                value = getattr(value, "__wrapped__", None)


def _wrap_function(module, attr, wrap):
    orig = getattr(module, attr)
    _rebind(orig, wrap(orig))


def _wrap_method(cls, attr, wrap):
    setattr(cls, attr, wrap(cls.__dict__[attr]))


KERNEL_FUNCTIONS = (
    "leaf",
    "node",
    "graft_at",
    "root_graft",
    "prelie_terms",
    "prelie_counts",
    "coproduct_terms",
    "coproduct_counts",
)


def install(tracer):
    """Wrap the benchmark's layer boundaries in the already imported treelie."""
    from treelie import checks, cli, freemod, kernel, nap_coalgebra, operads, prelie, rigidity, tree_core

    agg, span = tracer.aggregate, tracer.span

    intern_size = kernel.intern_size
    new_nodes = tracer.stats.setdefault("kernel.node.new", [0, 0.0, 0.0, 0, 0])

    def count_new_nodes(fn):
        @functools.wraps(fn)
        def wrapper(label, children):
            before = intern_size()
            tree = fn(label, children)
            if intern_size() != before:
                new_nodes[0] += 1
            return tree

        return wrapper

    for name in KERNEL_FUNCTIONS:
        orig = getattr(kernel, name)
        wrapped = agg("kernel." + name, orig)
        if name == "node":
            wrapped = count_new_nodes(wrapped)
        _rebind(orig, wrapped)

    _wrap_function(tree_core, "enumerate_trees", lambda f: agg("tree_core.enumerate_trees", f))
    _wrap_function(tree_core, "enumerate_labeled", lambda f: span("tree_core.enumerate_labeled", f))
    _wrap_method(tree_core.LabeledTree, "__post_init__", lambda f: agg("tree_core.labeled_check", f))

    def cells(rows):
        return len(rows) * len(rows[0]) if rows else 0

    def left_terms(x, y):
        return len(x.terms)

    _wrap_function(freemod, "filtration_degree", lambda f: span("freemod.filtration_degree", f))
    _wrap_function(freemod, "rank_of_family", lambda f: span("freemod.rank_of_family", f))
    _wrap_function(freemod, "echelon", lambda f: agg("freemod.echelon", f, cells))
    _wrap_function(freemod, "nullspace", lambda f: agg("freemod.nullspace", f))
    _wrap_function(freemod, "expand_slot", lambda f: agg("freemod.expand_slot", f))
    for cls in (freemod.Element, freemod.TensorElement):
        _wrap_method(cls, "__add__", lambda f: agg("freemod.add", f, left_terms))

    for name in ("prelie_product", "module_action", "nap_product"):
        _wrap_function(prelie, name, lambda f, n=name: agg("prelie." + n, f))
    for name in ("coproduct", "delta_k"):
        _wrap_function(nap_coalgebra, name, lambda f, n=name: agg("nap_coalgebra." + n, f))

    for name in ("validate", "primitives_basis", "reconstruct", "change_of_basis", "free_presentation"):
        _wrap_function(rigidity, name, lambda f, n=name: span("rigidity." + n, f))
    for name in ("idempotent_e", "ak_apply"):
        _wrap_function(rigidity, name, lambda f, n=name: agg("rigidity." + n, f))
    load = rigidity.PresentedAlgebra.__dict__["load"].__func__
    rigidity.PresentedAlgebra.load = classmethod(span("rigidity.PresentedAlgebra.load", load))

    def keep_alive(init):
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.algebras.append(self)

        return wrapper

    for cls in (rigidity.FreeTreeAlgebra, rigidity.PresentedAlgebra):
        _wrap_method(cls, "__init__", keep_alive)

    for name in ("pl_compose", "nap_compose"):
        _wrap_function(operads, name, lambda f: agg("operads.compose", f))
    _wrap_function(operads, "compose_elements", lambda f: agg("operads.compose_elements", f))
    _wrap_function(operads, "check_operad_axioms", lambda f: span("operads.check_operad_axioms", f))

    _wrap_function(checks, "run_suite", lambda f: span("checks.run_suite", f))
    _wrap_function(cli, "main", lambda f: span("cli.main", f))


def gauges(tracer):
    """Sizes of the process-wide tables at the end of the job.  The tracer
    keeps every algebra alive, so their caches are still there to count."""
    from treelie import kernel, tree_core

    return {
        "kernel.intern_size": kernel.intern_size(),
        "tree_core.trees_cache_size": len(tree_core._TREES_CACHE),
        "rigidity.cache_entries": sum(
            len(cache) for alg in tracer.algebras for cache in alg._caches.values()
        ),
    }
