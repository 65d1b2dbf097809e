"""Per-layer metrics of a traced pass, derived from the jobs' trace files.

Conventions: ``.calls`` and counts are summed over the pass's jobs; ``.s`` is
the summed duration of a span; ``.self_s`` is self time, derived from the
span tree for spans (duration minus child spans minus the aggregated calls
directly below) and kept per call for aggregates.  Table sizes
(``intern_size``, ``trees_cache_size``, ``cache_entries``) are the largest
any job ended with.
"""

import statistics

from tracer import KERNEL_FUNCTIONS

# (name, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("kernel.calls", "count"),
    ("kernel.self_s", "s"),
    ("kernel.intern_size", "count"),
    ("kernel.node.new_ratio", "ratio"),
    ("tree_core.enumerate_trees.calls", "count"),
    ("tree_core.enumerate_trees.self_s", "s"),
    ("tree_core.trees_cache_size", "count"),
    ("tree_core.labeled_built", "count"),
    ("tree_core.labeled_check_s", "s"),
    ("tree_core.enumerate_labeled.s", "s"),
    ("freemod.filtration_degree.calls", "count"),
    ("freemod.filtration_degree.s", "s"),
    ("freemod.echelon.calls", "count"),
    ("freemod.echelon.self_s", "s"),
    ("freemod.echelon.cells", "count"),
    ("freemod.echelon.max_cells", "count"),
    ("freemod.nullspace.calls", "count"),
    ("freemod.rank_of_family.calls", "count"),
    ("freemod.rank_of_family.s", "s"),
    ("freemod.add.calls", "count"),
    ("freemod.add.self_s", "s"),
    ("freemod.add.terms_copied", "count"),
    ("freemod.expand_slot.calls", "count"),
    ("freemod.expand_slot.self_s", "s"),
    ("prelie.prelie_product.calls", "count"),
    ("prelie.prelie_product.self_s", "s"),
    ("prelie.module_action.calls", "count"),
    ("prelie.module_action.self_s", "s"),
    ("prelie.nap_product.calls", "count"),
    ("nap_coalgebra.coproduct.calls", "count"),
    ("nap_coalgebra.coproduct.self_s", "s"),
    ("nap_coalgebra.delta_k.calls", "count"),
    ("nap_coalgebra.delta_k.self_s", "s"),
    ("rigidity.validate.s", "s"),
    ("rigidity.validate.self_s", "s"),
    ("rigidity.validate.connectedness_s", "s"),
    ("rigidity.primitives_basis.s", "s"),
    ("rigidity.reconstruct.self_s", "s"),
    ("rigidity.idempotent_e.calls", "count"),
    ("rigidity.idempotent_e.self_s", "s"),
    ("rigidity.ak_apply.calls", "count"),
    ("rigidity.ak_apply.self_s", "s"),
    ("rigidity.cache_entries", "count"),
    ("rigidity.change_of_basis.s", "s"),
    ("operads.compose.calls", "count"),
    ("operads.compose.self_s", "s"),
    ("operads.compose_elements.calls", "count"),
    ("operads.compose_elements.self_s", "s"),
    ("operads.check_operad_axioms.s", "s"),
    ("checks.run_suite.s", "s"),
    ("checks.cases", "count"),
    ("cli.startup_s", "s"),
    ("cli.load_s", "s"),
    ("cli.stdout_bytes", "count"),
    ("trace.overhead_s", "s"),
)


class SpanTotals:
    """Span count, summed duration and summed derived self time per name."""

    def __init__(self, docs):
        self.calls, self.total, self.self_s = {}, {}, {}
        self.under_validate = 0.0  # filtration_degree time inside validate
        for doc in docs:
            spans = doc["spans"]
            child_s = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent is not None:
                    child_s[parent] += end - start
            for i, (name, start, end, parent, agg_s) in enumerate(spans):
                dur = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s[i] - agg_s
                if name == "freemod.filtration_degree" and _has_ancestor(spans, parent, "rigidity.validate"):
                    self.under_validate += dur


def _has_ancestor(spans, i, name):
    while i is not None:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False


def _merge_stats(docs):
    out = {}
    for doc in docs:
        for name, (calls, busy, self_s, size_sum, size_max) in doc["stats"].items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
            acc[0] += calls
            acc[1] += busy
            acc[2] += self_s
            acc[3] += size_sum
            acc[4] = max(acc[4], size_max)
    return out


def metrics(job_docs, setup_docs, traced, traced_wall_s, untraced_wall_s, cases):
    """Per-layer metric values keyed by name.

    ``job_docs`` are the traced jobs' trace files, ``setup_docs`` those of
    the traced set-up, ``traced`` the traced jobs' ``harness.Outcome``s and
    ``cases`` the case and check counts their stdout printed.
    """
    spans = SpanTotals(job_docs)
    stats = _merge_stats(job_docs)
    empty = [0, 0.0, 0.0, 0, 0]

    def stat(name, field):
        return stats.get(name, empty)[field]

    kernel_names = ["kernel." + f for f in KERNEL_FUNCTIONS]
    node_calls = stat("kernel.node", 0)
    out = {
        "kernel.calls": sum(stat(n, 0) for n in kernel_names),
        "kernel.self_s": sum(stat(n, 2) for n in kernel_names),
        "kernel.intern_size": max(d["kernel.intern_size"] for d in job_docs),
        "kernel.node.new_ratio": stat("kernel.node.new", 0) / node_calls if node_calls else 0.0,
        "tree_core.enumerate_trees.calls": stat("tree_core.enumerate_trees", 0),
        "tree_core.enumerate_trees.self_s": stat("tree_core.enumerate_trees", 2),
        "tree_core.trees_cache_size": max(d["tree_core.trees_cache_size"] for d in job_docs),
        "tree_core.labeled_built": stat("tree_core.labeled_check", 0),
        "tree_core.labeled_check_s": stat("tree_core.labeled_check", 2),
        "tree_core.enumerate_labeled.s": spans.total.get("tree_core.enumerate_labeled", 0.0),
        "freemod.filtration_degree.calls": spans.calls.get("freemod.filtration_degree", 0),
        "freemod.filtration_degree.s": spans.total.get("freemod.filtration_degree", 0.0),
        "freemod.echelon.calls": stat("freemod.echelon", 0),
        "freemod.echelon.self_s": stat("freemod.echelon", 2),
        "freemod.echelon.cells": stat("freemod.echelon", 3),
        "freemod.echelon.max_cells": stat("freemod.echelon", 4),
        "freemod.nullspace.calls": stat("freemod.nullspace", 0),
        "freemod.rank_of_family.calls": spans.calls.get("freemod.rank_of_family", 0),
        "freemod.rank_of_family.s": spans.total.get("freemod.rank_of_family", 0.0),
        "freemod.add.calls": stat("freemod.add", 0),
        "freemod.add.self_s": stat("freemod.add", 2),
        "freemod.add.terms_copied": stat("freemod.add", 3),
        "freemod.expand_slot.calls": stat("freemod.expand_slot", 0),
        "freemod.expand_slot.self_s": stat("freemod.expand_slot", 2),
        "rigidity.validate.s": spans.total.get("rigidity.validate", 0.0),
        "rigidity.validate.self_s": spans.self_s.get("rigidity.validate", 0.0),
        "rigidity.validate.connectedness_s": spans.under_validate,
        "rigidity.primitives_basis.s": spans.total.get("rigidity.primitives_basis", 0.0),
        "rigidity.reconstruct.self_s": spans.self_s.get("rigidity.reconstruct", 0.0),
        "rigidity.cache_entries": max(d["rigidity.cache_entries"] for d in job_docs),
        "rigidity.change_of_basis.s": SpanTotals(setup_docs).total.get("rigidity.change_of_basis", 0.0),
        "operads.check_operad_axioms.s": spans.total.get("operads.check_operad_axioms", 0.0),
        "checks.run_suite.s": spans.total.get("checks.run_suite", 0.0),
        "checks.cases": cases,
        "cli.startup_s": statistics.median(
            d["imported_at"] - o.spawned_at for d, o in zip(job_docs, traced)
        ),
        "cli.load_s": spans.total.get("rigidity.PresentedAlgebra.load", 0.0),
        "cli.stdout_bytes": sum(len(o.stdout) for o in traced),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    for name in (
        "prelie.prelie_product",
        "prelie.module_action",
        "nap_coalgebra.coproduct",
        "nap_coalgebra.delta_k",
        "rigidity.idempotent_e",
        "rigidity.ak_apply",
        "operads.compose",
        "operads.compose_elements",
    ):
        out[name + ".calls"] = stat(name, 0)
        out[name + ".self_s"] = stat(name, 2)
    out["prelie.nap_product.calls"] = stat("prelie.nap_product", 0)
    return {name: out[name] for name, _ in PER_LAYER}
