"""The operad axiom walk as it was written before ``check_operad_axioms``
returned its outcomes and composed each ``t o_i s`` once: a seven-deep loop
nest that recomputes every composition where it is used.  Kept as the
oracle for the differential test; one outcome per case, ``None`` for a pass,
else the witness."""

import itertools

from treelie import tree_core
from treelie.operads import act_element, as_element, compose_elements, compose_permutation, unit
from treelie.tree_core import act


def check_operad_axioms(compose, max_arity, equivariance_arity=None):
    """Unit, sequential/parallel associativity and equivariance, exhaustively
    over labeled trees of arity <= max_arity."""
    trees = {n: tree_core.enumerate_labeled(n) for n in range(1, max_arity + 1)}
    perms = {n: list(itertools.permutations(range(1, n + 1))) for n in trees}

    for n, ts in trees.items():
        for t in ts:
            for i in range(1, n + 1):
                yield None if compose_elements(compose, t, i, unit) == as_element(t) else (
                    "unit: %s o_%d 1 != itself" % (t, i)
                )
            yield None if compose_elements(compose, unit, 1, t) == as_element(t) else (
                "unit: 1 o_1 %s != itself" % t
            )

    for a, ts in trees.items():
        for b, ss in trees.items():
            for c, rs in trees.items():
                for t in ts:
                    for s in ss:
                        for r in rs:
                            ts_comp = {
                                i: compose_elements(compose, t, i, s) for i in range(1, a + 1)
                            }
                            # sequential: (t o_i s) o_{i-1+j} r == t o_i (s o_j r)
                            for i in range(1, a + 1):
                                for j in range(1, b + 1):
                                    lhs = compose_elements(compose, ts_comp[i], i - 1 + j, r)
                                    rhs = compose_elements(
                                        compose, t, i, compose_elements(compose, s, j, r)
                                    )
                                    yield None if lhs == rhs else (
                                        "sequential associativity: %s o_%d %s o_%d %s" % (t, i, s, j, r)
                                    )
                            # parallel: (t o_i s) o_{j+b-1} r == (t o_j r) o_i s
                            for i in range(1, a + 1):
                                for j in range(i + 1, a + 1):
                                    lhs = compose_elements(compose, ts_comp[i], j + b - 1, r)
                                    rhs = compose_elements(
                                        compose, compose_elements(compose, t, j, r), i, s
                                    )
                                    yield None if lhs == rhs else (
                                        "parallel associativity: %s o_%d %s / o_%d %s" % (t, i, s, j, r)
                                    )

    eq_arity = equivariance_arity or max_arity
    for a in range(1, eq_arity + 1):
        for b in range(1, eq_arity + 1):
            for t in trees[a]:
                for s in trees[b]:
                    for sigma in perms[a]:
                        for tau in perms[b]:
                            for i in range(1, a + 1):
                                lhs = compose_elements(
                                    compose, act(sigma, t), i, act(tau, s)
                                )
                                rho = compose_permutation(sigma, i, tau)
                                rhs = act_element(
                                    rho, compose_elements(compose, t, sigma[i - 1], s)
                                )
                                yield None if lhs == rhs else (
                                    "equivariance: sigma=%s tau=%s i=%d t=%s s=%s"
                                    % (sigma, tau, i, t, s)
                                )
