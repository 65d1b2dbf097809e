"""Oracles for the operad layer.

The compositions as they were written on ``LabeledTree`` before the kernels
on parent tuples (closures for the block relabeling, one vertex at a time),
here with every tree built by the validating constructor; the kernels on
parent tuples as first written, on a ``_substitute`` that rebuilds its
relabelings on every call and returns the moved children with the parent
list, and ``pl_parents`` with one loop over all target maps;
``act_element``, and the operad axiom walk as it was written before
``check_operad_axioms`` returned its outcomes and composed each ``t o_i s``
once: a seven-deep loop nest that recomputes every composition where it is
used.  Kept for the differential tests; the walk yields one outcome per
case, ``None`` for a pass, else the witness."""

import itertools

from treelie import tree_core
from treelie.freemod import Element
from treelie.operads import as_element, compose_elements, compose_permutation, unit
from treelie.tree_core import LabeledTree, act


def _relabel_maps(n, i, m):
    """Block relabeling for substitution at vertex i: host ids around i shift,
    incoming ids j map to i+j-1."""

    def host(j):
        return j if j < i else j + m - 1

    def sub(j):
        return i + j - 1

    return host, sub


def nap_compose(t, i, s):
    """Substitute ``s`` for vertex i of ``t`` (permutative composition)."""
    n, m = t.n, s.n
    if not 1 <= i <= n:
        raise ValueError("vertex %d out of range 1..%d" % (i, n))
    host, sub = _relabel_maps(n, i, m)
    parent = [0] * (n + m - 1)
    for j in range(1, m + 1):
        p = s.parent[j - 1]
        if p != 0:
            parent[sub(j) - 1] = sub(p)
        else:
            pi = t.parent[i - 1]
            parent[sub(j) - 1] = 0 if pi == 0 else host(pi)
    for j in range(1, n + 1):
        if j == i:
            continue
        p = t.parent[j - 1]
        if p == i:
            parent[host(j) - 1] = sub(s.root)
        elif p != 0:
            parent[host(j) - 1] = host(p)
    return LabeledTree(tuple(parent))


def pl_compose(t, i, s):
    """Pre-Lie composition: sum over all maps from the child subtrees of
    vertex i to the vertices of ``s``."""
    n, m = t.n, s.n
    if not 1 <= i <= n:
        raise ValueError("vertex %d out of range 1..%d" % (i, n))
    host, sub = _relabel_maps(n, i, m)
    children = t.children_of(i)
    base = nap_compose(t, i, s)
    out = Element()
    for targets in itertools.product(range(1, m + 1), repeat=len(children)):
        parent = list(base.parent)
        for c, target in zip(children, targets):
            parent[host(c) - 1] = sub(target)
        out = out + Element.of(LabeledTree(tuple(parent)))
    return out


def _substitute(p, i, q):
    """``q`` substituted for vertex i of ``p`` with i's children on the root
    of ``q``, as a parent list, and the list positions of those children.
    Host ids above i shift up by ``len(q) - 1``; incoming id j becomes i+j-1."""
    n, m = len(p), len(q)
    if not 1 <= i <= n:
        raise ValueError("vertex %d out of range 1..%d" % (i, n))
    shift, top = m - 1, i + q.index(0)
    host = [x if x < i else top if x == i else x + shift for x in p]
    base = host[: i - 1] + [host[i - 1] if x == 0 else x + i - 1 for x in q] + host[i:]
    moved = [c if c < i - 1 else c + shift for c, x in enumerate(p) if x == i]
    return base, moved


def nap_parents(p, i, q):
    """Permutative composition of parent tuples, ``{p o_i q: 1}``."""
    base, _ = _substitute(p, i, q)
    return {tuple(base): 1}


def pl_parents(p, i, q):
    """Pre-Lie composition of parent tuples, every case through one product
    over the maps from the moved children to the vertices of ``q``."""
    base, moved = _substitute(p, i, q)
    out = {}
    for targets in itertools.product(range(i, i + len(q)), repeat=len(moved)):
        for pos, target in zip(moved, targets):
            base[pos] = target
        out[tuple(base)] = 1
    return out


def corrupted_parents(p, i, q):
    """Incoming edges attach to the incoming tree's last vertex."""
    base, moved = _substitute(p, i, q)
    for pos in moved:
        base[pos] = i + len(q) - 1
    return {tuple(base): 1}


def corrupted_compose(t, i, s):
    """Incoming edges attach to the incoming tree's last vertex."""
    good = nap_compose(t, i, s)
    host, sub = _relabel_maps(t.n, i, s.n)
    parent = list(good.parent)
    for c in t.children_of(i):
        parent[host(c) - 1] = sub(s.n)
    return LabeledTree(tuple(parent))


def act_element(sigma, x):
    return Element({act(sigma, t): c for t, c in as_element(x).items()})


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
