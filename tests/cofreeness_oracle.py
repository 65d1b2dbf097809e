"""The cofreeness pairing walked triple by triple, as ``checks`` did before
it laid out each degree's pairs (A, B) once: for every tree T and every pair
of degrees summing to degree(T), A (x) B, A . B and the automorphism counts
are recomputed.  The coproduct is looked up on ``nap_coalgebra`` at each
call, so a test that replaces it there reaches this walk too."""

from treelie import nap_coalgebra, tree_core
from treelie.freemod import Element, tensor
from treelie.nap_coalgebra import kronecker_pairing, tensor_pairing
from treelie.prelie import nap_product


def cofreeness_outcomes(alphabet, max_degree):
    for n in range(1, max_degree + 1):
        for t in tree_core.enumerate_trees(alphabet, n):
            d = nap_coalgebra.coproduct(Element.of(t))
            aut_t = tree_core.automorphism_count(t)
            for da in range(1, t.degree):
                for a in tree_core.enumerate_trees(alphabet, da):
                    aut_a = tree_core.automorphism_count(a)
                    for b in tree_core.enumerate_trees(alphabet, t.degree - da):
                        aut_b = tree_core.automorphism_count(b)
                        lhs = tensor_pairing(d, tensor(Element.of(a), Element.of(b)))
                        rhs = kronecker_pairing(Element.of(t), nap_product(Element.of(a), Element.of(b)))
                        if aut_a * aut_b * lhs != aut_t * rhs:
                            yield "T=%s A=%s B=%s" % (t, a, b)
                        elif aut_t == aut_a == aut_b == 1 and lhs != rhs:
                            yield "plain pairing: T=%s A=%s B=%s" % (t, a, b)
                        else:
                            yield None
