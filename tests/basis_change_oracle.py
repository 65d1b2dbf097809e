"""``rigidity.change_of_basis`` as it was written before ``to_new`` read a
sparse column of the inverse per basis key: each element is converted by a
dense matrix-vector product over its whole degree, zeros included.  Kept as
the oracle for the differential test."""

import random
from fractions import Fraction

from dense_linalg import element_vector, invert_matrix

from treelie.freemod import Element, linear, tensor
from treelie.rigidity import PresentedAlgebra


def change_of_basis(alg, seed):
    rng = random.Random(seed)
    degrees = alg.degrees()
    mats, invs = {}, {}
    for d in degrees:
        m = len(alg.basis(d))
        mat = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
        for _ in range(3 * m):
            i, j = rng.randrange(m), rng.randrange(m)
            if i == j:
                continue
            lam = rng.choice([-2, -1, 1, 2])
            mat[j] = [a + lam * b for a, b in zip(mat[j], mat[i])]
        mats[d] = mat
        invs[d] = invert_matrix(mat)

    names = {d: ["f%d_%d" % (d, i) for i in range(len(alg.basis(d)))] for d in degrees}
    old_index = {d: {k: i for i, k in enumerate(alg.basis(d))} for d in degrees}

    def to_new(x):
        out = {}
        for d in x.degrees():
            vec = element_vector(x.homogeneous_part(d), old_index[d])
            for i in range(len(vec)):
                c = sum(invs[d][i][j] * vec[j] for j in range(len(vec)))
                if c:
                    out[names[d][i]] = c
        return Element._trusted(out)

    def psi(d, i):
        basis = alg.basis(d)
        return Element({basis[j]: mats[d][j][i] for j in range(len(basis))})

    generators = {d: list(names[d]) for d in degrees}
    product = {}
    coproduct = {}
    for d1 in degrees:
        for i in range(len(names[d1])):
            cop = alg.coproduct(psi(d1, i))
            terms = linear(lambda uv: tensor(to_new(Element.of(uv[0])), to_new(Element.of(uv[1]))), cop)
            if terms:
                coproduct[names[d1][i]] = terms
            for d2 in degrees:
                if d1 + d2 > alg.max_degree:
                    continue
                for j in range(len(names[d2])):
                    product[(names[d1][i], names[d2][j])] = to_new(alg.product(psi(d1, i), psi(d2, j)))
    return PresentedAlgebra(generators, product, coproduct)
