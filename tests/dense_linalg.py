"""The dense ``Fraction`` row reduction that ``freemod`` used before its
sparse kernel, kept as the oracle for the differential tests, and the dense
coefficient rows it reduces."""

from fractions import Fraction


def echelon(rows):
    """Row echelon form (copies input); returns (rows, pivot column indices)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def matrix_rank(rows):
    return len(echelon(rows)[0])


def nullspace(rows):
    """Basis of {x : rows . x = 0}, one vector per free column."""
    if not rows:
        return []
    cols = len(rows[0])
    ech, pivots = echelon(rows)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis


def reduce_mod_rows(vec, ech, pivots):
    """Remainder of ``vec`` after elimination against echelon rows."""
    out = list(map(Fraction, vec))
    for r, c in enumerate(pivots):
        if out[c] != 0:
            f = out[c]
            out = [a - f * b for a, b in zip(out, ech[r])]
    return out


def in_row_span(vec, ech, pivots):
    return all(v == 0 for v in reduce_mod_rows(vec, ech, pivots))


def invert_matrix(rows):
    """Exact inverse of a square rational matrix; ValueError if singular."""
    n = len(rows)
    aug = [list(map(Fraction, rows[i])) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ech, pivots = echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in ech]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def element_vector(x, basis_index):
    """Coefficient row of an Element over an indexed basis list."""
    vec = [Fraction(0)] * len(basis_index)
    for k, c in x.items():
        vec[basis_index[k]] += c
    return vec
