"""Exact rational linear combinations over tree-like bases.

``Element`` is a finite formal sum of basis keys with rational coefficients;
``TensorElement`` the same over fixed-length tuples of keys.  Keys only need
to be hashable, totally ordered, have a ``degree`` attribute and render via
``str`` (kernel trees, labeled trees and presented-algebra basis names all
qualify).  Coefficients are Python ints or ``fractions.Fraction``, never
floats, since every identity in this package is checked for exact equality.

Every sum in the package goes through ``accumulate``, the one place where
coefficients are added into a dict and zero sums are dropped; callers hand
it a whole block of ``(key, coeff)`` items with one scale, so a sum of many
terms costs one pass and no intermediate copies.  On top of it, ``linear``
and ``bilinear`` extend a map on basis keys to combinations, for every
product, coproduct and operator in the package.

The module also houses the exact linear algebra needed elsewhere, one
sparse elimination kernel (``rref`` over rows stored as ``{column: coeff}``
dicts, with remainders and nullspaces built on it) under the dense
list-of-lists ``echelon``/``nullspace``, and ``Filtration``,
the coalgebra filtration of a graded basis, built once and queried per
element: each degree's coproducts and tensor spans share one map from the
pairs of keys they meet to sparse column ids.  A full rank, the answer on
every algebra ``reconstruct`` accepts, is certified mod a prime
(``rank_mod_p``) before any of this runs.  ``fractions`` is imported only
where a Fraction is made, so work on integer data never loads it.
"""

import heapq
import math
import reprlib

from treelie import tree_core

MAX_RATIONAL_TEXT = 2000
MAX_RATIONAL_EXPONENT = 2000


def _coeff(c):
    # ``fractions`` is imported where a Fraction is made, so an all-integer
    # run never loads it (nor the ``decimal`` and ``numbers`` it imports)
    if type(c) is int:
        return c
    from fractions import Fraction

    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    raise TypeError("coefficient must be int or Fraction, got %r" % type(c).__name__)


def parse_rational(text):
    """Exact rational from its text ``p/q`` (or an integer or decimal string).

    Only strings are accepted: a JSON float such as ``0.1`` has already lost
    its exact value, so it is rejected rather than silently converted.
    Integral values come back as ``int``, whose arithmetic is much cheaper
    than ``Fraction``'s and renders, hashes and compares the same.  Plain
    integer text (an optional ``-`` and ASCII digits, the form every
    integral coefficient is written in) is read by ``int`` directly; any
    other text (``+3``, spaces, ``1_0``, ``3.0``, ``p/q``) goes through
    ``Fraction``, with the same value either way.

    The text is at most ``MAX_RATIONAL_TEXT`` characters and a decimal
    exponent at most ``MAX_RATIONAL_EXPONENT`` in absolute value, checked
    before ``Fraction`` expands the exponent: ``"1e999999999"`` would
    otherwise build a billion-digit integer.  Together they keep the
    numerator and denominator within 4,001 digits, under the 4,300 that
    ``str`` of an ``int`` renders.
    """
    if not isinstance(text, str):
        raise ValueError("rational must be a string such as '1/2', got %r" % (text,))
    if len(text) > MAX_RATIONAL_TEXT:
        raise ValueError("rational longer than %d characters: %s" % (MAX_RATIONAL_TEXT, reprlib.repr(text)))
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    exponent = text.replace("E", "e").partition("e")[2]
    try:
        bounded = not exponent or abs(int(exponent)) <= MAX_RATIONAL_EXPONENT
    except ValueError:
        bounded = True  # not an exponent, so Fraction refuses the text below
    if not bounded:
        message = "rational exponent outside -%d..%d: %s"
        raise ValueError(message % (MAX_RATIONAL_EXPONENT, MAX_RATIONAL_EXPONENT, reprlib.repr(text)))
    from fractions import Fraction

    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("malformed rational %s" % reprlib.repr(text)) from exc
    return q.numerator if q.denominator == 1 else q


def render_rational(c):
    return str(c)


def accumulate(acc, items, scale=1):
    """Add ``scale * c`` into ``acc[key]`` for every ``(key, c)`` in ``items``,
    dropping keys whose sum becomes zero; returns ``acc``."""
    if scale == 1:
        scale = 1  # an int, so integer coefficients stay int: Fraction(1) * 3 is a Fraction
    get = acc.get
    for k, c in items:
        v = get(k, 0) + scale * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


def linear(f, x):
    """Linear extension: the fresh zero-free dict of ``sum c * f(k)`` over the
    terms ``(k, c)`` of ``x``.  ``f(k)`` is anything with ``items()``: an
    Element, a TensorElement or a dict."""
    acc = {}
    for k, c in x.items():
        accumulate(acc, f(k).items(), c)
    return acc


def bilinear(f, x, y):
    """Bilinear extension: the fresh zero-free dict of ``sum a * b * f(k, l)``
    over the terms ``(k, a)`` of ``x`` and ``(l, b)`` of ``y``."""
    acc = {}
    for k, a in x.items():
        for l, b in y.items():
            accumulate(acc, f(k, l).items(), a * b)
    return acc


class Element:
    """Finite rational linear combination of basis keys (zero terms absent).

    The arithmetic is written once here: every result is rewrapped by
    ``_like``, so a TensorElement's sums and multiples stay TensorElements
    of its rank.
    """

    __slots__ = ("terms",)
    rank = None

    def __init__(self, terms=()):
        # _coeff returns its argument, so this rejects floats and drops zeros
        self.terms = {k: c for k, c in dict(terms).items() if _coeff(c)}

    @classmethod
    def _trusted(cls, terms):
        """Element owning ``terms`` as given: a fresh dict with no zero
        values, such as an ``accumulate`` result, taken without a copy."""
        x = cls.__new__(cls)
        x.terms = terms
        return x

    def _like(self, terms):
        """A trusted result of this element's kind owning ``terms``."""
        return Element._trusted(terms)

    @classmethod
    def of(cls, key, coeff=1):
        return cls({key: coeff})

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def support(self):
        return set(self.terms)

    def coeff(self, key):
        return self.terms.get(key, 0)

    def degrees(self):
        return sorted({k.degree for k in self.terms})

    def max_degree(self):
        return max((k.degree for k in self.terms), default=0)

    def is_homogeneous(self, degree=None):
        ds = self.degrees()
        if degree is None:
            return len(ds) <= 1
        return ds == [] or ds == [degree]

    def homogeneous_part(self, degree):
        return Element._trusted({k: c for k, c in self.terms.items() if k.degree == degree})

    def __add__(self, other):
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, coeff):
        c = _coeff(coeff)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def __eq__(self, other):
        return type(other) is type(self) and self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __str__(self):
        return _render_terms(self.sorted_items(), str)

    def __repr__(self):
        return "Element(%s)" % self


class TensorElement(Element):
    """Rational combination of rank-``rank`` tuples of basis keys.  The
    arithmetic is ``Element``'s; ``+`` also checks that the ranks agree."""

    __slots__ = ("rank",)

    def __init__(self, rank, terms=()):
        if rank < 1:
            raise ValueError("tensor rank must be >= 1, got %d" % rank)
        self.rank = rank
        data = dict(terms)
        for t in data:
            if len(t) != rank:
                raise ValueError("tuple %r does not have rank %d" % (t, rank))
        Element.__init__(self, data)

    @classmethod
    def _trusted(cls, rank, terms):
        """TensorElement owning ``terms`` as given: a fresh dict of
        rank-``rank`` tuples with no zero values, taken without a copy."""
        x = cls.__new__(cls)
        x.rank = rank
        x.terms = terms
        return x

    def _like(self, terms):
        return TensorElement._trusted(self.rank, terms)

    @classmethod
    def of(cls, keys, coeff=1):
        keys = tuple(keys)
        return cls(len(keys), {keys: coeff})

    def __add__(self, other):
        # defined here, not delegated to Element.__add__: perfbench's tracer
        # wraps each class's own __add__ and must count a tensor sum once
        if self.rank != other.rank:
            raise ValueError("rank mismatch: %d vs %d" % (self.rank, other.rank))
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __str__(self):
        return _render_terms(self.sorted_items(), _render_tuple)

    def __repr__(self):
        return "TensorElement(rank=%d, %s)" % (self.rank, self)


def _render_tuple(keys):
    return " (x) ".join(str(k) for k in keys)


def _render_terms(items, render_key):
    if not items:
        return "0"
    parts = []
    for key, c in items:
        mag = -c if c < 0 else c
        body = "%s * %s" % (render_rational(mag), render_key(key))
        if not parts:
            parts.append(("-" + body) if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def tensor(*factors):
    """Tensor product of Elements, one slot per factor."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    # distinct key tuples never collide, and products of nonzero rationals
    # are nonzero, so no accumulation is needed
    terms = {(): 1}
    for f in factors:
        terms = {keys + (k,): c * d for keys, c in terms.items() for k, d in f.items()}
    return TensorElement._trusted(len(factors), terms)


def expand_slot(t, slot, f, out_rank):
    """Splice a key -> TensorElement(rank r) map into one slot.

    The result has rank ``t.rank + r - 1``; ``out_rank`` makes the zero
    case unambiguous.
    """
    acc = {}
    for keys, c in t.items():
        head, tail = keys[:slot], keys[slot + 1 :]
        accumulate(acc, ((head + mid + tail, c2) for mid, c2 in f(keys[slot]).items()), c)
    return TensorElement._trusted(out_rank, acc)


def swap_slots(t, i, j):
    """Transpose tensor slots i and j (0-based)."""

    def sw(keys):
        out = list(keys)
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    return TensorElement._trusted(t.rank, {sw(keys): c for keys, c in t.items()})


def is_invariant_1k(t):
    """True iff the last rank-1 slots can be permuted freely without change.

    Checked on the adjacent transpositions of slots 2..rank, which generate
    the full symmetric group on those slots.
    """
    if t.rank < 2:
        raise ValueError("invariance check needs rank >= 2")
    for i in range(1, t.rank - 1):
        if swap_slots(t, i, i + 1) != t:
            return False
    return True


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
#
# One kernel works on sparse rows: dicts ``{column: coefficient}`` with no
# zero values and int or Fraction coefficients.  ``rref`` is the one
# elimination routine; ``reduce_row`` and ``sparse_nullspace`` are built on
# its result, and the dense list-of-lists functions below them convert to
# and from it.  ``rank_mod_p`` certifies full ranks without it.

# The prime of the rank certificate.  Reduction mod p is a ring homomorphism
# on the rationals whose denominators p does not divide, so a minor nonzero
# mod p is nonzero over Q: rank mod p <= rank over Q <= min(rows, columns),
# and a rank mod p equal to that bound is the exact rank.
RANK_PRIME = 2**31 - 1


def _axpy(row, f, other, skip):
    """``row -= f * other`` in place, leaving out column ``skip``."""
    get = row.get
    for c, v in other.items():
        if c != skip:
            w = get(c, 0) - f * v
            if w:
                row[c] = w
            else:
                del row[c]


def reduce_row(row, ech):
    """Remainder of the sparse ``row`` modulo the reduced echelon form
    ``ech`` (a ``{pivot: row}`` dict from ``rref``); a new dict.

    Each row of ``ech`` is zero at every other pivot, so subtracting it
    changes no other pivot coordinate and one pass over the pivots present
    in ``row`` suffices.
    """
    out = dict(row)
    for p in [c for c in row if c in ech]:
        _axpy(out, out.pop(p), ech[p], p)
    return out


def rref(rows):
    """Reduced row echelon form of sparse rows, as ``{pivot: row}`` in
    increasing pivot order.  Every row is 1 at its pivot, the leftmost
    column it holds, and 0 at every other pivot.  The input is not changed.
    """
    ech = {}
    seen = set()  # every column any row of ech has held
    for row in rows:
        row = reduce_row(row, ech)
        if not row:
            continue
        p = min(row)
        lead = row[p]
        if lead != 1:
            from fractions import Fraction

            inv = Fraction(1) / lead
            row = {c: v * inv for c, v in row.items()}
        row[p] = 1
        if p in seen:
            for other in ech.values():
                f = other.get(p)
                if f:
                    _axpy(other, f, row, p)
                    del other[p]
        seen.update(row)
        ech[p] = row
    return dict(sorted(ech.items()))


def sparse_nullspace(rows, ncols):
    """Basis of ``{x : row . x = 0 for every row}`` over ``ncols`` columns,
    one sparse vector per free column in increasing order: 1 at the free
    column and minus the reduced rows' entries there at their pivots."""
    ech = rref(rows)
    by_free = {}
    for p, row in ech.items():
        for c, v in row.items():
            if c != p:
                by_free.setdefault(c, {})[p] = -v
    out = []
    for c in range(ncols):
        if c not in ech:
            vec = by_free.get(c, {})
            vec[c] = 1
            out.append(vec)
    return out


def rank_mod_p(rows):
    """Rank over the integers mod ``RANK_PRIME`` of sparse rows, or None
    when an entry's denominator is divisible by the prime.

    A lower bound on the exact rank (see ``RANK_PRIME``), computed without
    rational arithmetic.  The rows are reduced in turn against an echelon
    form whose rows are 1 at their pivot, the leftmost column they hold (the
    1 is left out of the stored row): a pivot row only reaches columns right
    of its pivot, so the pivots a row meets are eliminated in increasing
    order off a heap.
    """
    p = RANK_PRIME
    ech = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            if type(v) is not int:
                den = v.denominator % p
                if not den:
                    return None
                v = v.numerator * pow(den, -1, p)
            v %= p
            if v:
                r[c] = v
        get = r.get
        todo = [c for c in r if c in ech]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            f = r.pop(c, 0)
            if not f:
                continue  # pushed twice, or cancelled since
            for k, w in ech[c].items():
                old = get(k)
                v = ((old or 0) - f * w) % p
                if v:
                    if old is None and k in ech:
                        heapq.heappush(todo, k)
                    r[k] = v
                elif old is not None:
                    del r[k]
        if r:
            c = min(r)
            inv = pow(r.pop(c), -1, p)
            ech[c] = {k: v * inv % p for k, v in r.items()}
    return len(ech)


def _sparse(rows):
    from fractions import Fraction

    return [{c: Fraction(v) for c, v in enumerate(r) if v} for r in rows]


def _dense(row, ncols):
    from fractions import Fraction

    return [Fraction(row.get(c, 0)) for c in range(ncols)]


def echelon(rows):
    """Reduced row echelon form of a dense matrix (the input is not
    changed); returns (rows, pivot column indices)."""
    ncols = len(rows[0]) if rows else 0
    ech = rref(_sparse(rows))
    return [_dense(r, ncols) for r in ech.values()], list(ech)


def nullspace(rows):
    """Basis of {x : rows . x = 0}, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    return [_dense(v, ncols) for v in sparse_nullspace(_sparse(rows), ncols)]


def rank_of_family(elements, degree):
    """Exact rank of a family of degree-homogeneous Elements.

    A rank mod ``RANK_PRIME`` equal to ``min(members, keys met)`` is the
    exact rank, found without rational arithmetic; any other family is
    eliminated by ``rref``.  Raises ValueError when any member is inhomogeneous or sits in the wrong
    degree; the empty family has rank 0.
    """
    index = {}
    rows = []
    for x in elements:
        if not x.is_homogeneous(degree):
            raise ValueError("inhomogeneous input: degrees %s, expected %d" % (x.degrees(), degree))
        rows.append({index.setdefault(k, len(index)): c for k, c in x.items()})
    rank = rank_mod_p(rows)
    if rank is not None and rank == min(len(rows), len(index)):
        return rank
    return len(rref(rows))


# ---------------------------------------------------------------------------
# coalgebra filtration


class Filtration:
    """The coalgebra filtration of a graded basis up to ``max_degree``, built once.

    ``C_1 = ker(coproduct)`` and ``C_n`` is the preimage of
    ``sum_i C_i (x) C_{n-i}``.  ``coproduct`` maps a basis key to a rank-2
    TensorElement and ``basis`` maps a degree to the full list of basis keys
    in that degree.  The coproduct images of a degree are laid out once, on
    first use, as sparse rows over one column map: every pair ``(u, v)`` the
    coproducts meet gets the next column id, in the order met.  The tensor
    spans are built in the same columns, over every pair of basis degrees the
    coproducts meet, and add the pairs only they reach.  A pair no span row
    reaches (off the basis, or above ``max_degree``) is never reduced, so an
    ungraded coproduct correctly excludes an element from every ``C_n``.

    The reduced echelon forms of the spaces ``C_n`` within ``H_d`` are
    computed on first use and kept, so one Filtration answers ``degree_of``
    for any number of elements.  Once the coproduct is graded, the image of
    a degree-``d`` key lies in degrees below ``d``, so ``C_n`` within ``H_d``
    is the same for every ``max_degree >= d``.
    """

    def __init__(self, coproduct, basis, max_degree):
        self.max_degree = max_degree
        self._coproduct = coproduct
        self._bases = {d: list(basis(d)) for d in range(1, max_degree + 1)}
        self._index = {d: {k: i for i, k in enumerate(keys)} for d, keys in self._bases.items()}
        self._layouts = {}  # d -> (column map {(u, v): id}, one sparse coproduct row per basis key)
        self._spaces = {}  # (n, d) -> rref of C_n within H_d

    def _lay_out(self, d):
        if d not in self._layouts:
            columns = {}
            deltas = map(self._coproduct, self._bases[d])
            rows = [{columns.setdefault(pair, len(columns)): c for pair, c in t.items()} for t in deltas]
            self._layouts[d] = (columns, rows)
        return self._layouts[d]

    def _space(self, n, d):
        """Reduced echelon form of ``C_n`` within ``H_d``, as from ``rref``."""
        got = self._spaces.get((n, d))
        if got is None:
            got = self._spaces[(n, d)] = self._build(n, d)
        return got

    def _build(self, n, d):
        dim = len(self._bases[d])
        if n > 1:
            below = self._space(n - 1, d)
            if len(below) == dim:
                return below  # C_{n-1} lies in C_n, so C_n holds all of H_d
        columns, rows = self._lay_out(d)
        if n > 1:
            span = self._tensor_span(n, columns)
            rows = [reduce_row(row, span) for row in rows]
        # C_n within H_d is the left kernel of these rows: all of H_d when
        # they are zero, and 0 when they are independent (the certificate)
        if not any(rows):
            return {i: {i: 1} for i in range(dim)}
        if rank_mod_p(rows) == dim:
            return {}
        # the reduced coproduct rows transposed: one row per column, indexed
        # by the basis keys of H_d
        transposed = {}
        for i, row in enumerate(rows):
            for c, v in row.items():
                transposed.setdefault(c, {})[i] = v
        return rref(sparse_nullspace(transposed.values(), dim))

    def _tensor_span(self, n, columns):
        """Reduced echelon form of ``sum_i C_i (x) C_{n-i}`` in the ids of
        ``columns``, over every pair of basis degrees its pairs meet."""
        bases = self._bases
        blocks = sorted({(u.degree, v.degree) for u, v in columns if u.degree in bases and v.degree in bases})
        rows = []
        for d1, d2 in blocks:
            left, right = bases[d1], bases[d2]
            for i in range(1, n):
                for lv in self._space(i, d1).values():
                    for rv in self._space(n - i, d2).values():
                        terms = ((left[a], right[b], x * y) for a, x in lv.items() for b, y in rv.items())
                        rows.append({columns.setdefault((u, v), len(columns)): c for u, v, c in terms})
        return rref(rows)

    def space(self, n, d):
        """Reduced echelon basis of ``C_n`` within ``H_d`` as Elements."""
        keys = self._bases[d]
        return [Element._trusted({keys[j]: c for j, c in row.items()}) for row in self._space(n, d).values()]

    def degree_of(self, x):
        """Least ``n <= max_degree`` with ``x`` in ``C_n``; ``math.inf`` if none."""
        if x.is_zero():
            raise ValueError("the zero element has no filtration degree")
        if x.max_degree() > self.max_degree:
            raise ValueError(
                "element of degree %d above the filtration's degree %d" % (x.max_degree(), self.max_degree)
            )
        parts = [(d, x.homogeneous_part(d)) for d in x.degrees()]
        for n in range(1, self.max_degree + 1):
            if all(self._contains(n, d, part) for d, part in parts):
                return n
        return math.inf

    def _contains(self, n, d, part):
        ech = self._space(n, d)
        if len(ech) == len(self._bases[d]):
            return True  # C_n holds all of H_d
        index = self._index[d]
        return not reduce_row({index[k]: c for k, c in part.items()}, ech)


def filtration_degree(x, coproduct, basis=None):
    """Least n with x in C_n, for C_1 = ker(coproduct) and
    C_n = preimage of sum_{i} C_i (x) C_{n-i}; ``math.inf`` if no n works.

    ``coproduct`` maps a basis key to a rank-2 TensorElement.  ``basis`` maps
    a degree to the full list of basis keys in that degree; by default the
    keys are assumed to be kernel trees and the basis is every tree over the
    labels occurring in ``x``.  One-off form of ``Filtration``: to ask about
    many elements, build one Filtration and call ``degree_of``.
    """
    if basis is None:
        letters = sorted({v.label for k in x.support() for v in tree_core.vertices(k)})

        def basis(d):
            return tree_core.enumerate_trees(letters, d)

    return Filtration(coproduct, basis, x.max_degree()).degree_of(x)
