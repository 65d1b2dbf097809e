import itertools
import math
from fractions import Fraction

import pytest
from element_oracle import parse_element, parse_tensor_element, permute_slots
from hypothesis import given, settings
from hypothesis import strategies as st

from treelie.freemod import (
    MAX_RATIONAL_EXPONENT,
    MAX_RATIONAL_TEXT,
    Element,
    TensorElement,
    accumulate,
    bilinear,
    echelon,
    filtration_degree,
    is_invariant_1k,
    linear,
    nullspace,
    parse_rational,
    rank_of_family,
    swap_slots,
    tensor,
)
from treelie.nap_coalgebra import coproduct_basis
from treelie.tree_core import enumerate_trees, parse_tree


def E(text):
    return Element.of(parse_tree(text))


POOL = [parse_tree(s) for s in ["a", "b", "a[a]", "a[b]", "b[a]", "a[a,b]", "a[b[a]]"]]

elements = st.builds(
    Element,
    st.dictionaries(
        st.sampled_from(POOL),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        max_size=4,
    ),
)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def test_add_examples():
    x = E("a")
    assert x + Element() == x
    assert x + x == 2 * x
    assert Fraction(1, 2) * E("a[b]") + Fraction(1, 2) * E("a[b]") == E("a[b]")


def test_scale_examples():
    x = E("a")
    assert 1 * x == x
    assert 0 * x == Element()
    assert Fraction(-1, 6) * (3 * x) == Fraction(-1, 2) * x


def test_zero_terms_dropped():
    x = E("a") - E("a")
    assert x.is_zero() and x.terms == {}


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        0.5 * E("a")


def test_public_constructors_reject_floats():
    a = parse_tree("a")
    for c in (0.5, 0.0, 1.0):
        with pytest.raises(TypeError):
            Element({a: c})
        with pytest.raises(TypeError):
            TensorElement(2, {(a, a): c})
        with pytest.raises(TypeError):
            Element.of(a, c)
        with pytest.raises(TypeError):
            TensorElement.of((a, a), c)


def test_public_constructors_reject_bools():
    """``bool`` is an ``int`` subclass, but ``True`` is no coefficient: a
    term of ``Element({a: True})`` would render as ``True * a``."""
    a = parse_tree("a")
    for c in (True, False):
        with pytest.raises(TypeError, match="got 'bool'"):
            Element({a: c})
        with pytest.raises(TypeError):
            TensorElement(2, {(a, a): c})
        with pytest.raises(TypeError):
            c * E("a")


def test_parse_rational_keeps_integers_as_int():
    # "\u0663" (ARABIC-INDIC DIGIT THREE) is a decimal digit Fraction reads;
    # "\u00b2" (SUPERSCRIPT TWO) passes str.isdigit but is no decimal digit
    integral = [("1", 1), ("-3", -3), ("4/2", 2), ("0", 0), ("2.0", 2), ("-007", -7), ("-0", 0)]
    integral += [("+3", 3), (" 3", 3), ("3 ", 3), ("1_0", 10), ("\u0663", 3), ("1e2", 100)]
    for text, value in integral:
        assert parse_rational(text) == value and type(parse_rational(text)) is int
    for text, value in (("1/2", Fraction(1, 2)), ("-6/4", Fraction(-3, 2)), ("1.5", Fraction(3, 2))):
        assert parse_rational(text) == value and type(parse_rational(text)) is Fraction
    for bad in (1, 1.0, 0.5, "x", "1/0", "\u00b2", "-", "", "--1"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def _through_fraction(text):
    """``parse_rational`` as it read every text before its integer fast path:
    the length bound, then ``Fraction``, integral values as ``int``."""
    if len(text) > MAX_RATIONAL_TEXT:
        raise ValueError("too long")
    q = Fraction(text)
    return q.numerator if q.denominator == 1 else q


_INTEGER_NEAR_MISSES = ["+3", " 3", "3 ", "1_0", "\u0663", "\u00b2", "-", "", "--1", "3.0", "1e2", "1/2"]
_INTEGER_NEAR_MISSES.append("1" * (MAX_RATIONAL_TEXT + 1))
integer_texts = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.text("0", max_size=3),
    st.text("0123456789", min_size=1, max_size=40),
)


@settings(max_examples=200)
@given(integer_texts | st.sampled_from(_INTEGER_NEAR_MISSES))
def test_parse_rational_integer_fast_path_matches_fraction(text):
    try:
        want = _through_fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert got == want and type(got) is type(want)


_digits = st.lists(st.text("0123456789", min_size=1, max_size=12), min_size=1, max_size=3).map("_".join)
_exponents = st.integers(-MAX_RATIONAL_EXPONENT, MAX_RATIONAL_EXPONENT).map(str) | st.sampled_from(["+7", "0_0_2"])
coefficient_texts = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "-", "+"]),
    st.one_of(
        _digits,
        st.builds("{}/{}".format, _digits, _digits),
        st.builds(
            "{}.{}{}".format,
            _digits | st.just(""),
            _digits | st.just(""),
            st.just("") | st.builds("{}{}".format, st.sampled_from("eE"), _exponents),
        ),
    ),
    st.sampled_from(["", " \n"]),
)


@settings(max_examples=150)
@given(coefficient_texts)
def test_parse_rational_within_the_bounds_is_fractions_value(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert got == want and type(got) is (int if want.denominator == 1 else Fraction)


def test_parse_rational_at_the_bounds_renders():
    # the largest numerator and denominator the bounds admit stay within the
    # 4,300 digits that str of an int renders
    for text in ("9" * (MAX_RATIONAL_TEXT - 5) + "e2000", "-." + "9" * (MAX_RATIONAL_TEXT - 8) + "e-2000"):
        assert len(text) <= MAX_RATIONAL_TEXT and Fraction(str(parse_rational(text))) == Fraction(text)


@settings(max_examples=60)
@given(
    st.one_of(
        st.integers(MAX_RATIONAL_EXPONENT + 1, 10**30).map("1e{}".format),
        st.integers(MAX_RATIONAL_EXPONENT + 1, 10**30).map("-.5E-{}".format),
        st.integers(MAX_RATIONAL_TEXT + 1, 3 * MAX_RATIONAL_TEXT).map(lambda n: "1" * n),
        st.integers(MAX_RATIONAL_TEXT // 2, 2 * MAX_RATIONAL_TEXT).map(lambda n: "1" * n + "/" + "3" * n),
    )
)
def test_parse_rational_past_the_bounds_is_refused(text):
    with pytest.raises(ValueError) as refused:
        parse_rational(text)
    assert len(str(refused.value)) < 100


@settings(max_examples=60)
@given(elements, elements, elements, rationals, rationals)
def test_vector_space_axioms(x, y, z, c, d):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert c * (x + y) == c * x + c * y
    assert (c + d) * x == c * x + d * x
    assert c * (d * x) == (c * d) * x


def _old_add(terms, other_terms):
    """The dict-copying sum that ``Element.__add__`` used before the shared
    accumulator; kept as the oracle for it."""
    out = dict(terms)
    for k, c in other_terms.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


tensors = st.builds(
    lambda terms: TensorElement(2, terms),
    st.dictionaries(
        st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        max_size=4,
    ),
)


@settings(max_examples=60)
@given(st.integers(1, 3), st.data(), rationals)
def test_tensor_arithmetic_keeps_kind_and_rank(rank, data, c):
    tuples = st.tuples(*[st.sampled_from(POOL)] * rank)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    t, u = (TensorElement(rank, data.draw(st.dictionaries(tuples, coeffs, max_size=4))) for _ in "tu")
    for z in (t + u, t - u, -t, c * t, 0 * t):
        assert type(z) is TensorElement and z.rank == rank
    assert 0 * t == TensorElement(rank) and t - t == TensorElement(rank)
    # an Element never equals a TensorElement, not even a zero or rank-1 one
    assert Element() != TensorElement(rank) and TensorElement(rank) != Element()
    if rank == 1:
        assert Element({k: v for (k,), v in t.items()}) != t
    assert TensorElement(rank) != TensorElement(rank + 1)


@settings(max_examples=60)
@given(elements, elements, st.lists(tensors, min_size=2, max_size=2))
def test_equal_objects_hash_equal(x, y, ts):
    t, u = ts
    # sums in either order hold their terms in different dict orders
    pairs = [(x, y), (x + y, y + x), (x - x, Element()), (t, u), (t + u, u + t), (t - t, TensorElement(2))]
    for a, b in pairs:
        if a == b:
            assert hash(a) == hash(b)
    assert Element(x.terms) == x and hash(Element(x.terms)) == hash(x)
    assert TensorElement(2, t.terms) == t and hash(TensorElement(2, t.terms)) == hash(t)


def _explicit_sum(pairs, zero):
    total = zero
    for c, value in pairs:
        total = total + c * value
    return total


@settings(max_examples=60)
@given(elements, elements)
def test_linear_and_bilinear_equal_explicit_sums(x, y):
    def double_and_graft(k):
        return Element({k: 2, parse_tree("a[%s]" % k): -1})

    def pair(k, l):
        return TensorElement.of((k, l)) + TensorElement.of((l, k), -1)

    got = linear(double_and_graft, x)
    want = _explicit_sum([(c, double_and_graft(k)) for k, c in x.items()], Element())
    assert Element(got) == want and 0 not in got.values()
    got = bilinear(pair, x, y)
    want = _explicit_sum([(a * b, pair(k, l)) for k, a in x.items() for l, b in y.items()], TensorElement(2))
    assert TensorElement(2, got) == want and 0 not in got.values()
    # sums that cancel to zero: x - x, the antisymmetric pair on x (x) x, and
    # a map sending every key to one key, on coefficients that sum to zero
    assert linear(double_and_graft, x - x) == {}
    assert bilinear(pair, x, x) == {}
    total = sum(x.terms.values())
    assert linear(lambda k: {POOL[0]: 1}, x) == ({POOL[0]: total} if total else {})
    assert linear(lambda k: {POOL[0]: 1}, E("a[b]") - E("b")) == {}
    assert linear(lambda k: {k: 1}, x) == x.terms and linear(lambda k: {k: 1}, x) is not x.terms


def _check_block_sums(summands, cancel, zero):
    # the negated first ``cancel`` summands make part or all of the sum vanish
    summands = summands + [(x, -c) for x, c in summands[:cancel]]
    old = {}
    for x, c in summands:
        old = _old_add(old, (c * x).terms)
    acc = {}
    for x, c in summands:
        accumulate(acc, x.items(), c)
    assert acc == old
    assert 0 not in acc.values()
    total = zero
    for x, c in summands:
        total = total + c * x
    assert total.terms == old


@settings(max_examples=60)
@given(st.lists(st.tuples(elements, rationals), max_size=6), st.integers(0, 6))
def test_accumulate_matches_repeated_element_addition(summands, cancel):
    _check_block_sums(summands, cancel, Element())


@settings(max_examples=60)
@given(st.lists(st.tuples(tensors, rationals), max_size=6), st.integers(0, 6))
def test_accumulate_matches_repeated_tensor_addition(summands, cancel):
    _check_block_sums(summands, cancel, TensorElement(2))


def _generator_accumulate(acc, items, scale=1):
    """``accumulate`` as written before its one multiplying loop: a scaling generator
    over the items whenever ``scale != 1``."""
    if scale != 1:
        items = ((k, scale * c) for k, c in items)
    get = acc.get
    for k, c in items:
        v = get(k, 0) + c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


int_elements = st.builds(
    Element, st.dictionaries(st.sampled_from(POOL), st.integers(-4, 4), max_size=4)
)
scales = st.one_of(st.just(1), st.just(-1), st.just(Fraction(1)), st.integers(-6, 6), rationals)


@settings(max_examples=150)
@given(st.lists(st.tuples(st.one_of(elements, int_elements), scales), max_size=6), st.integers(0, 6))
def test_accumulate_matches_generator_formula(summands, cancel):
    # the negated first ``cancel`` summands make part or all of the sum vanish
    everything_cancels = cancel >= len(summands)
    summands = summands + [(x, -c) for x, c in summands[:cancel]]
    acc, old = {}, {}
    for x, c in summands:
        assert accumulate(acc, x.items(), c) is acc
        _generator_accumulate(old, x.items(), c)
        # same keys in the same order, same values of the same types
        assert [(k, v, type(v)) for k, v in acc.items()] == [(k, v, type(v)) for k, v in old.items()]
    if everything_cancels:
        assert acc == {}


def _trusted_equals_public(summands, cancel, make_public, make_trusted):
    summands = summands + [(x, -c) for x, c in summands[:cancel]]
    acc = {}
    for x, c in summands:
        accumulate(acc, x.items(), c)
    public, trusted = make_public(dict(acc)), make_trusted(acc)
    assert trusted == public and trusted.terms == public.terms
    assert hash(trusted) == hash(public) and str(trusted) == str(public)
    assert trusted.terms is acc  # taken without a copy


@settings(max_examples=60)
@given(st.lists(st.tuples(elements, rationals), max_size=6), st.integers(0, 6))
def test_trusted_element_equals_public_constructor(summands, cancel):
    _trusted_equals_public(summands, cancel, Element, Element._trusted)


@settings(max_examples=60)
@given(st.lists(st.tuples(tensors, rationals), max_size=6), st.integers(0, 6))
def test_trusted_tensor_equals_public_constructor(summands, cancel):
    _trusted_equals_public(
        summands,
        cancel,
        lambda terms: TensorElement(2, terms),
        lambda terms: TensorElement._trusted(2, terms),
    )


@settings(max_examples=60)
@given(elements, elements, rationals)
def test_sums_and_scalings_match_public_constructor(x, y, c):
    # every arithmetic result equals the zero-filtered public construction
    for z in (x + y, x - y, c * x, -x, x.homogeneous_part(2)):
        assert z == Element(z.terms) and 0 not in z.terms.values()
    t = tensor(x, y)
    for z in (t, t + tensor(y, x), c * t, swap_slots(t, 0, 1), permute_slots(t, (2, 1))):
        assert z == TensorElement(2, z.terms) and 0 not in z.terms.values()


def test_public_constructors_still_filter_and_check():
    a = parse_tree("a")
    assert Element({a: 0}).terms == {}
    assert TensorElement(2, {(a, a): 0}).terms == {}
    with pytest.raises(ValueError):
        TensorElement(2, {(a,): 1})


def test_tensor_examples():
    a, b, c = E("a"), E("b"), E("a[b]")
    assert tensor(a, b) == TensorElement.of((parse_tree("a"), parse_tree("b")))
    assert tensor(a + b, c) == tensor(a, c) + tensor(b, c)
    assert tensor(2 * a, 3 * b) == 6 * tensor(a, b)


def test_tensor_rank_mismatch():
    with pytest.raises(ValueError):
        tensor(E("a"), E("b")) + tensor(E("a"), E("b"), E("a"))


def test_invariance_examples():
    a, b, c = E("a"), E("b"), E("a[b]")
    assert not is_invariant_1k(tensor(a, b, c))
    assert is_invariant_1k(tensor(a, b, c) + tensor(a, c, b))
    with pytest.raises(ValueError):
        is_invariant_1k(tensor(a))


def test_invariance_agrees_with_all_permutations():
    # transposition generators vs the full k! orbit check, k <= 4
    keys = [parse_tree(s) for s in ["a", "b", "a[a]", "a[b]"]]
    samples = [
        TensorElement.of(tuple(keys[:3])),
        TensorElement.of((keys[0], keys[1], keys[1])),
        sum(
            (TensorElement.of((keys[0],) + p) for p in itertools.permutations(keys[1:])),
            TensorElement(4),
        ),
        TensorElement.of(tuple(keys)) + TensorElement.of((keys[0], keys[2], keys[1], keys[3])),
    ]
    for t in samples:
        brute = all(
            permute_slots(t, (1,) + tuple(x + 1 for x in p)) == t
            for p in itertools.permutations(range(1, t.rank))
        )
        assert is_invariant_1k(t) == brute


def test_swap_and_permute_consistency():
    t = tensor(E("a"), E("b"), E("a[b]"))
    assert swap_slots(t, 1, 2) == permute_slots(t, (1, 3, 2))
    assert permute_slots(permute_slots(t, (2, 3, 1)), (3, 1, 2)) == t


def test_rank_examples():
    a = E("a")
    assert rank_of_family([a, 2 * a], 1) == 1
    assert rank_of_family([], 1) == 0
    with pytest.raises(ValueError):
        rank_of_family([E("a") + E("a[a]")], 1)


def test_rank_independent_family():
    xs = [E("a[a,a]"), E("a[a[a]]"), E("a[a,a]") + E("a[a[a]]")]
    assert rank_of_family(xs, 3) == 2


# -- exact linear algebra -----------------------------------------------------


def test_echelon_rank_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert len(echelon(rows)[0]) == 2
    for vec in nullspace(rows):
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
    assert len(nullspace(rows)) == 1


# -- serialization ------------------------------------------------------------


def test_render_format():
    x = E("a[b,c]") + E("a[b[c]]")
    assert str(x) == "1 * a[b,c] + 1 * a[b[c]]"
    assert str(Element()) == "0"
    assert str(E("a") - E("b")) == "1 * a - 1 * b"
    assert str(Fraction(-1, 2) * E("a")) == "-1/2 * a"


def test_parse_element_round_trip():
    samples = [
        Element(),
        E("a"),
        2 * E("a[b]") - Fraction(3, 7) * E("b") + E("a"),
        Fraction(-5, 2) * E("a[a,a]"),
    ]
    for x in samples:
        assert parse_element(str(x), parse_tree) == x


def test_parse_tensor_round_trip():
    t = tensor(E("a"), E("b")) - Fraction(1, 3) * tensor(E("b"), E("a[a]"))
    assert parse_tensor_element(str(t), parse_tree) == t
    assert parse_tensor_element("0", parse_tree, rank=2) == TensorElement(2)


def test_tensor_render_order_is_graded():
    t = tensor(E("a"), E("b[a]")) + tensor(E("a[a]"), E("b"))
    assert str(t) == "1 * a (x) b[a] + 1 * a[a] (x) b"


# -- filtration ---------------------------------------------------------------


def _cop(t):
    return coproduct_basis(t)


def test_filtration_examples():
    assert filtration_degree(E("a"), _cop) == 1
    assert filtration_degree(E("a[b]"), _cop) == 2
    assert filtration_degree(E("a[b,c]"), _cop) == 3


def test_filtration_equals_max_degree_on_trees():
    for n in range(1, 6):
        for t in enumerate_trees(["a"], n):
            assert filtration_degree(Element.of(t), _cop) == n
    mixed = E("a") + E("a[a]") + E("a[a,a]")
    assert filtration_degree(mixed, _cop) == 3


def test_filtration_zero_error():
    with pytest.raises(ValueError):
        filtration_degree(Element(), _cop)


def test_filtration_infinite_for_nonconnected():
    # a fake coproduct with Delta(x) = x (x) x never reaches the filtration
    x = parse_tree("a")

    def bad(t):
        return TensorElement.of((t, t))

    assert filtration_degree(Element.of(x), bad, basis=lambda d: [x] if d == 1 else []) == math.inf
