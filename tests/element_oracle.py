"""Helpers on ``freemod`` elements that only the tests use: the parser of
their printed form, and the left action of a permutation on tensor slots."""

from treelie.freemod import Element, TensorElement, accumulate, parse_rational


def parse_element(text, parse_key):
    """Inverse of ``str(Element)``: ``0`` or signed ``coeff * key`` terms."""
    return Element({k: c for (k,), c in parse_tensor_element(text, parse_key, 1).items()})


def parse_tensor_element(text, parse_key, rank=None):
    """Inverse of ``str(TensorElement)``; ``rank`` disambiguates a bare 0."""
    text = text.strip()
    if text == "0":
        if rank is None:
            raise ValueError("cannot infer the rank of a zero tensor")
        return TensorElement(rank)
    tokens = text.split(" ")
    terms = []
    pos = 0
    sign = 1
    seen_rank = rank
    while pos < len(tokens):
        if tokens[pos] in ("+", "-"):
            sign = 1 if tokens[pos] == "+" else -1
            pos += 1
        c = sign * parse_rational(tokens[pos])
        if pos + 2 >= len(tokens) or tokens[pos + 1] != "*":
            raise ValueError("expected 'coeff * key' at %r" % " ".join(tokens[pos:]))
        pos += 2
        keys = [parse_key(tokens[pos])]
        pos += 1
        while pos + 1 < len(tokens) and tokens[pos] == "(x)":
            keys.append(parse_key(tokens[pos + 1]))
            pos += 2
        keys = tuple(keys)
        if seen_rank is None:
            seen_rank = len(keys)
        elif len(keys) != seen_rank:
            raise ValueError("mixed tensor ranks %d and %d" % (seen_rank, len(keys)))
        terms.append((keys, c))
        sign = 1
    return TensorElement(seen_rank, accumulate({}, terms))


def permute_slots(t, sigma):
    """Left action of a permutation: slot i of the result is old slot sigma(i).

    ``sigma`` is a sequence with sigma[i-1] = sigma(i), so the result tuple is
    ``(v_{sigma^{-1}(1)}, ..., v_{sigma^{-1}(n)})`` in the usual convention.
    """
    n = t.rank
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma must be a permutation of 1..%d" % n)
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s - 1] = i
    return TensorElement(n, {tuple(keys[inv[i]] for i in range(n)): c for keys, c in t.items()})
