"""Tree equality and hash as they were before trees were hash-consed by
structure: two trees were equal iff their rendering keys were equal, and a
tree hashed as its key.  ``kernel.Tree`` now compares and hashes by identity;
``tests/test_kernel.py`` checks that both notions agree on every tree."""

from treelie.kernel import Tree


def key_eq(t, other):
    if t is other:
        return True
    return isinstance(other, Tree) and t.key == other.key


def key_hash(t):
    return hash(t.key)
