"""The key, tree and report classes as the dataclasses they used to be.

``rigidity.BasisKey``, ``tree_core.LabeledTree``, ``rigidity.DegreeReport``,
``rigidity.ReconstructionReport`` and ``checks.CheckResult`` are written by
hand so that importing treelie does not load ``dataclasses``.  These are the
old declarations, fields only, whose generated equality, ordering, hash,
``repr`` and immutability the hand-written classes must reproduce
(``tests/test_records.py``).
"""

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class BasisKey:
    degree: int
    name: str


@dataclass(frozen=True, order=True)
class LabeledTree:
    parent: tuple


@dataclass
class DegreeReport:
    degree: int
    algebra_dim: int
    tree_count: int
    image_rank: int
    coalgebra_ok: bool


@dataclass
class ReconstructionReport:
    max_degree: int
    validation_failures: list
    primitive_dims: dict
    degrees: list
    kernel_witness: str = None


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
