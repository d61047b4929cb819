"""Transposed Poisson products on a fixed Lie algebra.

The symmetric half-biderivations of a Lie bracket form a linear space;
inside it, the products that really extend the bracket to a transposed
Poisson pair are cut out by the (quadratic) associativity condition.
This module exposes the linear family, the pair of its member at a
coordinate vector (checked for associativity by ``algebra.check_identity``,
the one statement of that identity), and exact membership testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import AlgebraPair, StructureConstants, check_identity
from .derivations import SolutionSpace, half_biderivations


@dataclass(frozen=True)
class ProductFamily:
    lie: StructureConstants
    space: SolutionSpace

    @property
    def dim(self):
        return self.space.dim


def tp_family(lie):
    """The affine family of candidate transposed Poisson products on ``lie``:
    all symmetric half-biderivations."""
    return ProductFamily(lie, half_biderivations(lie, symmetric=True))


def member_pair(family, coords):
    """The pair (sum coords[m] * basis[m], bracket) of a family member."""
    tensor = family.space.combine(coords)
    return AlgebraPair(
        StructureConstants(family.lie.dim, family.lie.field, tensor), family.lie
    )


def assoc_residual(family, coords):
    """Associativity violations of the member at ``coords``.  Kept by name
    for ``perfbench/spans.py``, which traces it."""
    return check_identity(member_pair(family, coords), "associative").violations


def check_membership(lie, product):
    """Coordinates of ``product`` in the family basis, or None when the
    product is not a symmetric half-biderivation of ``lie``."""
    if product.dim != lie.dim:
        raise linalg.DimensionMismatch("product and bracket dimensions differ")
    family = tp_family(lie)
    return family.space.coords_of(product.c)
