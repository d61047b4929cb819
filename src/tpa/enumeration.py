"""Transposed Poisson products on a fixed Lie algebra.

The symmetric half-biderivations of a Lie bracket form a linear space;
inside it, the products that really extend the bracket to a transposed
Poisson pair are cut out by the (quadratic) associativity condition.
This module exposes the linear family, its associativity residual at a
coordinate vector, and exact membership testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import AlgebraPair, StructureConstants
from .derivations import NotALieAlgebra, SolutionSpace, half_biderivations


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


def assoc_residual(family, coords):
    """Associativity residual tensor r[i][j][k] = (e_i e_j) e_k - e_i (e_j e_k)
    for the member sum coords[m] * basis[m]."""
    tensor = family.space.combine(coords)
    sc = StructureConstants(family.lie.dim, family.lie.field, tensor)
    n = sc.dim
    basis = linalg.identity(n, sc.field)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                left = sc.evaluate(sc.prod(i, j), basis[k])
                right = sc.evaluate(basis[i], sc.prod(j, k))
                row.append(tuple(x - y for x, y in zip(left, right)))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def residual_is_zero(residual):
    return not any(v for plane in residual for row in plane for vec in row for v in vec)


def member_pair(family, coords):
    tensor = family.space.combine(coords)
    return AlgebraPair(
        StructureConstants(family.lie.dim, family.lie.field, tensor), family.lie
    )


def check_membership(lie, product):
    """Coordinates of ``product`` in the family basis, or None when the
    product is not a symmetric half-biderivation of ``lie``."""
    if product.dim != lie.dim:
        raise linalg.DimensionMismatch("product and bracket dimensions differ")
    family = tp_family(lie)
    return family.space.coords_of(product.c)
