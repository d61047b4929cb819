"""Isomorphism-witness verification and invariant-based separation.

No general isomorphism decision is attempted: a witness matrix is checked
exactly, and non-isomorphic pairs are separated by a tuple of
basis-independent integer invariants (the fingerprint).  ``distinguish``
is one-sided - it can prove two pairs non-isomorphic, never isomorphic.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .algebra import operator_matrix, pairs_equal, transport
from .derivations import delta_derivations, pair_derivations
from .linalg import DimensionMismatch, SingularMatrix


class Fingerprint(NamedTuple):
    """The integer isomorphism invariants of a pair, in a fixed order."""

    dim_sq: int          # dim V.V
    dim_br: int          # dim [V,V]
    dim_span: int        # dim span(V.V + [V,V])
    dim_cube: int        # dim V.(V.V)
    dim_ann: int         # dim ann(.)
    dim_center: int      # dim center([,])
    dim_der_mul: int     # dim Der(.)
    dim_der_br: int      # dim Der([,])
    dim_der_pair: int    # dim Der(pair)
    dim_halfder_br: int  # dim of the 1/2-derivations of [,]
    has_unit: int


def verify_witness(a, b, m):
    """True iff m is invertible and rewriting a in the basis given by the
    columns of m reproduces b entrywise."""
    if a.dim != b.dim or len(m) != a.dim or any(len(r) != a.dim for r in m):
        raise DimensionMismatch("witness matrix must be square of the pair dimension")
    try:
        moved = transport(a, m)
    except SingularMatrix:
        return False
    return pairs_equal(moved, b)


def _product_vectors(sc):
    return [list(sc.prod(i, j)) for i in range(sc.dim) for j in range(sc.dim)]


def _right_mul_rows(sc):
    """Rows of x -> (x e_j)_k, indexed by (j, k), in the unknowns x_i."""
    return [row for j in range(sc.dim) for row in operator_matrix(sc, j)]


def _annihilator_dim(sc):
    # x with x * e_j = 0 for all j
    return len(linalg.nullspace(_right_mul_rows(sc), sc.dim, sc.field))


def _has_unit(sc):
    # x with x * e_j = e_j for all j
    rhs = [v for row in linalg.identity(sc.dim, sc.field) for v in row]
    return 1 if linalg.solve(_right_mul_rows(sc), rhs, sc.field) is not None else 0


def fingerprint(pair):
    """The ``Fingerprint`` of a pair."""
    pair = pair.primitive
    mul, br = pair.mul, pair.bracket
    field = pair.field
    sq, brs = _product_vectors(mul), _product_vectors(br)
    cube = [
        mul.evaluate(basis_i, v)
        for v in sq
        for basis_i in linalg.identity(mul.dim, field)
    ]
    return Fingerprint(
        linalg.span_dim(sq, field),
        linalg.span_dim(brs, field),
        linalg.span_dim(sq + brs, field),
        linalg.span_dim(cube, field),
        _annihilator_dim(mul),
        _annihilator_dim(br),
        delta_derivations(mul, 1).dim,
        delta_derivations(br, 1).dim,
        pair_derivations(pair).dim,
        delta_derivations(br, Fraction(1, 2)).dim,
        _has_unit(mul),
    )


def catalog_fingerprint(pair):
    """``fingerprint(pair)``, computed once per integer normal form, so pairs
    that differ only by a scale of either component share one record."""
    return _fingerprint_of_primitive(pair.primitive)


@functools.cache
def _fingerprint_of_primitive(primitive):
    return fingerprint(primitive)  # by name, so a wrapper on iso.fingerprint sees each miss


catalog_fingerprint.cache_info = _fingerprint_of_primitive.cache_info
catalog_fingerprint.cache_clear = _fingerprint_of_primitive.cache_clear


def distinguish(a, b):
    """"proved_noniso" when the fingerprints differ, else "unknown"."""
    return "proved_noniso" if fingerprint(a) != fingerprint(b) else "unknown"
