"""Isomorphism-witness verification and invariant-based separation.

No general isomorphism decision is attempted: a witness matrix is checked
exactly, and non-isomorphic pairs are separated by a tuple of
basis-independent integer invariants (the fingerprint).  ``distinguish``
is one-sided - it can prove two pairs non-isomorphic, never isomorphic.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .algebra import operator_matrix, pairs_equal, transport
from .derivations import delta_derivations, pair_derivations
from .linalg import DimensionMismatch, SingularMatrix


class Fingerprint(namedtuple("Fingerprint", (
        "dim_sq",          # dim V.V
        "dim_br",          # dim [V,V]
        "dim_span",        # dim span(V.V + [V,V])
        "dim_cube",        # dim V.(V.V)
        "dim_ann",         # dim ann(.)
        "dim_center",      # dim center([,])
        "dim_der_mul",     # dim Der(.)
        "dim_der_br",      # dim Der([,])
        "dim_der_pair",    # dim Der(pair)
        "dim_halfder_br",  # dim of the 1/2-derivations of [,]
        "has_unit"))):
    """The integer isomorphism invariants of a pair, in a fixed order."""

    __slots__ = ()


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


def _right_multiplication(sc):
    """(dim {x : x e_j = 0 for all j}, 1 if x e_j = e_j for all j has a
    solution x else 0), from one elimination of x -> (x e_j)_j beside vec(I)."""
    n, field = sc.dim, sc.field
    pivots = linalg.echelon([row + [field.one if j == k else field.zero] for j in range(n)
                             for k, row in enumerate(operator_matrix(sc, j))], field)[1]
    return n - len([c for c in pivots if c < n]), int(n not in pivots)


def fingerprint(pair):
    """The ``Fingerprint`` of a pair.  The spans are read off the echelon
    rows of the product vectors, a basis of V.V and of [V,V]."""
    pair = pair.primitive
    mul, br = pair.mul, pair.bracket
    field = pair.field
    sq, brs = (linalg.echelon([row for plane in sc.c for row in plane], field)[0]
               for sc in (mul, br))
    cube = [mul.evaluate(e, v) for e in linalg.identity(mul.dim, field) for v in sq]
    dim_ann, has_unit = _right_multiplication(mul)
    return Fingerprint(
        len(sq),
        len(brs),
        linalg.rank(sq + brs, field),
        linalg.rank(cube, field),
        dim_ann,
        _right_multiplication(br)[0],
        delta_derivations(mul, 1).dim,
        delta_derivations(br, 1).dim,
        pair_derivations(pair).dim,
        delta_derivations(br, Fraction(1, 2)).dim,
        has_unit,
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
