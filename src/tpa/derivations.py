"""Derivation-type linear systems, each stated once.

``algebra._pattern`` states a phi(x*y) + b phi(x)*y + c x*phi(y) once,
and ``algebra._map_rows`` makes its coefficient rows in the entries of
phi.  ``delta_derivations`` is the one solver that reads those rows:

* delta-derivations of a single multiplication (their nullspace):
      phi(x*y) = delta (phi(x)*y + x*phi(y))
* the residual checker ``derivation_residual`` reads the same pattern at
  phi (``algebra._residual``), building no row.

``delta_derivations`` eliminates each system once per integer normal form
and delta while it is among the last 8 it was asked for (an
``lru_cache``), so the derived systems below and ``iso.fingerprint``
share one elimination per component.  The memo is bounded because the
tensors it is keyed on can live as long as the process.

The derived systems are read off the reduced rows (``SolutionSpace.form``)
of those spaces, never off ``_map_rows``:

* joint derivations of a pair: both components' derivation forms stacked,
* half-biderivations of a bracket: bilinear D that is a 1/2-derivation
  in each argument, the 1/2-derivation form re-indexed onto the entries
  of D, optionally restricted to symmetric D,
* the strong-D-special solve in ``dspecial``.

Linear maps are stored as matrices P with P[r][c] = coefficient of e_r
in phi(e_c) (columns are images of basis vectors, matching transport).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

from . import linalg
from .algebra import _map_rows, _residual, flatten, is_lie, residual_cells, unflatten


class NotALieAlgebra(ValueError):
    """Raised when a bracket fails anticommutativity or Jacobi."""


@dataclass(frozen=True, eq=False)
class SolutionSpace:
    """The nullspace of one of the linear systems above: ``rows`` in
    ``nunknowns`` unknowns, ``cells[p]`` the unknown at position p of the
    ``algebra.flatten`` order, eliminated once, on first use.  ``dim`` needs
    no basis; ``vectors`` (flat) and ``basis`` (n x n matrices at depth 2,
    n x n x n tensors at depth 3) are read off the same elimination when
    first read.  The basis is deterministic: free unknowns in increasing
    index order, first nonzero coordinate 1.  ``form`` is the elimination
    itself: the undivided echelon rows, spanning the same row space as
    ``rows``, and their pivot columns (see ``linalg.echelon``).  The reduced
    form is unique, so a system built from it has the same nullspace and
    basis as one built from ``rows``.
    """

    ambient_dim: int
    depth: int
    rows: list
    nunknowns: int
    cells: object
    field: object

    @cached_property
    def form(self):
        return linalg.echelon(self.rows, self.field)

    @property
    def dim(self):
        return self.nunknowns - len(self.form[1])

    @cached_property
    def vectors(self):
        kernel = linalg.kernel(self.form, self.nunknowns, self.field)
        return tuple(tuple(v[p] for p in self.cells) for v in kernel)

    @cached_property
    def basis(self):
        return tuple(unflatten(v, self.ambient_dim, self.depth) for v in self.vectors)

    def coords_of(self, elt):
        """Coordinates of elt in this basis, or None if not a member."""
        return linalg.in_span(self.vectors, flatten(elt), self.field)

    def contains(self, elt):
        return self.coords_of(elt) is not None

    def combine(self, coords):
        """Linear combination sum coords[m] * basis[m]."""
        if len(coords) != self.dim:
            raise linalg.DimensionMismatch("coordinate count does not match basis size")
        z = self.field.zero
        vec = [sum((cf * v[p] for cf, v in zip(coords, self.vectors)), z)
               for p in range(self.ambient_dim ** self.depth)]
        return unflatten(vec, self.ambient_dim, self.depth)


def delta_derivations(sc, delta):
    """All phi with phi(x*y) = delta (phi(x)*y + x*phi(y)); delta = 1 gives
    ordinary derivations, delta = 1/2 the half-derivations.  The space may
    be shared (see above): callers must not mutate its ``rows`` or ``form``."""
    return _delta_derivations_of_primitive(sc.primitive, delta)


@lru_cache(maxsize=8)
def _delta_derivations_of_primitive(sc, delta):
    n = sc.dim
    # the rows times the denominator q of delta: the same nullspace, and
    # integer rows, since the normal form is an integer tensor
    q = Fraction(delta).denominator
    return SolutionSpace(n, 2, _map_rows(sc, q, -q * delta, -q * delta), n * n, range(n * n),
                         sc.field)


delta_derivations.cache_info = _delta_derivations_of_primitive.cache_info
delta_derivations.cache_clear = _delta_derivations_of_primitive.cache_clear


def derivation_residual(sc, mat, delta):
    """Exact residual phi(e_i e_j) - delta(phi(e_i) e_j + e_i phi(e_j));
    empty iff mat satisfies the system."""
    return residual_cells(_residual(sc, mat, 1, -delta, -delta), sc.dim)


def pair_derivations(pair):
    """Joint 1-derivations of both components of a pair."""
    pair = pair.primitive
    n = pair.dim
    rows = [r for sc in (pair.mul, pair.bracket) for r in delta_derivations(sc, 1).form[0]]
    return SolutionSpace(n, 2, rows, n * n, range(n * n), pair.field)


def half_biderivations(bracket, symmetric=True):
    """Bilinear D with, for all x, y, z,

        D([x,y], z) = 1/2 ([D(x,z), y] + [x, D(y,z)])
        D(x, [y,z]) = 1/2 ([D(x,y), z] + [y, D(x,z)])

    restricted to D(x,y) = D(y,x) when ``symmetric``.  The bracket must be
    a Lie bracket (raises NotALieAlgebra otherwise): symmetric associative
    members of this space are exactly the transposed Poisson products on it.
    """
    bracket = bracket.primitive
    if not is_lie(bracket):
        raise NotALieAlgebra("half-biderivations require an anticommutative Jacobi bracket")
    n = bracket.dim
    field = bracket.field
    # the unknown each cell D(e_i, e_j)_k stands for, in ``flatten`` order;
    # cells (i, j, k) and (j, i, k) share one when ``symmetric``
    index = {}
    cells = [index.setdefault((min(i, j), max(i, j), k) if symmetric else (i, j, k), len(index))
             for i, j, k in product(range(n), repeat=3)]
    # D(., e_z) and D(e_z, .) are 1/2-derivations of the bracket: unknown
    # P[r][c] of the first is D(e_c, e_z)_r, of the second D(e_z, e_c)_r.
    # For symmetric D the second names the same unknowns as the first.
    targets = [[cells[(c * n + z) * n + r] for r in range(n) for c in range(n)]
               for z in range(n)]
    if not symmetric:
        targets += [[cells[(z * n + c) * n + r] for r in range(n) for c in range(n)]
                    for z in range(n)]
    half = delta_derivations(bracket, Fraction(1, 2)).form[0]
    rows = []
    for target in targets:  # one-to-one onto its unknowns
        for row in half:
            new = [field.zero] * len(index)
            for t, v in zip(target, row):
                new[t] = v
            rows.append(new)
    return SolutionSpace(n, 3, rows, len(index), cells, field)
