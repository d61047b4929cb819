"""Derivation-type linear systems, all written as rows of one builder.

``_map_rows`` states a phi(x*y) + b phi(x)*y + c x*phi(y) once, as
coefficient rows in the entries of phi.  Everything else is read off
those rows:

* delta-derivations of a single multiplication (their nullspace):
      phi(x*y) = delta (phi(x)*y + x*phi(y))
* joint derivations of a pair (delta = 1 on both components),
* the residual checker ``derivation_residual`` (rows times phi),
* half-biderivations of a bracket: bilinear D that is a 1/2-derivation
  in each argument, the 1/2-derivation rows re-indexed onto the entries
  of D, optionally restricted to symmetric D,
* the derived bracket and the strong-D-special solve in ``dspecial``.

Linear maps are stored as matrices P with P[r][c] = coefficient of e_r
in phi(e_c) (columns are images of basis vectors, matching transport).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import linalg
from .algebra import is_lie


class NotALieAlgebra(ValueError):
    """Raised when a bracket fails anticommutativity or Jacobi."""


@dataclass(frozen=True)
class SolutionSpace:
    """A basis of the nullspace of one of the linear systems above.

    ``basis`` holds matrices (derivation problems) or full n*n*n tensors
    (biderivation problems); every element satisfies the defining system
    exactly, and the basis is deterministic: free coordinates in
    increasing index order, first nonzero coordinate scaled to 1.
    """

    ambient_dim: int
    kind: str  # "matrix" | "tensor"
    basis: tuple
    field: object

    @property
    def dim(self):
        return len(self.basis)

    def _flatten(self, elt):
        if self.kind == "matrix":
            return [elt[r][c] for r in range(self.ambient_dim) for c in range(self.ambient_dim)]
        n = self.ambient_dim
        return [elt[i][j][k] for i in range(n) for j in range(n) for k in range(n)]

    def coords_of(self, elt):
        """Coordinates of elt in this basis, or None if not a member."""
        return linalg.in_span([self._flatten(b) for b in self.basis],
                              self._flatten(elt), self.field)

    def contains(self, elt):
        return self.coords_of(elt) is not None

    def combine(self, coords):
        """Linear combination sum coords[m] * basis[m]."""
        if len(coords) != self.dim:
            raise linalg.DimensionMismatch("coordinate count does not match basis size")
        n = self.ambient_dim
        z = self.field.zero
        if self.kind == "matrix":
            out = [[z] * n for _ in range(n)]
            for cf, b in zip(coords, self.basis):
                for r in range(n):
                    for c in range(n):
                        out[r][c] = out[r][c] + cf * b[r][c]
            return [tuple(r) for r in out]
        out = [[[z] * n for _ in range(n)] for _ in range(n)]
        for cf, b in zip(coords, self.basis):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        out[i][j][k] = out[i][j][k] + cf * b[i][j][k]
        return tuple(tuple(tuple(r) for r in p) for p in out)


def _matrix_basis(vectors, n):
    mats = []
    for v in vectors:
        mats.append(tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n)))
    return tuple(mats)


def _map_rows(sc, a, b, c):
    """The one statement of the derivation-type identities.

    Row (i*n + j)*n + k holds the coefficients of the k-th coordinate of
        a phi(e_i e_j) + b phi(e_i) e_j + c e_i phi(e_j)
    in the unknowns P[r][m] of phi, flattened row-major.  The delta-
    derivation condition is (1, -delta, -delta); the derived bracket
    D(x).y - x.D(y) is (0, 1, -1).  All n^3 rows are returned, zero rows
    included."""
    n = sc.dim
    field = sc.field
    a, b, c = (field.coerce(x) for x in (a, b, c))
    t = sc.c
    rows = []
    for i in range(n):
        for j in range(n):
            tij = t[i][j]
            for k in range(n):
                row = [field.zero] * (n * n)
                if a:
                    for m in range(n):
                        if tij[m]:
                            row[k * n + m] += a * tij[m]
                for r in range(n):
                    if t[r][j][k]:
                        row[r * n + i] += b * t[r][j][k]
                    if t[i][r][k]:
                        row[r * n + j] += c * t[i][r][k]
                rows.append(row)
    return rows


def _apply(rows, mat, field):
    """rows applied to the row-major flattening of mat."""
    vec = [x for r in mat for x in r]
    return [sum((x * y for x, y in zip(row, vec) if x), field.zero) for row in rows]


def delta_derivations(sc, delta):
    """All phi with phi(x*y) = delta (phi(x)*y + x*phi(y)); delta = 1 gives
    ordinary derivations, delta = 1/2 the half-derivations."""
    n = sc.dim
    rows = [r for r in _map_rows(sc, 1, -delta, -delta) if any(r)]
    vectors = linalg.nullspace(rows, n * n, sc.field)
    return SolutionSpace(n, "matrix", _matrix_basis(vectors, n), sc.field)


def derivation_residual(sc, mat, delta):
    """Exact residual phi(e_i e_j) - delta(phi(e_i) e_j + e_i phi(e_j));
    empty iff mat satisfies the system."""
    n = sc.dim
    values = _apply(_map_rows(sc, 1, -delta, -delta), mat, sc.field)
    out = []
    for p in range(n * n):
        r = values[p * n:(p + 1) * n]
        if any(r):
            out.append(((p // n + 1, p % n + 1), tuple(r)))
    return out


def pair_derivations(pair):
    """Joint 1-derivations of both components of a pair."""
    n = pair.dim
    rows = [r for sc in (pair.mul, pair.bracket) for r in _map_rows(sc, 1, -1, -1) if any(r)]
    vectors = linalg.nullspace(rows, n * n, pair.field)
    return SolutionSpace(n, "matrix", _matrix_basis(vectors, n), pair.field)


# ---------------------------------------------------------------------------
# half-biderivations
# ---------------------------------------------------------------------------

def _bider_unknowns(n, symmetric):
    """Index map (i, j, k) -> unknown position."""
    index = {}
    pos = 0
    for i in range(n):
        js = range(i, n) if symmetric else range(n)
        for j in js:
            for k in range(n):
                index[(i, j, k)] = pos
                if symmetric:
                    index[(j, i, k)] = pos
                pos += 1
    return index, pos


def half_biderivations(bracket, symmetric=True):
    """Bilinear D with, for all x, y, z,

        D([x,y], z) = 1/2 ([D(x,z), y] + [x, D(y,z)])
        D(x, [y,z]) = 1/2 ([D(x,y), z] + [y, D(x,z)])

    restricted to D(x,y) = D(y,x) when ``symmetric``.  The bracket must be
    a Lie bracket (raises NotALieAlgebra otherwise): symmetric associative
    members of this space are exactly the transposed Poisson products on it.
    """
    if not is_lie(bracket):
        raise NotALieAlgebra("half-biderivations require an anticommutative Jacobi bracket")
    n = bracket.dim
    field = bracket.field
    index, nunk = _bider_unknowns(n, symmetric)
    # D(., e_z) and D(e_z, .) are 1/2-derivations of the bracket: unknown
    # P[r][c] of the first is D(e_c, e_z)_r, of the second D(e_z, e_c)_r.
    # For a Lie bracket row (j, i, k) is minus row (i, j, k) and row
    # (i, i, k) vanishes, so rows with i < j suffice.
    half = Fraction(1, 2)
    labels = product(range(n), repeat=3)
    lie_rows = [row for (i, j, _), row in zip(labels, _map_rows(bracket, 1, -half, -half))
                if i < j and any(row)]
    slots = [lambda c, z, r: (c, z, r)]
    if not symmetric:  # for symmetric D the second slot names the same unknowns
        slots.append(lambda c, z, r: (z, c, r))
    rows = []
    for slot in slots:
        for z in range(n):
            for row in lie_rows:
                new = [field.zero] * nunk
                for p, v in enumerate(row):
                    if v:
                        r, c = divmod(p, n)
                        new[index[slot(c, z, r)]] += v
                rows.append(new)

    vectors = linalg.nullspace(rows, nunk, field)
    tensors = []
    for v in vectors:
        t = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), pos in index.items():
            t[i][j][k] = v[pos]
        tensors.append(tuple(tuple(tuple(r) for r in p) for p in t))
    return SolutionSpace(n, "tensor", tuple(tensors), field)
