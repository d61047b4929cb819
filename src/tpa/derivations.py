"""Nullspace solvers for derivation-type linear systems.

Three problems share one elimination core:

* delta-derivations of a single multiplication:
      phi(x*y) = delta (phi(x)*y + x*phi(y))
* joint derivations of a pair (delta = 1 on both components),
* half-biderivations of a bracket: bilinear D that is a 1/2-derivation
  in each argument, optionally restricted to symmetric D.

Linear maps are stored as matrices P with P[r][c] = coefficient of e_r
in phi(e_c) (columns are images of basis vectors, matching transport).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        if not self.basis:
            return [] if not any(self._flatten(elt)) else None
        cols = linalg.transpose([self._flatten(b) for b in self.basis])
        return linalg.solve(cols, self._flatten(elt), self.field)

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


def _derivation_rows(sc, delta):
    """Rows of the linear system for delta-derivations, unknowns P[r][c]
    flattened row-major."""
    n = sc.dim
    field = sc.field
    delta = field.coerce(delta)
    rows = []
    for i in range(n):
        for j in range(n):
            cij = sc.c[i][j]
            for k in range(n):
                row = [field.zero] * (n * n)
                # phi(e_i * e_j)_k = sum_m P[k][m] c[i][j][m]
                for m in range(n):
                    if cij[m]:
                        row[k * n + m] = row[k * n + m] + cij[m]
                # -delta (phi(e_i) * e_j)_k = -delta sum_r P[r][i] c[r][j][k]
                for r in range(n):
                    if sc.c[r][j][k]:
                        row[r * n + i] = row[r * n + i] - delta * sc.c[r][j][k]
                # -delta (e_i * phi(e_j))_k
                for r in range(n):
                    if sc.c[i][r][k]:
                        row[r * n + j] = row[r * n + j] - delta * sc.c[i][r][k]
                if any(row):
                    rows.append(row)
    return rows


def delta_derivations(sc, delta):
    """All phi with phi(x*y) = delta (phi(x)*y + x*phi(y)); delta = 1 gives
    ordinary derivations, delta = 1/2 the half-derivations."""
    n = sc.dim
    vectors = linalg.nullspace(_derivation_rows(sc, delta), n * n, sc.field)
    return SolutionSpace(n, "matrix", _matrix_basis(vectors, n), sc.field)


def derivation_residual(sc, mat, delta):
    """Exact residual phi(e_i e_j) - delta(phi(e_i) e_j + e_i phi(e_j));
    empty iff mat satisfies the system."""
    n = sc.dim
    field = sc.field
    delta = field.coerce(delta)
    basis = linalg.identity(n, field)
    out = []
    for i in range(n):
        for j in range(n):
            lhs = linalg.mat_vec(mat, list(sc.prod(i, j)))
            phi_i = [mat[r][i] for r in range(n)]
            phi_j = [mat[r][j] for r in range(n)]
            rhs1 = sc.evaluate(phi_i, basis[j])
            rhs2 = sc.evaluate(basis[i], phi_j)
            r = [a - delta * (b + c) for a, b, c in zip(lhs, rhs1, rhs2)]
            if any(x for x in r):
                out.append(((i + 1, j + 1), tuple(r)))
    return out


def pair_derivations(pair):
    """Joint 1-derivations of both components of a pair."""
    n = pair.dim
    rows = _derivation_rows(pair.mul, 1) + _derivation_rows(pair.bracket, 1)
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
    half = field.coerce(Fraction(1, 2))
    index, nunk = _bider_unknowns(n, symmetric)
    br = bracket.c
    rows = []

    def first_arg_rows(i, j, z):
        # D([e_i,e_j], e_z)_m - 1/2([D(e_i,e_z),e_j]_m + [e_i,D(e_j,e_z)]_m)
        for m in range(n):
            row = [field.zero] * nunk
            for r in range(n):
                if br[i][j][r]:
                    row[index[(r, z, m)]] += br[i][j][r]
                if br[r][j][m]:
                    row[index[(i, z, r)]] -= half * br[r][j][m]
                if br[i][r][m]:
                    row[index[(j, z, r)]] -= half * br[i][r][m]
            if any(row):
                rows.append(row)

    def second_arg_rows(x, j, k):
        # D(e_x, [e_j,e_k])_m - 1/2([D(e_x,e_j),e_k]_m + [e_j,D(e_x,e_k)]_m)
        for m in range(n):
            row = [field.zero] * nunk
            for r in range(n):
                if br[j][k][r]:
                    row[index[(x, r, m)]] += br[j][k][r]
                if br[r][k][m]:
                    row[index[(x, j, r)]] -= half * br[r][k][m]
                if br[j][r][m]:
                    row[index[(x, k, r)]] -= half * br[j][r][m]
            if any(row):
                rows.append(row)

    for i in range(n):
        for j in range(i + 1, n):
            for z in range(n):
                first_arg_rows(i, j, z)
    for x in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                second_arg_rows(x, j, k)

    vectors = linalg.nullspace(rows, nunk, field)
    tensors = []
    for v in vectors:
        t = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), pos in index.items():
            t[i][j][k] = v[pos]
        tensors.append(tuple(tuple(tuple(r) for r in p) for p in t))
    return SolutionSpace(n, "tensor", tuple(tensors), field)
