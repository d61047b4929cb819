"""Structure-constant tensors, bilinear pairs and polynomial-identity checks.

A multiplication on an n-dimensional space is stored as the tensor
c[i][j][k] = coefficient of e_k in e_i * e_j (0-based internally, 1-based
in the JSON encoding).  An AlgebraPair carries a commutative-product
candidate and a bracket candidate over a common scalar field; nothing is
assumed about either component, the checkers establish identities.

All identity checks run over basis instantiations, which is sound and
complete by multilinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .linalg import DimensionMismatch, SingularMatrix
from .scalars import QQ, QQ_T, limit_at_zero


@dataclass(frozen=True)
class StructureConstants:
    dim: int
    field: object
    c: tuple  # c[i][j][k]

    @staticmethod
    def zero(dim, field=QQ):
        z = field.zero
        return StructureConstants(
            dim, field, tuple(tuple((z,) * dim for _ in range(dim)) for _ in range(dim))
        )

    @staticmethod
    def from_entries(dim, entries, field=QQ, symmetrize=None):
        """Build a tensor from 1-based (i, j, k, coeff) items.

        symmetrize="sym" mirrors each listed product to (j, i);
        symmetrize="antisym" mirrors with a sign flip.  Used for tables
        that list each unordered product once.
        """
        c = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, v in entries:
            v = field.coerce(v)
            c[i - 1][j - 1][k - 1] = c[i - 1][j - 1][k - 1] + v
            if symmetrize and i != j:
                if symmetrize == "sym":
                    c[j - 1][i - 1][k - 1] = c[j - 1][i - 1][k - 1] + v
                elif symmetrize == "antisym":
                    c[j - 1][i - 1][k - 1] = c[j - 1][i - 1][k - 1] - v
                else:
                    raise ValueError(f"unknown symmetrize mode {symmetrize!r}")
            elif symmetrize == "antisym" and i == j and v:
                raise ValueError("antisymmetric table lists a square product")
        return StructureConstants(dim, field, tuple(tuple(tuple(r) for r in p) for p in c))

    def prod(self, i, j):
        """Product of basis vectors e_i * e_j as a coordinate vector (0-based)."""
        return self.c[i][j]

    def evaluate(self, x, y):
        """Bilinear extension: coordinates of x * y."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length does not match tensor dimension")
        z = self.field.zero
        out = [z] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                row = self.c[i][j]
                for k in range(self.dim):
                    if row[k]:
                        out[k] = out[k] + f * row[k]
        return out

    def entries(self):
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if self.c[i][j][k]:
                        yield (i, j, k, self.c[i][j][k])

    def is_zero(self):
        return next(self.entries(), None) is None

    def map_scalars(self, fn, field):
        return StructureConstants(
            self.dim,
            field,
            tuple(
                tuple(tuple(fn(v) for v in row) for row in plane) for plane in self.c
            ),
        )


@dataclass(frozen=True)
class AlgebraPair:
    mul: StructureConstants
    bracket: StructureConstants

    def __post_init__(self):
        if self.mul.dim != self.bracket.dim:
            raise DimensionMismatch("pair components have different dimensions")

    @property
    def dim(self):
        return self.mul.dim

    @property
    def field(self):
        return self.mul.field


# ---------------------------------------------------------------------------
# basis transport / GL action
# ---------------------------------------------------------------------------

def _transport_sc(sc, g_cols, g_inv):
    """Structure constants in the basis whose vectors are the columns of g."""
    n = sc.dim
    new = []
    for i in range(n):
        plane = []
        ei = [g_cols[r][i] for r in range(n)]
        for j in range(n):
            ej = [g_cols[r][j] for r in range(n)]
            plane.append(tuple(linalg.mat_vec(g_inv, sc.evaluate(ei, ej))))
        new.append(tuple(plane))
    return StructureConstants(n, sc.field, tuple(new))


def transport(pair, g):
    """Rewrite both multiplications in the basis E_i = sum_j g[j][i] e_j.

    Columns of g are the new basis vectors in the old coordinates.  In
    action form this is g^{-1} mu(g x, g y).  Raises SingularMatrix when
    det g = 0.
    """
    g_inv = linalg.inv(g, pair.field)
    return AlgebraPair(
        _transport_sc(pair.mul, g, g_inv), _transport_sc(pair.bracket, g, g_inv)
    )


def gl_action(pair, g):
    """The group action (g * mu)(x, y) = g mu(g^{-1} x, g^{-1} y).

    Equals transport along the inverse basis matrix; the degeneration
    table's parametrized bases act through this map.
    """
    g_inv = linalg.inv(g, pair.field)
    return AlgebraPair(
        _transport_sc(pair.mul, g_inv, g), _transport_sc(pair.bracket, g_inv, g)
    )


def pairs_equal(a, b):
    return a.mul.c == b.mul.c and a.bracket.c == b.bracket.c


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    identity: str
    holds: bool
    violations: tuple  # ((indices), residual coordinate vector)


def _vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _nonzero(v):
    return any(x for x in v)


def _commutative(pair):
    mul = pair.mul
    out = []
    for i in range(mul.dim):
        for j in range(i + 1, mul.dim):
            r = _vec_sub(mul.prod(i, j), mul.prod(j, i))
            if _nonzero(r):
                out.append(((i + 1, j + 1), tuple(r)))
    return out


def _anticommutative(pair):
    br = pair.bracket
    out = []
    for i in range(br.dim):
        for j in range(i, br.dim):
            r = [x + y for x, y in zip(br.prod(i, j), br.prod(j, i))] if i != j else list(
                br.prod(i, i)
            )
            if _nonzero(r):
                out.append(((i + 1, j + 1), tuple(r)))
    return out


def _associative(pair):
    mul = pair.mul
    out = []
    for i in range(mul.dim):
        for j in range(mul.dim):
            for k in range(mul.dim):
                ek = [mul.field.one if t == k else mul.field.zero for t in range(mul.dim)]
                left = mul.evaluate(mul.prod(i, j), ek)
                ei = [mul.field.one if t == i else mul.field.zero for t in range(mul.dim)]
                right = mul.evaluate(ei, mul.prod(j, k))
                r = _vec_sub(left, right)
                if _nonzero(r):
                    out.append(((i + 1, j + 1, k + 1), tuple(r)))
    return out


def _jacobi(pair):
    """Jacobi on ordered triples i < j < k; with anticommutativity this
    covers all instantiations (checked separately by `anticommutative`)."""
    br = pair.bracket
    n = br.dim
    out = []

    def bk(v, w):
        return br.evaluate(v, w)

    basis = linalg.identity(n, br.field)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = [
                    a + b + c
                    for a, b, c in zip(
                        bk(br.prod(i, j), basis[k]),
                        bk(br.prod(j, k), basis[i]),
                        bk(br.prod(k, i), basis[j]),
                    )
                ]
                if _nonzero(r):
                    out.append(((i + 1, j + 1, k + 1), tuple(r)))
    return out


def _transposed_leibniz(pair):
    """Residual of 2 z.[x,y] = [z.x, y] + [x, z.y] on basis triples."""
    mul, br = pair.mul, pair.bracket
    n = mul.dim
    basis = linalg.identity(n, mul.field)
    two = mul.field.coerce(2)
    out = []
    for k in range(n):  # z
        for i in range(n):
            for j in range(n):
                left = [two * v for v in mul.evaluate(basis[k], br.prod(i, j))]
                r1 = br.evaluate(mul.prod(k, i), basis[j])
                r2 = br.evaluate(basis[i], mul.prod(k, j))
                r = [a - b - c for a, b, c in zip(left, r1, r2)]
                if _nonzero(r):
                    out.append(((i + 1, j + 1, k + 1), tuple(r)))
    return out


def _leibniz(pair):
    """Residual of the classical rule [x.y, z] = x.[y,z] + [x,z].y."""
    mul, br = pair.mul, pair.bracket
    n = mul.dim
    basis = linalg.identity(n, mul.field)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = br.evaluate(mul.prod(i, j), basis[k])
                r1 = mul.evaluate(basis[i], br.prod(j, k))
                r2 = mul.evaluate(br.prod(i, k), basis[j])
                r = [a - b - c for a, b, c in zip(left, r1, r2)]
                if _nonzero(r):
                    out.append(((i + 1, j + 1, k + 1), tuple(r)))
    return out


_IDENTITY_CHECKS = {
    "commutative": _commutative,
    "associative": _associative,
    "anticommutative": _anticommutative,
    "jacobi": _jacobi,
    "transposed_leibniz": _transposed_leibniz,
    "leibniz": _leibniz,
}

IDENTITIES = tuple(_IDENTITY_CHECKS)


def check_identity(pair, which):
    if which not in _IDENTITY_CHECKS:
        raise ValueError(f"unknown identity {which!r}")
    violations = tuple(_IDENTITY_CHECKS[which](pair))
    return IdentityReport(which, not violations, violations)


def is_lie(sc):
    pair = AlgebraPair(StructureConstants.zero(sc.dim, sc.field), sc)
    return check_identity(pair, "anticommutative").holds and check_identity(pair, "jacobi").holds


def is_commutative_associative(sc):
    pair = AlgebraPair(sc, StructureConstants.zero(sc.dim, sc.field))
    return check_identity(pair, "commutative").holds and check_identity(pair, "associative").holds


def is_transposed_poisson(pair):
    """Commutative + associative + anticommutative + Jacobi + transposed rule."""
    return all(
        check_identity(pair, w).holds
        for w in ("commutative", "associative", "anticommutative", "jacobi", "transposed_leibniz")
    )


def is_poisson(pair):
    """The classical compatibility: base identities plus the Leibniz rule."""
    return all(
        check_identity(pair, w).holds
        for w in ("commutative", "associative", "anticommutative", "jacobi", "leibniz")
    )


# ---------------------------------------------------------------------------
# limits (Q(t)-valued pairs -> Q pairs)
# ---------------------------------------------------------------------------

def limit_pair(pair):
    """Entrywise limit at t -> 0 of a pair over Q(t); raises Diverges on poles."""
    def lim_sc(sc):
        return sc.map_scalars(limit_at_zero, QQ)

    return AlgebraPair(lim_sc(pair.mul), lim_sc(pair.bracket))


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def sc_to_entries(sc):
    return [[i + 1, j + 1, k + 1, sc.field.format(v)] for i, j, k, v in sc.entries()]


def pair_to_json(pair):
    return {
        "dim": pair.dim,
        "mul": sc_to_entries(pair.mul),
        "bracket": sc_to_entries(pair.bracket),
    }


def _json_entries(doc, key, dim):
    """The [i, j, k, value] items listed under ``key``, shape-checked."""
    items = doc.get(key) or []
    if not isinstance(items, list) or not all(
            isinstance(e, (list, tuple)) and len(e) == 4 for e in items):
        raise ValueError(f"{key!r} must be a list of [i, j, k, value] entries")
    for entry in items:
        if not all(type(x) is int and 1 <= x <= dim for x in entry[:3]):
            raise DimensionMismatch(f"entry index out of range in {key}: {entry!r}")
    return items


def pair_from_json(doc, field=None):
    """Parse an algebra document; malformed documents raise ValueError
    (ScalarParseError for a bad scalar) with a one-line message."""
    if not isinstance(doc, dict):
        raise ValueError("an algebra document must be a JSON object")
    dim = doc.get("dim")
    if type(dim) is not int or not 1 <= dim <= 3:
        raise ValueError(f"dim must be an integer from 1 to 3, got {dim!r}")
    items = {key: _json_entries(doc, key, dim) for key in ("mul", "bracket")}
    if field is None:
        field = QQ_T if any("t" in str(e[3]) for es in items.values() for e in es) else QQ

    def sc_of(key):
        entries = [(i, j, k, field.parse(str(v))) for i, j, k, v in items[key]]
        return StructureConstants.from_entries(dim, entries, field=field)

    return AlgebraPair(sc_of("mul"), sc_of("bracket"))


def matrix_to_json(m, field):
    return [[field.format(v) for v in row] for row in m]


def matrix_from_json(rows, field=QQ):
    if not isinstance(rows, (list, tuple)) or not rows or not all(
            isinstance(r, (list, tuple)) and len(r) == len(rows) for r in rows):
        raise ValueError("a matrix must be a non-empty square list of rows")
    return [[field.parse(str(v)) for v in row] for row in rows]
