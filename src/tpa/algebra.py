"""Structure-constant tensors, bilinear pairs and polynomial-identity checks.

A multiplication on an n-dimensional space is stored as the tensor
c[i][j][k] = coefficient of e_k in e_i * e_j (0-based internally, 1-based
in the JSON encoding).  An AlgebraPair carries a commutative-product
candidate and a bracket candidate over a common scalar field; nothing is
assumed about either component, the checkers establish identities.

All identity checks run over basis instantiations, which is sound and
complete by multilinearity.  ``_map_rows`` states the derivation-type
identity a phi(x*y) + b phi(x)*y + c x*phi(y) once, as coefficient rows in
the entries of phi, filled from the tensor's nonzero entries.  This module
alone knows the row-major layout of maps, tensors and rows: the other
modules go through ``flatten``, ``unflatten`` and ``residual_cells``.
Associativity, the transposed rule and the Leibniz rule are those rows
applied to multiplication operators (see ``_IDENTITY_CHECKS``), and the
solvers in ``derivations`` and ``dspecial`` take their nullspaces.
Jacobi keeps its cyclic i < j < k form: it is a derivation statement
only for anticommutative brackets.

``transport`` and ``gl_action`` share one contraction, ``_transport_sc``,
over Q and Q(t) alike: the tensor is moved one slot at a time, the first
from its nonzero entries, and no product is evaluated cell by cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .linalg import DimensionMismatch
from .scalars import QQ, QQ_T, _integral, excerpt_repr, limit_at_zero


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
        # a cell listed twice can sum to an integral Fraction; coerce stores it as int
        return StructureConstants(
            dim, field, tuple(tuple(tuple(map(field.coerce, r)) for r in p) for p in c))

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

    @cached_property
    def entries(self):
        """The nonzero (i, j, k, c[i][j][k]), 0-based, in row-major order;
        the cube is scanned once per tensor."""
        return tuple((i, j, k, v) for i, plane in enumerate(self.c)
                     for j, row in enumerate(plane) for k, v in enumerate(row) if v)

    def is_zero(self):
        return not self.entries

    @cached_property
    def primitive(self):
        """The integer normal form: over Q, this tensor with its denominators
        cleared and its content divided out (all entries ``int``, gcd 1); a
        Q(t), zero or primitive tensor is its own.  No question the package
        decides changes under a nonzero rational scale, so those questions
        read this form; residuals, derived brackets and transports never do."""
        if self.field is not QQ or not self.entries:
            return self
        flat = flatten(self.c)
        ints = _integral(flat)[2]
        if ints == flat:
            return self
        return StructureConstants(self.dim, QQ, unflatten(ints, self.dim, 3))


@dataclass(frozen=True)
class AlgebraPair:
    mul: StructureConstants
    bracket: StructureConstants

    def __post_init__(self):
        if self.mul.dim != self.bracket.dim:
            raise DimensionMismatch("pair components have different dimensions")

    @cached_property
    def primitive(self):
        """Both components in their integer normal form (each scaled by its
        own factor; see ``StructureConstants.primitive``)."""
        mul, br = self.mul.primitive, self.bracket.primitive
        return self if mul is self.mul and br is self.bracket else AlgebraPair(mul, br)

    @property
    def dim(self):
        return self.mul.dim

    @property
    def field(self):
        return self.mul.field


# ---------------------------------------------------------------------------
# derivation-type rows
# ---------------------------------------------------------------------------

def flatten(x):
    """Row-major flattening of a matrix P[r][c] or a tensor t[i][j][k]: the
    order of the unknowns and of the rows of ``_map_rows``."""
    if isinstance(x[0][0], (list, tuple)):
        return [v for plane in x for row in plane for v in row]
    return [v for row in x for v in row]


def unflatten(vec, n, depth=2):
    """Inverse of ``flatten``: the n x n matrix (depth 2) or the n x n x n
    tensor (depth 3) of ``vec``, as nested tuples."""
    out = tuple(vec)
    for _ in range(depth - 1):
        out = tuple(out[p:p + n] for p in range(0, len(out), n))
    return out


def residual_cells(values, n):
    """The nonzero cells of ``values``, the n^3 rows of ``_map_rows``
    applied to a map: ((i, j), residual coordinate vector) for the
    instantiation at (e_i, e_j), 1-based, in row-major order."""
    return [((i + 1, j + 1), cell) for i, plane in enumerate(unflatten(values, n, 3))
            for j, cell in enumerate(plane) if any(cell)]


def operator_matrix(sc, z, left=False):
    """Matrix of x -> x e_z (of x -> e_z x when ``left``); column c is the
    image of e_c, the layout ``_map_rows`` expects."""
    n = sc.dim
    if left:
        return [[sc.c[z][c][r] for c in range(n)] for r in range(n)]
    return [[sc.c[c][z][r] for c in range(n)] for r in range(n)]


def _map_rows(sc, a, b, c):
    """The one statement of the derivation-type identities.

    Row (i, j, k) of the n^3 rows (``flatten`` order) holds the
    coefficients of the k-th coordinate of
        a phi(e_i e_j) + b phi(e_i) e_j + c e_i phi(e_j)
    in the unknowns P[r][m] of phi, flattened the same way.  The delta-
    derivation condition is (1, -delta, -delta); the derived bracket
    D(x).y - x.D(y) is (0, 1, -1).  All n^3 rows are returned, zero rows
    included.  Each nonzero entry e_p e_q = v e_s of the tensor enters
    three families of cells: a v at row (p, q, k), unknown P[k][s];
    b v at row (i, q, s), unknown P[p][i]; c v at row (p, j, s), unknown
    P[q][j]."""
    n = sc.dim
    field = sc.field
    a, b, c = (field.coerce(x) for x in (a, b, c))
    rows = [[field.zero] * (n * n) for _ in range(n ** 3)]
    for p, q, s, v in sc.entries:
        av, bv, cv = (x * v for x in (a, b, c))
        for m in range(n):
            if av:
                rows[(p * n + q) * n + m][m * n + s] += av
            if bv:
                rows[(m * n + q) * n + s][p * n + m] += bv
            if cv:
                rows[(p * n + m) * n + s][q * n + m] += cv
    # products, and sums of them, can be integral Fractions (0 included); coerce stores an int
    return [[x if type(x) is int else field.coerce(x) for x in row] for row in rows]


def _apply(rows, mat, field):
    """rows applied to the flattening of mat."""
    vec = flatten(mat)
    return [_dot(row, vec, field.zero) for row in rows]


def _dot(xs, ys, zero):
    """sum x * y over the pairs where both are nonzero; ``zero`` if none."""
    out = zero
    for x, y in zip(xs, ys):
        if x and y:
            out = out + x * y if out else x * y
    return out


# ---------------------------------------------------------------------------
# basis transport / GL action
# ---------------------------------------------------------------------------

def _transport_sc(sc, g_cols, g_inv):
    """Structure constants in the basis whose vectors are the columns of g,
        c'[i][j][k] = sum g_inv[k][r] c[p][q][r] g[p][i] g[q][j],
    contracted one slot at a time: the first slot by g from the nonzero
    entries, then the second slot by g and the output slot by g^{-1}, at
    most n^4 products each.  Integral rationals are stored as ``int``."""
    n, field = sc.dim, sc.field
    zero = field.zero
    a = [[[zero] * n for _ in range(n)] for _ in range(n)]  # a[i][q][r]
    for p, q, r, v in sc.entries:
        for i, gpi in enumerate(g_cols[p]):
            if gpi:
                x = a[i][q][r]
                a[i][q][r] = x + gpi * v if x else gpi * v
    g_t = tuple(zip(*g_cols))
    out = []
    for plane in a:
        cols = tuple(zip(*plane))
        b = [[_dot(gj, col, zero) for col in cols] for gj in g_t]  # b[j][r]
        out.append(tuple(tuple(field.coerce(_dot(gk, bj, zero)) for gk in g_inv) for bj in b))
    return StructureConstants(n, field, tuple(out))


def _inverse(pair, g):
    """g^{-1}, refusing a g whose size is not the pair's dimension."""
    if len(g) != pair.dim:
        raise DimensionMismatch(f"change of basis of size {len(g)} for dimension {pair.dim}")
    return linalg.inv(g, pair.field)


def transport(pair, g):
    """Rewrite both multiplications in the basis E_i = sum_j g[j][i] e_j.

    Columns of g are the new basis vectors in the old coordinates.  In
    action form this is g^{-1} mu(g x, g y).  Raises SingularMatrix when
    det g = 0, and DimensionMismatch when g is not dim x dim.
    """
    g_inv = _inverse(pair, g)
    return AlgebraPair(
        _transport_sc(pair.mul, g, g_inv), _transport_sc(pair.bracket, g, g_inv)
    )


def gl_action(pair, g):
    """The group action (g * mu)(x, y) = g mu(g^{-1} x, g^{-1} y).

    Equals transport along the inverse basis matrix; the degeneration
    table's parametrized bases act through this map.  Raises as
    ``transport`` does.
    """
    g_inv = _inverse(pair, g)
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


def _mirror(sc, sign, diagonal):
    """Violations of c[i][j] + sign c[j][i] = 0 at i < j, and of the square
    c[i][i] = 0 when ``diagonal``, labelled (i, j)."""
    out = []
    for i in range(sc.dim):
        for j in range(i if diagonal else i + 1, sc.dim):
            r = tuple(sc.c[i][i]) if i == j else tuple(
                x + sign * y for x, y in zip(sc.c[i][j], sc.c[j][i]))
            if any(r):
                out.append(((i + 1, j + 1), r))
    return out


def _jacobi(pair):
    """Jacobi on ordered triples i < j < k; with anticommutativity this
    covers all instantiations (checked separately by `anticommutative`)."""
    br = pair.bracket
    e = linalg.identity(br.dim, br.field)
    out = []
    for i, j, k in itertools.combinations(range(br.dim), 3):
        r = tuple(a + b + c for a, b, c in zip(br.evaluate(br.c[i][j], e[k]),
                                               br.evaluate(br.c[j][k], e[i]),
                                               br.evaluate(br.c[k][i], e[j])))
        if any(r):
            out.append(((i + 1, j + 1, k + 1), r))
    return out


def _operator_identity(rows_sc, coeffs, op_sc, left=False):
    """Violations of the (a, b, c) rows of ``rows_sc`` at the operators
    x -> x e_z of ``op_sc`` (e_z x when ``left``), labelled (i, j, z)."""
    rows = _map_rows(rows_sc, *coeffs)
    cells = [(ij + (z + 1,), r) for z in range(rows_sc.dim) for ij, r in residual_cells(
        _apply(rows, operator_matrix(op_sc, z, left), rows_sc.field), rows_sc.dim)]
    return sorted(cells, key=lambda cell: cell[0])


_IDENTITY_CHECKS = {
    "commutative": lambda p: _mirror(p.mul, -1, diagonal=False),
    # (x.y).z - x.(y.z): right multiplication by z against rows (1, 0, -1)
    "associative": lambda p: _operator_identity(p.mul, (1, 0, -1), p.mul),
    "anticommutative": lambda p: _mirror(p.bracket, 1, diagonal=True),
    "jacobi": _jacobi,
    # 2 z.[x,y] - [z.x, y] - [x, z.y]: left multiplication by z against the
    # 1/2-derivation rows of the bracket, scaled by 2
    "transposed_leibniz": lambda p: _operator_identity(p.bracket, (2, -1, -1), p.mul, left=True),
    # [x.y, z] - [x,z].y - x.[y,z]: ad_z = [., z] against the derivation rows
    # of the product
    "leibniz": lambda p: _operator_identity(p.mul, (1, -1, -1), p.bracket),
}

IDENTITIES = tuple(_IDENTITY_CHECKS)
TRANSPOSED_POISSON_AXIOMS = ("commutative", "associative", "anticommutative", "jacobi",
                             "transposed_leibniz")
POISSON_AXIOMS = TRANSPOSED_POISSON_AXIOMS[:4] + ("leibniz",)


def check_identity(pair, which):
    if which not in _IDENTITY_CHECKS:
        raise ValueError(f"unknown identity {which!r}")
    violations = tuple(_IDENTITY_CHECKS[which](pair))
    return IdentityReport(which, not violations, violations)


def is_lie(sc):
    sc = sc.primitive
    pair = AlgebraPair(StructureConstants.zero(sc.dim, sc.field), sc)
    return check_identity(pair, "anticommutative").holds and check_identity(pair, "jacobi").holds


def is_commutative_associative(sc):
    sc = sc.primitive
    pair = AlgebraPair(sc, StructureConstants.zero(sc.dim, sc.field))
    return check_identity(pair, "commutative").holds and check_identity(pair, "associative").holds


def is_transposed_poisson(pair):
    """Commutative + associative + anticommutative + Jacobi + transposed rule."""
    pair = pair.primitive
    return all(check_identity(pair, w).holds for w in TRANSPOSED_POISSON_AXIOMS)


def is_poisson(pair):
    """The classical compatibility: base identities plus the Leibniz rule."""
    pair = pair.primitive
    return all(check_identity(pair, w).holds for w in POISSON_AXIOMS)


# ---------------------------------------------------------------------------
# limits (Q(t)-valued pairs -> Q pairs)
# ---------------------------------------------------------------------------

def limit_pair(pair):
    """Entrywise limit at t -> 0 of a pair over Q(t); raises Diverges on poles."""
    def lim_sc(sc):
        return StructureConstants.from_entries(
            sc.dim, [(i + 1, j + 1, k + 1, limit_at_zero(v)) for i, j, k, v in sc.entries])

    return AlgebraPair(lim_sc(pair.mul), lim_sc(pair.bracket))


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def sc_to_entries(sc):
    return [[i + 1, j + 1, k + 1, sc.field.format(v)] for i, j, k, v in sc.entries]


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
            raise DimensionMismatch(f"entry index out of range in {key}: {excerpt_repr(entry)}")
    return items


def pair_from_json(doc, field=None):
    """Parse an algebra document; malformed documents raise ValueError
    (ScalarParseError for a bad scalar) with a one-line message."""
    if not isinstance(doc, dict):
        raise ValueError("an algebra document must be a JSON object")
    dim = doc.get("dim")
    if type(dim) is not int or not 1 <= dim <= 3:
        raise ValueError(f"dim must be an integer from 1 to 3, got {excerpt_repr(dim)}")
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
