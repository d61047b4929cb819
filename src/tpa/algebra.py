"""Structure-constant tensors, bilinear pairs and polynomial-identity checks.

A multiplication on an n-dimensional space is stored as the tensor
c[i][j][k] = coefficient of e_k in e_i * e_j (0-based internally, 1-based
in the JSON encoding).  An AlgebraPair carries a commutative-product
candidate and a bracket candidate over a common scalar field; nothing is
assumed about either component, the checkers establish identities.

All identity checks run over basis instantiations, which is sound and
complete by multilinearity.  ``_pattern`` states the derivation-type
identity a phi(x*y) + b phi(x)*y + c x*phi(y) once.  ``_map_rows``
scatters the tensor's nonzero entries through it into the coefficient
rows the solvers in ``derivations`` and ``dspecial`` eliminate;
``_residual`` gathers them against a map phi, building no row.  This
module alone knows the row-major layout of maps, tensors and rows: the
other modules go through ``flatten``, ``unflatten`` and ``residual_cells``.
Associativity, the transposed rule and the Leibniz rule are that residual
at multiplication operators (see ``_IDENTITY_CHECKS``).  Jacobi keeps its
cyclic i < j < k form: it is a derivation statement only for
anticommutative brackets.

``transport`` and ``gl_action`` share one contraction, ``_transport_sc``,
over Q and Q(t) alike: the tensor is moved one slot at a time, the first
from its nonzero entries, and no product is evaluated cell by cell.  Over
Q, g is stored through ``coerce`` and g^{-1} enters as its integer
numerator q g^{-1} (``_inverse``), so an integer tensor moved by an
integral g is built in ``int`` arithmetic and each nonzero cell is divided
once by a power of q; over Q(t), q = 1 and each cell is only coerced.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property, lru_cache

from . import linalg
from .linalg import DimensionMismatch
from .scalars import QQ, QQ_T, _integral, excerpt_repr, limit_at_zero


class StructureConstants(namedtuple("StructureConstants", "dim field c")):
    """A tensor c[i][j][k] over ``field``: an immutable record, equal and
    hashed by its fields; the cached properties live in its ``__dict__``."""

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


class AlgebraPair(namedtuple("AlgebraPair", "mul bracket")):
    """A product and a bracket of one dimension, a record like
    ``StructureConstants``."""

    def __new__(cls, mul, bracket):
        if mul.dim != bracket.dim:
            raise DimensionMismatch("pair components have different dimensions")
        return tuple.__new__(cls, (mul, bracket))

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
    """The nonzero cells of ``values``, a ``_residual`` of a map: ((i, j),
    residual coordinate vector) for the instantiation at (e_i, e_j),
    1-based, in row-major order."""
    return [((i + 1, j + 1), cell) for i, plane in enumerate(unflatten(values, n, 3))
            for j, cell in enumerate(plane) if any(cell)]


def operator_matrix(sc, z, left=False):
    """Matrix of x -> x e_z (of x -> e_z x when ``left``); column c is the
    image of e_c, the layout ``_map_rows`` expects."""
    n = sc.dim
    if left:
        return [[sc.c[z][c][r] for c in range(n)] for r in range(n)]
    return [[sc.c[c][z][r] for c in range(n)] for r in range(n)]


@lru_cache(maxsize=None)
def _pattern(n):
    """The one statement of a phi(e_i e_j) + b phi(e_i) e_j + c e_i phi(e_j),
    row (i, j, k) per coordinate k, in the unknowns P[r][m] of phi (both in
    ``flatten`` order): for the tensor cell (p, q, s), one tuple per
    coefficient of the n (row, unknown) positions its value v reaches:
    a v at row (p, q, k), unknown P[k][s]; b v at row (i, q, s), unknown
    P[p][i]; c v at row (p, j, s), unknown P[q][j]."""
    return tuple(
        (tuple(((p * n + q) * n + m, m * n + s) for m in range(n)),
         tuple(((m * n + q) * n + s, p * n + m) for m in range(n)),
         tuple(((p * n + m) * n + s, q * n + m) for m in range(n)))
        for p, q, s in itertools.product(range(n), repeat=3))


def _map_rows(sc, a, b, c):
    """The n^3 rows of ``_pattern``, zero rows included, as coefficients
    in the n^2 unknowns of phi: the systems the solvers eliminate.  The
    delta-derivation condition is (1, -delta, -delta); the derived bracket
    D(x).y - x.D(y) is (0, 1, -1)."""
    n, field = sc.dim, sc.field
    coeffs, pattern = [field.coerce(x) for x in (a, b, c)], _pattern(n)
    rows = [[field.zero] * (n * n) for _ in range(n ** 3)]
    for p, q, s, v in sc.entries:
        for f, cells in zip(coeffs, pattern[(p * n + q) * n + s]):
            if f:
                fv = f * v
                for row, unknown in cells:
                    rows[row][unknown] += fv
    # products, and sums of them, can be integral Fractions (0 included); coerce stores an int
    return [[x if type(x) is int else field.coerce(x) for x in row] for row in rows]


def _residual(sc, mat, a, b, c):
    """The rows of ``_map_rows`` times the entries of the matrix ``mat``,
    gathered from the nonzero entries of both; no row is built."""
    n, field, zero = sc.dim, sc.field, sc.field.zero
    coeffs, pattern, phi = [field.coerce(x) for x in (a, b, c)], _pattern(n), flatten(mat)
    out = [zero] * (n ** 3)
    for p, q, s, v in sc.entries:
        for f, cells in zip(coeffs, pattern[(p * n + q) * n + s]):
            if f:
                fv = f * v
                for row, unknown in cells:
                    x = phi[unknown]
                    if x:
                        y = out[row]
                        out[row] = y + fv * x if y else fv * x
    return [field.coerce(x) if x else zero for x in out]


# ---------------------------------------------------------------------------
# basis transport / GL action
# ---------------------------------------------------------------------------

def _dot(xs, ys, zero):
    """sum x * y over the pairs where both are nonzero; ``zero`` if none."""
    out = zero
    for x, y in zip(xs, ys):
        if x and y:
            out = out + x * y if out else x * y
    return out


def _transport_sc(sc, g_cols, out_rows, den):
    """The tensor c'[i][j][k] = sum h[k][r] c[p][q][r] g[p][i] g[q][j] / den,
    g = ``g_cols`` and h = ``out_rows``, contracted one slot at a time: the
    first slot by g from the nonzero entries, then the second slot by g and
    the output slot by h, at most n^4 products each; each nonzero cell is
    then divided once by the integer ``den``.  Over Q the callers pass the
    integer numerator q g^{-1} where g^{-1} stands and a power of q as den,
    so an integer tensor moved by an integral g is built in ``int``
    arithmetic; over Q(t) den is 1 and each cell goes through
    ``field.coerce``.  Integral rationals are stored as ``int``."""
    n, field = sc.dim, sc.field
    zero = field.zero
    a = [[[zero] * n for _ in range(n)] for _ in range(n)]  # a[i][q][r]
    for p, q, r, v in sc.entries:
        for i, gpi in enumerate(g_cols[p]):
            if gpi:
                x = a[i][q][r]
                a[i][q][r] = x + gpi * v if x else gpi * v
    g_t = tuple(zip(*g_cols))
    div = field.coerce if den == 1 else lambda x: field.div(x, den) if x else zero
    out = []
    for plane in a:
        cols = tuple(zip(*plane))
        b = [[_dot(gj, col, zero) for col in cols] for gj in g_t]  # b[j][r]
        out.append(tuple(tuple(div(_dot(hk, bj, zero)) for hk in out_rows) for bj in b))
    return StructureConstants(n, field, tuple(out))


def _inverse(pair, g):
    """(g, q g^{-1}, q): g with its entries stored through ``field.coerce``
    (an integral rational as an ``int``), and g^{-1} from ``linalg.inv``
    split over Q as (p/q) M, M a primitive integer matrix, and returned as
    the integer matrix p M with its denominator q; over Q(t), q = 1.
    Refuses a g whose size is not the pair's dimension."""
    n, field = pair.dim, pair.field
    if len(g) != n:
        raise DimensionMismatch(f"change of basis of size {len(g)} for dimension {n}")
    g = [[field.coerce(x) for x in row] for row in g]
    g_inv = linalg.inv(g, field)
    if field is not QQ:
        return g, g_inv, 1
    p, q, m = _integral(flatten(g_inv))
    return g, unflatten([p * x for x in m], n), q


def transport(pair, g):
    """Rewrite both multiplications in the basis E_i = sum_j g[j][i] e_j.

    Columns of g are the new basis vectors in the old coordinates.  In
    action form this is g^{-1} mu(g x, g y), computed over Q as
    (q g^{-1}) mu(g x, g y) / q.  Raises SingularMatrix when det g = 0,
    and DimensionMismatch when g is not dim x dim.
    """
    g, num, q = _inverse(pair, g)
    return AlgebraPair(
        _transport_sc(pair.mul, g, num, q), _transport_sc(pair.bracket, g, num, q)
    )


def gl_action(pair, g):
    """The group action (g * mu)(x, y) = g mu(g^{-1} x, g^{-1} y).

    Equals transport along the inverse basis matrix, computed over Q as
    g mu(q g^{-1} x, q g^{-1} y) / q^2; the degeneration table's
    parametrized bases act through this map.  Raises as ``transport``
    does.
    """
    g, num, q = _inverse(pair, g)
    return AlgebraPair(
        _transport_sc(pair.mul, num, g, q * q), _transport_sc(pair.bracket, num, g, q * q)
    )


def pairs_equal(a, b):
    return a.mul.c == b.mul.c and a.bracket.c == b.bracket.c


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

#: ``violations`` holds ((indices), residual coordinate vector) items
IdentityReport = namedtuple("IdentityReport", "identity holds violations")


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


def _operator_identity(sc, coeffs, op_sc, left=False):
    """Violations of the (a, b, c) identity of ``sc`` at the operators
    x -> x e_z of ``op_sc`` (e_z x when ``left``), labelled (i, j, z)."""
    cells = [(ij + (z + 1,), r) for z in range(sc.dim) for ij, r in residual_cells(
        _residual(sc, operator_matrix(op_sc, z, left), *coeffs), sc.dim)]
    return sorted(cells, key=lambda cell: cell[0])


_IDENTITY_CHECKS = {
    "commutative": lambda p: _mirror(p.mul, -1, diagonal=False),
    # (x.y).z - x.(y.z): right multiplication by z in the identity (1, 0, -1)
    "associative": lambda p: _operator_identity(p.mul, (1, 0, -1), p.mul),
    "anticommutative": lambda p: _mirror(p.bracket, 1, diagonal=True),
    "jacobi": _jacobi,
    # 2 z.[x,y] - [z.x, y] - [x, z.y]: left multiplication by z in the
    # 1/2-derivation identity of the bracket, scaled by 2
    "transposed_leibniz": lambda p: _operator_identity(p.bracket, (2, -1, -1), p.mul, left=True),
    # [x.y, z] - [x,z].y - x.[y,z]: ad_z = [., z] in the derivation identity
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
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(
            isinstance(e, (list, tuple)) and len(e) == 4 for e in items):
        raise ValueError(f"{key!r} must be a list of [i, j, k, value] entries")
    for entry in items:
        if not all(type(x) is int and 1 <= x <= dim for x in entry[:3]):
            raise DimensionMismatch(f"entry index out of range in {key}: {excerpt_repr(entry)}")
    return items


def pair_from_json(doc):
    """Parse an algebra document, over Q(t) when any scalar names t and
    over Q otherwise; malformed documents raise ValueError
    (ScalarParseError for a bad scalar) with a one-line message."""
    if not isinstance(doc, dict):
        raise ValueError("an algebra document must be a JSON object")
    dim = doc.get("dim")
    if type(dim) is not int or not 1 <= dim <= 3:
        raise ValueError(f"dim must be an integer from 1 to 3, got {excerpt_repr(dim)}")
    items = {key: _json_entries(doc, key, dim) for key in ("mul", "bracket")}
    field = QQ_T if any("t" in str(e[3]) for es in items.values() for e in es) else QQ

    def sc_of(key):
        entries = [(i, j, k, field.parse(str(v))) for i, j, k, v in items[key]]
        return StructureConstants.from_entries(dim, entries, field=field)

    return AlgebraPair(sc_of("mul"), sc_of("bracket"))


def matrix_to_json(m, field):
    return [[field.format(v) for v in row] for row in m]


def matrix_from_json(rows):
    if not isinstance(rows, (list, tuple)) or not rows or not all(
            isinstance(r, (list, tuple)) and len(r) == len(rows) for r in rows):
        raise ValueError("a matrix must be a non-empty square list of rows")
    return [[QQ.parse(str(v)) for v in row] for row in rows]
