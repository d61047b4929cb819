"""Exact linear algebra over Q or Q(t).

Matrices are lists of row lists whose entries all live in one scalar
field (see scalars.QQ / scalars.QQ_T).  Elimination uses first-nonzero
pivoting and normalises pivots to 1, so ranks, solutions and nullspace
bases are reproducible across runs.

Every division goes through the field's ``div``, which is exact and never
returns a float (``int / int`` is one); over Q it returns an ``int`` for
an integral quotient.  ``rref`` is one fraction-free loop for both
fields: rows are combined without division and each pivot row is divided
by its pivot once, at the end.  Over Q the rows are primitive integer
rows; over Q(t) they are rows of rational functions.  The result is the
one reduced row echelon form either way.
"""

from __future__ import annotations

from math import gcd

from .scalars import QQ, _integral


class SingularMatrix(ValueError):
    """Raised when a matrix that must be invertible is not."""


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


def identity(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if len(b) != len(a[0]):
        raise DimensionMismatch("matrix product shape mismatch")
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, len(b))), a[i][0] * b[0][j])
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_vec(a, v):
    if len(v) != len(a[0]):
        raise DimensionMismatch("matrix/vector shape mismatch")
    return [
        sum((a[i][k] * v[k] for k in range(1, len(v))), a[i][0] * v[0])
        for i in range(len(a))
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(rows, field):
    """Reduced row echelon form.  Returns (matrix, pivot column list).

    Fraction-free Gauss-Jordan: each step replaces a row by
    a*row - b*pivot_row, and each pivot row is divided by its pivot once,
    at the end.  Every row stays a nonzero multiple of the row the
    textbook loop (normalise the pivot, then subtract) would hold, so the
    pivots and the reduced form are the same.  Zero rows change neither,
    so they are set aside first and come back as the bottom rows."""
    m = [_integral(row)[2] if field is QQ else list(row) for row in rows if any(row)]
    step = _integer_step if field is QQ else _field_step
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = step(row, prow, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    div, zero = field.div, field.zero
    red = [[div(x, row[c]) if x else zero for x in row] for row, c in zip(m, pivots)]
    return red + [[zero] * ncols for _ in range(len(rows) - r)], pivots


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_step(row, prow, c):
    """a*row - b*prow over Z, with a, b the pivot and the entry divided by
    their gcd, as a primitive row."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    return _primitive([a * x - b * y for x, y in zip(row, prow)])


def _field_step(row, prow, c):
    """a*row - b*prow with a, b the pivot and the entry: over Q(t), Laurent
    entries stay Laurent until the final division.  A zero in prow costs
    one product, not two and a difference."""
    a, b = prow[c], row[c]
    return [a * x - b * y if y else a * x for x, y in zip(row, prow)]


def rank(rows, field):
    return len(rref(rows, field)[1])


def nullspace(rows, ncols, field):
    """Basis of {x : rows @ x = 0}, each vector scaled so its first
    nonzero coordinate is 1.  Free coordinates are taken in increasing
    index order, which makes the basis deterministic."""
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        first = next(x for x in v if x)
        if first != field.one:
            v = [field.div(x, first) for x in v]
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """One solution of rows @ x = rhs, or None if inconsistent.

    Free coordinates are set to zero."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inv(a, field):
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = [list(r) + ident for r, ident in zip(a, identity(n, field))]
    red, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in red]


def det(a, field):
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22
    (1968)): each step replaces the entry (i, j) below and right of the
    pivot by the 2x2 minor pivot*m[i][j] - m[i][c]*m[c][j] divided
    exactly, through ``field.div``, by the previous pivot.  Every entry is
    then a minor of ``a``, so integer matrices stay integer and Laurent
    entries stay Laurent; the last pivot is the determinant."""
    n = len(a)
    m = [list(r) for r in a]
    sign, prev = 1, field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv, prow = m[c][c], m[c]
        for i in range(c + 1, n):
            row, x = m[i], m[i][c]
            new = [pv * row[j] - x * prow[j] for j in range(c + 1, n)]
            m[i][c + 1:] = [field.div(v, prev) for v in new] if c else new
        prev = pv
    return field.coerce(prev if sign > 0 else -prev)


def span_dim(vectors, field):
    """Dimension of the span of a list of coordinate vectors."""
    return rank(vectors, field)


def in_span(vectors, target, field):
    """Whether target lies in the span of vectors; returns coords or None."""
    if not vectors:
        return None if any(x for x in target) else []
    cols = transpose(vectors)
    return solve(cols, target, field)
