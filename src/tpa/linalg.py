"""Exact linear algebra over Q or Q(t).

Matrices are lists of row lists whose entries all live in one scalar
field (see scalars.QQ / scalars.QQ_T).  Elimination uses first-nonzero
pivoting and normalises pivots to 1, so ranks, solutions and nullspace
bases are reproducible across runs.

``rref`` over Q clears denominators and eliminates with integer row
operations, dividing by pivots only at the end; over Q(t) it runs the
generic field loop.  Both give the one reduced row echelon form, so
every function built on ``rref`` returns the same result either way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import QQ


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
    """Reduced row echelon form.  Returns (matrix, pivot column list)."""
    if field is QQ:
        return _rref_integer(rows)
    return _rref_generic(rows, field)


def _rref_integer(rows):
    """rref over Q by fraction-free elimination.

    Each row is scaled to a primitive integer row (denominators cleared,
    content divided out), and stays a nonzero multiple of the row the
    generic loop would hold.  Zero patterns, and so pivots and swaps, are
    therefore the same, and dividing each pivot row by its pivot at the
    end gives the same matrix."""
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                g = gcd(prow[c], f)
                a, b = prow[c] // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    zero = QQ.zero
    red = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(m, pivots)]
    red += [[zero] * ncols for _ in range(len(m) - r)]
    return red, pivots


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_generic(rows, field):
    """rref over any field: the reference loop, and the Q(t) path."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != field.one:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows, field):
    if not rows:
        return 0
    return len(rref(rows, field)[1])


def nullspace(rows, ncols, field):
    """Basis of {x : rows @ x = 0}, each vector scaled so its first
    nonzero coordinate is 1.  Free coordinates are taken in increasing
    index order, which makes the basis deterministic."""
    if not rows:
        rows = [[field.zero] * ncols]
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
            v = [x / first for x in v]
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
    n = len(a)
    m = [list(r) for r in a]
    out = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out = out * m[c][c]
        pv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def span_dim(vectors, field):
    """Dimension of the span of a list of coordinate vectors."""
    vecs = [v for v in vectors if any(x for x in v)]
    if not vecs:
        return 0
    return rank(vecs, field)


def in_span(vectors, target, field):
    """Whether target lies in the span of vectors; returns coords or None."""
    if not vectors:
        return None if any(x for x in target) else []
    cols = transpose(vectors)
    return solve(cols, target, field)
