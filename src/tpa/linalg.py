"""Exact linear algebra over Q or Q(t).

Matrices are lists of row lists whose entries all live in one scalar
field (see scalars.QQ / scalars.QQ_T).  Elimination uses first-nonzero
pivoting and normalises pivots to 1, so ranks, solutions and nullspace
bases are reproducible across runs.

Every division goes through the field's ``div``, which is exact and never
returns a float (``int / int`` is one); over Q it returns an ``int`` for
an integral quotient.  ``echelon`` is the one elimination loop for both
fields (primitive integer rows over Q, rational functions over Q(t)), and
it never divides.  Each answer divides only what it returns: ``rank`` and
``span_dim`` count pivots, ``nullspace`` divides once per coordinate,
``solve`` once per pivot, ``rref`` and ``inv`` each pivot row.
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


def echelon(rows, field):
    """Fraction-free Gauss-Jordan elimination: (the undivided pivot rows,
    their pivot columns).  Each step replaces a row by a*row - b*pivot_row,
    so each row stays a nonzero multiple of the textbook loop's row: row r
    divided by its entry in column pivots[r] is row r of the reduced form.
    That form is unique, so zero rows are dropped first, and over Q rows
    that repeat up to a factor."""
    if field is QQ:
        m, step = _distinct_primitive(rows), _integer_step
    else:
        m, step = [list(row) for row in rows if any(row)], _field_step
    pivots = []
    for c in range(len(rows[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = step(row, prow, c)
        pivots.append(c)
        if r + 1 == len(m):
            break
    return m[:len(pivots)], pivots


def _distinct_primitive(rows):
    """The nonzero rows of a Q matrix as primitive integer rows with a
    positive first nonzero entry, each once.  Exact repeats go first, at C
    speed; an ``int`` row is divided by its signed gcd directly."""
    out = []
    for row in dict.fromkeys(map(tuple, rows)):
        try:
            g = gcd(*row)
        except TypeError:  # a Fraction entry
            if not any(row):
                continue
            row, g = tuple(_integral(row)[2]), 1
        if g:  # 0 for a zero row
            if next(filter(None, row)) < 0:
                g = -g
            out.append(row if g == 1 else tuple(x // g for x in row))
    return list(dict.fromkeys(out))


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
    entries stay Laurent until a division.  A zero in prow costs one
    product, not two and a difference."""
    a, b = prow[c], row[c]
    return [a * x - b * y if y else a * x for x, y in zip(row, prow)]


def rref(rows, field):
    """Reduced row echelon form: (the ``echelon`` rows divided by their
    pivots and zero rows up to the row count of ``rows``, the pivots)."""
    m, pivots = echelon(rows, field)
    div, zero = field.div, field.zero
    red = [[div(x, row[c]) if x else zero for x in row] for row, c in zip(m, pivots)]
    ncols = len(rows[0]) if rows else 0
    return red + [[zero] * ncols for _ in range(len(rows) - len(red))], pivots


def rank(rows, field):
    return len(echelon(rows, field)[1])


def nullspace(rows, ncols, field):
    """Basis of {x : rows @ x = 0}, each vector scaled so its first
    nonzero coordinate is 1.  Free coordinates are taken in increasing
    index order, which makes the basis deterministic."""
    return kernel(echelon(rows, field), ncols, field)


def kernel(form, ncols, field):
    """``nullspace`` read off an ``echelon`` form.  The vector of free column
    f is 1 at f and -row[f] / row[pc] at each pivot column pc; dividing it
    by its first nonzero coordinate, -a/b from the first row with
    row[f] != 0 (else a, b = -1, 1), takes one ``field.div`` per entry."""
    m, pivots = form
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        lead = next((r for r, row in enumerate(m) if row[f]), len(m))
        a, b = (m[lead][f], m[lead][pivots[lead]]) if lead < len(m) else (-1, 1)
        v = [field.zero] * ncols
        for row, pc in zip(m[lead:], pivots[lead:]):
            if row[f]:
                v[pc] = field.div(row[f] * b, row[pc] * a)
        v[f] = field.div(-b, a)
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """One solution of rows @ x = rhs, free coordinates zero, or None if
    inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    m, pivots = echelon([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for row, pc in zip(m, pivots):
        x[pc] = field.div(row[ncols], row[pc])
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
