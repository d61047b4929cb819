from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tpa import linalg
from tpa.catalog import t_series_samples
from tpa.derivations import pair_derivations
from tpa.linalg import SingularMatrix
from tpa.scalars import QQ, QQ_T, RatFunc, T, _integral


def textbook_rref(rows, field):
    """The textbook Gauss-Jordan loop over any field: normalise each pivot
    row, then subtract it from every other row.  The reference for the
    fraction-free ``linalg.rref``."""
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
            m[r] = [field.div(x, pv) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    # row operations can leave an integral Fraction over Q; coerce stores it as int
    return [[field.coerce(x) for x in row] for row in m], pivots


def textbook_nullspace(rows, ncols, field):
    """The nullspace read off ``textbook_rref``: for each free column, the
    vector that is 1 there and minus that column of the reduced form at the
    pivot columns, divided by its first nonzero coordinate.  The reference
    for ``linalg.nullspace``."""
    red, pivots = textbook_rref(rows, field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        first = next(x for x in v if x)
        basis.append([field.div(x, first) for x in v])
    return basis


def textbook_solve(rows, rhs, field):
    """The solution read off ``textbook_rref`` of the augmented matrix, free
    coordinates zero, or None.  The reference for ``linalg.solve``."""
    ncols = len(rows[0])
    red, pivots = textbook_rref([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def typed(answer):
    """An answer with each scalar paired with its type, so that equal
    answers of different scalar types compare unequal."""
    if isinstance(answer, list):
        return [typed(x) for x in answer]
    return answer if answer is None else (type(answer), answer)


def dividing_det(a, field):
    """The dividing forward loop ``linalg.det`` ran before Bareiss: each
    row below the pivot loses its multiple pivot_row * (entry / pivot).
    The reference for the fraction-free ``linalg.det``."""
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
                f = field.div(m[i][c], pv)
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return field.coerce(out)


def test_rref_and_rank():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    red, pivots = linalg.rref(m, QQ)
    assert pivots == [0, 1]
    assert linalg.rank(m, QQ) == 2


def test_nullspace_matches_rank():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    ns = linalg.nullspace(m, 3, QQ)
    assert len(ns) == 3 - linalg.rank(m, QQ)
    for v in ns:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in m)
        first = next(x for x in v if x)
        assert first == 1  # deterministic normalization


def test_rank_equals_transpose_rank():
    # the independent cross-check used throughout for solution-space dims
    m = [[F(1), F(2)], [F(3), F(4)], [F(5), F(6)], [F(1), F(1)]]
    assert linalg.rank(m, QQ) == linalg.rank(linalg.transpose(m), QQ)


def test_solve_consistent_and_inconsistent():
    a = [[F(1), F(1)], [F(1), F(-1)]]
    x = linalg.solve(a, [F(3), F(1)], QQ)
    assert x == [F(2), F(1)]
    b = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(b, [F(1), F(3)], QQ) is None


def test_inverse():
    a = [[F(2), F(1)], [F(1), F(1)]]
    ai = linalg.inv(a, QQ)
    assert linalg.mat_mul(a, ai) == linalg.identity(2, QQ)
    with pytest.raises(SingularMatrix):
        linalg.inv([[F(1), F(2)], [F(2), F(4)]], QQ)


def test_det():
    assert linalg.det([[F(2), F(1)], [F(1), F(1)]], QQ) == F(1)
    assert linalg.det([[F(1), F(2)], [F(2), F(4)]], QQ) == F(0)
    # antisymmetry under a row swap
    assert linalg.det([[F(0), F(1)], [F(1), F(0)]], QQ) == F(-1)


def test_rational_function_elimination():
    # over Q(t) rref combines rows of rational functions without dividing
    g = [[T, QQ_T.one, QQ_T.zero],
         [QQ_T.zero, T + 2, QQ_T.zero],
         [QQ_T.zero, QQ_T.zero, QQ_T.one]]
    gi = linalg.inv(g, QQ_T)
    assert linalg.mat_mul(g, gi) == linalg.identity(3, QQ_T)
    assert linalg.det(g, QQ_T) == T * (T + 2)


def test_span_and_membership():
    vs = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert linalg.span_dim(vs, QQ) == 2
    assert linalg.in_span(vs, [F(2), F(3), F(5)], QQ) == [F(2), F(3)]
    assert linalg.in_span(vs, [F(0), F(0), F(1)], QQ) is None


# -- the fraction-free rref against the textbook loop and sympy -------------

entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


#: the factors of rescaled row copies; -1 makes a negated copy
scales = st.one_of(st.just(-1), st.fractions(min_value=-9, max_value=9,
                                             max_denominator=12).filter(bool))


@st.composite
def matrices(draw, entries, zero, shape):
    """Matrices over one field with entries drawn from entries; rows past
    the first drawn ones are zero rows, combinations of earlier rows, or
    negated or rescaled copies of one, shuffled in, so ranks fall short
    and rows repeat up to a factor."""
    nrows, ncols = draw(shape)
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=nrows))
    while len(rows) < nrows:
        kind = draw(st.sampled_from(["zero", "combination", "copy"]))
        if kind == "zero":
            rows.append([zero] * ncols)
        elif kind == "combination":
            a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            x, y = draw(entries), draw(entries)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            a, x = draw(st.sampled_from(rows)), draw(scales)
            rows.append([u * x for u in a])
    return draw(st.permutations(rows))


def rational_matrices(shape=st.tuples(st.integers(1, 8), st.integers(1, 10))):
    """Q matrices (up to 8x10 by default) with mixed denominators."""
    return matrices(entries, F(0), shape)


def square(matrices_of_shape, max_n):
    return matrices_of_shape(st.integers(1, max_n).map(lambda n: (n, n)))


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_integer_rref_matches_generic_loop(m):
    # over Q the textbook loop divides through QQ.div and stores integral
    # results as int, so it returns the fraction-free loop's matrix entry
    # for entry, type included
    generic = textbook_rref(m, QQ)
    assert linalg.rref(m, QQ) == generic
    assert [[type(x) for x in row] for row in linalg.rref(m, QQ)[0]] == \
        [[type(x) for x in row] for row in generic[0]]


def _sympy_matrix(sympy, m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in m])


def _from_sympy(x):
    return F(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_rref_rank_and_nullspace_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = _sympy_matrix(sympy, m)
    red, pivots = sm.rref()
    assert linalg.rref(m, QQ) == ([[_from_sympy(x) for x in r] for r in red.tolist()],
                                  list(pivots))
    assert linalg.rank(m, QQ) == sm.rank()
    ours = linalg.nullspace(m, len(m[0]), QQ)
    theirs = [[_from_sympy(x) for x in v] for v in sm.nullspace()]
    # sympy sets each free coordinate to 1; ours scales the first nonzero to 1
    assert ours == [[x / next(y for y in v if y) for x in v] for v in theirs]


@settings(max_examples=150, deadline=None)
@given(square(rational_matrices, 5))
def test_det_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    ours = linalg.det(m, QQ)
    assert ours == _from_sympy(_sympy_matrix(sympy, m).det())
    assert type(ours) is (int if ours.denominator == 1 else F)
    # an integer matrix keeps every Bareiss entry an integer minor
    ints = [[x.numerator for x in row] for row in m]
    assert type(linalg.det(ints, QQ)) is int


@settings(max_examples=60, deadline=None)
@given(square(rational_matrices, 6))
def test_inverse_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = _sympy_matrix(sympy, m)
    if sm.det() == 0:
        with pytest.raises(SingularMatrix):
            linalg.inv(m, QQ)
    else:
        assert linalg.inv(m, QQ) == [[_from_sympy(x) for x in r] for r in sm.inv().tolist()]


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.booleans(), st.data())
def test_rank_nullspace_and_solve_match_textbook_loop(m, consistent, data):
    # answers read off the undivided echelon form equal those read off the
    # textbook loop's reduced form, value and type, whichever rows repeat
    nrows, ncols = len(m), len(m[0])
    vector = st.lists(entries, min_size=ncols, max_size=ncols)
    rhs = linalg.mat_vec(m, data.draw(vector)) if consistent else \
        data.draw(st.lists(entries, min_size=nrows, max_size=nrows))
    assert linalg.rank(m, QQ) == len(textbook_rref(m, QQ)[1])
    assert typed(linalg.nullspace(m, ncols, QQ)) == typed(textbook_nullspace(m, ncols, QQ))
    assert typed(linalg.solve(m, rhs, QQ)) == typed(textbook_solve(m, rhs, QQ))
    if consistent:
        assert linalg.solve(m, rhs, QQ) is not None


def reference_distinct_primitive(rows):
    """The normal form of ``linalg._distinct_primitive`` taken row by row:
    every nonzero row through ``_integral`` and the sign of its first
    nonzero entry, then the first of each repeat.  The oracle below."""
    primitive = (_integral(row)[2] for row in rows if any(row))
    return list(dict.fromkeys(tuple(p) if next(filter(None, p)) > 0 else tuple(-x for x in p)
                              for p in primitive))


@st.composite
def repeating_rows(draw):
    """All-int rows or rows with Fractions, with exact, negated and scaled
    copies and zero rows shuffled in."""
    ncols = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([st.integers(-12, 12), entries]))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    for kind in draw(st.lists(st.sampled_from(["exact", "negated", "int", "scaled", "zero"]),
                              max_size=10)):
        row = draw(st.sampled_from(rows))
        factor = {"exact": 1, "negated": -1, "int": draw(st.integers(2, 5)),
                  "scaled": draw(scales), "zero": 0}[kind]
        rows.append(list(row) if kind == "exact" else [x * factor for x in row])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(repeating_rows())
def test_distinct_primitive_matches_reference(rows):
    # the same rows, of the same scalar types, in the same order
    got = linalg._distinct_primitive(rows)
    assert [typed(list(r)) for r in got] == [typed(list(r)) for r in
                                             reference_distinct_primitive(rows)]


def test_t_series_derivations_identical_under_generic_loop():
    samples = t_series_samples()
    assert len(samples) == 70
    for _, _, pair in samples:
        space = pair_derivations(pair)
        reference = textbook_nullspace(space.rows, space.nunknowns, space.field)
        assert space.dim == len(reference)
        assert typed([list(v) for v in space.vectors]) == typed(reference)


# -- the fraction-free rref over Q(t) against the textbook loop and sympy ----

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero_small = small.filter(bool)


@st.composite
def qt_entries(draw):
    """Zero, a monomial c*t^k (k may be negative), a polynomial, or a
    quotient whose denominator is not a power of t, such as (1 + t)/(2 - t)."""
    kind = draw(st.sampled_from(["zero", "monomial", "polynomial", "quotient"]))
    if kind == "zero":
        return QQ_T.zero
    if kind == "monomial":
        c, k = draw(nonzero_small), draw(st.integers(-2, 2))
        return RatFunc([0] * k + [c]) if k >= 0 else RatFunc([c], [0] * -k + [1])
    num = draw(st.lists(small, min_size=1, max_size=3))
    if kind == "polynomial":
        return RatFunc(num)
    return RatFunc(num, [draw(nonzero_small), draw(nonzero_small)])


def qt_matrices(shape=st.tuples(st.integers(1, 4), st.integers(1, 5))):
    return matrices(qt_entries(), QQ_T.zero, shape)


def _inv_or_none(m, field):
    try:
        return linalg.inv(m, field)
    except SingularMatrix:
        return None


@settings(max_examples=60, deadline=None)
@given(qt_matrices(), square(qt_matrices, 4))
def test_qt_elimination_matches_textbook_loop(m, sq):
    red, pivots = linalg.rref(m, QQ_T)
    assert all(type(x) is RatFunc for row in red for x in row)
    ncols = len(m[0])
    answers = (linalg.rank(m, QQ_T), linalg.nullspace(m, ncols, QQ_T), _inv_or_none(sq, QQ_T))
    assert answers[0] == len(textbook_rref(m, QQ_T)[1])
    assert typed(answers[1]) == typed(textbook_nullspace(m, ncols, QQ_T))
    with mock.patch.object(linalg, "rref", textbook_rref):  # inv reads rref
        assert (red, pivots) == linalg.rref(m, QQ_T)
        assert answers[2] == _inv_or_none(sq, QQ_T)
    assert answers[0] == len(pivots) == ncols - len(answers[1])
    assert all(not any(linalg.mat_vec(m, v)) for v in answers[1])
    if answers[2] is not None:
        assert linalg.mat_mul(sq, answers[2]) == linalg.identity(len(sq), QQ_T)


def _sympy_ratfunc(sympy, t, x):
    def poly(cs):
        return sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(cs))
    return poly(x.num) / poly(x.den)


@settings(max_examples=80, deadline=None)
@given(square(qt_matrices, 4))
def test_qt_det_matches_dividing_loop(m):
    ours = linalg.det(m, QQ_T)
    assert type(ours) is RatFunc
    assert ours == dividing_det(m, QQ_T)


def test_laurent_det_stays_laurent():
    # exact division by the previous pivot: every entry is a minor, so a
    # Laurent matrix never forms a quotient by a non-monomial
    from tpa.scalars import _tpow

    g = [[T, 1 + T, 0], [1 / T, T + 2, T * T], [1, 3 * T, 1 - T]]
    g = [[QQ_T.coerce(x) for x in row] for row in g]
    quotients = []

    def div(a, b):
        quotients.append(QQ_T.__class__.div(a, b))
        return quotients[-1]

    with mock.patch.object(QQ_T, "div", div):
        d = linalg.det(g, QQ_T)
    assert d == dividing_det(g, QQ_T)
    assert quotients and all(_tpow(q.den) is not None for q in quotients)


@settings(max_examples=40, deadline=None)
@given(qt_matrices())
def test_qt_rref_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    dm = DomainMatrix.from_Matrix(
        sympy.Matrix([[_sympy_ratfunc(sympy, t, x) for x in r] for r in m])).to_field()
    red, pivots = dm.rref()
    ours, our_pivots = linalg.rref(m, QQ_T)
    assert our_pivots == list(pivots)
    assert linalg.rank(m, QQ_T) == dm.rank()
    k = dm.domain
    assert [[k.from_sympy(_sympy_ratfunc(sympy, t, x)) for x in row] for row in ours] == \
        red.to_list()

@pytest.mark.parametrize("op", [
    lambda f: linalg.inv([[2, 0], [0, 1]], f),
    lambda f: [[linalg.det([[2, 1], [1, 1]], f)]],
    lambda f: linalg.nullspace([[2, 1]], 2, f),
    lambda f: [linalg.solve([[2, 1]], [1], f)],
], ids=["inv", "det", "nullspace", "solve"])
def test_qt_answers_on_rational_entries_equal_q_answers(op):
    # QQ_T.div lifts the dividend, so two plain rationals divide to a RatFunc
    ours = op(QQ_T)
    assert ours == op(QQ)
    assert all(type(x) is RatFunc for row in ours for x in row)
