from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tpa import linalg
from tpa.catalog import t_series_samples
from tpa.derivations import pair_derivations
from tpa.linalg import SingularMatrix
from tpa.scalars import QQ, QQ_T, T


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
    # Q(t) has no integer form: rref runs the generic field loop here
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


# -- the integer kernel for Q against the generic loop and sympy -------------

entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def rational_matrices(draw, shape=None):
    """Q matrices (up to 8x10 unless shape is given) with mixed denominators;
    extra rows are zero rows or combinations of earlier rows, shuffled in,
    so ranks fall short."""
    nrows, ncols = shape or (draw(st.integers(1, 8)), draw(st.integers(1, 10)))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=nrows))
    while len(rows) < nrows:
        if draw(st.booleans()):
            rows.append([F(0)] * ncols)
        else:
            a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            x, y = draw(entries), draw(entries)
            rows.append([x * u + y * v for u, v in zip(a, b)])
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_integer_rref_matches_generic_loop(m):
    # over Q the generic loop divides through QQ.div and stores integral
    # results as int, so it returns the integer kernel's matrix entry for
    # entry, type included
    generic = linalg._rref_generic(m, QQ)
    assert linalg.rref(m, QQ) == generic
    assert [[type(x) for x in row] for row in linalg._rref_integer(m)[0]] == \
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: rational_matrices((n, n))))
def test_inverse_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = _sympy_matrix(sympy, m)
    if sm.det() == 0:
        with pytest.raises(SingularMatrix):
            linalg.inv(m, QQ)
    else:
        assert linalg.inv(m, QQ) == [[_from_sympy(x) for x in r] for r in sm.inv().tolist()]


def test_t_series_derivations_identical_under_generic_loop(monkeypatch):
    samples = t_series_samples()
    assert len(samples) == 70
    fast = [pair_derivations(pair).basis for _, _, pair in samples]
    monkeypatch.setattr(linalg, "rref", linalg._rref_generic)
    assert [pair_derivations(pair).basis for _, _, pair in samples] == fast
