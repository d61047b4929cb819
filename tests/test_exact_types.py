"""Q values are exact and canonical: an int when integral, else a Fraction.

A walk over the outputs of the layers that compute over Q (linalg,
transport, the derivation solvers) and of the CLI documents built from
them, and over the coefficients of the Q(t) values that the degeneration
curves produce, which take the same form.  A float anywhere, or an
integral Fraction, fails the walk.  That the textbook elimination loop
returns the fraction-free rref's entries, types included, is tested in
test_linalg.
"""

import contextlib
import io
import json
from fractions import Fraction as F
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from tpa import linalg
from tpa.algebra import flatten, gl_action, limit_pair, pair_to_json, transport
from tpa.catalog import t_series_samples
from tpa.cli import main
from tpa.degeneration import load_rows
from tpa.derivations import half_biderivations, pair_derivations
from tpa.scalars import QQ, QQ_T, Diverges, RatFunc, limit_at_zero

from test_linalg import textbook_rref


def leaves(x):
    """The scalars of a nest of lists and tuples."""
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from leaves(y)
    else:
        yield x


def assert_q_values(x):
    for v in leaves(x):
        assert type(v) in (int, F), repr(v)
        assert type(v) is int or v.denominator != 1, repr(v)


#: ints, and Fractions that may be integral: inputs need not be canonical
entries = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-9, max_value=9, max_denominator=12))


def matrices(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


shapes = st.tuples(st.integers(1, 6), st.integers(1, 7))


@settings(max_examples=80, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(matrices(*s), st.lists(
    entries, min_size=s[0], max_size=s[0]))))
def test_linalg_outputs_are_q_values(case):
    m, rhs = case
    ncols = len(m[0])
    assert_q_values(linalg.rref(m, QQ)[0])
    assert_q_values(textbook_rref(m, QQ)[0])  # the reference loop run over Q
    assert_q_values(linalg.nullspace(m, ncols, QQ))
    x = linalg.solve(m, rhs, QQ)
    if x is not None:
        assert_q_values(x)
    square = [row[:len(m)] for row in m] if ncols >= len(m) else m[:ncols]
    d = linalg.det(square, QQ)
    assert_q_values([d])
    if d:
        assert_q_values(linalg.inv(square, QQ))


@st.composite
def transported_samples(draw):
    """A T-series sample in a basis drawn by hypothesis (entries may be
    non-integral, so the inverse has large denominators)."""
    _, _, pair = draw(st.sampled_from(t_series_samples()))
    g = [[draw(entries) for _ in range(3)] for _ in range(3)]
    assume(linalg.det(g, QQ))
    return pair, transport(pair, g)


@settings(max_examples=25, deadline=None)
@given(transported_samples())
def test_transport_and_solver_outputs_are_q_values(pairs):
    for pair in pairs:
        assert_q_values([pair.mul.c, pair.bracket.c])
        assert_q_values(pair_derivations(pair).basis)
        assert_q_values(half_biderivations(pair.bracket).basis)
        assert_q_values(half_biderivations(pair.bracket, symmetric=False).basis)


def run_cli(argv, stdin):
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def json_leaves(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from json_leaves(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from json_leaves(v)
    else:
        yield doc


def assert_scalar_strings(strings):
    """Each string is the canonical text of a Q value."""
    for s in strings:
        v = QQ.parse(s)
        assert_q_values([v])
        assert QQ.format(v) == s


@settings(max_examples=15, deadline=None)
@given(transported_samples(), st.sampled_from(["1", "1/2", "-2/3"]))
def test_der_and_check_documents_hold_no_float(pairs, delta):
    _, pair = pairs
    text = json.dumps(pair_to_json(pair))
    code, doc = run_cli(["der", "--input", "-", f"--delta={delta}"], text)
    assert code == 0
    assert not any(isinstance(v, float) for v in json_leaves(doc))
    assert_scalar_strings([doc["delta"], *leaves(doc["basis"])])
    code, doc = run_cli(["check", "--input", "-"], text)
    assert code == 0
    assert all(isinstance(v, bool) for v in json_leaves(doc))


def assert_qt_values(x):
    """Each leaf is a RatFunc whose coefficients are Q values."""
    for v in leaves(x):
        assert type(v) is RatFunc, repr(v)
        assert_q_values(v.num + v.den)


@st.composite
def unimodular(draw):
    """A 3x3 integer matrix of determinant +-1, over Q(t): a signed
    permutation times unit lower and upper triangular factors."""
    def triangular(below):
        return [[1 if i == j else draw(st.integers(-2, 2)) if (i > j) == below else 0
                 for j in range(3)] for i in range(3)]
    perm = draw(st.permutations(range(3)))
    signed = [[draw(st.sampled_from((-1, 1))) if perm[i] == j else 0 for j in range(3)]
              for i in range(3)]
    m = linalg.mat_mul(signed, linalg.mat_mul(triangular(True), triangular(False)))
    return [[QQ_T.coerce(x) for x in row] for row in m]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(load_rows()), unimodular(), unimodular())
def test_degeneration_curve_outputs_are_canonical(inst, k, h):
    """A table curve conjugated to k.g(t).h, acting on the source moved by h."""
    curve = linalg.mat_mul(linalg.mat_mul(k, inst.g_matrix()), h)
    acted = gl_action(transport(inst.source_pair(), h), curve)
    cells = flatten(acted.mul.c) + flatten(acted.bracket.c)
    assert_qt_values([curve, cells])
    assert_qt_values(linalg.inv(curve, QQ_T))
    assert_qt_values([linalg.det(curve, QQ_T)])
    # row z holds the e_z coordinates of the nine products: 3 x 9, so the
    # rref has non-pivot columns
    c = acted.mul.c
    wide = [[c[i][j][z] for i in range(3) for j in range(3)] for z in range(3)]
    assert_qt_values(linalg.rref(wide, QQ_T)[0])
    entries = [v for row in curve for v in row] + [v for v in cells if v]
    assert_qt_values([QQ_T.parse(QQ_T.format(v)) for v in entries])  # parse_ratfunc
    for a, b in zip(entries, entries[1:]):
        assert_qt_values([a + b, a - b, a * b, a * 3, a / 2] + ([a / b] if b else []))
    limit = limit_pair(acted)
    assert_q_values([limit.mul.c, limit.bracket.c, [limit_at_zero(v) for v in cells]])
    for v in entries:
        try:
            assert_q_values([v.limit_at_zero()])
        except Diverges:
            pass
    assert_q_values(inst.t_samples())
