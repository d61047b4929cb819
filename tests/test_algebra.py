import copy
import json
import pickle
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tpa import algebra, linalg
from tpa.algebra import (
    IDENTITIES,
    AlgebraPair,
    StructureConstants,
    _map_rows,
    check_identity,
    flatten,
    gl_action,
    is_poisson,
    is_transposed_poisson,
    limit_pair,
    operator_matrix,
    pair_from_json,
    pair_to_json,
    pairs_equal,
    transport,
    unflatten,
)
from tpa.catalog import CATALOG, instantiate, sample_params, t_series_samples
from tpa.derivations import delta_derivations, derivation_residual
from tpa.dspecial import commutator_bracket, derived_bracket
from tpa.linalg import DimensionMismatch, SingularMatrix, det, identity
from tpa.scalars import QQ, QQ_T, Diverges, _integral, limit_at_zero


def basis(k, n=3):
    return [QQ.one if i == k else QQ.zero for i in range(n)]


def test_evaluate_t29():
    t29 = instantiate("T29")  # e1.e2 = e3
    assert t29.mul.evaluate(basis(0), basis(1)) == [F(0), F(0), F(1)]
    assert t29.mul.evaluate([F(0)] * 3, basis(1)) == [F(0)] * 3


def test_evaluate_sl2():
    sl2 = instantiate("sl2")
    assert sl2.bracket.evaluate(basis(1), basis(2)) == [F(1), F(0), F(0)]


def test_evaluate_dimension_mismatch():
    t29 = instantiate("T29")
    with pytest.raises(DimensionMismatch):
        t29.mul.evaluate([F(1), F(0)], basis(1))


def test_transport_identity_is_noop():
    pair = instantiate("T05")
    assert pairs_equal(transport(pair, identity(3, QQ)), pair)


def test_transport_diagonal_t29():
    # rescaling e1, e2, e3 by a, b, c sends the coefficient of e1.e2 = e3
    # to ab/c; frozen at (2, 3, 5)
    t29 = instantiate("T29")
    g = [[F(2), 0, 0], [0, F(3), 0], [0, 0, F(5)]]
    g = [[QQ.coerce(v) for v in row] for row in g]
    moved = transport(t29, g)
    assert moved.mul.c[0][1][2] == F(6, 5)


def test_transport_t09_parameter_inversion():
    # the classification's change of basis sends (alpha, beta) = (1/2, 1/2)
    # to (2, 1): E1 = e1, E2 = e1 + 2 e2, E3 = 2 e3
    src = instantiate("T09", [F(1, 2), F(1, 2)])
    tgt = instantiate("T09", [F(2), F(1)])
    g = [[F(1), F(1), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(2)]]
    assert pairs_equal(transport(src, g), tgt)


def test_transport_composition():
    pair = instantiate("T17", [F(2)])
    g = [[F(1), F(1), F(0)], [F(0), F(1), F(2)], [F(1), F(0), F(1)]]
    h = [[F(2), F(0), F(1)], [F(0), F(1), F(0)], [F(0), F(3), F(1)]]
    from tpa.linalg import mat_mul

    lhs = transport(transport(pair, g), h)
    rhs = transport(pair, mat_mul(g, h))
    assert pairs_equal(lhs, rhs)


def test_transport_singular_rejected():
    pair = instantiate("T05")
    g = [[F(1), F(2), F(0)], [F(2), F(4), F(0)], [F(0), F(0), F(1)]]
    with pytest.raises(SingularMatrix):
        transport(pair, g)


def test_gl_action_inverts_transport():
    pair = instantiate("T12", [F(1)])
    g = [[F(1), F(0), F(2)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    assert pairs_equal(gl_action(transport(pair, g), g), pair)


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("move", [transport, gl_action])
def test_change_of_basis_of_wrong_size_rejected(move, size):
    # the contraction reads g by the pair's dimension, so a smaller g would
    # be indexed past its rows and a larger one read in part
    with pytest.raises(DimensionMismatch):
        move(instantiate("T05"), identity(size, QQ))


# ---------------------------------------------------------------------------
# the slot-by-slot contraction against its definition
# ---------------------------------------------------------------------------

def _moved_by_cells(sc, basis, back):
    """The reference: cell (i, j) is back . mu(b_i, b_j), b_i the i-th
    column of ``basis``, computed by ``evaluate`` and ``mat_vec``."""
    cols = [[row[i] for row in basis] for i in range(sc.dim)]
    return tuple(tuple(tuple(map(sc.field.coerce, linalg.mat_vec(back, sc.evaluate(x, y))))
                       for y in cols) for x in cols)


def _typed(sc):
    return [(type(v), v) for v in flatten(sc.c)]


def _assert_moved_by_definition(pair, g):
    """transport is g^-1 mu(g x, g y) and gl_action g mu(g^-1 x, g^-1 y),
    value for value and type for type."""
    g_inv = linalg.inv(g, pair.field)
    for moved, basis, back in ((transport(pair, g), g, g_inv),
                               (gl_action(pair, g), g_inv, g)):
        for new, sc in ((moved.mul, pair.mul), (moved.bracket, pair.bracket)):
            reference = StructureConstants(sc.dim, sc.field, _moved_by_cells(sc, basis, back))
            assert _typed(new) == _typed(reference)


_rationals = st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=4))


#: diagonal scales whose inverses have content p != 1 or denominator q != 1
#: in ``scalars._integral``'s split (p/q) M of g^-1
_SCALES = (1, 2, 4, -2, F(1, 2), F(1, 4), F(-1, 2))


@st.composite
def _bases(draw, n):
    """An invertible g of size n, of one of three kinds: integral entries
    typed as ``Fraction``, rational entries (one at least not integral),
    or a diagonal scale times a unit triangular integer matrix."""
    kind = draw(st.sampled_from(("fraction-integral", "rational", "scaled")))
    if kind == "fraction-integral":
        g = [[F(draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)]
    elif kind == "rational":
        g = [[QQ.coerce(draw(_rationals)) for _ in range(n)] for _ in range(n)]
        assume(any(type(x) is F for row in g for x in row))
    else:
        scale = [draw(st.sampled_from(_SCALES)) for _ in range(n)]
        g = [[scale[i] * (1 if i == j else draw(st.integers(-2, 2)) if j > i else 0)
              for j in range(n)] for i in range(n)]
    assume(det(g, QQ))
    return g


@st.composite
def _tensors_and_bases(draw):
    """A pair of arbitrary rational tensors (neither side (anti)commutative
    as a rule) of dimension 1 to 3, and an invertible g from ``_bases``."""
    n = draw(st.integers(1, 3))

    def tensor():
        return StructureConstants.from_entries(n, [
            (i, j, k, draw(_rationals)) for i in range(1, n + 1) for j in range(1, n + 1)
            for k in range(1, n + 1)])

    return AlgebraPair(tensor(), tensor()), draw(_bases(n))


def _assert_integral_values_are_int(pair, g):
    for moved in (transport(pair, g), gl_action(pair, g)):
        values = flatten(moved.mul.c) + flatten(moved.bracket.c)
        assert all(type(v) is int or v.denominator != 1 for v in values)


def _rational_pair():
    return AlgebraPair(
        StructureConstants.from_entries(3, [(1, 1, 2, F(1, 2)), (1, 2, 3, F(-3, 4)),
                                            (3, 3, 1, 6)]),
        StructureConstants.from_entries(3, [(1, 2, 3, F(2, 3)), (2, 3, 1, 4)],
                                        symmetrize="antisym"))


# explicit cases first, so a broken split fails at once rather than after a
# search and shrink: g^-1 = 2 I (content p = 2), g^-1 = diag(1/2, 1/4, 1)
# (denominator q = 4)
@settings(max_examples=60, deadline=None)
@given(_tensors_and_bases())
@example((_rational_pair(), [[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]]))
@example((_rational_pair(), [[2, 0, 0], [0, 4, 0], [0, 0, 1]]))
def test_transport_contraction_matches_definition_over_q(case):
    pair, g = case
    _assert_moved_by_definition(pair, g)
    _assert_integral_values_are_int(pair, g)


@pytest.mark.parametrize("diagonal, split", [
    ((2, 2, 2), (1, 2)), ((F(1, 2), F(1, 4), 1), (1, 1)), ((2, 4, 1), (1, 4)),
    ((F(1, 2), F(1, 4), F(1, 2)), (2, 1))])
def test_transport_by_scaled_bases_matches_definition(diagonal, split):
    # g^-1 = (p/q) M, M primitive: the content p and the denominator q
    # each leave 1, and a non-integral g can have an integral inverse
    g = [[F(d) if i == j else F(0) for j, d in enumerate(diagonal)]
         for i in range(3)]
    assert _integral(flatten(linalg.inv(g, QQ)))[:2] == split
    for pair in (instantiate("T12", [F(1)]), instantiate("T05"), _rational_pair()):
        _assert_moved_by_definition(pair, g)
        _assert_integral_values_are_int(pair, g)


def _unimodular(rng):
    """A signed permutation times unit lower and upper triangular factors
    with entries in [-2, 2], over Q(t)."""
    def triangular(below):
        return [[1 if i == j else rng.randint(-2, 2) if (i > j) == below else 0
                 for j in range(3)] for i in range(3)]
    perm = rng.sample(range(3), 3)
    signed = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(3)]
              for i in range(3)]
    m = linalg.mat_mul(signed, linalg.mat_mul(triangular(True), triangular(False)))
    return [[QQ_T.coerce(x) for x in row] for row in m]


def test_transport_contraction_matches_definition_over_qt():
    # the 30 table curves, and two conjugates k.g(t).h of each acting on
    # the source moved by h, as the degeneration benchmark draws them
    from tpa.degeneration import load_rows

    rng = random.Random(27)
    for inst in load_rows():
        source, g = inst.source_pair(), inst.g_matrix()
        _assert_moved_by_definition(source, g)
        for _ in range(2):
            h, k = _unimodular(rng), _unimodular(rng)
            _assert_moved_by_definition(transport(source, h),
                                        linalg.mat_mul(linalg.mat_mul(k, g), h))


def test_transport_evaluates_no_cell(monkeypatch):
    # the per-cell path (evaluate, then mat_vec) must not come back
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(StructureConstants, "evaluate",
                        counted("evaluate", StructureConstants.evaluate))
    monkeypatch.setattr(linalg, "mat_vec", counted("mat_vec", linalg.mat_vec))
    pair = instantiate("T12", [F(1)])
    g = [[F(1), F(0), F(2)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    assert pairs_equal(gl_action(transport(pair, g), g), pair)
    assert calls == []


@pytest.mark.parametrize("typed", [int, F])
def test_integer_transport_runs_in_int_arithmetic(monkeypatch, typed):
    # g is stored through coerce and the output slot takes the integer
    # numerator of g^-1, so no Fraction enters the contraction, even where
    # g^-1 is not integral (det g = 3 here)
    operands, dot = [], algebra._dot

    def counted(xs, ys, zero):
        xs, ys = tuple(xs), tuple(ys)
        operands.extend(xs + ys)
        return dot(xs, ys, zero)

    monkeypatch.setattr(algebra, "_dot", counted)
    g = [[typed(x) for x in row] for row in ((1, 0, 2), (1, 1, 0), (0, 0, 3))]
    for tid in ("T12", "T05", "T24"):
        pair = instantiate(tid, [1] if tid == "T12" else [])
        assert all(type(v) is int for sc in (pair.mul, pair.bracket) for *_, v in sc.entries)
        _assert_moved_by_definition(pair, g)
    assert operands and all(type(x) is int for x in operands)


def test_identities_on_t07():
    t07 = instantiate("T07", [F(1)])
    for w in ("commutative", "associative", "anticommutative", "jacobi",
              "transposed_leibniz"):
        assert check_identity(t07, w).holds, w
    rep = check_identity(t07, "leibniz")
    assert not rep.holds and rep.violations


def test_zero_pair_satisfies_everything():
    zero = AlgebraPair(StructureConstants.zero(3), StructureConstants.zero(3))
    for w in ("commutative", "associative", "anticommutative", "jacobi",
              "transposed_leibniz", "leibniz"):
        assert check_identity(zero, w).holds
    assert is_transposed_poisson(zero) and is_poisson(zero)


def test_bracket_as_product_is_not_tp():
    t29 = instantiate("T29")
    pair = AlgebraPair(t29.mul, t29.mul)  # symmetric second component
    assert not check_identity(pair, "anticommutative").holds
    assert not is_transposed_poisson(pair)


def test_trivial_product_on_sl2_is_tp():
    assert is_transposed_poisson(instantiate("T01"))


def test_identity_report_consistency():
    pair = instantiate("T02")
    rep = check_identity(pair, "leibniz")
    assert rep.holds == (not rep.violations)


def test_residuals_match_random_vectors():
    # multilinearity: basis-triple residuals vanish iff random instantiations do
    import random

    rng = random.Random(7)
    pair = instantiate("T17", [F(2)])
    for _ in range(5):
        x, y, z = ([F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3))
        two = F(2)
        lhs = [two * v for v in pair.mul.evaluate(z, pair.bracket.evaluate(x, y))]
        r1 = pair.bracket.evaluate(pair.mul.evaluate(z, x), y)
        r2 = pair.bracket.evaluate(x, pair.mul.evaluate(z, y))
        assert lhs == [a + b for a, b in zip(r1, r2)]


def test_non_jacobi_bracket_rejected():
    from tpa.algebra import is_lie

    # anticommutative but cyclically non-closing
    bad = StructureConstants.from_entries(
        3, [(1, 2, 1, 1), (2, 3, 2, 1), (3, 1, 3, 1)], symmetrize="antisym"
    )
    pair = AlgebraPair(StructureConstants.zero(3), bad)
    assert check_identity(pair, "anticommutative").holds
    assert not check_identity(pair, "jacobi").holds
    assert not is_lie(bad)


def test_unknown_identity_name():
    with pytest.raises(ValueError):
        check_identity(instantiate("T05"), "power_associative")


def test_json_bad_documents():
    with pytest.raises(Exception):
        pair_from_json({"dim": 3, "mul": [[4, 1, 1, "1"]], "bracket": []})
    with pytest.raises(Exception):
        pair_from_json({"dim": 3, "mul": [[1, 1, 1, "x"]], "bracket": []})


def test_json_roundtrip():
    pair = instantiate("T17", [F(-2)])
    doc = pair_to_json(pair)
    back = pair_from_json(json.loads(json.dumps(doc)))
    assert pairs_equal(back, pair)
    assert doc["dim"] == 3
    assert all(len(e) == 4 for e in doc["mul"])


def test_json_qt_roundtrip():
    from tpa.scalars import QQ_T

    pair = instantiate("T12", [QQ_T.parse("t")], field=QQ_T)
    back = pair_from_json(pair_to_json(pair))
    assert pairs_equal(back, pair)


@pytest.mark.parametrize("field", ["Q", "Q(t)"])
def test_pickle_and_deepcopy_roundtrip(field):
    from tpa.scalars import QQ_T

    if field == "Q":
        pair = instantiate("T12", [F(3, 2)])
    else:
        pair = instantiate("T12", [QQ_T.parse("1/t + t^2")], field=QQ_T)
    for back in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
        assert back == pair and hash(back) == hash(pair)
        assert back.field is pair.field


def _frozen_records():
    """(record, a field name) for each immutable record of the package."""
    from tpa.catalog import CATALOG, known_isomorphisms
    from tpa.degeneration import load_rows, verify_instance
    from tpa.enumeration import tp_family
    from tpa.iso import fingerprint

    pair = instantiate("T05")
    row = load_rows()[0]
    return [(pair.mul, "c"), (pair, "mul"), (check_identity(pair, "jacobi"), "holds"),
            (CATALOG["T05"], "table"), (known_isomorphisms()[0], "matrix"),
            (row, "g_columns"), (verify_instance(row), "checks"),
            (delta_derivations(pair.mul, 1), "rows"),
            (tp_family(instantiate("g1").bracket), "space"), (fingerprint(pair), "dim_sq")]


@pytest.mark.parametrize("record, name", _frozen_records(),
                         ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_frozen_records_refuse_assignment(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is before


def test_pair_of_mismatched_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        AlgebraPair(instantiate("T05").mul, instantiate("N01").bracket)


def test_limit_pair():
    from tpa.scalars import QQ_T

    pair = instantiate("T09", [QQ_T.parse("2"), QQ_T.parse("t")], field=QQ_T)
    lim = limit_pair(pair)
    assert pairs_equal(lim, instantiate("T09", [F(2), F(0)]))


# ---------------------------------------------------------------------------
# the row-derived checkers against a naive triple loop
# ---------------------------------------------------------------------------

def _naive_residual(pair, which, i, j, k):
    """Residual at (e_i, e_j, e_k), written directly with ``evaluate``."""
    mul, br = pair.mul.evaluate, pair.bracket.evaluate
    e = identity(pair.dim, pair.field)
    x, y, z = e[i], e[j], e[k]
    if which == "associative":     # (x.y).z - x.(y.z)
        terms = [(1, mul(mul(x, y), z)), (-1, mul(x, mul(y, z)))]
    elif which == "transposed_leibniz":  # 2 z.[x,y] - [z.x, y] - [x, z.y]
        terms = [(2, mul(z, br(x, y))), (-1, br(mul(z, x), y)), (-1, br(x, mul(z, y)))]
    else:                          # [x.y, z] - x.[y,z] - [x,z].y
        terms = [(1, br(mul(x, y), z)), (-1, mul(x, br(y, z))), (-1, mul(br(x, z), y))]
    return _coerced_sum(pair.field, terms)


def _coerced_sum(field, terms):
    """sum c v over the (c, v) terms, coordinate by coordinate, each value
    stored through ``field.coerce`` (an integral rational as an ``int``)."""
    return tuple(field.coerce(sum((field.coerce(c) * v[m] for c, v in terms), field.zero))
                 for m in range(len(terms[0][1])))


def _naive_violations(pair, which):
    n = pair.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = _naive_residual(pair, which, i, j, k)
                if any(r):
                    out.append(((i + 1, j + 1, k + 1), r))
    return tuple(out)


ROW_DERIVED = ("associative", "transposed_leibniz", "leibniz")


@st.composite
def random_pairs(draw):
    """Two independent tensors of dimension 1-3, neither symmetrised."""
    n = draw(st.integers(1, 3))
    value = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])

    def tensor():
        return StructureConstants(n, QQ, tuple(
            tuple(tuple(draw(value) for _ in range(n)) for _ in range(n)) for _ in range(n)))

    return AlgebraPair(tensor(), tensor())


def _naive_derivation_residual(sc, mat, delta):
    """phi(e_i e_j) - delta (phi(e_i) e_j + e_i phi(e_j)) at its nonzero
    cells, written directly with ``evaluate`` and ``mat_vec``."""
    e = identity(sc.dim, sc.field)
    out = []
    for i in range(sc.dim):
        for j in range(sc.dim):
            r = _coerced_sum(sc.field, [
                (1, linalg.mat_vec(mat, sc.evaluate(e[i], e[j]))),
                (-delta, sc.evaluate(linalg.mat_vec(mat, e[i]), e[j])),
                (-delta, sc.evaluate(e[i], linalg.mat_vec(mat, e[j])))])
            if any(r):
                out.append(((i + 1, j + 1), r))
    return out


def _naive_derived_bracket(sc, d):
    """The tensor of D(x).y - x.D(y), cell by cell."""
    e = identity(sc.dim, sc.field)
    return tuple(tuple(_coerced_sum(sc.field, [
        (1, sc.evaluate(linalg.mat_vec(d, x), y)), (-1, sc.evaluate(x, linalg.mat_vec(d, y)))])
        for y in e) for x in e)


def _assert_residuals_match(pair, mat, label):
    """The row-derived checkers, the derivation residual at delta in
    {1, 1/2, 0} and the derived brackets of a derivation basis of the
    product against the loops above, value for value and type for type."""
    for which in ROW_DERIVED:
        assert _same_typed(check_identity(pair, which).violations,
                           _naive_violations(pair, which)), (label, which)
    for sc in (pair.mul, pair.bracket):
        for delta in (1, F(1, 2), 0):
            assert _same_typed(derivation_residual(sc, mat, delta),
                               _naive_derivation_residual(sc, mat, delta)), (label, delta)
    der = delta_derivations(pair.mul, 1)
    for d in der.basis + (der.combine(range(1, der.dim + 1)),):
        assert _same_typed(derived_bracket(pair.mul, d).c,
                           _naive_derived_bracket(pair.mul, d)), label


@settings(max_examples=60, deadline=None)
@given(random_pairs(), st.data())
def test_row_derived_identities_match_naive_loop(pair, data):
    value = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])
    mat = [[data.draw(value) for _ in range(pair.dim)] for _ in range(pair.dim)]
    _assert_residuals_match(pair, mat, "random")


def test_row_derived_identities_match_naive_loop_over_qt():
    # the degeneration sources over Q(t), before and after their basis
    # change, with the curve's own g(t) as the map
    from tpa.degeneration import load_rows

    for inst in load_rows():
        source, g = inst.source_pair(), inst.g_matrix()
        for pair in (source, gl_action(source, g)):
            _assert_residuals_match(pair, g, (inst.row, inst.name))


def test_checkers_build_no_dense_rows(monkeypatch):
    # the identity checkers, the derivation residual and the derived
    # bracket read the tensor's entries; only the solvers build rows
    from tpa import algebra, derivations, dspecial

    pair = instantiate("N02")
    d = delta_derivations(pair.mul, 1).basis[0]
    calls = []

    def counted(*args):
        calls.append(args)
        return _map_rows(*args)

    for module in (algebra, derivations, dspecial):
        monkeypatch.setattr(module, "_map_rows", counted)
    for which in IDENTITIES:
        check_identity(pair, which)
    assert derivation_residual(pair.bracket, operator_matrix(pair.mul, 0), F(1, 2))
    assert not derived_bracket(pair.mul, d).is_zero()
    assert calls == []
    dspecial.derivation_matching_bracket(pair.mul, pair.bracket)  # a solver builds rows
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the entry-driven row builder against the dense scan it replaced
# ---------------------------------------------------------------------------

def _dense_map_rows(sc, a, b, c):
    """``_map_rows`` as it was before it read ``sc.entries``: every
    cell of the tensor tested for zero, n^4 times over.  The reference."""
    n = sc.dim
    field = sc.field
    a, b, c = (field.coerce(x) for x in (a, b, c))
    t = sc.c
    rows = []
    for i in range(n):
        for j in range(n):
            tij = t[i][j]
            for k in range(n):
                row = [field.zero] * (n * n)
                if a:
                    for m in range(n):
                        if tij[m]:
                            row[k * n + m] += a * tij[m]
                for r in range(n):
                    if t[r][j][k]:
                        row[r * n + i] += b * t[r][j][k]
                    if t[i][r][k]:
                        row[r * n + j] += c * t[i][r][k]
                rows.append(row)
    return rows


ROW_COEFFS = ((1, -1, -1), (0, 1, -1), (2, -1, -1), (1, 0, -1), (1, F(-1, 2), F(-1, 2)))


def _row_inputs():
    """Every catalog sample, a dense GL(3,Q) change of basis of each
    T-series sample, and the Q(t) table sources before and after their
    curve acts."""
    from tpa.degeneration import load_rows

    for cid in sorted(CATALOG):
        for params in sample_params(cid):
            yield cid, instantiate(cid, params)
    rng = random.Random(9)
    for tid, params, pair in t_series_samples():
        while True:
            g = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
            if det(g, QQ):
                break
        yield tid, transport(pair, g)
    for inst in load_rows():
        source = inst.source_pair()
        yield inst.name, source
        yield inst.name, gl_action(source, inst.g_matrix())


def test_map_rows_match_dense_scan():
    checked = 0
    for label, pair in _row_inputs():
        for sc in (pair.mul, pair.bracket):
            for coeffs in ROW_COEFFS:
                new, old = _map_rows(sc, *coeffs), _dense_map_rows(sc, *coeffs)
                assert new == old, (label, coeffs)
                for x, y in zip(flatten(new), flatten(old)):
                    # the entry-driven rows store an integral value as an int
                    assert type(x) is type(y) or (
                        type(x) is int and type(y) is F and y.denominator == 1), (label, x, y)
                checked += 1
    assert checked > 2500


def test_map_rows_cells_are_canonical():
    # non-integral products can sum to an integer; the cell then holds an
    # int, never an integral Fraction (over Q(t), neither may a coefficient)
    for label, pair in _row_inputs():
        for sc in (pair.mul, pair.bracket):
            for coeffs in ROW_COEFFS:
                for x in flatten(_map_rows(sc, *coeffs)):
                    for c in ((x,) if sc.field is QQ else x.num + x.den):
                        assert type(c) is int or type(c) is F and c.denominator != 1, (
                            label, coeffs, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flatten_unflatten_roundtrip(n):
    vec = list(range(n ** 3))
    tensor = unflatten(vec, n, 3)
    assert tensor[n - 1][0][n - 1] == (n - 1) * n * n + n - 1  # row-major
    assert flatten(tensor) == vec
    assert unflatten(flatten(tensor), n, 3) == tensor
    mat = unflatten(vec[:n * n], n)
    assert mat == tuple(tuple(range(r * n, (r + 1) * n)) for r in range(n))
    assert flatten(mat) == vec[:n * n]
    assert flatten([list(row) for row in mat]) == vec[:n * n]


def test_operator_identity_violation_order():
    # e1.e1 = -e2, e1.e2 = e2, e2.e1 = -e2 is not associative; violations
    # come labelled (i, j, z) in lexicographic order, z innermost
    mul = StructureConstants.from_entries(2, [(1, 1, 2, -1), (1, 2, 2, 1), (2, 1, 2, -1)])
    pair = AlgebraPair(mul, StructureConstants.zero(2))
    assert check_identity(pair, "associative").violations == (
        ((1, 1, 1), (0, 2)), ((1, 1, 2), (0, -1)), ((2, 1, 1), (0, 1)))


# ---------------------------------------------------------------------------
# the walks over the cached nonzero entries against the loops they replaced
# ---------------------------------------------------------------------------

def _scanned_entries(sc):
    """``StructureConstants.entries`` as it was, a generator re-scanning
    the cube on every call.  The reference, like those below."""
    for i in range(sc.dim):
        for j in range(sc.dim):
            for k in range(sc.dim):
                if sc.c[i][j][k]:
                    yield (i, j, k, sc.c[i][j][k])


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


def _jacobi(pair):
    br = pair.bracket
    n = br.dim
    out = []

    def bk(v, w):
        return br.evaluate(v, w)

    basis = identity(n, br.field)
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


def _map_scalars(sc, fn, field):
    return StructureConstants(
        sc.dim,
        field,
        tuple(
            tuple(tuple(fn(v) for v in row) for row in plane) for plane in sc.c
        ),
    )


def _mapped_limit_pair(pair):
    def lim_sc(sc):
        return _map_scalars(sc, limit_at_zero, QQ)

    return AlgebraPair(lim_sc(pair.mul), lim_sc(pair.bracket))


def _looped_commutator_bracket(mul2):
    n = mul2.dim
    c = tuple(
        tuple(
            tuple(mul2.c[i][j][k] - mul2.c[j][i][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return StructureConstants(n, mul2.field, c)


MIRROR_CHECKS = {"commutative": _commutative, "anticommutative": _anticommutative,
                 "jacobi": _jacobi}


def _same_typed(new, old):
    """Equal and of the same scalar types, cell by cell, through nested
    tuples and lists."""
    if isinstance(old, (tuple, list)):
        return len(new) == len(old) and all(_same_typed(x, y) for x, y in zip(new, old))
    return new == old and type(new) is type(old)


def _assert_walks_match(pair, label):
    for sc in (pair.mul, pair.bracket):
        assert _same_typed(sc.entries, tuple(_scanned_entries(sc))), label
        assert sc.is_zero() == (next(_scanned_entries(sc), None) is None), label
    for which, reference in MIRROR_CHECKS.items():
        assert _same_typed(check_identity(pair, which).violations, tuple(reference(pair))), \
            (label, which)


@settings(max_examples=80, deadline=None)
@given(random_pairs())
def test_entry_walks_match_replaced_loops(pair):
    _assert_walks_match(pair, "random")


def test_entry_walks_match_replaced_loops_on_catalog_moves_and_curves():
    # every catalog sample, the GL(3,Q) moves of the T-series and the Q(t)
    # table sources before and after their curve
    inputs = list(_row_inputs())
    for label, pair in inputs:
        _assert_walks_match(pair, label)
    assert len(inputs) > 250


def test_limit_pair_matches_mapped_limit():
    from tpa.degeneration import load_rows

    limits = 0
    for inst in load_rows():
        source = inst.source_pair()
        for pair in (source, gl_action(source, inst.g_matrix())):
            try:
                old = _mapped_limit_pair(pair)
            except Diverges as exc:
                with pytest.raises(Diverges, match=re.escape(str(exc))):
                    limit_pair(pair)
                continue
            new = limit_pair(pair)
            assert _same_typed(new.mul.c, old.mul.c) and _same_typed(
                new.bracket.c, old.bracket.c), (inst.row, inst.name)
            limits += 1
    assert limits > 50


def test_commutator_bracket_matches_looped_difference():
    for nid in ("NP01", "NP02"):
        for params in sample_params(nid):
            mul2 = instantiate(nid, params).bracket
            assert _same_typed(commutator_bracket(mul2).c,
                               _looped_commutator_bracket(mul2).c), (nid, params)
