import functools
import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from tpa import linalg
from tpa.algebra import StructureConstants, _map_rows, flatten, transport, unflatten
from tpa.catalog import instantiate, t_series_samples
from tpa.derivations import (
    NotALieAlgebra,
    SolutionSpace,
    delta_derivations,
    derivation_residual,
    half_biderivations,
    pair_derivations,
)
from tpa.dspecial import derivation_matching_bracket, is_strong_d_special
from tpa.iso import Fingerprint, fingerprint
from tpa.scalars import QQ, QQ_T, T


def lie(name, *params):
    return instantiate(name, list(params)).bracket


def basis(k, n=3):
    return [QQ.one if i == k else QQ.zero for i in range(n)]


def space_dim_oracle(space, rows, nunknowns):
    """Independent check: dim = unknowns - rank, rank computed on the
    system and its transpose."""
    r1 = linalg.rank(rows, QQ)
    r2 = linalg.rank(linalg.transpose(rows), QQ) if rows else 0
    assert r1 == r2
    assert space.dim == nunknowns - r1


def test_g1_half_derivations_shape():
    space = delta_derivations(lie("g1"), F(1, 2))
    assert space.dim == 3
    # phi(e1) = c e1, phi(e2) = c e2, phi(e3) = * e1 + * e2 + c e3
    for m in space.basis:
        assert m[0][0] == m[1][1] == m[2][2]
        assert m[1][0] == m[2][0] == m[0][1] == m[2][1] == 0
    # spanned by the identity and the two elementary maps into e3-column
    ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert space.contains(ident)
    e13 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    e23 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    assert space.contains(e13) and space.contains(e23)


@pytest.mark.parametrize(
    "alpha,expected",
    [(F(3), 3), (F(-2), 3), (F(-1), 3), (F(5), 3), (F(1), 3),
     (F(0), 4), (F(1, 2), 4), (F(2), 4)],
)
def test_g2_half_derivation_dims(alpha, expected):
    assert delta_derivations(lie("g2", alpha), F(1, 2)).dim == expected


def test_g2_half_special_shapes():
    # alpha = 2: phi(e1) picks up an e2 component; alpha = 1/2: e2 -> e1 leaks
    s2 = delta_derivations(lie("g2", F(2)), F(1, 2))
    assert any(m[1][0] for m in s2.basis)
    shalf = delta_derivations(lie("g2", F(1, 2)), F(1, 2))
    assert any(m[0][1] for m in shalf.basis)
    # the tabulated alpha = 1/2 solution: phi(e1) = (c - 2b) e1 - 4b e2,
    # phi(e2) = b e1 + (2b + c) e2, phi(e3) = u e1 + v e2 + c e3
    b, c, u, v = F(1), F(3), F(-2), F(5)
    m = [[c - 2 * b, b, u], [-4 * b, 2 * b + c, v], [0, 0, c]]
    assert not derivation_residual(lie("g2", F(1, 2)), m, F(1, 2))
    assert shalf.contains(m)


def test_sl2_half_derivations_scalars_only():
    space = delta_derivations(lie("sl2"), F(1, 2))
    assert space.dim == 1
    ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert space.contains(ident)


def test_heisenberg_half_derivations_regression():
    # no tabulated value exists; frozen from the solver and cross-checked
    # against the rank oracle
    br = lie("h")
    rows = _map_rows(br, 1, -F(1, 2), -F(1, 2))
    space = delta_derivations(br, F(1, 2))
    space_dim_oracle(space, rows, 9)
    assert space.dim == 6


def test_scalars_always_half_derivations():
    for name, params in [("h", []), ("g1", []), ("g2", [F(7)]), ("sl2", [])]:
        space = delta_derivations(instantiate(name, params).bracket, F(1, 2))
        ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        assert space.contains(ident)
        assert space.dim >= 1


def test_solution_spaces_satisfy_system_exactly():
    for name, params, delta in [("g1", [], F(1, 2)), ("g2", [F(2)], F(1, 2)),
                                ("sl2", [], F(1)), ("h", [], F(1))]:
        br = instantiate(name, params).bracket
        space = delta_derivations(br, delta)
        for m in space.basis:
            assert not derivation_residual(br, [list(r) for r in m], delta)


def test_pair_derivations_examples():
    from tpa.algebra import AlgebraPair

    assert pair_derivations(instantiate("T20")).dim == 0
    assert pair_derivations(instantiate("T01")).dim == 3
    zero_pair = AlgebraPair(StructureConstants.zero(3), StructureConstants.zero(3))
    assert pair_derivations(zero_pair).dim == 9


def test_t01_inner_derivations_are_members():
    # ad_x for each basis x of sl2 is a joint derivation of (0, sl2)
    t01 = instantiate("T01")
    space = pair_derivations(t01)
    n = 3
    for z in range(n):
        ad = [[t01.bracket.c[z][c][r] for c in range(n)] for r in range(n)]
        assert space.contains(ad)


def test_pair_derivations_bounded_by_components():
    for tid, params in [("T05", []), ("T09", [F(2), F(1)]), ("T13", [])]:
        pair = instantiate(tid, params)
        joint = pair_derivations(pair).dim
        assert joint <= delta_derivations(pair.mul, 1).dim
        assert joint <= delta_derivations(pair.bracket, 1).dim


def test_half_biderivations_g1():
    space = half_biderivations(lie("g1"), symmetric=True)
    assert space.dim == 3
    # tabulated shape: e1.e3 = c e1, e2.e3 = c e2, e3.e3 = a e1 + b e2 + c e3
    prod = instantiate("T07", [F(5)]).mul
    assert space.contains(prod.c)


def test_half_biderivations_g2_sq():
    space = half_biderivations(lie("g2", F(2)), symmetric=True)
    assert space.dim == 5


def test_half_biderivations_zero_bracket():
    zero = StructureConstants.zero(3)
    space = half_biderivations(zero, symmetric=True)
    # every symmetric bilinear map qualifies: 6 index pairs x 3 outputs
    assert space.dim == 18
    full = half_biderivations(zero, symmetric=False)
    assert full.dim == 27


def test_half_biderivations_requires_lie():
    not_lie = instantiate("T29").mul
    with pytest.raises(NotALieAlgebra):
        half_biderivations(not_lie, symmetric=True)


@pytest.mark.parametrize(
    "name,params,full_dim",
    [("g1", (), 3), ("g2", (F(2),), 6), ("g2", (F(3),), 3),
     ("h", (), 12), ("sl2", (), 0)],
)
def test_unrestricted_biderivation_dims(name, params, full_dim):
    # regression values (no tabulated anchors); the symmetric space embeds
    space = half_biderivations(lie(name, *params), symmetric=False)
    assert space.dim == full_dim
    sym = half_biderivations(lie(name, *params), symmetric=True)
    assert sym.dim <= space.dim
    for t in sym.basis:
        assert space.contains(t)


def test_biderivation_members_satisfy_both_identities():
    br = lie("g2", F(0))
    space = half_biderivations(br, symmetric=True)
    assert space.dim == 5
    half = F(1, 2)
    n = 3
    for tensor in space.basis:
        d = StructureConstants(3, QQ, tensor)
        for i in range(n):
            for j in range(n):
                assert d.c[i][j] == d.c[j][i]  # symmetric
        for i in range(n):
            for j in range(n):
                for z in range(n):
                    lhs = d.evaluate(list(br.prod(i, j)), basis(z))
                    r1 = br.evaluate(list(d.prod(i, z)), basis(j))
                    r2 = br.evaluate(basis(i), list(d.prod(j, z)))
                    assert lhs == [half * (a + b) for a, b in zip(r1, r2)]


# -- the solution spaces against conditions written in sympy ------------------
#
# The oracle states each condition on whole vectors with sympy Matrix
# arithmetic (no coefficient rows), solves it with sympy, and compares the
# row space of its solutions with the row space of the basis found here.

def _bilinear(sympy, planes):
    """(x, y) -> the vector with coordinates x^T planes[k] y, on sympy
    column vectors."""
    return lambda x, y: sympy.Matrix([(x.T * p * y)[0] for p in planes])


def _sympy_product(sympy, tensor):
    n = len(tensor)
    return _bilinear(sympy, [sympy.Matrix(n, n, lambda i, j, k=k: sympy.Rational(tensor[i][j][k]))
                             for k in range(n)])


def _sympy_solutions(sympy, equations, unknowns, coordinates):
    """Row-reduced matrix of the solution space of the linear equations;
    ``coordinates`` lists the unknown sitting at each flat coordinate."""
    flat = [e for v in equations for e in v]
    a, _ = sympy.linear_eq_to_matrix(flat, unknowns)
    sols = [dict(zip(unknowns, v)) for v in a.nullspace()]
    return sympy.Matrix([[s[x] for x in coordinates] for s in sols]).rref()[0] if sols else None


def _our_solutions(sympy, vectors):
    if not vectors:
        return None
    return sympy.Matrix([[sympy.Rational(x) for x in v] for v in vectors]).rref()[0]


@st.composite
def transported_samples(draw):
    """A T-series sample in a basis drawn by hypothesis (dense tensors)."""
    tid, params, pair = draw(st.sampled_from(t_series_samples()))
    g = [[F(draw(st.integers(-2, 2))) for _ in range(3)] for _ in range(3)]
    assume(linalg.det(g, QQ))
    return transport(pair, g)


@settings(max_examples=15, deadline=None)
@given(transported_samples(), st.sampled_from([F(1), F(1, 2)]))
def test_delta_derivations_match_sympy(pair, delta):
    sympy = pytest.importorskip("sympy")
    n = pair.dim
    syms = sympy.symbols(f"p0:{n * n}")
    p = sympy.Matrix(n, n, syms)
    e = sympy.eye(n)
    d = sympy.Rational(delta)
    for sc in (pair.mul, pair.bracket):
        mul = _sympy_product(sympy, sc.c)
        eqs = [p * mul(x, y) - d * (mul(p * x, y) + mul(x, p * y))
               for x in e.columnspace() for y in e.columnspace()]
        theirs = _sympy_solutions(sympy, eqs, syms, syms)
        space = delta_derivations(sc, delta)
        ours = _our_solutions(sympy, [[x for r in m for x in r] for m in space.basis])
        assert ours == theirs


@settings(max_examples=10, deadline=None)
@given(transported_samples(), st.booleans())
def test_half_biderivations_match_sympy(pair, symmetric):
    sympy = pytest.importorskip("sympy")
    n = pair.dim
    br = _sympy_product(sympy, pair.bracket.c)
    syms = sympy.symbols(f"b0:{n ** 3}")

    def unknown(i, j, k):  # the e_k coordinate of D(e_i, e_j)
        if symmetric:
            i, j = min(i, j), max(i, j)
        return syms[(i * n + j) * n + k]

    planes = [sympy.Matrix(n, n, lambda i, j, k=k: unknown(i, j, k)) for k in range(n)]
    unknowns = sorted({s for pl in planes for s in pl}, key=syms.index)
    bider = _bilinear(sympy, planes)
    half = sympy.Rational(1, 2)
    basis = sympy.eye(n).columnspace()
    eqs = []
    for x in basis:
        for y in basis:
            for z in basis:
                eqs.append(bider(br(x, y), z) - half * (br(bider(x, z), y) + br(x, bider(y, z))))
                eqs.append(bider(x, br(y, z)) - half * (br(bider(x, y), z) + br(y, bider(x, z))))

    coordinates = [pl[i, j] for i in range(n) for j in range(n) for pl in planes]
    theirs = _sympy_solutions(sympy, eqs, unknowns, coordinates)
    space = half_biderivations(pair.bracket, symmetric=symmetric)
    ours = _our_solutions(sympy, [[t[i][j][k] for i in range(n) for j in range(n) for k in range(n)]
                                  for t in space.basis])
    assert ours == theirs


@functools.cache
def _sympy_kronecker(sympy, n):
    """The unit vectors e_j, the blocks I kron e_j, and each unit map E_m
    with E_m kron I + I kron E_m."""
    kron, eye = sympy.kronecker_product, sympy.eye(n)
    e = eye.columnspace()
    units = [sympy.Matrix(n, n, lambda i, j, m=m: int(i * n + j == m)) for m in range(n * n)]
    return e, [kron(eye, ej) for ej in e], [(p, kron(p, eye) + kron(eye, p)) for p in units]


def _sympy_fingerprint(sympy, pair):
    """Each ``Fingerprint`` field by its definition, in sympy matrices.  A
    product is M with x.y = M (x kron y): V.V is the column space of M,
    V.(V.V) that of M (I kron M), x -> (x e_j)_j has the blocks
    M (I kron e_j), and phi is a delta-derivation iff
    phi M = delta M (phi kron I + I kron phi)."""
    from sympy.polys.matrices import DomainMatrix

    n = pair.dim
    e, right, units = _sympy_kronecker(sympy, n)
    mul, br = (sympy.Matrix(n, n * n, lambda k, ij, c=sc.c: sympy.Rational(c[ij // n][ij % n][k]))
               for sc in (pair.mul, pair.bracket))

    def rank(m):
        return DomainMatrix.from_Matrix(m).rank()

    def right_multiplication(m):
        return sympy.Matrix.vstack(*(m * block for block in right))

    def derivation_conditions(m, d):  # one column per unknown entry of phi
        return sympy.Matrix.hstack(*((p * m - d * m * leibniz).reshape(n ** 3, 1)
                                     for p, leibniz in units))

    r_mul = right_multiplication(mul)
    der_mul, der_br = derivation_conditions(mul, 1), derivation_conditions(br, 1)
    return Fingerprint(
        rank(mul), rank(br), rank(mul.row_join(br)),
        rank(mul * sympy.kronecker_product(sympy.eye(n), mul)),
        n - rank(r_mul), n - rank(right_multiplication(br)),
        n * n - rank(der_mul), n * n - rank(der_br), n * n - rank(der_mul.col_join(der_br)),
        n * n - rank(derivation_conditions(br, sympy.Rational(1, 2))),
        int(rank(r_mul) == rank(r_mul.row_join(sympy.Matrix.vstack(*e)))))


def test_fingerprint_matches_sympy_on_t_series():
    sympy = pytest.importorskip("sympy")
    for tid, params, pair in t_series_samples():
        assert fingerprint(pair) == _sympy_fingerprint(sympy, pair), (tid, params)


@settings(max_examples=10, deadline=None)
@given(transported_samples())
def test_fingerprint_matches_sympy(pair):
    sympy = pytest.importorskip("sympy")
    assert fingerprint(pair) == _sympy_fingerprint(sympy, pair)


# -- the derived systems over Q(t) against their raw-row construction ----------

def _raw_half_biderivation_rows(bracket, symmetric):
    """The half-biderivation system as it was built from the raw
    1/2-derivation rows: (rows, cells, number of unknowns)."""
    n, field = bracket.dim, bracket.field
    index = {}
    cells = [index.setdefault((min(i, j), max(i, j), k) if symmetric else (i, j, k), len(index))
             for i in range(n) for j in range(n) for k in range(n)]
    unknown = unflatten(cells, n, 3)
    planes = unflatten(_map_rows(bracket, 2, -1, -1), n, 3)
    lie_rows = [unflatten(row, n) for i, plane in enumerate(planes)
                for cell in plane[i + 1:] for row in cell if any(row)]
    slots = [lambda c, z, r: unknown[c][z][r]]
    if not symmetric:
        slots.append(lambda c, z, r: unknown[z][c][r])
    rows = []
    for slot in slots:
        for z in range(n):
            for mat in lie_rows:
                new = [field.zero] * len(index)
                for r, coeffs in enumerate(mat):
                    for c, v in enumerate(coeffs):
                        if v:
                            new[slot(c, z, r)] += v
                rows.append(new)
    return rows, cells, len(index)


#: the T-series families with one parameter, taken at beta = t over Q(t)
Q_T_FAMILIES = ["T03", "T04", "T07", "T10", "T11", "T12", "T17", "T19"]


@pytest.mark.parametrize("tid", Q_T_FAMILIES)
def test_derived_systems_over_q_t_match_raw_rows(tid):
    pair = instantiate(tid, (T,), field=QQ_T)
    n = pair.dim
    raw_pair = [r for sc in (pair.mul, pair.bracket) for r in _map_rows(sc, 1, -1, -1)]
    expected = [tuple(v) for v in linalg.nullspace(raw_pair, n * n, QQ_T)]
    assert pair_derivations(pair).vectors == tuple(expected)
    for symmetric in (True, False):
        rows, cells, nunk = _raw_half_biderivation_rows(pair.bracket, symmetric)
        expected = [tuple(v[c] for c in cells) for v in linalg.nullspace(rows, nunk, QQ_T)]
        assert half_biderivations(pair.bracket, symmetric).vectors == tuple(expected)
    # the same answer, not only the same feasibility: feasible for five of
    # the eight brackets, never for the (symmetric) product
    for bracket in (pair.bracket, pair.mul):
        raw = [r for r in _map_rows(pair.mul, 1, -1, -1) if any(r)]
        rhs = [QQ_T.zero] * len(raw) + flatten(bracket.c)
        x = linalg.solve(raw + _map_rows(pair.mul, 0, 1, -1), rhs, QQ_T)
        expected = None if x is None else [list(r) for r in unflatten(x, n)]
        assert derivation_matching_bracket(pair.mul, bracket) == expected


# -- the bases pinned in their deterministic order -----------------------------

#: sha256 of the 1/2-derivation, joint-derivation and half-biderivation bases
#: of the 70 T-series samples, in sample order; every entry is written by
#: ``str``, so ``F(1)`` and ``1`` hash alike and the order of each basis counts
BASES_SHA256 = "9d6090f5cfbcf23ac05c368ab0de46ae275cbd8d6d3f326e95b29b7ffa288401"


def test_t_series_bases_are_pinned():
    records = []
    for tid, params, pair in t_series_samples():
        spaces = (pair_derivations(pair), delta_derivations(pair.bracket, F(1, 2)),
                  half_biderivations(pair.bracket), half_biderivations(pair.bracket, False))
        records.append([tid, [str(p) for p in params],
                        [[[str(x) for x in flatten(b)] for b in s.basis] for s in spaces]])
    assert len(records) == 70
    blob = json.dumps(records, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == BASES_SHA256


# -- one elimination per normal form and delta ---------------------------------

def _answers(space):
    return space.dim, space.vectors, space.basis


def _read_through_derived_systems(pair):
    """Every reader of the cached component forms, once."""
    fingerprint(pair)
    pair_derivations(pair).basis
    half_biderivations(pair.bracket).basis
    half_biderivations(pair.bracket, False).basis
    derivation_matching_bracket(pair.mul, pair.bracket)


def _assert_memo_transparent(pair):
    for sc, delta in ((pair.mul, 1), (pair.bracket, 1), (pair.bracket, F(1, 2))):
        delta_derivations.cache_clear()
        cold = delta_derivations(sc, delta)
        expected = _answers(cold)
        _read_through_derived_systems(pair)
        hits = delta_derivations.cache_info().hits
        warm = delta_derivations(sc, delta)
        assert delta_derivations.cache_info().hits == hits + 1
        assert warm is cold
        assert _answers(warm) == expected


def test_memo_is_transparent_on_t_series():
    for _, _, pair in t_series_samples():
        _assert_memo_transparent(pair)


@settings(max_examples=10, deadline=None)
@given(transported_samples())
def test_memo_is_transparent(pair):
    _assert_memo_transparent(pair)


def test_memo_is_keyed_on_the_normal_form():
    delta_derivations.cache_clear()
    sc = instantiate("T09", [F(2), F(1)]).bracket
    scaled = StructureConstants(sc.dim, sc.field,
                                unflatten([x * F(3, 2) for x in flatten(sc.c)], sc.dim, 3))
    assert scaled != sc
    assert delta_derivations(scaled, 1) is delta_derivations(sc, 1)
    assert delta_derivations.cache_info().misses == 1


def test_memo_hits_on_an_equal_tensor():
    # the memo is keyed by value: an equal tensor that is another object hits
    delta_derivations.cache_clear()
    sc = instantiate("T05").mul
    space = delta_derivations(sc, 1)
    copy_ = StructureConstants(sc.dim, sc.field, sc.c)
    assert copy_ is not sc
    hits = delta_derivations.cache_info().hits
    assert delta_derivations(copy_, 1) is space
    assert delta_derivations.cache_info().hits == hits + 1


def test_solution_spaces_equal_only_to_themselves():
    # equal fields make two spaces, each with its own elimination
    space = delta_derivations(instantiate("T05").mul, 1)
    twin = SolutionSpace(*(getattr(space, f) for f in space._fields))
    assert twin != space and not twin == space and space == space
    assert len({space, twin}) == 2


def test_memo_hits_over_q_t():
    delta_derivations.cache_clear()
    bracket = instantiate("T11", (T,), field=QQ_T).bracket
    space = delta_derivations(bracket, F(1, 2))
    again = instantiate("T11", (T,), field=QQ_T).bracket
    assert again is not bracket
    assert delta_derivations(again, F(1, 2)) is space
    assert delta_derivations.cache_info()[:2] == (1, 1)  # hits, misses


def _form_snapshot(pair):
    return [(tuple(map(tuple, space.form[0])), tuple(space.form[1]))
            for space in (delta_derivations(pair.mul, 1), delta_derivations(pair.bracket, 1),
                          delta_derivations(pair.bracket, F(1, 2)))]


def test_no_delta_system_is_eliminated_twice(monkeypatch):
    calls = []
    echelon = linalg.echelon

    def counted(rows, field):
        calls.append(len(rows))
        return echelon(rows, field)

    monkeypatch.setattr(linalg, "echelon", counted)
    g = [[F(1), F(1), F(0)], [F(0), F(1), F(2)], [F(1), F(0), F(-1)]]
    for tid, params, pair in t_series_samples():
        delta_derivations.cache_clear()
        p = transport(pair, g)
        fingerprint(p)
        calls.clear()
        delta_derivations(p.mul, 1).dim
        assert calls == [], (tid, params)
        half_biderivations(p.bracket).dim
        assert len(calls) == 1, (tid, params)
        calls.clear()
        is_strong_d_special(p)
        assert len(calls) == 1, (tid, params)
        # the derived systems share the cached forms and leave them as they were
        before = _form_snapshot(p)
        _read_through_derived_systems(p)
        assert _form_snapshot(p) == before, (tid, params)
