"""Every linear-algebra answer of one ``verify-paper`` run, certified.

Each ``rank``, ``nullspace`` and ``solve`` answer and each
``SolutionSpace.dim`` read of the run is checked by a certificate
(McConnell, Mehlhorn, Näher and Schweitzer, "Certifying algorithms",
Computer Science Review 5 (2011)) that does not call the elimination
under test: products of rows and vectors, minors by ``linalg.det`` (a
Bareiss loop of its own) and the textbook loop of ``test_linalg``.

* A rank r: the r x r minor at the pivot columns the textbook loop finds in
  A and the pivot rows it finds in the transpose is nonzero (rank >= r),
  and n - r kernel vectors, each nonzero at its own free column and zero
  at every other free column, so independent (rank <= r).
* A nullspace basis: those kernel vectors, each with first nonzero
  coordinate 1.
* A solution x: A x = b.  No solution: a Farkas vector y with y A = 0 and
  y b != 0.

The fingerprint fields read off ``linalg.echelon`` (the spans, the
annihilator, the centre, the unit) and its joint derivation dimension are
derived again from the raw matrices of the pair and certified the same way.

The ``Q(t)`` inverses of one whole-table ``degenerate`` run are checked the same
way: g times the inverse is the identity.
"""

import hashlib
import itertools

from test_cli import DEGENERATE_ALL_SHA256, VERIFY_PAPER_SHA256
from test_linalg import textbook_nullspace, textbook_rref

from tpa import iso, linalg
from tpa.cli import main
from tpa.derivations import SolutionSpace, delta_derivations
from tpa.iso import catalog_fingerprint
from tpa.scalars import QQ_T


def _image(a, v, field):
    return [sum((x * y for x, y in zip(row, v)), field.zero) for row in a]


def certified_rank(a, ncols, field, kernel=None):
    """The rank of a, certified as above; ``kernel`` defaults to the
    textbook loop's nullspace basis."""
    cols = textbook_rref(a, field)[1]
    r = len(cols)
    if r:
        rows = textbook_rref(linalg.transpose(a), field)[1]
        assert len(rows) == r
        assert linalg.det([[a[i][j] for j in cols] for i in rows], field)
    if kernel is None:
        kernel = textbook_nullspace(a, ncols, field)
    free = [c for c in range(ncols) if c not in cols]
    assert len(kernel) == len(free)
    for v, f in zip(kernel, free):
        assert not any(_image(a, v, field))
        assert [c for c in free if v[c]] == [f]
    return r


def certify_solution(a, b, x, field):
    """Certify ``x`` as ``linalg.solve(a, b, field)``: a solution of
    A x = b, or for None a Farkas vector of the textbook loop."""
    if x is not None:
        assert _image(a, x, field) == b
        return
    columns = linalg.transpose(a)
    y = next(y for y in textbook_nullspace(columns, len(a), field)
             if _image([b], y, field)[0])
    assert not any(_image(columns, y, field))


def _products(sc):
    """The n^2 vectors e_i e_j."""
    return [v for plane in sc.c for v in plane]


def _right_multiplications(sc):
    """Row (j, k) maps x to the k-th coordinate of x e_j."""
    n = sc.dim
    return [[sc.c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]


def _derivation_rows(sc):
    """Row (i, j, k) of D(e_i e_j) - D(e_i) e_j - e_i D(e_j) = 0 in the
    unknowns D[r][m] (D e_m = sum_r D[r][m] e_r), written out from the
    tensor."""
    n, c = sc.dim, sc.c
    rows = []
    for i, j, k in itertools.product(range(n), repeat=3):
        row = [sc.field.zero] * (n * n)
        for m in range(n):
            row[k * n + m] += c[i][j][m]
            row[m * n + i] -= c[m][j][k]
            row[m * n + j] -= c[i][m][k]
        rows.append(row)
    return rows


def test_verify_paper_linear_algebra_is_certified(monkeypatch, capsys):
    counts = dict.fromkeys(["rank", "nullspace", "solved", "infeasible", "dim",
                            "fingerprint"], 0)
    rank, nullspace, solve = linalg.rank, linalg.nullspace, linalg.solve
    dim = SolutionSpace.dim
    fingerprint = iso.fingerprint

    def certified_rank_call(rows, field):
        r = rank(rows, field)
        assert r == certified_rank(rows, len(rows[0]) if rows else 0, field)
        counts["rank"] += 1
        return r

    def certified_nullspace(rows, ncols, field):
        basis = nullspace(rows, ncols, field)
        assert all(next(x for x in v if x) == 1 for v in basis)
        certified_rank(rows, ncols, field, basis)
        counts["nullspace"] += 1
        return basis

    def certified_solve(rows, rhs, field):
        x = solve(rows, rhs, field)
        certify_solution(rows, rhs, x, field)
        counts["solved" if x is not None else "infeasible"] += 1
        return x

    def certified_dim(space):
        d = dim.fget(space)
        assert d == space.nunknowns - certified_rank(space.rows, space.nunknowns, space.field)
        counts["dim"] += 1
        return d

    def certified_fingerprint(pair):
        fp = fingerprint(pair)
        n, field, mul, br = pair.dim, pair.field, pair.mul, pair.bracket
        cube = [[sum(v[k] * mul.c[m][k][r] for k in range(n)) for r in range(n)]
                for m in range(n) for v in _products(mul)]
        right = _right_multiplications(mul)
        unit = [field.one if j == k else field.zero for j in range(n) for k in range(n)]
        assert fp.dim_sq == certified_rank(_products(mul), n, field)
        assert fp.dim_br == certified_rank(_products(br), n, field)
        assert fp.dim_span == certified_rank(_products(mul) + _products(br), n, field)
        assert fp.dim_cube == certified_rank(cube, n, field)
        assert fp.dim_ann == n - certified_rank(right, n, field)
        assert fp.dim_center == n - certified_rank(_right_multiplications(br), n, field)
        x = solve(right, unit, field)
        certify_solution(right, unit, x, field)
        assert fp.has_unit == (x is not None)
        assert fp.dim_der_pair == n * n - certified_rank(
            _derivation_rows(mul) + _derivation_rows(br), n * n, field)
        counts["fingerprint"] += 1
        return fp

    monkeypatch.setattr(linalg, "rank", certified_rank_call)
    monkeypatch.setattr(linalg, "nullspace", certified_nullspace)
    monkeypatch.setattr(linalg, "solve", certified_solve)
    monkeypatch.setattr(SolutionSpace, "dim", property(certified_dim))
    monkeypatch.setattr(iso, "fingerprint", certified_fingerprint)
    # so each fingerprint's ranks and each derivation form are computed here
    catalog_fingerprint.cache_clear()
    delta_derivations.cache_clear()
    code = main(["verify-paper"])
    # and none computed under the wrappers outlives them
    catalog_fingerprint.cache_clear()
    delta_derivations.cache_clear()
    raw = capsys.readouterr().out.encode()
    assert code == 1
    assert hashlib.sha256(raw).hexdigest() == VERIFY_PAPER_SHA256
    assert all(counts.values()), counts
    assert counts["fingerprint"] == 124, counts


def test_degenerate_all_inverses_are_certified(monkeypatch, capsys):
    counts = {"Q": 0, "Q(t)": 0}
    inv = linalg.inv

    def certified_inv(a, field):
        b = inv(a, field)
        product = [_image(a, col, field) for col in linalg.transpose(b)]  # columns of a b
        assert not any(x - (field.one if i == j else field.zero)
                       for j, col in enumerate(product) for i, x in enumerate(col))
        counts["Q(t)" if field is QQ_T else "Q"] += 1
        return b

    monkeypatch.setattr(linalg, "inv", certified_inv)
    code = main(["degenerate"])
    raw = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == DEGENERATE_ALL_SHA256
    assert counts == {"Q": 0, "Q(t)": 30}  # one per table row
