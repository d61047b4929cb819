import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from tpa.algebra import (
    is_commutative_associative,
    is_lie,
    is_transposed_poisson,
    pair_to_json,
    pairs_equal,
)
from tpa.catalog import (
    CATALOG,
    InadmissibleParameter,
    T_SERIES_IDS,
    UnknownId,
    instantiate,
    known_isomorphisms,
    sample_params,
    t_series_samples,
)
from tpa.iso import fingerprint, verify_witness


def test_unknown_id():
    with pytest.raises(UnknownId):
        instantiate("T99")


def test_inadmissible_parameters():
    with pytest.raises(InadmissibleParameter) as exc:
        instantiate("T19", [F(0)])
    assert str(exc.value) == "T19 parameters (0,) violate: gamma != 0"
    with pytest.raises(InadmissibleParameter) as exc:
        instantiate("D03", [0])
    assert str(exc.value) == "D03 parameters (0,) violate: alpha != 0"
    with pytest.raises(InadmissibleParameter):
        instantiate("T09", [F(1)])  # needs two parameters


#: sha256 of every catalog entry at every pool sample, in catalog order
CATALOG_SHA256 = "69b6d99f990bf6e71a48cf8c644f33aaa1b28a8c322fb4f34da166d89dd99422"


def test_every_entry_at_every_pool_sample_is_pinned():
    # id, kind, dim, parameter names, alt name, the sample itself, the
    # tensors and the scalar type of every cell; instantiate raises on an
    # inadmissible sample, so every pool is admissible too
    records = []
    for cid, e in CATALOG.items():
        for params in sample_params(cid):
            pair = instantiate(cid, params)
            records.append({
                "id": cid, "kind": e.kind, "dim": e.dim,
                "param_names": list(e.param_names), "alt_name": e.alt_name,
                "params": [[type(p).__name__, str(p)] for p in params],
                "pair": pair_to_json(pair),
                "types": [type(v).__name__ for sc in (pair.mul, pair.bracket)
                          for plane in sc.c for row in plane for v in row],
            })
    assert len(records) == 154
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == CATALOG_SHA256


def test_t05_table():
    t05 = instantiate("T05")
    mul, br = t05.mul, t05.bracket
    assert mul.c[0][0][2] == 1 and mul.c[0][1][0] == 1
    assert mul.c[1][1][1] == 1 and mul.c[1][2][2] == 1
    assert mul.c[1][0][0] == 1  # symmetrized
    assert br.c[0][1][2] == 1 and br.c[1][0][2] == -1


def test_t09_table():
    pair = instantiate("T09", [F(2), F(0)])
    assert pair.mul.is_zero()
    assert pair.bracket.c[0][2][0] == 1 and pair.bracket.c[0][2][1] == 1
    assert pair.bracket.c[1][2][1] == 2


def test_a04_table():
    a04 = instantiate("A04")
    assert a04.bracket.is_zero()
    assert a04.mul.c[0][0][0] == 1
    assert a04.mul.c[0][1][1] == 1 and a04.mul.c[0][2][2] == 1
    assert a04.mul.c[1][1][2] == 1


def test_t_series_commutative_part_matches_a_series():
    # T20..T30 are exactly the commutative list with the zero bracket
    for i, aid in enumerate(
        ["A01", "A02", "A03", "A04", "A05", "A06", "A07", "A08", "A09", "A10", "A11"],
        start=20,
    ):
        t = instantiate(f"T{i}")
        a = instantiate(aid)
        assert pairs_equal(t, a)
        assert t.bracket.is_zero()


def test_every_t_series_entry_is_tp():
    for tid, params, pair in t_series_samples():
        assert is_transposed_poisson(pair), (tid, params)


def test_lie_entries_are_lie():
    for lid in ("h", "g1", "sl2"):
        assert is_lie(instantiate(lid).bracket)
    for params in sample_params("g2"):
        assert is_lie(instantiate("g2", params).bracket)


def test_comm_entries_are_commutative_associative():
    for cid, e in CATALOG.items():
        if e.kind == "comm":
            assert is_commutative_associative(instantiate(cid).mul), cid


def test_d_families_are_tp():
    for did in ("D01", "D02", "D03", "D04", "D05", "D06", "D06b", "D07", "D08",
                "DA02", "DA03", "D2_01", "N01"):
        for params in sample_params(did):
            assert is_transposed_poisson(instantiate(did, params)), did


def test_n02_as_printed_fails_compatibility():
    # detected table defect: the second 2-dimensional exceptional pair
    # violates the transposed rule at (x, y, z) = (e1, e2, e1); on its
    # bracket every compatible product must square e2 to zero
    from tpa.algebra import check_identity
    from tpa.derivations import half_biderivations

    n02 = instantiate("N02")
    rep = check_identity(n02, "transposed_leibniz")
    assert not rep.holds
    assert ((1, 2, 1), (F(2), F(0))) in rep.violations
    space = half_biderivations(n02.bracket, symmetric=True)
    assert all(t[1][1] == (0, 0) for t in space.basis)  # e2.e2 = 0 forced
    assert space.coords_of(n02.mul.c) is None


def test_t10s_matches_its_normal_form():
    pair = instantiate("T10s", [F(3)])
    assert pair.mul.c[2][2][0] == F(-2)  # (1 - alpha) e1
    assert pair.mul.c[2][2][1] == F(1)
    assert is_transposed_poisson(pair)


def test_sample_params_contract():
    assert sample_params("T05") == [()]
    t09 = sample_params("T09")
    assert (F(2), F(1)) in t09
    t19 = sample_params("T19")
    assert all(p[0] != 0 for p in t19)
    g2 = sample_params("g2")
    assert (F(1, 2),) in g2 and (F(2),) in g2
    with pytest.raises(UnknownId):
        sample_params("nope")


def test_t_series_profile_size():
    # at least 3 points per parametric family
    for tid in T_SERIES_IDS:
        e = CATALOG[tid]
        if e.param_names:
            assert len(sample_params(tid)) >= 3, tid


def _rational_roots(coeffs):
    """The rational roots of a polynomial (coefficients lowest degree
    first), by the rational root theorem on its integer multiple."""
    k = next(i for i, c in enumerate(coeffs) if c)
    scale = math.lcm(*(F(c).denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs[k:]]

    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return set(small) | {abs(n) // d for d in small}

    candidates = {F(sign * p, q) for p in divisors(ints[0]) for q in divisors(ints[-1])
                  for sign in (1, -1)}
    return {r for r in candidates if sum(c * r ** i for i, c in enumerate(ints)) == 0} | (
        {F(0)} if k else set())


def _specialisation_roots(tid):
    """(the rational values at which the Q(t) fingerprint and strong
    D-special answer of ``tid`` at beta = t may fail to specialise, both
    answers): the roots of every pivot of every elimination behind them
    and of every structure constant's denominator (Sit, J. Symbolic
    Comput. 13 (1992))."""
    from tpa import linalg
    from tpa.derivations import delta_derivations
    from tpa.dspecial import is_strong_d_special
    from tpa.scalars import QQ_T, T

    pair = instantiate(tid, (T,), field=QQ_T)
    roots = set().union(*(_rational_roots(v.den) for sc in (pair.mul, pair.bracket)
                          for plane in sc.c for row in plane for v in row))
    echelon = linalg.echelon

    def traced(rows, field):
        m, pivots = echelon(rows, field)
        for row, c in zip(m, pivots):
            roots.update(_rational_roots(row[c].num), _rational_roots(row[c].den))
        return m, pivots

    delta_derivations.cache_clear()  # a memo hit would skip an elimination
    linalg.echelon = traced
    try:
        answers = fingerprint(pair), is_strong_d_special(pair)
    finally:
        linalg.echelon = echelon
    return roots, answers


#: the one-parameter T-series families: the pivot roots of their Q(t)
#: answers, and those of the roots where the Q answers really differ
SPECIALISATION_ROOTS = {
    "T03": ({0}, {0}), "T04": ({0}, {0}), "T07": ({0}, {0}), "T12": ({0}, {0}),
    "T17": ({0}, {0}), "T10": ({0, F(1, 2), 1, 2}, {0, F(1, 2), 2}),
    "T11": ({0, F(1, 2), 1, 2}, {0, F(1, 2), 2}), "T19": ({0}, set()),  # T19^0 is inadmissible
}


@pytest.mark.parametrize("tid", sorted(SPECIALISATION_ROOTS))
def test_sample_pools_hold_every_special_value(tid):
    # the Q(t) answers hold at every rational value but the pivot roots, so
    # a sample pool holding every admissible root covers the whole family
    from tpa.dspecial import is_strong_d_special

    roots, answers = _specialisation_roots(tid)
    admissible = {r for r in roots if not (CATALOG[tid].last_nonzero and r == 0)}
    assert admissible <= {p for (p,) in sample_params(tid)}
    special = {r for r in admissible
               if (fingerprint(q := instantiate(tid, (r,))), is_strong_d_special(q)) != answers}
    assert (roots, special) == SPECIALISATION_ROOTS[tid]
    for r in (F(3), F(-5, 7)):  # outside every root set
        q = instantiate(tid, (r,))
        assert (fingerprint(q), is_strong_d_special(q)) == answers, r


def test_all_witnesses_verify():
    from tpa.linalg import inv
    from tpa.scalars import QQ

    ws = known_isomorphisms()
    assert len(ws) >= 60
    for w in ws:
        a = instantiate(*w.source)
        b = instantiate(*w.target)
        m = [list(r) for r in w.matrix]
        assert verify_witness(a, b, m), w.name
        # a witness for a ~ b inverts to a witness for b ~ a
        assert verify_witness(b, a, inv(m, QQ)), w.name


#: sha256 of the witness list, sorted; every scalar is written by ``str``,
#: so ``F(1)`` and ``1`` hash alike and only the order of the list is free
WITNESSES_SHA256 = "47c8234a8a1eab54d6e23279e14d819f0cb0fd4409f617afc39cb0e9b547dd58"


def test_witness_list_is_pinned():
    records = sorted(
        [w.name, w.source[0], [str(p) for p in w.source[1]],
         w.target[0], [str(p) for p in w.target[1]],
         [[str(v) for v in row] for row in w.matrix]]
        for w in known_isomorphisms())
    assert len(records) == 76
    blob = json.dumps(records, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == WITNESSES_SHA256


def test_witness_fingerprints_agree():
    for w in known_isomorphisms():
        assert fingerprint(instantiate(*w.source)) == fingerprint(instantiate(*w.target)), w.name


def test_g2_inversion_witness_present():
    names = {w.name for w in known_isomorphisms()}
    assert "g2 parameter inversion" in names
    assert "T10* normal form" in names


def test_instantiate_over_qt():
    from tpa.scalars import QQ_T

    pair = instantiate("T17", [QQ_T.parse("1/t")], field=QQ_T)
    assert pair.mul.c[0][2][0] == QQ_T.parse("1/t")
