import random
from fractions import Fraction as F

import pytest

from tpa import linalg
from tpa.algebra import AlgebraPair, is_transposed_poisson, pairs_equal, transport
from tpa.catalog import instantiate, sample_params, t_series_samples
from tpa.derivations import delta_derivations
from tpa.dspecial import (
    DERIVATION_FAMILIES,
    NotADerivation,
    brackets_all_zero,
    commutator_bracket,
    derivation_matching_bracket,
    derived_bracket,
    is_strong_d_special,
    n02_obstruction_report,
    novikov_commutator_pair,
    trace_form,
)
from tpa.iso import verify_witness
from tpa.scalars import QQ
from tpa.verify import COMPUTED_NEGATIVE


def matrix(*cols):
    n = len(cols[0])
    return [[cols[c][r] for c in range(len(cols))] for r in range(n)]


def test_derived_bracket_2dim_family():
    # D(e2) = -a e2 on the 2-dimensional unital algebra gives [e1,e2] = a e2
    comm = instantiate("A2_02").mul
    a = F(3)
    d = matrix((0, 0), (0, -a))
    br = derived_bracket(comm, d)
    assert br.c[0][1][1] == a and br.c[1][0][1] == -a
    assert pairs_equal(AlgebraPair(comm, br), instantiate("D2_01", [a]))


def test_derived_bracket_zero_derivation():
    comm = instantiate("A05").mul
    d = [[F(0)] * 3 for _ in range(3)]
    assert derived_bracket(comm, d).is_zero()


def test_derived_bracket_a09_full_family():
    # D(e1) = -a e1 + b e2 + g e3, D(e2) = -2a e2 + 2b e3, D(e3) = -3a e3
    # induces [e1, e2] = a e3 regardless of b and g
    comm = instantiate("A09").mul
    a, b, g = F(2), F(5), F(-1)
    d = matrix((-a, b, g), (0, -2 * a, 2 * b), (0, 0, -3 * a))
    br = derived_bracket(comm, d)
    assert br.c[0][1][2] == a
    assert pairs_equal(AlgebraPair(comm, br), instantiate("D07", [a]))


def test_derived_bracket_a10_family():
    # the derivation family on e1.e2 = e3 has D(e1) = a e1 + d e3,
    # D(e2) = b e2 + g e3, D(e3) = (a+b) e3; commutator weight a - b
    comm = instantiate("A10").mul
    a, b, g, dd = F(3), F(1), F(2), F(-2)
    d = matrix((a, 0, dd), (0, b, g), (0, 0, a + b))
    br = derived_bracket(comm, d)
    assert br.c[0][1][2] == a - b
    assert delta_derivations(comm, 1).dim == 4


def test_not_a_derivation_rejected():
    comm = instantiate("A05").mul
    d = matrix((1, 0, 0), (0, 0, 0), (0, 0, 0))  # D(e1) = e1 is not one
    with pytest.raises(NotADerivation):
        derived_bracket(comm, d)


def test_vanishing_lemma_3dim():
    for aid in ("A01", "A03", "A07", "A08", "A11"):
        assert brackets_all_zero(instantiate(aid).mul), aid
    for aid in ("A02", "A04", "A05", "A06", "A09", "A10"):
        assert not brackets_all_zero(instantiate(aid).mul), aid


def test_vanishing_lemma_2dim():
    for aid in ("A2_01", "A2_03", "A2_04"):
        assert brackets_all_zero(instantiate(aid).mul), aid
    assert not brackets_all_zero(instantiate("A2_02").mul)


def test_vanishing_requires_comm_assoc():
    with pytest.raises(ValueError):
        brackets_all_zero(instantiate("T01").bracket)


def test_derivation_families_reproduce_brackets():
    for fid, (comm_id, build) in DERIVATION_FAMILIES.items():
        for params in sample_params(fid):
            comm = instantiate(comm_id).mul
            got = derived_bracket(comm, build(*params))
            want = instantiate(fid, params).bracket
            assert got.c == want.c, (fid, params)


def test_derived_pairs_are_transposed_poisson():
    for aid in ("A02", "A04", "A05", "A06", "A09", "A10", "A2_02"):
        comm = instantiate(aid).mul
        for d in delta_derivations(comm, 1).basis:
            pair = AlgebraPair(comm, derived_bracket(comm, [list(r) for r in d]))
            assert is_transposed_poisson(pair), aid


def test_der_dim_of_a02_is_one():
    # the derivation family on the unital product with one outer idempotent
    # is exactly one-dimensional
    assert delta_derivations(instantiate("A02").mul, 1).dim == 1


@pytest.mark.parametrize("tid", ["T02", "T08", "T13", "T14", "T15", "T16", "T18"])
def test_negative_entries_infeasible(tid):
    pair = instantiate(tid)
    assert derivation_matching_bracket(pair.mul, pair.bracket) is None
    assert not is_strong_d_special(pair)


@pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(1), F(2), F(3)])
def test_t10_t11_infeasible(alpha):
    for tid in ("T10", "T11"):
        pair = instantiate(tid, [alpha])
        assert not is_strong_d_special(pair)


def test_zero_parameter_members_are_not_strong_special():
    # omitted from the printed negative list, but computed non-special:
    # their products are isomorphic to vanishing-lemma algebras
    for tid in ("T04", "T12", "T17"):
        pair = instantiate(tid, [F(0)])
        assert not pair.mul.is_zero()
        assert not is_strong_d_special(pair)


def test_t03_nonzero_is_strong_special():
    # regression for the table contradiction: an explicit derivation of the
    # product e1.e2 = b e3 reproduces the bracket, matching the verified
    # identification with the D08 family
    for b in (F(1), F(2), F(-3)):
        pair = instantiate("T03", [b])
        d = derivation_matching_bracket(pair.mul, pair.bracket)
        assert d is not None
        assert pairs_equal(AlgebraPair(pair.mul, derived_bracket(pair.mul, d)), pair)
        w = instantiate("D08", [-1 / b])
        m = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), 1 / b]]
        assert verify_witness(w, pair, m)


def test_positive_families_feasible():
    for tid, params in [("T05", ()), ("T06", ()), ("T07", (F(2),)),
                        ("T09", (F(3), F(1))), ("T12", (F(1),)),
                        ("T17", (F(2),)), ("T19", (F(1),)), ("T04", (F(2),))]:
        assert is_strong_d_special(instantiate(tid, params)), tid


def test_computed_partition_table_is_complete():
    # COMPUTED_NEGATIVE must list every nontrivial non-special sample
    from tpa.catalog import t_series_samples

    for tid, params, pair in t_series_samples():
        if pair.mul.is_zero() or pair.bracket.is_zero():
            continue
        neg = COMPUTED_NEGATIVE.get(tid)
        expected_negative = neg == "all" or (neg == "zero" and params[0] == 0)
        assert is_strong_d_special(pair) != expected_negative, (tid, params)


def test_commutator_bracket_np01():
    pair = novikov_commutator_pair("NP01")
    # o has e2 o e1 = -e1, so [e1, e2] = e1
    assert pair.bracket.c[0][1][0] == 1
    n01 = instantiate("N01")
    m = [[F(0), F(1)], [F(-1), F(0)]]  # e1 -> -e2, e2 -> e1
    assert verify_witness(pair, n01, m)


def test_commutator_brute_search_finds_witness():
    pair = novikov_commutator_pair("NP01")
    n01 = instantiate("N01")
    hits = []
    vals = [F(-1), F(0), F(1)]
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    if a * d - b * c == 0:
                        continue
                    if verify_witness(pair, n01, [[a, b], [c, d]]):
                        hits.append(((a, b), (c, d)))
    assert hits


def test_commutator_of_symmetric_product_is_zero():
    assert commutator_bracket(instantiate("A2_04").mul).is_zero()


def test_np02_commutator_values():
    for params in sample_params("NP02"):
        a, b, _ = params
        cb = novikov_commutator_pair("NP02", params).bracket
        assert cb.c[0][1][0] == a - b
        assert all(cb.c[i][j][1] == 0 for i in range(2) for j in range(2))


def test_np02_commutator_is_linear_in_the_parameters():
    # n02_obstruction_report checks the commutator only at the unit vectors
    def cb(*params):
        return novikov_commutator_pair("NP02", params).bracket.c

    units = [cb(1, 0, 0), cb(0, 1, 0), cb(0, 0, 1)]
    rng = random.Random(19)
    for _ in range(10):
        params = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        got = cb(*params)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert got[i][j][k] == sum(p * u[i][j][k] for p, u in zip(params, units))


def test_n02_obstruction():
    report = n02_obstruction_report()
    assert report["all_pass"]
    assert report["n02_bracket_spans_e2"]
    assert report["no_witness_along_family"]
    assert report["automorphisms_fix_e2_and_span_e1"]


def test_n02_no_witness_flag_reads_the_commutator_bracket(monkeypatch):
    # a commutator pair whose bracket leaves span(e1): here N02's own bracket,
    # so the identity is a witness and the flag must turn false
    n02 = instantiate("N02")
    real = novikov_commutator_pair

    def leaving_span_e1(np_id, params=()):
        return AlgebraPair(real(np_id, params).mul, n02.bracket)

    monkeypatch.setattr("tpa.dspecial.novikov_commutator_pair", leaving_span_e1)
    pair = leaving_span_e1("NP02", sample_params("NP02")[0])
    assert verify_witness(pair, n02, [[1, 0], [0, 1]])
    report = n02_obstruction_report()
    assert report["commutator_in_span_e1"] is False
    assert report["no_witness_along_family"] is False
    assert report["all_pass"] is False

def test_n02_trace_form_radical_is_span_e1():
    mul = instantiate("N02").mul
    assert trace_form(mul) == [[0, 0], [0, 2]]
    assert linalg.nullspace(trace_form(mul), 2, QQ) == [[1, 0]]
    # the radical moves with the basis: in the basis e2, e1 it is span(e2)
    swapped = transport(AlgebraPair(mul, mul), [[0, 1], [1, 0]]).mul
    assert linalg.nullspace(trace_form(swapped), 2, QQ) == [[0, 1]]


def test_double_labelled_families_are_distinct():
    # the strong D-special table prints two families under one label; they
    # live on non-isomorphic products (3- vs 2-dimensional product span)
    from tpa.iso import distinguish, fingerprint

    d06 = instantiate("D06", [F(1), F(2)])
    d06b = instantiate("D06b", [F(1)])
    assert distinguish(d06, d06b) == "proved_noniso"
    fa = fingerprint(d06)._asdict()
    fb = fingerprint(d06b)._asdict()
    assert fa["dim_sq"] == 3 and fb["dim_sq"] == 2


def _two_step_matching_derivation(mul, bracket):
    """Reference for the one-solve feasibility: a derivation basis, the
    derived bracket of each basis element, then a solve for coordinates."""
    der = delta_derivations(mul, 1)
    n = mul.dim
    if not der.basis:
        return [[mul.field.zero] * n for _ in range(n)] if bracket.is_zero() else None
    derived = [derived_bracket(mul, d) for d in der.basis]
    rows = [[dt.c[i][j][k] for dt in derived]
            for i in range(n) for j in range(n) for k in range(n)]
    rhs = [v for plane in bracket.c for row in plane for v in row]
    coords = linalg.solve(rows, rhs, mul.field)
    return None if coords is None else [list(r) for r in der.combine(coords)]


def test_feasibility_matches_two_step_reference():
    # the same derivation (not only the same verdict) on the 70 T-series
    # samples and on a dense GL(3,Q) transport of each
    rng = random.Random(6)
    for tid, params, pair in t_series_samples():
        while True:
            g = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
            if linalg.det(g, QQ):
                break
        for p in (pair, transport(pair, g)):
            got = derivation_matching_bracket(p.mul, p.bracket)
            assert got == _two_step_matching_derivation(p.mul, p.bracket), (tid, params, g)
