"""Seed-fixed randomized suites for the structural invariants."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from tpa import linalg
from tpa.algebra import (
    AlgebraPair,
    StructureConstants,
    check_identity,
    is_commutative_associative,
    is_lie,
    is_poisson,
    is_transposed_poisson,
    transport,
)
from tpa.catalog import instantiate, t_series_samples
from tpa.derivations import (
    delta_derivations,
    derivation_residual,
    half_biderivations,
    pair_derivations,
)
from tpa.dspecial import derivation_matching_bracket, derived_bracket, is_strong_d_special
from tpa.iso import fingerprint
from tpa.linalg import det
from tpa.scalars import QQ
from tpa.verify import GL_SUITE_ENTRIES, _random_invertible


def test_gl_invariance_of_tp_predicate():
    rng = random.Random(20240601)
    for tid, params in GL_SUITE_ENTRIES:
        pair = instantiate(tid, params)
        base = is_transposed_poisson(pair)
        for _ in range(10):
            g = _random_invertible(rng, 3)
            assert is_transposed_poisson(transport(pair, g)) == base


def test_gl_invariance_of_negative_case():
    # a pair failing the compatibility keeps failing in any basis
    from tpa.algebra import AlgebraPair

    t29 = instantiate("T29")
    bad = AlgebraPair(t29.mul, t29.mul)
    rng = random.Random(77)
    for _ in range(10):
        g = _random_invertible(rng, 3)
        assert not is_transposed_poisson(transport(bad, g))


def test_right_multiplications_are_half_derivations():
    for tid, params, pair in t_series_samples():
        n = pair.dim
        for z in range(n):
            rz = [[pair.mul.c[c][z][r] for c in range(n)] for r in range(n)]
            assert not derivation_residual(pair.bracket, rz, F(1, 2)), (tid, params, z)


def test_right_multiplications_lie_in_solver_space():
    # membership cross-check against the solved space on a few entries
    for tid, params in [("T05", ()), ("T09", (F(2), F(1))), ("T17", (F(2),))]:
        pair = instantiate(tid, params)
        space = delta_derivations(pair.bracket, F(1, 2))
        for z in range(3):
            rz = [[pair.mul.c[c][z][r] for c in range(3)] for r in range(3)]
            assert space.contains(rz)


def test_products_are_half_biderivations_of_their_bracket():
    from tpa.derivations import half_biderivations

    cache = {}
    for tid, params, pair in t_series_samples():
        if pair.bracket.is_zero():
            continue
        key = pair.bracket.c
        space = cache.get(key)
        if space is None:
            space = cache[key] = half_biderivations(pair.bracket, symmetric=True)
        assert space.contains(pair.mul.c), (tid, params)


def test_fingerprint_is_transport_invariant():
    rng = random.Random(5)
    for tid, params in [("T05", ()), ("T11", (F(3),)), ("T17", (F(1),))]:
        pair = instantiate(tid, params)
        fp = fingerprint(pair)
        for _ in range(3):
            g = _random_invertible(rng, 3)
            assert fingerprint(transport(pair, g)) == fp


def test_random_invertible_helper():
    rng = random.Random(1)
    for _ in range(20):
        g = _random_invertible(rng, 3)
        assert det(g, QQ) != 0
        # integral rationals are plain ints throughout the package
        assert all(type(v) is int for row in g for v in row)


# -- the integer normal form: every scale-invariant question reads it --------

nonzero_scales = st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(bool)
basis_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _scaled(sc, c):
    return StructureConstants.from_entries(
        sc.dim, [(i + 1, j + 1, k + 1, c * v) for i, j, k, v in sc.entries], sc.field)


@st.composite
def moved_and_rescaled(draw):
    """A T-series sample moved by a random GL(3,Q), and the same pair with
    mul and bracket each multiplied by its own nonzero rational."""
    _, _, pair = draw(st.sampled_from(t_series_samples()))
    g = [[draw(basis_entries) for _ in range(3)] for _ in range(3)]
    assume(det(g, QQ))
    moved = transport(pair, g)
    c_m, c_b = draw(nonzero_scales), draw(nonzero_scales)
    return moved, AlgebraPair(_scaled(moved.mul, c_m), _scaled(moved.bracket, c_b))


def _answers(pair):
    """The answer of every question that reads the normal form."""
    return (
        is_transposed_poisson(pair),
        is_poisson(pair),
        is_lie(pair.bracket),
        is_commutative_associative(pair.mul),
        fingerprint(pair),
        delta_derivations(pair.mul, 1).vectors,
        delta_derivations(pair.bracket, F(1, 2)).vectors,
        pair_derivations(pair).vectors,
        half_biderivations(pair.bracket, symmetric=True).vectors,
        half_biderivations(pair.bracket, symmetric=False).vectors,
        is_strong_d_special(pair),
    )


@settings(max_examples=40, deadline=None)
@given(moved_and_rescaled())
def test_questions_invariant_under_rescaling(pairs):
    pair, rescaled = pairs
    assert _answers(rescaled) == _answers(pair)
    for sc, other in zip((pair.mul, pair.bracket), (rescaled.mul, rescaled.bracket)):
        # one normal form up to sign, whatever the scale
        assert other.primitive.c in (sc.primitive.c, _scaled(sc.primitive, -1).c)


def _assert_primitive(sc):
    values = [v for *_, v in sc.primitive.entries]
    assert all(type(v) is int for v in values)
    assert gcd(*values) == (1 if values else 0)
    assert sc.primitive.primitive is sc.primitive


@settings(max_examples=25, deadline=None)
@given(moved_and_rescaled())
def test_primitive_is_an_idempotent_integer_form(pairs):
    for pair in pairs:
        _assert_primitive(pair.mul)
        _assert_primitive(pair.bracket)
        assert pair.primitive.mul is pair.mul.primitive
        assert pair.primitive.bracket is pair.bracket.primitive
        assert pair.primitive.primitive is pair.primitive


def test_primitive_of_qt_zero_and_primitive_tensors_is_itself():
    from tpa.scalars import QQ_T, T

    qt = StructureConstants.from_entries(2, [(1, 1, 1, T / 2), (1, 2, 2, F(1, 3))], QQ_T)
    zero = StructureConstants.zero(3)
    t05 = instantiate("T05")
    for sc in (qt, zero, t05.mul, t05.bracket):
        assert sc.primitive is sc
    assert t05.primitive is t05
    assert _scaled(t05.mul, F(3, 4)).primitive.c == t05.mul.c


# -- the scale-dependent outputs keep the tensor as given ---------------------

@pytest.mark.parametrize("c_m, c_b", [(F(-2, 3), F(5, 7)), (F(3), F(-1, 2)), (F(7, 4), 1)])
def test_matching_derivation_reproduces_the_given_bracket(c_m, c_b):
    for tid, params in [("T03", (F(2),)), ("T05", ()), ("T09", (F(3), F(1))), ("T17", (F(2),))]:
        pair = instantiate(tid, params)
        mul, bracket = _scaled(pair.mul, c_m), _scaled(pair.bracket, c_b)
        assert is_strong_d_special(AlgebraPair(mul, bracket))
        d = derivation_matching_bracket(mul, bracket)
        assert derived_bracket(mul, d) == bracket, tid
        # the bracket is linear in D and D(x).y is linear in mul
        d0 = derivation_matching_bracket(pair.mul, pair.bracket)
        assert d == [[c_b / c_m * x for x in row] for row in d0], tid


def _transposed_residual(pair, i, j, k):
    """2 e_k.[e_i, e_j] - [e_k.e_i, e_j] - [e_i, e_k.e_j] from the tensors."""
    e = linalg.identity(pair.dim, QQ)
    mul, br = pair.mul.evaluate, pair.bracket.evaluate
    terms = (mul(e[k], br(e[i], e[j])), br(mul(e[k], e[i]), e[j]), br(e[i], mul(e[k], e[j])))
    return tuple(QQ.coerce(2 * a - b - c) for a, b, c in zip(*terms))


@pytest.mark.parametrize("c_m, c_b", [(F(-2, 3), F(5, 7)), (F(3, 2), F(-4))])
def test_violations_are_residuals_of_the_given_tensor(c_m, c_b):
    # T29's product with T08's bracket breaks the transposed rule
    rng = random.Random(17)
    pair = AlgebraPair(instantiate("T29").mul, instantiate("T08").bracket)
    for _ in range(3):
        bad = transport(pair, _random_invertible(rng, 3))
        scaled = AlgebraPair(_scaled(bad.mul, c_m), _scaled(bad.bracket, c_b))
        assert not is_transposed_poisson(scaled)
        report = check_identity(scaled, "transposed_leibniz")
        assert not report.holds
        want = []
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    r = _transposed_residual(scaled, i, j, k)
                    if any(r):
                        want.append(((i + 1, j + 1, k + 1), r))
        assert report.violations == tuple(want)
        unscaled = check_identity(bad, "transposed_leibniz").violations
        assert report.violations == tuple(
            (cell, tuple(c_m * c_b * x for x in r)) for cell, r in unscaled)
