"""Seed-fixed randomized suites for the structural invariants."""

import random
from fractions import Fraction as F

from tpa.algebra import is_transposed_poisson, transport
from tpa.catalog import instantiate, t_series_samples
from tpa.derivations import derivation_residual, delta_derivations
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
