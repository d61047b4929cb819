"""Consequence identities of transposed Poisson algebras as an oracle.

Bai, Bai, Guo and Wu ("Transposed Poisson algebras, Novikov-Poisson
algebras and 3-Lie algebras", arXiv:2005.01110) list identities that hold
in every transposed Poisson algebra without being among its axioms.  Three
of them, with x.y the product and [x, y] the bracket:

    x.[y,z] + y.[z,x] + z.[x,y] = 0
    [h.[x,y], z] + [h.[y,z], x] + [h.[z,x], y] = 0
    [h.x, [y,z]] + [h.y, [z,x]] + [h.z, [x,y]] = 0

They are evaluated here by loops over basis vectors with
``StructureConstants.evaluate`` alone, so they share no code with the
identity patterns that ``check_identity`` and the solvers read.  Each is
multilinear, so the basis vectors cover every argument.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import assume, given, settings, strategies as st

from tpa import linalg
from tpa.algebra import AlgebraPair, is_transposed_poisson, transport
from tpa.catalog import T_SERIES_IDS, instantiate, sample_params, t_series_samples
from tpa.scalars import QQ


def _add(*vectors):
    return [sum(xs) for xs in zip(*vectors)]


def _cyclic(x, y, z):
    return ((x, y, z), (y, z, x), (z, x, y))


def _tables(pair):
    """The basis vectors, then x.y and [x,y] for every two of them, by
    ``evaluate``; their indices run over ``range(n)``."""
    n = pair.dim
    e = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    mul = [[pair.mul.evaluate(x, y) for y in e] for x in e]
    br = [[pair.bracket.evaluate(x, y) for y in e] for x in e]
    return range(n), e, mul, br


def first_identity(pair):
    """x.[y,z] + y.[z,x] + z.[x,y] = 0 on every basis triple."""
    idx, e, _, br = _tables(pair)
    mul = pair.mul.evaluate
    return all(
        not any(_add(*(mul(e[a], br[b][c]) for a, b, c in _cyclic(x, y, z))))
        for x, y, z in product(idx, repeat=3))


def second_identity(pair):
    """[h.[x,y], z] + [h.[y,z], x] + [h.[z,x], y] = 0 on every basis quadruple."""
    idx, e, _, br = _tables(pair)
    h_xy = {(h, x, y): pair.mul.evaluate(e[h], br[x][y])
            for h, x, y in product(idx, repeat=3)}
    bracket = pair.bracket.evaluate
    return all(
        not any(_add(*(bracket(h_xy[h, a, b], e[c]) for a, b, c in _cyclic(x, y, z))))
        for h, x, y, z in product(idx, repeat=4))


def third_identity(pair):
    """[h.x, [y,z]] + [h.y, [z,x]] + [h.z, [x,y]] = 0 on every basis quadruple."""
    idx, _, mul, br = _tables(pair)
    bracket = pair.bracket.evaluate
    return all(
        not any(_add(*(bracket(mul[h][a], br[b][c]) for a, b, c in _cyclic(x, y, z))))
        for h, x, y, z in product(idx, repeat=4))


IDENTITIES = (first_identity, second_identity, third_identity)


def test_identities_hold_on_the_t_series():
    for tid, params, pair in t_series_samples():
        assert is_transposed_poisson(pair), (tid, params)
        for identity in IDENTITIES:
            assert identity(pair), (identity.__name__, tid, params)


@st.composite
def transported_samples(draw):
    """A T-series sample in a basis drawn by hypothesis (dense tensors)."""
    tid, params, pair = draw(st.sampled_from(t_series_samples()))
    g = [[F(draw(st.integers(-2, 2))) for _ in range(3)] for _ in range(3)]
    assume(linalg.det(g, QQ))
    return transport(pair, g)


@settings(max_examples=25, deadline=None)
@given(transported_samples())
def test_transposed_poisson_implies_the_identities(pair):
    if is_transposed_poisson(pair):
        for identity in IDENTITIES:
            assert identity(pair), identity.__name__


def _mixed_pairs():
    """One family's first sample's product with another's bracket."""
    firsts = [instantiate(tid, sample_params(tid)[0]) for tid in T_SERIES_IDS]
    return [AlgebraPair(a.mul, b.bracket)
            for i, a in enumerate(firsts) for j, b in enumerate(firsts) if i != j]


def test_failed_identity_refutes_mixed_pairs():
    failures = [0] * len(IDENTITIES)
    refuted = not_tp = 0
    for pair in _mixed_pairs():
        tp = is_transposed_poisson(pair)
        failed = [not identity(pair) for identity in IDENTITIES]
        assert not (tp and any(failed))
        not_tp += not tp
        refuted += any(failed)
        failures = [n + f for n, f in zip(failures, failed)]
    # the oracle has power: each identity alone refutes many of these pairs
    assert (not_tp, refuted, failures) == (355, 248, [228, 87, 129])
