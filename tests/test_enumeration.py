import random
from fractions import Fraction as F

import pytest

from tpa.algebra import StructureConstants, check_identity, is_transposed_poisson
from tpa.catalog import instantiate, t_series_samples
from tpa.derivations import NotALieAlgebra
from tpa.enumeration import assoc_residual, check_membership, member_pair, tp_family
from tpa.verify import (
    g1_family_product,
    g2_0_assoc_condition,
    g2_0_family_product,
    g2_2_assoc_condition,
    g2_2_family_product,
)


def lie(name, *params):
    return instantiate(name, list(params)).bracket


def associative(fam, coords):
    return check_identity(member_pair(fam, coords), "associative").holds


@pytest.mark.parametrize(
    "name,params,expected",
    [("g1", (), 3), ("g2", (F(3),), 3), ("g2", (F(5),), 3),
     ("g2", (F(2),), 5), ("g2", (F(0),), 5)],
)
def test_family_dims(name, params, expected):
    assert tp_family(lie(name, *params)).dim == expected


def test_family_dim_g2_half_regression():
    # no tabulated value; frozen (consistent with the weight-2 bracket via
    # the parameter inversion g2^(1/2) ~ g2^2)
    assert tp_family(lie("g2", F(1, 2))).dim == 5


def test_sl2_family_is_zero():
    # every half-derivation of sl2 is scalar, and a symmetric scalar-valued
    # biderivation forces the scalar functional to vanish; so the family is
    # zero and only the trivial product extends the bracket
    fam = tp_family(lie("sl2"))
    assert fam.dim == 0
    assert check_membership(lie("sl2"), StructureConstants.zero(3)) == []


def test_family_rejects_non_lie():
    with pytest.raises(NotALieAlgebra):
        tp_family(instantiate("T29").mul)


def test_g1_membership_and_residual():
    fam = tp_family(lie("g1"))
    coords = check_membership(lie("g1"), instantiate("T07", [F(3)]).mul)
    assert coords is not None
    assert associative(fam, coords) and assoc_residual(fam, coords) == ()
    assert is_transposed_poisson(member_pair(fam, coords))
    # zero product: all-zero coordinates
    assert check_membership(lie("g1"), StructureConstants.zero(3)) == [F(0)] * 3


def test_g1_not_in_family():
    bad = StructureConstants.from_entries(3, [(1, 1, 1, 1)], symmetrize="sym")
    assert check_membership(lie("g1"), bad) is None


def test_g1_always_associative():
    fam = tp_family(lie("g1"))
    rng = random.Random(3)
    for _ in range(20):
        prod = g1_family_product(*(F(rng.randint(-6, 6), rng.randint(1, 3))
                                   for _ in range(3)))
        coords = fam.space.coords_of(prod.c)
        assert coords is not None
        assert associative(fam, coords)


def test_g2_sq_zero_set():
    fam = tp_family(lie("g2", F(2)))
    # all four coefficients equal 1 satisfies the constraint
    sat = g2_2_family_product(F(1), F(1), F(1), F(7), F(1))
    coords = fam.space.coords_of(sat.c)
    assert coords is not None and associative(fam, coords)
    # violating point from the tabulated counterexample pattern
    viol = g2_2_family_product(F(1), F(0), F(1), F(7), F(0))
    coords = fam.space.coords_of(viol.c)
    assert coords is not None and not associative(fam, coords)
    assert g2_2_assoc_condition(F(1), F(1), F(1), F(7), F(1))
    assert not g2_2_assoc_condition(F(1), F(0), F(1), F(7), F(0))


def test_g2_zero_zero_set():
    fam = tp_family(lie("g2", F(0)))
    # b22_3^2 - b33_3 b22_3 + (b31_3 - b32_3) b22_2 = 0
    pt = (F(1), F(2), F(3), F(3) + (F(4) - F(6)) / F(1), F(3))
    assert g2_0_assoc_condition(*pt)
    prod = g2_0_family_product(*pt)
    coords = fam.space.coords_of(prod.c)
    assert coords is not None and associative(fam, coords)
    bad = (F(1), F(2), F(3), F(0), F(3))
    assert not g2_0_assoc_condition(*bad)
    coords = fam.space.coords_of(g2_0_family_product(*bad).c)
    assert coords is not None and not associative(fam, coords)


def test_every_catalog_product_is_family_member():
    # each T-series product is a symmetric half-biderivation of its bracket,
    # with vanishing associativity residual at the recovered coordinates
    cache = {}
    for tid, params, pair in t_series_samples():
        if pair.bracket.is_zero():
            continue
        key = tuple(map(tuple, (row for plane in pair.bracket.c for row in plane)))
        fam = cache.get(key)
        if fam is None:
            fam = cache[key] = tp_family(pair.bracket)
        coords = fam.space.coords_of(pair.mul.c)
        assert coords is not None, (tid, params)
        assert associative(fam, coords), (tid, params)


def test_assoc_residual_coord_count():
    fam = tp_family(lie("g1"))
    with pytest.raises(Exception):
        assoc_residual(fam, [F(1)])


def test_generic_g1_member_normalizes_to_t07():
    # the case analysis: for c != 0 the basis change e3 -> -a/c e1 - b/c e2 + e3
    # carries the generic family member onto the scaling normal form
    from tpa.algebra import AlgebraPair
    from tpa.iso import verify_witness

    g1 = lie("g1")
    for a, b, c in [(F(1), F(2), F(3)), (F(-1), F(0), F(1)), (F(5), F(1, 2), F(-2))]:
        member = AlgebraPair(g1_family_product(a, b, c), g1)
        m = [[F(1), F(0), -a / c], [F(0), F(1), -b / c], [F(0), F(0), F(1)]]
        assert verify_witness(member, instantiate("T07", [c]), m)


def test_degenerate_g1_member_normalizes_to_t08():
    # c = 0, (a, b) != 0: e3.e3 lands in the plane the bracket scales, and
    # any basis taking e1 to it reaches the nilpotent-square normal form
    from tpa.algebra import AlgebraPair
    from tpa.iso import verify_witness

    g1 = lie("g1")
    for a, b in [(F(1), F(0)), (F(2), F(3)), (F(0), F(-1))]:
        member = AlgebraPair(g1_family_product(a, b, F(0)), g1)
        m = [[a, b, F(0)], [b, -a, F(0)], [F(0), F(0), F(1)]]
        assert verify_witness(member, instantiate("T08", []), m)
