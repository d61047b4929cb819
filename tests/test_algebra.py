import copy
import json
import pickle
from fractions import Fraction as F

import pytest

from tpa.algebra import (
    AlgebraPair,
    StructureConstants,
    check_identity,
    gl_action,
    is_poisson,
    is_transposed_poisson,
    limit_pair,
    pair_from_json,
    pair_to_json,
    pairs_equal,
    transport,
)
from tpa.catalog import instantiate
from tpa.linalg import DimensionMismatch, SingularMatrix, identity
from tpa.scalars import QQ


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


def test_limit_pair():
    from tpa.scalars import QQ_T

    pair = instantiate("T09", [QQ_T.parse("2"), QQ_T.parse("t")], field=QQ_T)
    lim = limit_pair(pair)
    assert pairs_equal(lim, instantiate("T09", [F(2), F(0)]))
