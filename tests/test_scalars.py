from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tpa.scalars import (
    MAX_T_EXPONENT,
    QQ,
    QQ_T,
    Diverges,
    RatFunc,
    ScalarParseError,
    T,
    format_ratfunc,
    limit_at_zero,
    parse_ratfunc,
)


def test_rational_arithmetic():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert QQ.parse("5/6") == F(5, 6)
    assert QQ.parse("-3") == F(-3)
    with pytest.raises(ScalarParseError):
        QQ.parse("t+1")


def test_inverse_pair_cancels():
    f = T / (T + 1)
    g = (T + 1) / T
    assert f * g == RatFunc(1)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(1) / RatFunc(0)
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)


def test_normalization_idempotent():
    r = RatFunc([0, 2, 4], [0, 2])  # (2t + 4t^2) / 2t = 1 + 2t
    assert r.num == (F(1), F(2))
    assert r.den == (F(1),)
    again = RatFunc(r.num, r.den)
    assert again == r


def test_denominator_monic():
    r = RatFunc([1], [2, 4])  # 1 / (2 + 4t) -> (1/2) / (1 + 2t)... den monic
    assert r.den[-1] == 1


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("(t^2 + 3*t)/(t)", F(3)),
        ("2*t^3/t^2", F(0)),
        ("(2*t^3)/(t^2)", F(0)),
        ("5/6", F(5, 6)),
        ("1 - 2*t", F(1)),
    ],
)
def test_limits(expr, expected):
    assert limit_at_zero(parse_ratfunc(expr)) == expected


def test_limit_pole_diverges():
    with pytest.raises(Diverges):
        parse_ratfunc("1/t").limit_at_zero()
    with pytest.raises(Diverges):
        (RatFunc(1) / T).limit_at_zero()


def test_parse_shorthand_monomials():
    assert parse_ratfunc("t^-1") == RatFunc(1) / T
    assert parse_ratfunc("t^-2") == RatFunc(1) / (T * T)
    assert parse_ratfunc("-1/4*t^-2") == RatFunc(F(-1, 4)) / (T * T)
    assert parse_ratfunc("2*t^3") == RatFunc([0, 0, 0, 2])
    assert parse_ratfunc("t") == T
    assert parse_ratfunc("2 + t") == T + 2


def test_parse_quotients():
    assert parse_ratfunc("t/(t+1)") == T / (T + 1)
    assert parse_ratfunc("(1 + t)/(3*t)") == (T + 1) / (3 * T)
    with pytest.raises(ScalarParseError):
        parse_ratfunc("x + 1")


@pytest.mark.parametrize("text", ["1/0", "-3/00", "1/0*t", "(1)/(t - t)", "t/0"])
def test_zero_denominators_rejected(text):
    with pytest.raises(ScalarParseError):
        parse_ratfunc(text)
    if "t" not in text:
        with pytest.raises(ScalarParseError):
            QQ.parse(text)


@pytest.mark.parametrize("text", ["t^999999999", "t^-65", "2*t^65 + 1", "1/t^65",
                                  "(1)/(t^100)", "(t^-999999999)/(1 + t)",
                                  "t^" + "9" * 5000])
def test_t_exponent_bounded(text):
    # an unbounded exponent would make the parser allocate a list of that length
    with pytest.raises(ScalarParseError):
        parse_ratfunc(text)


def test_t_exponent_at_bound():
    n = MAX_T_EXPONENT
    assert parse_ratfunc(f"t^{n} + t^-{n}") == T ** n + T ** -n


def test_format_roundtrip():
    cases = [T, T / (T + 1), RatFunc(F(5, 6)), RatFunc(1) / (T * T),
             (T * T - 1) / (T + 2), RatFunc(0), -T + 3]
    for r in cases:
        assert parse_ratfunc(format_ratfunc(r)) == r


def test_field_descriptors():
    assert QQ.coerce(3) == F(3)
    assert QQ_T.coerce(F(1, 2)) == RatFunc(F(1, 2))
    assert QQ.coerce(RatFunc(F(1, 2))) == F(1, 2)
    with pytest.raises(TypeError):
        QQ.coerce(T)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(small_fracs, min_size=1, max_size=4)


def ratfuncs():
    return st.builds(
        lambda n, d: RatFunc(n, d),
        polys,
        polys.filter(lambda cs: any(cs)),
    )


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == RatFunc(0)
    if b:
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_limit_homomorphism(n1, n2):
    # denominators bounded away from t = 0 so both limits exist
    f = RatFunc(n1, [1, 2])
    g = RatFunc(n2, [3, -1, 1])
    assert (f * g).limit_at_zero() == f.limit_at_zero() * g.limit_at_zero()
    assert (f + g).limit_at_zero() == f.limit_at_zero() + g.limit_at_zero()


def test_nonzero_at_zero_ratio_is_one():
    # p/q * q/p -> 1 for p, q nonvanishing at 0
    p = 2 * T + 1
    q = T * T + 3
    assert ((p / q) * (q / p)).limit_at_zero() == F(1)


def test_valuation():
    assert (T * T * 2).valuation() == 2
    assert (RatFunc(1) / T).valuation() == -1
    assert RatFunc(0).valuation() is None
