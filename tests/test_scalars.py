import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import tpa.scalars
from tpa.scalars import (
    MAX_T_EXPONENT,
    QQ,
    QQ_T,
    Diverges,
    RatFunc,
    ScalarParseError,
    T,
    _ZERO,
    _cofactors,
    _div,
    _exquo,
    _integral,
    _new,
    _padd,
    _peval,
    _pmul,
    _pneg,
    _pzero,
    _trim,
    format_ratfunc,
    format_rational,
    limit_at_zero,
    parse_ratfunc,
    parse_rational,
)


def _power(r, k):
    """r * r * ... * r (k >= 0 factors), by repeated products."""
    out = RatFunc(1)
    for _ in range(k):
        out = out * r
    return out


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
    assert parse_ratfunc(" (1 + t) / (3*t) ") == (T + 1) / (3 * T)
    assert parse_ratfunc("-3/4") == RatFunc(F(-3, 4))
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


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no integer digit limit")
@pytest.mark.parametrize("template", ["{}", "1/{}", "{}*t + 1", "t/{}"])
def test_coefficient_beyond_digit_limit(template):
    # Fraction raises a plain ValueError past the interpreter's digit limit
    text = template.format("1" * (sys.get_int_max_str_digits() + 1))
    with pytest.raises(ScalarParseError):
        parse_ratfunc(text)
    if "t" not in text:
        with pytest.raises(ScalarParseError):
            parse_rational(text)


def test_t_exponent_at_bound():
    n = MAX_T_EXPONENT
    t_n = _power(T, n)
    assert parse_ratfunc(f"t^{n} + t^-{n}") == t_n + RatFunc(1) / t_n


def test_format_roundtrip():
    cases = [T, T / (T + 1), RatFunc(F(5, 6)), RatFunc(1) / (T * T),
             (T * T - 1) / (T + 2), RatFunc(0), -T + 3]
    for r in cases:
        assert parse_ratfunc(format_ratfunc(r)) == r


def test_format_rational_refuses_floats():
    # str(Fraction(0.1)) would print 3602879701896397/36028797018963968
    for bad in (0.1, 2.0, True, "1/2", RatFunc(1)):
        with pytest.raises(TypeError):
            format_rational(bad)
    assert format_rational(3) == "3"
    assert format_rational(F(-6, 4)) == "-3/2"
    assert QQ.format is format_rational


def test_integral_rationals_are_ints():
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int
    for v in (QQ.coerce(F(4, 2)), QQ.coerce(RatFunc(F(3))), parse_rational("-8/4"),
              limit_at_zero(F(5)), limit_at_zero((T + 2) / (T + 1)), QQ.div(6, -3),
              QQ.div(F(3, 2), F(1, 2)), QQ.div(4, F(2))):
        assert type(v) is int
    assert QQ.div(6, 4) == F(3, 2) and type(QQ.div(6, 4)) is F
    assert type(QQ.coerce(F(1, 3))) is F
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    assert QQ_T.div(T, 2) == T / 2


def test_value_at_is_exact():
    r = (T * T + 1) / (2 * T - 6)  # a pole at t = 3
    assert [r.value_at(x) for x in (2, F(2), 0, F(1, 2), 3, F(3))] == [
        F(-5, 2), F(-5, 2), F(-1, 6), F(-1, 4), None, None]
    assert type((T * T + 1).value_at(2)) is int and (T * T + 1).value_at(2) == 5
    assert type(((T * T - 4) / (T + 2)).value_at(F(6))) is int  # t - 2 at 6
    assert RatFunc(F(2, 3)).value_at(7) == F(2, 3) and RatFunc(0).value_at(5) == 0


def test_field_descriptors():
    assert QQ.coerce(3) == F(3)
    assert QQ_T.coerce(F(1, 2)) == RatFunc(F(1, 2))
    assert QQ.coerce(RatFunc(F(1, 2))) == F(1, 2)
    with pytest.raises(TypeError):
        QQ.coerce(T)


@pytest.mark.parametrize("make", [lambda: QQ.coerce(0.1), lambda: QQ_T.coerce(0.1),
                                  lambda: RatFunc(0.5), lambda: RatFunc([0.5, 1]),
                                  lambda: RatFunc([1], [2.0, 1])])
def test_floats_rejected(make):
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="a float is not an exact rational"):
        make()


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


# -- the Laurent fast path against the Euclidean reduction and sympy -------

coeffs = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))
nonzero_coeffs = coeffs.filter(bool)


@st.composite
def numerators(draw):
    """Zero, a monomial c*t^j, or a general polynomial (mixed denominators)."""
    kind = draw(st.sampled_from(["zero", "monomial", "general"]))
    if kind == "zero":
        return [F(0)]
    if kind == "monomial":
        return [F(0)] * draw(st.integers(0, 4)) + [draw(nonzero_coeffs)]
    return draw(st.lists(coeffs, min_size=1, max_size=5))


@st.composite
def denominators(draw):
    """Monic: 1, t^k (k <= 6), or one with a nonzero coefficient below the top."""
    kind = draw(st.sampled_from(["one", "power-of-t", "general"]))
    if kind == "one":
        return [F(1)]
    if kind == "power-of-t":
        return [F(0)] * draw(st.integers(1, 6)) + [F(1)]
    return draw(st.lists(coeffs, min_size=1, max_size=3).filter(any)) + [F(1)]


# The Euclidean reduction that _reduced used before the heuristic gcd,
# kept as the reference it is checked against.

def _pdivmod(a, b):
    """Polynomial division: a = q*b + r with deg r < deg b."""
    if _pzero(b):
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and not _pzero(tuple(r)):
        shift = len(r) - 1 - db
        coef = _div(r[-1], lb)
        q[shift] = coef
        for i in range(len(b)):
            r[shift + i] -= coef * b[i]
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return _trim(q), _trim(r)


def _pgcd(a, b):
    """Monic gcd via the Euclidean algorithm."""
    a, b = _trim(a), _trim(b)
    while not _pzero(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    if _pzero(a):
        return _ZERO
    lead = a[-1]
    return tuple(_div(c, lead) for c in a)


def _euclid(num, den):
    """num/den reduced by the Euclidean gcd, with a monic denominator."""
    num, den = _trim(num), _trim(den)
    g = _pgcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    lead = den[-1]
    return _trim(F(c) / lead for c in num), _trim(F(c) / lead for c in den)


@st.composite
def operands(draw):
    """A RatFunc built from its Euclidean reduction, not by the code under test."""
    return _new(*_euclid(draw(numerators()), draw(denominators())))


def _assert_reduces_to(r, num, den):
    n, d = _euclid(num, den)
    assert (r.num, r.den) == (n, d)
    assert all(type(c) is int or type(c) is F and c.denominator != 1 for c in r.num + r.den)
    assert hash(r) == (hash(n[0]) if d == (F(1),) and len(n) == 1 else hash((n, d)))


def _ppow(a, k):
    out = (F(1),)
    for _ in range(k):
        out = _pmul(out, a)
    return out


@settings(max_examples=150, deadline=None)
@given(numerators(), denominators(), nonzero_coeffs)
def test_constructor_matches_euclid(num, den, c):
    # c * den covers the c*t^k denominators that must have c divided out
    scaled = [c * x for x in den]
    _assert_reduces_to(RatFunc(num, scaled), num, scaled)


@settings(max_examples=120, deadline=None)
@given(operands(), operands(), nonzero_coeffs, st.integers(-3, 3))
def test_arithmetic_matches_euclid(a, b, c, k):
    _assert_reduces_to(a + b, _padd(_pmul(a.num, b.den), _pmul(b.num, a.den)),
                       _pmul(a.den, b.den))
    _assert_reduces_to(a - b, _padd(_pmul(a.num, b.den), _pneg(_pmul(b.num, a.den))),
                       _pmul(a.den, b.den))
    _assert_reduces_to(a * b, _pmul(a.num, b.num), _pmul(a.den, b.den))
    if b:
        _assert_reduces_to(a / b, _pmul(a.num, b.den), _pmul(a.den, b.num))
    _assert_reduces_to(-a, _pneg(a.num), a.den)
    _assert_reduces_to(a * c, [x * c for x in a.num], a.den)
    _assert_reduces_to(c + a, _padd(_pmul((c,), a.den), a.num), a.den)
    if k >= 0:
        _assert_reduces_to(_power(a, k), _ppow(a.num, k), _ppow(a.den, k))
    elif a:
        _assert_reduces_to(_power(RatFunc(1) / a, -k), _ppow(a.den, -k), _ppow(a.num, -k))


def _sympy_of(sympy, t, r):
    def poly(cs):
        return sum(sympy.Rational(c.numerator, c.denominator) * t ** i for i, c in enumerate(cs))
    return poly(r.num) / poly(r.den)


def _reduced_pair(sympy, t, expr):
    """sympy.cancel's numerator and denominator, scaled to a monic denominator."""
    n, d = (sympy.Poly(p, t) for p in sympy.fraction(sympy.cancel(expr)))
    lead = d.LC()

    def coeffs(p):
        return tuple(F(int(x.p), int(x.q)) for x in reversed([c / lead for c in p.all_coeffs()]))
    return coeffs(n), coeffs(d)


@settings(max_examples=40, deadline=None)
@given(operands(), operands())
def test_arithmetic_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    sa, sb = _sympy_of(sympy, t, a), _sympy_of(sympy, t, b)
    cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (a * b - a, sa * sb - sa)]
    if b:
        cases.append((a / b, sa / sb))
    for ours, theirs in cases:
        assert (ours.num, ours.den) == _reduced_pair(sympy, t, theirs)


@settings(max_examples=40, deadline=None)
@given(operands(), operands())
def test_limit_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for r in (a, a * b, a * b + b) + ((a / b,) if b else ()):
        lim = sympy.limit(_sympy_of(sympy, t, r), t, 0)
        if lim.is_finite:
            assert r.limit_at_zero() == F(int(lim.p), int(lim.q))
        else:
            assert lim.is_infinite
            with pytest.raises(Diverges):
                r.limit_at_zero()


# -- the integer heuristic gcd against sympy --------------------------------

small_ints = st.integers(-6, 6)
int_polys = st.lists(small_ints, min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0)


@st.composite
def factored_pairs(draw):
    """G*F and G*H times a common content, each factor possibly times t^k,
    with leading coefficients of either sign."""
    def factor():
        return [0] * draw(st.integers(0, 2)) + draw(int_polys)
    g, f, h = factor(), factor(), factor()
    c = draw(st.integers(-12, 12).filter(bool))
    cf, ch = (draw(st.sampled_from([F(1), F(-1), F(2, 3), F(-5, 4), F(6)])) for _ in "fh")
    return (_pmul(_pmul(g, f), (c * cf,)), _pmul(_pmul(g, h), (c * ch,)))


@settings(max_examples=200, deadline=None)
@given(factored_pairs())
def test_cofactors_match_sympy(pair):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    (_, _, a), (_, _, b) = _integral(pair[0]), _integral(pair[1])
    assert math.gcd(*a) == math.gcd(*b) == 1
    pa, pb = (sympy.Poly(list(reversed(x)), t, domain="ZZ") for x in (a, b))
    g = sympy.gcd(pa, pb)
    if g.LC() < 0:
        g = -g
    expected = tuple(tuple(int(c) for c in reversed(p.exquo(g).all_coeffs())) for p in (pa, pb))
    qa, qb = _cofactors(a, b)
    assert (tuple(qa), tuple(qb)) == expected
    assert all(type(c) is int for c in qa + qb)


def test_cofactors_retry_after_failed_certification(monkeypatch):
    a, b = [-3, 1], [2, 1, 3]  # -3 + t and 2 + t + 3t^2, coprime
    xi = 2 * min(3, 3) + 29  # the starting point
    assert (_peval(a, xi), _peval(b, xi), math.gcd(_peval(a, xi), _peval(b, xi))) == \
        (32, 3712, 32)
    # 32 = -3 + 1*35 in balanced base 35: the candidate t - 3 divides a but not b
    assert _exquo(a, [-3, 1]) == [1] and _exquo(b, [-3, 1]) is None
    tried = []

    def exquo(p, g):
        tried.append((p, g))
        return _exquo(p, g)
    monkeypatch.setattr(tpa.scalars, "_exquo", exquo)
    assert _cofactors(a, b) == (a, b)
    assert tried == [(a, [-3, 1]), (b, [-3, 1])]
    _assert_reduces_to(RatFunc(a, b), a, b)
