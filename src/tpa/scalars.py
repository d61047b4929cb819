"""Exact scalar arithmetic: the rationals Q and rational functions Q(t).

Both domains sit behind the same operator surface (+, -, *, /, unary -,
==, bool) so the linear algebra and tensor code is generic over them.
Rationals are plain ``fractions.Fraction``; rational functions are pairs
of dense coefficient lists over Fraction, kept fully reduced with a monic
denominator.  Everything is immutable.

Sums and products of Laurent operands (reduced denominator t^k), and a
Laurent value divided by a monomial c*t^j, reduce by stripping powers of
t instead of by the Euclidean gcd; the stored form is the same either way.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Diverges(ArithmeticError):
    """Raised by limit_at_zero when the function has a pole at t = 0."""


class ScalarParseError(ValueError):
    """Raised when a scalar string cannot be parsed."""


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _trim(cs):
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pzero(cs):
    return len(cs) == 1 and cs[0] == 0


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if _pzero(a) or _pzero(b):
        return (Fraction(0),)
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a, b):
    """Polynomial division: a = q*b + r with deg r < deg b."""
    if _pzero(b):
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and not _pzero(tuple(r)):
        shift = len(r) - 1 - db
        coef = r[-1] / lb
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
        return (Fraction(0),)
    lead = a[-1]
    return tuple(c / lead for c in a)


def _pval(a):
    """t-adic valuation: index of the lowest nonzero coefficient."""
    for i, c in enumerate(a):
        if c:
            return i
    return None  # zero polynomial


def _tpow(a):
    """k when the nonzero polynomial a is c*t^k, else None."""
    k = len(a) - 1
    return None if any(a[:k]) else k


_ZERO = (Fraction(0),)
_ONE = (Fraction(1),)


class RatFunc:
    """A rational function in one variable t over Q.

    Invariants: numerator and denominator share no factor, the denominator
    is monic and nonzero, and the zero function is 0/1.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num=0, den=1):
        num = cls._coeffs(num)
        den = cls._coeffs(den)
        if _pzero(den):
            raise ZeroDivisionError("rational function with zero denominator")
        return _reduced(num, den)

    @staticmethod
    def _coeffs(v):
        if isinstance(v, RatFunc):
            raise TypeError("nested RatFunc; use arithmetic instead")
        if isinstance(v, (int, Fraction)):
            return (Fraction(v),)
        return _trim(Fraction(c) for c in v)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild from the stored, already reduced form
        return (_new, (self.num, self.den))

    # -- coercion ----------------------------------------------------------
    @staticmethod
    def _lift(v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (int, Fraction)):
            return _new((Fraction(v),), _ONE)
        return NotImplemented

    # -- field operations ---------------------------------------------------
    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        ka, kb = _tpow(self.den), _tpow(other.den)
        if ka is not None and kb is not None:
            k = max(ka, kb)
            return _laurent(_padd(_ZERO * (k - ka) + self.num, _ZERO * (k - kb) + other.num), k)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return _reduced(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return _new(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _new(_ZERO, _ONE)
            return _new(tuple(c * other for c in self.num), self.den)
        if not isinstance(other, RatFunc):
            return NotImplemented
        num = _pmul(self.num, other.num)
        ka, kb = _tpow(self.den), _tpow(other.den)
        if ka is not None and kb is not None:
            return _laurent(num, ka + kb)
        return _reduced(num, _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero rational function")
        return _reduced(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (RatFunc(1) / self) ** (-k)
        out = RatFunc(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == (Fraction(1),) and len(self.num) == 1:
            return hash(self.num[0])
        return hash((self.num, self.den))

    def __bool__(self):
        return not _pzero(self.num)

    def __repr__(self):
        return f"RatFunc({format_ratfunc(self)!r})"

    # -- analysis ------------------------------------------------------------
    def valuation(self):
        """t-adic valuation (numerator minus denominator), None for zero."""
        vn = _pval(self.num)
        if vn is None:
            return None
        return vn - _pval(self.den)

    def limit_at_zero(self):
        """Value at t -> 0; raises Diverges if there is a pole there.

        The stored form is reduced, so a denominator vanishing at 0 cannot
        be cancelled against the numerator.
        """
        if self.den[0] == 0:
            raise Diverges(f"pole at t = 0 in {format_ratfunc(self)}")
        return self.num[0] / self.den[0]

    def is_constant(self):
        return len(self.num) == 1 and self.den == (Fraction(1),)


def _new(num, den):
    """A RatFunc holding num/den as given: they must already be reduced."""
    r = object.__new__(RatFunc)
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "den", den)
    return r


def _laurent(num, k):
    """The reduced num / t^k for a trimmed num and k >= 0: strip t^min(k, val num)."""
    v = _pval(num)
    if v is None:
        return _new(_ZERO, _ONE)
    if v >= k:
        return _new(num[k:], _ONE)
    return _new(num[v:], _ZERO * (k - v) + _ONE)


def _reduced(num, den):
    """The reduced num/den for trimmed polynomials, den nonzero."""
    k = _tpow(den)
    if k is not None:  # den = c*t^k: only powers of t can cancel
        c = den[-1]
        if c != 1:
            num = tuple(x / c for x in num)
        return _laurent(num, k)
    if _pzero(num):
        return _new(_ZERO, _ONE)
    g = _pgcd(num, den)
    if len(g) > 1 or g[0] != 1:
        num, _ = _pdivmod(num, g)
        den, _ = _pdivmod(den, g)
    lead = den[-1]
    if lead != 1:
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
    return _new(num, den)


#: the variable t
T = RatFunc((0, 1))


def limit_at_zero(r):
    """Limit at t -> 0 for a RatFunc (Fractions pass through unchanged)."""
    if isinstance(r, RatFunc):
        return r.limit_at_zero()
    return Fraction(r)


# ---------------------------------------------------------------------------
# text encoding
# ---------------------------------------------------------------------------

#: largest |exponent| of t accepted by the parser; a monomial t^N becomes a
#: dense coefficient list of length |N| + 1 (the table needs at most 6)
MAX_T_EXPONENT = 64

_DEN = r"/\d*[1-9]\d*"  # a nonzero denominator
_RAT_RE = re.compile(rf"[+-]?\d+(?:{_DEN})?$")
_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    rf"(?:(?P<coef>\d+(?:{_DEN})?)\*?)?"
    r"(?:(?P<t>t)(?:\^(?P<exp>[+-]?\d{1,4}))?)?$"
)


def parse_rational(s):
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ScalarParseError(f"not a rational: {s!r}")
    return Fraction(s)


def _parse_terms(s):
    """Parse a sum of monomials (negative exponents allowed) -> {exp: coef}."""
    s = s.replace(" ", "")
    if not s:
        raise ScalarParseError("empty polynomial")
    # split into signed terms
    terms, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-^*/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    out = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise ScalarParseError(f"bad term {term!r} in {s!r}")
        coef = Fraction(m.group("coef") or 1)
        if m.group("sign") == "-":
            coef = -coef
        exp = 0
        if m.group("t"):
            exp = int(m.group("exp") or 1)
            if abs(exp) > MAX_T_EXPONENT:
                raise ScalarParseError(f"exponent of t beyond ±{MAX_T_EXPONENT} in {s!r}")
        out[exp] = out.get(exp, Fraction(0)) + coef
    return out


def _terms_to_ratfunc(terms):
    shift = min(0, min(terms))
    num = [Fraction(0)] * (max(terms) - shift + 1)
    for e, c in terms.items():
        num[e - shift] = c
    den = [Fraction(0)] * (1 - shift)
    den[-1] = Fraction(1)  # t^{-shift}
    return RatFunc(num, den)


def _quotient(num, den):
    """The quotient of two monomial sums, given as strings."""
    num, den = _terms_to_ratfunc(_parse_terms(num)), _terms_to_ratfunc(_parse_terms(den))
    if not den:
        raise ScalarParseError("zero denominator")
    return num / den


_FRAC_FORM = re.compile(r"\((?P<n>.+?)\)\s*/\s*\((?P<d>.+)\)$")


def parse_ratfunc(s):
    """Parse a Q(t) scalar.

    Accepted forms: plain rationals ("5/6"), monomial sums with optionally
    negative exponents ("2*t^3", "t^-1", "1 - 2*t"), a quotient of two
    parenthesised sums "(1 + t)/(3*t)", and simple quotients like "1/t".
    """
    s = s.strip()
    if _RAT_RE.match(s):
        return RatFunc(Fraction(s))
    m = _FRAC_FORM.match(s)
    if m:
        return _quotient(m.group("n"), m.group("d"))
    try:
        return _terms_to_ratfunc(_parse_terms(s))
    except ScalarParseError:
        pass
    # fall back: a single top-level quotient such as "1/t" or "t/(t+1)"
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            left, right = s[:i], s[i + 1 :]
            if right.startswith("(") and right.endswith(")"):
                right = right[1:-1]
            if left.startswith("(") and left.endswith(")"):
                left = left[1:-1]
            return _quotient(left, right)
    raise ScalarParseError(f"cannot parse rational function: {s!r}")


def format_rational(v):
    return str(Fraction(v))


def _poly_str(cs):
    parts = []
    for e, c in enumerate(cs):
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            stem = "t" if e == 1 else f"t^{e}"
            body = stem if mag == 1 else f"{mag}*{stem}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def format_ratfunc(r):
    if r.den == (Fraction(1),):
        return _poly_str(r.num)
    return f"({_poly_str(r.num)})/({_poly_str(r.den)})"


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class _RationalField:
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(v):
        if isinstance(v, RatFunc):
            if not v.is_constant():
                raise TypeError("cannot coerce a non-constant function into Q")
            return v.num[0]
        return Fraction(v)

    parse = staticmethod(parse_rational)
    format = staticmethod(format_rational)

    def __repr__(self):
        return "QQ"

    __reduce__ = __repr__  # a singleton: pickle and deepcopy keep it by name


class _RatFuncField:
    name = "Q(t)"
    zero = RatFunc(0)
    one = RatFunc(1)

    @staticmethod
    def coerce(v):
        if isinstance(v, RatFunc):
            return v
        return RatFunc(Fraction(v))

    parse = staticmethod(parse_ratfunc)
    format = staticmethod(format_ratfunc)

    def __repr__(self):
        return "QQ_T"

    __reduce__ = __repr__  # a singleton: pickle and deepcopy keep it by name


QQ = _RationalField()
QQ_T = _RatFuncField()
