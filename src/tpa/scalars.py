"""Exact scalar arithmetic: the rationals Q and rational functions Q(t).

Both domains sit behind the same operator surface (+, -, *, unary -, ==,
bool, and the field's ``div``) so the linear algebra and tensor code is
generic over them.  A rational is an ``int`` when it is integral, which
skips the gcd and the object ``Fraction`` costs, and a
``fractions.Fraction`` otherwise.  ``QQ.coerce``, ``parse_rational`` and
``QQ.div`` return that form; ``QQ.div`` is the one division over Q, since
``int / int`` is a float.  ``Fraction`` arithmetic can still yield an
integral ``Fraction``, which the next coerce stores as ``int``; both
forms share ``==`` and ``hash``.  Rational functions are pairs of dense
coefficient tuples of Q values in that same form, so products of integral
polynomials run on ``int`` arithmetic; they are kept fully reduced with a
monic denominator, and every coefficient division is ``QQ.div``.
Everything is immutable.

Sums and products of Laurent operands (reduced denominator t^k), and a
Laurent value divided by a monomial c*t^j, reduce by stripping powers of
t.  Any other denominator is reduced by an integer heuristic gcd: both
sides are cleared to primitive integer polynomials, and their gcd is read
off the integer gcd of their values at one large point, certified by
exact division over Z.  The stored form is the same either way.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class Diverges(ArithmeticError):
    """Raised by limit_at_zero when the function has a pole at t = 0."""


class ScalarParseError(ValueError):
    """Raised when a scalar string cannot be parsed."""


#: characters of a rejected input that an error message quotes
_EXCERPT = 32


def excerpt(s):
    """repr(s), cut to its first 32 characters and the length when longer."""
    return repr(s) if len(s) <= _EXCERPT else f"{s[:_EXCERPT]!r}... ({len(s)} characters)"


def excerpt_repr(v):
    """repr(v) of any value, cut to its first 32 characters like ``excerpt``."""
    r = repr(v)
    return r if len(r) <= _EXCERPT else f"{r[:_EXCERPT]}... ({len(r)} characters)"


def _normal(x):
    """The rational x as a Q value: its numerator when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _rational(v):
    """v as a Q value; a float raises TypeError instead of storing its
    binary expansion."""
    if isinstance(v, float):
        raise TypeError(f"a float is not an exact rational: {v!r}")
    return _normal(Fraction(v))


def _div(a, b):
    """The exact quotient a/b as a Q value (``int / int`` is a float)."""
    if isinstance(a, int) and isinstance(b, int):
        return a // b if not a % b else Fraction(a, b)
    return _normal(a / b)


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _trim(cs):
    """The coefficients as Q values, without trailing zeros."""
    cs = [c if type(c) is int else _normal(c) for c in cs]
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
        return _ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


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


_ZERO = (0,)
_ONE = (1,)


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
        if isinstance(v, (int, Fraction, float)):
            v = (v,)
        return _trim(_rational(c) for c in v)

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
            return _new(_trim((v,)), _ONE)
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
            return _new(_trim(c * other for c in self.num), self.den)
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

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == _ONE and len(self.num) == 1:
            return hash(self.num[0])
        return hash((self.num, self.den))

    def __bool__(self):
        return not _pzero(self.num)

    def __repr__(self):
        return f"RatFunc({format_ratfunc(self)!r})"

    # -- analysis ------------------------------------------------------------
    def limit_at_zero(self):
        """Value at t -> 0; raises Diverges if there is a pole there.

        The stored form is reduced, so a denominator vanishing at 0 cannot
        be cancelled against the numerator.
        """
        if self.den[0] == 0:
            raise Diverges(f"pole at t = 0 in {format_ratfunc(self)}")
        return _div(self.num[0], self.den[0])

    def value_at(self, t0):
        """The exact value at the rational point t0 as a Q value, or None
        at a pole (a zero of the reduced denominator)."""
        num, den = _peval(self.num, t0), _peval(self.den, t0)
        return _div(num, den) if den else None

    def is_constant(self):
        return len(self.num) == 1 and self.den == _ONE


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
            num = tuple(_div(x, c) for x in num)
        return _laurent(num, k)
    if _pzero(num):
        return _new(_ZERO, _ONE)
    (pn, qn, n), (pd, qd, d) = _integral(num), _integral(den)
    n, d = _cofactors(n, d)
    lead = d[-1]  # num/den = (pn/qn) n / ((pd/qd) d), with the gcd of n, d divided out
    scale = _div(pn * qd, qn * pd * lead)
    return _new(_trim(scale * x for x in n), tuple(_div(x, lead) for x in d))


def _integral(cs):
    """(p, q, a) with cs = (p/q) * a for a primitive integer vector a: the one
    place where Q values become content times a primitive integer vector."""
    if all(type(c) is int for c in cs):
        q, a = 1, list(cs)
    else:
        q = math.lcm(*(1 if type(c) is int else c.denominator for c in cs))
        a = [c * q if type(c) is int else c.numerator * (q // c.denominator) for c in cs]
    p = math.gcd(*a)
    return p, q, [x // p for x in a] if p > 1 else a


def _cofactors(a, b):
    """(a/g, b/g) for nonzero primitive integer polynomials a, b and g their
    gcd over Z, by the heuristic gcd of Char, Geddes and Gonnet (1989): the
    integer gcd of a(xi) and b(xi), read back as a polynomial in balanced
    base xi.  For xi >= 2*min(|a|, |b|) + 2 the primitive part of that
    polynomial is the gcd when it divides both exactly (Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, Thm 7.7); otherwise xi grows,
    and for xi large enough it always does divide both.  xi starts at
    2*min + 29, as sympy's ``dup_zz_heu_gcd`` does: near the smallest
    certified point the integer gcd often carries a spurious factor and
    the certification fails."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        h = math.gcd(_peval(a, xi), _peval(b, xi))
        g = []
        while h:
            digit = h % xi
            if digit > xi // 2:
                digit -= xi
            g.append(digit)
            h = (h - digit) // xi
        if len(g) == 1:
            return a, b
        c = math.gcd(*g)
        if g[-1] < 0:
            c = -c
        g = [x // c for x in g]
        qa = _exquo(a, g)
        qb = _exquo(b, g) if qa is not None else None
        if qb is not None:
            return qa, qb
        xi = xi * 73794 // 27011  # grow by about 1 + sqrt(3)


def _peval(a, x):
    """The polynomial a at x, by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _exquo(a, b):
    """a/b when the integer polynomial b divides a over Z, else None."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for shift in range(len(q) - 1, -1, -1):
        c, m = divmod(r[shift + db], lb)
        if m:
            return None
        if c:
            q[shift] = c
            for i, x in enumerate(b):
                r[shift + i] -= c * x
    return None if any(r[:db]) else q


#: the variable t
T = RatFunc((0, 1))


def limit_at_zero(r):
    """Limit at t -> 0 for a RatFunc; rationals pass through as Q values."""
    if isinstance(r, RatFunc):
        return r.limit_at_zero()
    return QQ.coerce(r)


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
    r"(?:(?P<t>t)(?:\^(?P<exp>[+-]?\d+))?)?$"
)


def parse_rational(s):
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ScalarParseError(f"not a rational: {excerpt(s)}")
    try:
        return _normal(Fraction(s))
    except ValueError as exc:  # past the interpreter's integer digit limit
        raise ScalarParseError(f"rational of {len(s)} characters is too long") from exc


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
            raise ScalarParseError(f"bad term {excerpt(term)} in {excerpt(s)}")
        coef = parse_rational(m.group("coef") or "1")
        if m.group("sign") == "-":
            coef = -coef
        exp = 0
        if m.group("t"):
            exp = m.group("exp") or "1"
            # too many digits is refused before int() would meet the digit limit
            if len(exp.lstrip("+-0")) > len(str(MAX_T_EXPONENT)) or abs(int(exp)) > MAX_T_EXPONENT:
                raise ScalarParseError(f"exponent of t beyond ±{MAX_T_EXPONENT} in {excerpt(s)}")
            exp = int(exp)
        out[exp] = out.get(exp, 0) + coef
    return out


def _terms_to_ratfunc(terms):
    shift = min(0, min(terms))
    num = [0] * (max(terms) - shift + 1)
    for e, c in terms.items():
        num[e - shift] = c
    return RatFunc(num, [0] * -shift + [1])  # over t^{-shift}


def _quotient(num, den):
    """The quotient of two monomial sums, given as strings."""
    num, den = _terms_to_ratfunc(_parse_terms(num)), _terms_to_ratfunc(_parse_terms(den))
    if not den:
        raise ScalarParseError("zero denominator")
    return num / den


def parse_ratfunc(s):
    """Parse a Q(t) scalar.

    Accepted forms: monomial sums with rational coefficients and optionally
    negative exponents ("5/6", "2*t^3", "t^-1", "1 - 2*t"), and a quotient
    of two such sums at the top-level "/", each side optionally
    parenthesised: "(1 + t)/(3*t)", "1/t".  Text with no top-level "/"
    gets the error of the monomial-sum reading.
    """
    s = s.strip()
    try:
        return _terms_to_ratfunc(_parse_terms(s))
    except ScalarParseError:
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "/" and depth == 0:
                left, right = s[:i].strip(), s[i + 1:].strip()
                if right.startswith("(") and right.endswith(")"):
                    right = right[1:-1]
                if left.startswith("(") and left.endswith(")"):
                    left = left[1:-1]
                return _quotient(left, right)
        raise


def format_rational(v):
    """The text of a Q value; anything but an int or a Fraction (a float
    above all) raises TypeError instead of printing its binary expansion."""
    if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
        raise TypeError(f"not a rational: {v!r}")
    return str(v)


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
    if r.den == _ONE:
        return _poly_str(r.num)
    return f"({_poly_str(r.num)})/({_poly_str(r.den)})"


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class _RationalField:
    name = "Q"
    zero = 0
    one = 1

    @staticmethod
    def coerce(v):
        if type(v) is int:
            return v
        if type(v) is Fraction:
            return _normal(v)
        if isinstance(v, RatFunc):
            if not v.is_constant():
                raise TypeError("cannot coerce a non-constant function into Q")
            return v.num[0]
        return _rational(v)

    div = staticmethod(_div)
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
        return _new((_rational(v),), _ONE)

    @staticmethod
    def div(a, b):
        # the dividend is lifted first: two Q values divide to a RatFunc, not a float
        return QQ_T.coerce(a) / b

    parse = staticmethod(parse_ratfunc)
    format = staticmethod(format_ratfunc)

    def __repr__(self):
        return "QQ_T"

    __reduce__ = __repr__  # a singleton: pickle and deepcopy keep it by name


QQ = _RationalField()
QQ_T = _RatFuncField()
