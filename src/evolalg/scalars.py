"""Scalar arithmetic in the field Q(sqrt2, i), the one scalar type.

Every weight and coefficient is exact, kept as integers over one
denominator.  An ``ExactScalar`` is (p + q*sqrt2 + (r + s*sqrt2)*i) / d and
a ``Q2`` is (p + q*sqrt2) / d, with d > 0 and the gcd of all components 1,
so every value has one form: ``==`` compares integers, and +, -, * are
integer products plus one ``math.gcd``.  That is enough to represent every
structural constant we need exactly, including the 1/sqrt2 factors that
appear after normalising a change of basis, and it is closed under +, -, *,
/.  The parts ``re``, ``im`` (each a ``Q2``) and ``a``, ``b`` (each a
``Fraction``, for a + b*sqrt2) are read-only views built on demand.  Like
``Fraction``, both classes are immutable by convention: the integer slots
are private and nothing in the package assigns them after construction.

Decimal input is read exactly: "0.1" is 1/10.  A JSON float is refused,
since it holds the binary64 rounding of the number written, not the number.

Norm-like quantities (tail bounds, operator bounds) are kept rigorous: when
we must round, we round *up*, so every reported bound is a true upper bound.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .errors import InvalidParams, ParseError

# Rational brackets for sqrt2, accurate to 1e-30.  Used when a Q2 value has
# to be bounded by rationals (e.g. inside certified tail computations).
_S2_SCALE = 10**30
_S2_FLOOR = isqrt(2 * _S2_SCALE * _S2_SCALE)
SQRT2_LO = Fraction(_S2_FLOOR, _S2_SCALE)
SQRT2_HI = Fraction(_S2_FLOOR + 1, _S2_SCALE)

_FracLike = Union[int, Fraction, str]
_new = object.__new__

# A decimal literal as ``Fraction`` reads it, with its exponent captured:
# Fraction builds 10**exponent in full, so the exponent is checked first.
# ``re`` compiles it on first use, so importing the package does not.
_DECIMAL_EXPONENT = (
    r"\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
    r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``; ParseError, before Fraction is called, for a
    decimal exponent whose magnitude exceeds sys.get_int_max_str_digits()
    (a value past that many digits could not be printed either).  A limit
    of 0 turns the digit limit, and so this check, off."""
    m = ("e" in text or "E" in text) and re.fullmatch(_DECIMAL_EXPONENT, text)
    limit = sys.get_int_max_str_digits()
    if m and limit:
        try:
            exponent = int(m[1])
        except ValueError:  # more digits than int() reads: Fraction refuses
            exponent = 0
        if abs(exponent) > limit:
            raise ParseError(
                f"the exponent of {text!r} exceeds {limit} "
                f"(sys.get_int_max_str_digits()) in magnitude")
    return Fraction(text)


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int, a Fraction or a rational string."""
    if isinstance(x, str):
        x = _fraction(x)
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    raise TypeError(f"not a rational value: {x!r}")


def _sqrt_ratio(n: int, d: int):
    """(sqrt(n'), sqrt(d')) for n/d = n'/d' in lowest terms (d > 0) when both
    are squares, else None."""
    g = gcd(n, d)
    n, d = n // g, d // g
    if n < 0:
        return None
    rn, rd = isqrt(n), isqrt(d)
    return (rn, rd) if rn * rn == n and rd * rd == d else None


def _sign(p: int, q: int) -> int:
    """The sign of p + q*sqrt2."""
    if p >= 0 and q >= 0:
        return 1 if p or q else 0
    if p <= 0 and q <= 0:
        return -1
    # mixed signs: compare p^2 with 2 q^2
    if p > 0:  # q < 0
        return 1 if p * p > 2 * q * q else -1
    return 1 if 2 * q * q > p * p else -1


def _real_hash(p: int, q: int, d: int) -> int:
    # a rational value hashes like the Fraction it equals
    if q:
        return hash((p, q, d))
    return hash(p) if d == 1 else hash(Fraction(p, d))


class Q2:
    """Real number (p + q*sqrt2) / d, read as a + b*sqrt2 with rational
    a, b."""

    __slots__ = ("_p", "_q", "_d")

    def __new__(cls, a: _FracLike = 0, b: _FracLike = 0):
        p, da = _ratio(a)
        q, db = _ratio(b)
        return _q2(p * db, q * da, da * db)

    def __reduce__(self):
        return _q2, (self._p, self._q, self._d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    # -- arithmetic ---------------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, Q2):
            return other
        if isinstance(other, (int, Fraction)):
            return Q2(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _q2(self._p * e + o._p * d, self._q * e + o._q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _q2(self._p * e - o._p * d, self._q * e - o._q * d, d * e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _q2(-self._p, -self._q, self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, p2, q2 = self._p, self._q, o._p, o._q
        return _q2(p * p2 + 2 * q * q2, p * q2 + q * p2, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "Q2":
        # d / (p + q*sqrt2) = d (p - q*sqrt2) / (p^2 - 2 q^2); the norm
        # p^2 - 2 q^2 vanishes only at zero because sqrt2 is irrational.
        p, q, d = self._p, self._q, self._d
        n = p * p - 2 * q * q
        if n == 0:
            raise ZeroDivisionError("division by zero Q2")
        return _q2(d * p, -d * q, n) if n > 0 else _q2(-d * p, d * q, -n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- order and conversion ----------------------------------------------
    def sign(self) -> int:
        return _sign(self._p, self._q)

    def _cmp(self, other):
        """The sign of self - other, or None for a value of another type."""
        o = self._coerce(other)
        if o is None:
            return None
        d, e = self._d, o._d
        return _sign(self._p * e - o._p * d, self._q * e - o._q * d)

    def __bool__(self):
        return bool(self._p or self._q)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._d == o._d

    def __hash__(self):
        return _real_hash(self._p, self._q, self._d)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def upper(self) -> Fraction:
        """Rational upper bound."""
        return self._bound(self._q > 0)

    def lower(self) -> Fraction:
        """Rational lower bound."""
        return self._bound(self._q < 0)

    def _bound(self, hi: bool) -> Fraction:
        # sqrt2 read as SQRT2_HI when ``hi``, else as SQRT2_LO
        p, q, d = self._p, self._q, self._d
        if not q:
            return Fraction(p, d)
        return Fraction(p * _S2_SCALE + q * (_S2_FLOOR + hi), d * _S2_SCALE)

    def sqrt(self):
        """Exact square root within Q2 if one exists, else None."""
        if self.sign() < 0:
            return None
        p, q, d = self._p, self._q, self._d
        if not q:
            r = _sqrt_ratio(p, d)
            if r is not None:
                return _q2(r[0], 0, r[1])
            h = _sqrt_ratio(p, 2 * d)  # p/d = 2 h^2: the root is h*sqrt2
            return None if h is None else _q2(0, h[0], h[1])
        # (x + y*sqrt2)^2 = x^2 + 2y^2 + 2xy*sqrt2, so x^2 = (p ± n) / 2d
        # where n^2 = p^2 - 2q^2, and y = q / 2dx
        n2 = p * p - 2 * q * q
        n = isqrt(n2) if n2 >= 0 else -1
        if n * n != n2:
            return None
        for t in (p + n, p - n):
            r = _sqrt_ratio(t, 2 * d)
            if r is not None and r[0]:
                xn, xd = r
                cand = _q2(2 * d * xn * xn, q * xd * xd, 2 * d * xn * xd)
                if cand.sign() < 0:
                    cand = -cand
                if cand * cand == self:
                    return cand
        return None

    def __repr__(self):
        return f"Q2({self.a!r}, {self.b!r})"

    def __str__(self):
        return q2_str(self)


def _q2(p: int, q: int, d: int) -> Q2:
    """The Q2 (p + q*sqrt2) / d for d > 0, in lowest terms."""
    g = gcd(p, q, d)
    x = _new(Q2)
    if g == 1:
        x._p, x._q, x._d = p, q, d
    else:
        x._p, x._q, x._d = p // g, q // g, d // g
    return x


Q2_ZERO = Q2()
Q2_SQRT2 = Q2(0, 1)


def fraction_str(x: Fraction) -> str:
    """``str(x)``; InvalidParams when a numerator or denominator has more
    digits than the interpreter converts to text."""
    try:
        return str(x)
    except ValueError as e:  # past sys.get_int_max_str_digits()
        raise InvalidParams(
            f"a value has more digits than the limit of "
            f"{sys.get_int_max_str_digits()} (sys.get_int_max_str_digits()) "
            f"for printing an integer; use a smaller window or cutoff") from e


def q2_str(q: Q2) -> str:
    """Render as "p/q", "r/s*sqrt2" or "p/q+r/s*sqrt2" (exactly invertible)."""
    p, d = q._p, q._d
    if not q._q:
        return fraction_str(Fraction(p, d))
    b = Fraction(q._q, d)
    tail = f"{fraction_str(abs(b))}*sqrt2"
    if not p:
        return tail if b > 0 else "-" + tail
    sep = "+" if b > 0 else "-"
    return f"{fraction_str(Fraction(p, d))}{sep}{tail}"


def _plain_rational(s: str):
    """The Q2 of a plain ASCII "[-]digits[/digits]" literal with a nonzero
    denominator; None for any other string, which ``Fraction(s)`` then reads
    (or refuses) itself."""
    sign = -1 if s[:1] == "-" else 1
    num, slash, den = (s[1:] if sign < 0 else s).partition("/")
    if not (num.isascii() and num.isdigit()):
        return None
    if not slash:
        return _q2(sign * int(num), 0, 1)
    if not (den.isascii() and den.isdigit()):
        return None
    p, q = int(num), int(den)  # the order Fraction(s) converts them in
    return _q2(sign * p, 0, q) if q else None


def q2_parse(text: str) -> Q2:
    """Inverse of :func:`q2_str`; plain "p/q" strings are accepted.  A
    decimal exponent past sys.get_int_max_str_digits() in magnitude is
    refused with ParseError."""
    s = text.strip().replace(" ", "")
    if "sqrt2" not in s:
        q = _plain_rational(s)
        return Q2(_fraction(s)) if q is None else q
    if s.endswith("sqrt2") and not s.endswith("*sqrt2"):
        # bare "sqrt2" / "-sqrt2" / "3+sqrt2": insert the implicit 1
        s = s[: -len("sqrt2")] + "1*sqrt2"
    body, _, _ = s.partition("*sqrt2")
    # split off an optional leading rational part: find the sign that
    # separates the two terms (not the leading sign, not inside a fraction)
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            head, coeff = body[:pos], body[pos:]
            if coeff in ("+", "-"):
                coeff += "1"
            return Q2(_fraction(head), _fraction(coeff))
    if body in ("", "+", "-"):
        body += "1"
    return Q2(0, _fraction(body))


class ExactScalar:
    """Complex scalar (p + q*sqrt2 + (r + s*sqrt2)*i) / d; read as
    re + im*i with components in Q2."""

    __slots__ = ("_p", "_q", "_r", "_s", "_d")

    def __new__(cls, re=Q2_ZERO, im=Q2_ZERO):
        if not isinstance(re, Q2):
            re = Q2(re)
        if not isinstance(im, Q2):
            im = Q2(im)
        d, e = re._d, im._d
        return _ex(re._p * e, re._q * e, im._p * d, im._q * d, d * e)

    def __reduce__(self):
        return _ex, (self._p, self._q, self._r, self._s, self._d)

    @classmethod
    def from_rational(cls, re: _FracLike, im: _FracLike = 0) -> "ExactScalar":
        p, d = _ratio(re)
        if im == 0:
            return _ex(p, 0, 0, 0, d)
        r, e = _ratio(im)
        return _ex(p * e, 0, r * d, 0, d * e)

    @property
    def re(self) -> Q2:
        return _q2(self._p, self._q, self._d)

    @property
    def im(self) -> Q2:
        return _q2(self._r, self._s, self._d)

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction, Q2)):
            return ExactScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _ex(self._p * e + o._p * d, self._q * e + o._q * d,
                   self._r * e + o._r * d, self._s * e + o._s * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _ex(self._p * e - o._p * d, self._q * e - o._q * d,
                   self._r * e - o._r * d, self._s * e - o._s * d, d * e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _ex(-self._p, -self._q, -self._r, -self._s, self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, s = self._p, self._q, self._r, self._s
        p2, q2, r2, s2 = o._p, o._q, o._r, o._s
        if not (q or r or s or q2 or r2 or s2):  # both rational: one product
            return _ex(p * p2, 0, 0, 0, self._d * o._d)
        # (A + Bi)(C + Di) = AC - BD + (AD + BC)i with A = p + q*sqrt2,
        # B = r + s*sqrt2, C = p2 + q2*sqrt2 and D = r2 + s2*sqrt2
        return _ex(p * p2 + 2 * q * q2 - r * r2 - 2 * s * s2,
                   p * q2 + q * p2 - r * s2 - s * r2,
                   p * r2 + 2 * q * s2 + r * p2 + 2 * s * q2,
                   p * s2 + q * r2 + r * q2 + s * p2,
                   self._d * o._d)

    __rmul__ = __mul__

    def _inverse(self) -> "ExactScalar":
        p, q, r, s, d = self._p, self._q, self._r, self._s, self._d
        if not (q or r or s):
            if not p:
                raise ZeroDivisionError("division by zero scalar")
            return _ex(d, 0, 0, 0, p) if p > 0 else _ex(-d, 0, 0, 0, -p)
        # 1/z = conj(z) / |z|^2 with d^2 |z|^2 = n0 + n1*sqrt2, whose norm
        # m = n0^2 - 2 n1^2 is a sum of squares of conjugates, so m > 0
        n0 = p * p + 2 * q * q + r * r + 2 * s * s
        n1 = 2 * (p * q + r * s)
        m = n0 * n0 - 2 * n1 * n1
        return _ex(d * (p * n0 - 2 * q * n1), d * (q * n0 - p * n1),
                   d * (2 * s * n1 - r * n0), d * (r * n1 - s * n0), m)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def conjugate(self) -> "ExactScalar":
        return _ex(self._p, self._q, -self._r, -self._s, self._d)

    def abs_sq(self) -> Q2:
        p, q, r, s = self._p, self._q, self._r, self._s
        return _q2(p * p + 2 * q * q + r * r + 2 * s * s, 2 * (p * q + r * s),
                   self._d * self._d)

    def abs_exact(self):
        """|self| as a Q2 when it lies in Q2 (it does for all family weights)."""
        return self.abs_sq().sqrt()

    def __bool__(self):
        return bool(self._p or self._q or self._r or self._s)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._p == o._p and self._d == o._d and self._q == o._q
                and self._r == o._r and self._s == o._s)

    def __hash__(self):
        # a real value hashes like the Q2 (and so the Fraction) it equals
        if self._r or self._s:
            return hash((self._p, self._q, self._r, self._s, self._d))
        return _real_hash(self._p, self._q, self._d)

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return scalar_str(self)


def _ex(p: int, q: int, r: int, s: int, d: int) -> ExactScalar:
    """The ExactScalar (p + q*sqrt2 + (r + s*sqrt2)*i) / d for d > 0, in
    lowest terms."""
    g = gcd(p, q, r, s, d)
    if g != 1:
        p, q, r, s, d = p // g, q // g, r // g, s // g, d // g
    x = _new(ExactScalar)
    x._p = p
    x._q = q
    x._r = r
    x._s = s
    x._d = d
    return x


EX_ZERO = ExactScalar()
EX_ONE = ExactScalar(1)
EX_SQRT2 = ExactScalar(Q2_SQRT2)
EX_INV_SQRT2 = ExactScalar(Q2(0, Fraction(1, 2)))  # 1/sqrt2 == sqrt2/2


_QUOTE_ADVICE = 'quote each weight as a string, such as "0.5", "1/2" or ' \
    '["0.25", "-1.5"]'


def _real(x) -> Q2:
    """The Q2 that a real part of a weight denotes."""
    t = type(x)
    try:
        if t is str:
            return q2_parse(x)
        if t is int or t is Fraction:
            return Q2(x)
        if t is Q2:
            return x
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"cannot read {x!r} as an exact number") from e
    if t is float:
        raise ParseError(f"float {x!r} is not read exactly; {_QUOTE_ADVICE}")
    raise ParseError(f"cannot read {x!r} as an exact number")


def as_scalar(value) -> ExactScalar:
    """The scalar that a weight denotes; every row weight and element
    coefficient is converted here, once.

    Reads ints, rational or decimal strings ("1/2", "0.1", "1e-3",
    "1/3+1/2*sqrt2"), ``Fraction``, ``Q2``, ``ExactScalar`` and an
    ``[re, im]`` pair of real values.  ParseError for a value that cannot be
    read exactly, such as a bool or a float.
    """
    t = type(value)
    if t is list or t is tuple:
        if len(value) != 2:
            raise ParseError(f"complex values are [re, im], got {value!r}")
        return ExactScalar(_real(value[0]), _real(value[1]))
    if t is ExactScalar:
        return value
    return ExactScalar(_real(value))


def conj(x):
    return x.conjugate()


def abs_sq(x: ExactScalar) -> Q2:
    """|x|^2, exactly."""
    return x.abs_sq()


def abs_upper(x: ExactScalar) -> Fraction:
    """Rational upper bound on |x|."""
    r = x.abs_exact()
    if r is not None:
        return r.upper()
    return up_sqrt_frac(x.abs_sq().upper())


def abs_lower(x: ExactScalar) -> Fraction:
    """Rational lower bound on |x| (exact for rational magnitudes)."""
    r = x.abs_exact()
    if r is not None:
        return r.lower()
    lo = x.abs_sq().lower()
    return down_sqrt_frac(lo if lo >= 0 else Fraction(0))


def scalar_str(x: ExactScalar) -> str:
    """Human/DOT rendering of a scalar."""
    if not (x._r or x._s):
        return q2_str(x.re)
    return f"({q2_str(x.re)})+({q2_str(x.im)})i"


def _sqrt_double(x, up: bool) -> Fraction:
    """sqrt(x) for x >= 0 (rational, Q2 or float), rounded up or down to a
    double.

    The result is m * 2**e with m <= 2**53 and e >= -1074 (the subnormal
    step), so it is representable as a float whenever it is below the
    largest float.  Works on integers only: no float rounding is involved.
    """
    if isinstance(x, Q2):
        # monotone: the root of a bracket end bounds the root on that side
        x = x.upper() if up else max(x.lower(), Fraction(0))
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative operand")
    if x == 0:
        return x
    p, q = x.numerator, x.denominator
    # scaled by 2**-e0, the root has more than 53 bits
    e0 = (p.bit_length() - q.bit_length()) // 2 - 55
    num, den = (p << -2 * e0, q) if e0 < 0 else (p, q << 2 * e0)
    scaled, rem = divmod(num, den)
    root = isqrt(scaled)  # floor(sqrt(x) / 2**e0)
    e = max(e0 + root.bit_length() - 53, -1074)
    m = root >> (e - e0)
    if up and (rem or root * root != scaled or m << (e - e0) != root):
        m += 1
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def up_sqrt_frac(x) -> Fraction:
    """Rational upper bound on sqrt(x) for x >= 0 rational, Q2 or float:
    the smallest double at or above the root."""
    return _sqrt_double(x, True)


def down_sqrt_frac(x) -> Fraction:
    """Rational lower bound on sqrt(x) for x >= 0: the largest double at or
    below the root."""
    return _sqrt_double(x, False)


def up_float(x: Fraction) -> float:
    """The smallest double at or above x (``float`` rounds to nearest);
    InvalidParams when x is above the largest double."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf if x > 0 else -math.inf
    if f < x:
        f = math.nextafter(f, math.inf)
    if f == math.inf:
        raise InvalidParams(
            f"a bound exceeds the largest double, {sys.float_info.max!r} "
            f"(sys.float_info.max), so it cannot be reported as a float")
    return f


def up_sqrt(x) -> float:
    """Float upper bound on sqrt(x); never rounds below the true root."""
    return up_float(up_sqrt_frac(x))
