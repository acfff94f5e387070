"""Scalar arithmetic for the two computation modes.

Exact mode works in the field Q(sqrt2, i).  A scalar is re + im*i where each
component is a ``Q2``: a rational pair (a, b) denoting a + b*sqrt2.  That is
enough to represent every structural constant we need exactly, including the
1/sqrt2 factors that appear after normalising a change of basis, and it is
closed under +, -, *, /.

Float mode uses the builtin ``complex`` (binary64 pairs).  Comparisons in
float mode go through a caller-supplied tolerance; exact mode compares
literally.

Norm-like quantities (tail bounds, operator bounds) are kept rigorous: when
we must round, we round *up*, so every reported bound is a true upper bound.
"""
from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import InvalidParams, ParseError, ValidationError

# Rational brackets for sqrt2, accurate to 1e-30.  Used when a Q2 value has
# to be bounded by rationals (e.g. inside certified tail computations).
_S2_SCALE = 10**30
_S2_FLOOR = isqrt(2 * _S2_SCALE * _S2_SCALE)
SQRT2_LO = Fraction(_S2_FLOOR, _S2_SCALE)
SQRT2_HI = Fraction(_S2_FLOOR + 1, _S2_SCALE)

_FracLike = Union[int, Fraction, str]

# Shared zero component: most values are rational or real, so most Q2 and
# ExactScalar components are zero, and a Fraction is immutable.
_F0 = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x) if x != 0 else _F0
    raise TypeError(f"not a rational value: {x!r}")


def _plain_rational(s: str):
    """``Fraction(s)`` for a plain ASCII "[-]digits[/digits]" literal with a
    nonzero denominator; None for any other string, which ``Fraction(s)``
    then reads (or refuses) itself."""
    sign = -1 if s[:1] == "-" else 1
    num, slash, den = (s[1:] if sign < 0 else s).partition("/")
    if not (num.isascii() and num.isdigit()):
        return None
    if not slash:
        return Fraction(sign * int(num))
    if not (den.isascii() and den.isdigit()):
        return None
    p, q = int(num), int(den)  # the order Fraction(s) converts them in
    return Fraction(sign * p, q) if q else None


def _frac_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class Q2:
    """Real number a + b*sqrt2 with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: _FracLike = _F0, b: _FracLike = _F0):
        object.__setattr__(self, "a", a if type(a) is Fraction else _as_fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else _as_fraction(b))

    def __setattr__(self, *_):
        raise AttributeError("Q2 is immutable")

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
        return Q2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Q2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Q2(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.b and not o.b:  # both rational: one product
            return Q2(self.a * o.a)
        return Q2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Q2":
        # (a + b*sqrt2)^-1 = (a - b*sqrt2) / (a^2 - 2 b^2); the denominator
        # vanishes only at zero because sqrt2 is irrational.
        d = self.a * self.a - 2 * self.b * self.b
        if d == 0:
            raise ZeroDivisionError("division by zero Q2")
        return Q2(self.a / d, -self.b / d)

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
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 with 2 b^2
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # a rational value hashes like the Fraction it equals
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def upper(self) -> Fraction:
        """Rational upper bound."""
        return self.a + self.b * (SQRT2_HI if self.b >= 0 else SQRT2_LO)

    def lower(self) -> Fraction:
        """Rational lower bound."""
        return self.a + self.b * (SQRT2_LO if self.b >= 0 else SQRT2_HI)

    def sqrt(self):
        """Exact square root within Q2 if one exists, else None."""
        if self.sign() < 0:
            return None
        if self.b == 0:
            r = _frac_sqrt(self.a)
            if r is not None:
                return Q2(r)
            h = _frac_sqrt(self.a / 2)
            if h is not None:
                return Q2(0, h)
            return None
        # (p + q*sqrt2)^2 = p^2 + 2q^2 + 2pq*sqrt2
        d = _frac_sqrt(self.a * self.a - 2 * self.b * self.b)
        if d is None:
            return None
        for t in ((self.a + d) / 2, (self.a - d) / 2):
            p = _frac_sqrt(t)
            if p is not None and p != 0:
                cand = Q2(p, self.b / (2 * p))
                if cand.sign() < 0:
                    cand = -cand
                if cand * cand == self:
                    return cand
        return None

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2)

    def __repr__(self):
        return f"Q2({self.a!r}, {self.b!r})"

    def __str__(self):
        return q2_str(self)


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
    if q.b == 0:
        return fraction_str(q.a)
    tail = f"{fraction_str(abs(q.b))}*sqrt2"
    if q.a == 0:
        return tail if q.b > 0 else "-" + tail
    sep = "+" if q.b > 0 else "-"
    return f"{fraction_str(q.a)}{sep}{tail}"


def q2_parse(text: str) -> Q2:
    """Inverse of :func:`q2_str`; plain "p/q" strings are accepted."""
    s = text.strip().replace(" ", "")
    if "sqrt2" not in s:
        q = _plain_rational(s)
        return Q2(Fraction(s) if q is None else q)
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
            return Q2(Fraction(head), Fraction(coeff))
    if body in ("", "+", "-"):
        body += "1"
    return Q2(0, Fraction(body))


class ExactScalar:
    """Complex scalar re + im*i with components in Q2."""

    __slots__ = ("re", "im")

    def __init__(self, re=Q2_ZERO, im=Q2_ZERO):
        object.__setattr__(self, "re", re if isinstance(re, Q2) else Q2(re))
        object.__setattr__(self, "im", im if isinstance(im, Q2) else Q2(im))

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    @classmethod
    def from_rational(cls, re: _FracLike, im: _FracLike = 0) -> "ExactScalar":
        return cls(Q2(_as_fraction(re)), Q2(_as_fraction(im)))

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
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:  # both real: one product
            return ExactScalar(self.re * o.re)
        return ExactScalar(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if not d:
            raise ZeroDivisionError("division by zero scalar")
        inv = d.inverse()
        conj = ExactScalar(o.re, -o.im)
        num = self * conj
        return ExactScalar(num.re * inv, num.im * inv)

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs_sq(self) -> Q2:
        return self.re * self.re + self.im * self.im

    def abs_exact(self):
        """|self| as a Q2 when it lies in Q2 (it does for all family weights)."""
        return self.abs_sq().sqrt()

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value hashes like the Q2 (and so the Fraction) it equals
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return scalar_str(self)


EX_ZERO = ExactScalar()
EX_ONE = ExactScalar(1)
EX_SQRT2 = ExactScalar(Q2_SQRT2)
EX_INV_SQRT2 = ExactScalar(Q2(0, Fraction(1, 2)))  # 1/sqrt2 == sqrt2/2

Scalar = Union[ExactScalar, complex]


def _real(x, exact: bool):
    """A real part of a weight: a Q2 when ``exact``, else a float."""
    t = type(x)
    try:
        if t is str:
            return q2_parse(x) if exact else float(Fraction(x))
        if t is int or t is Fraction:
            return Q2(x) if exact else float(x)
        if t is (Q2 if exact else float):
            return x
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ParseError(f"cannot read {x!r} as "
                         f"{'an exact number' if exact else 'a float'}") from e
    if t is float:
        raise ParseError(f"float {x!r} in exact mode; quote a rational "
                         f"string or switch to mode 'float'")
    raise ParseError(f"cannot read {x!r} as "
                     f"{'an exact number' if exact else 'a float'}")


def as_scalar(value, mode: str):
    """The scalar of ``mode`` that a weight denotes; every row weight and
    element coefficient is converted here, once.

    Exact mode reads ints, rational strings ("1/2", "1/3+1/2*sqrt2"),
    ``Fraction``, ``Q2`` and ``ExactScalar``; float mode reads ints, floats,
    rational strings, ``Fraction`` and ``complex``.  Either reads an
    ``[re, im]`` pair of real values.  ParseError for a value that cannot be
    read (a bool, a float in exact mode, a string past the float range);
    ValidationError for a float-mode value that is not finite.
    """
    exact = mode == "exact"
    if not exact and mode != "float":
        raise InvalidParams(f"unknown mode {mode!r}")
    t = type(value)
    if t is list or t is tuple:
        if len(value) != 2:
            raise ParseError(f"complex values are [re, im], got {value!r}")
        re, im = _real(value[0], exact), _real(value[1], exact)
        z = ExactScalar(re, im) if exact else complex(re, im)
    elif t is (ExactScalar if exact else complex):
        z = value
    else:
        r = _real(value, exact)
        z = ExactScalar(r) if exact else complex(r)
    if exact or cmath.isfinite(z):
        return z
    raise ValidationError(f"weight {value!r} is not finite")


def scalar_zero(mode: str):
    return EX_ZERO if mode == "exact" else 0j


def scalar_one(mode: str):
    return EX_ONE if mode == "exact" else 1 + 0j


def conj(x):
    return x.conjugate()


def abs_sq(x):
    """|x|^2 exactly: a Q2 (exact mode) or a Fraction (float mode)."""
    if isinstance(x, ExactScalar):
        return x.abs_sq()
    return Fraction(x.real) ** 2 + Fraction(x.imag) ** 2


def abs_upper(x) -> Fraction:
    """Rational upper bound on |x|, valid in either mode."""
    if isinstance(x, ExactScalar):
        r = x.abs_exact()
        if r is not None:
            return r.upper()
        return up_sqrt_frac(x.abs_sq().upper())
    return up_sqrt_frac(abs_sq(x))


def abs_lower(x) -> Fraction:
    """Rational lower bound on |x| (exact for rational magnitudes)."""
    if isinstance(x, ExactScalar):
        r = x.abs_exact()
        if r is not None:
            return r.lower()
        lo = x.abs_sq().lower()
        return down_sqrt_frac(lo if lo >= 0 else Fraction(0))
    return down_sqrt_frac(abs_sq(x))


def is_zero(x, tol: float = 0.0) -> bool:
    if isinstance(x, ExactScalar):
        return not x
    return abs(x) <= tol


def scalar_str(x) -> str:
    """Human/DOT rendering of a scalar."""
    if isinstance(x, ExactScalar):
        if not x.im:
            return q2_str(x.re)
        return f"({q2_str(x.re)})+({q2_str(x.im)})i"
    if x.imag == 0:
        return format(x.real, ".17g")
    return f"({format(x.real, '.17g')})+({format(x.imag, '.17g')})i"


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
