"""Exact scalar field Q(sqrt2, i): arithmetic, order, brackets, parsing.

Expected values are computed by hand: (1+sqrt2)(1-sqrt2) = -1,
1/(3+2*sqrt2) = 3-2*sqrt2, (1+sqrt2)^2 = 3+2*sqrt2, |3+4i| = 5.
"""
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from evolalg.scalars import (
    EX_INV_SQRT2,
    EX_ONE,
    EX_SQRT2,
    EX_ZERO,
    ExactScalar,
    Q2,
    abs_lower,
    abs_sq,
    abs_upper,
    as_scalar,
    down_sqrt_frac,
    is_zero,
    q2_parse,
    q2_str,
    scalar_str,
    up_sqrt_frac,
)

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def test_q2_product_conjugate_pair():
    assert Q2(1, 1) * Q2(1, -1) == Q2(-1)


def test_q2_inverse():
    x = Q2(3, 2)
    assert x.inverse() == Q2(3, -2)
    assert x * x.inverse() == Q2(1)


def test_q2_square_and_sqrt():
    assert Q2(1, 1) * Q2(1, 1) == Q2(3, 2)
    assert Q2(3, 2).sqrt() == Q2(1, 1)
    assert Q2(2).sqrt() == Q2(0, 1)
    assert Q2(Fraction(1, 4)).sqrt() == Q2(Fraction(1, 2))
    assert Q2(3).sqrt() is None
    assert Q2(-2).sqrt() is None


def test_q2_ordering_mixed_signs():
    # sqrt2 = 1.414... sits between 7/5 and 3/2
    assert Q2(0, 1) > Q2(Fraction(7, 5))
    assert Q2(0, 1) < Q2(Fraction(3, 2))
    assert Q2(1, -1) < Q2(0)  # 1 - sqrt2 < 0
    assert Q2(3, -2) > Q2(0)  # 3 - 2*sqrt2 = 0.17... > 0


@given(a=fractions, b=fractions)
def test_q2_brackets_enclose(a, b):
    x = Q2(a, b)
    lo, hi = x.lower(), x.upper()
    assert lo <= hi
    assert hi - lo < Fraction(1, 10**25)
    # the bracket really contains x: compare against exact sign of x - bound
    assert (x - Q2(lo)).sign() >= 0
    assert (x - Q2(hi)).sign() <= 0


@given(a=fractions, b=fractions)
def test_q2_str_roundtrip(a, b):
    x = Q2(a, b)
    assert q2_parse(q2_str(x)) == x


def test_q2_parse_forms():
    assert q2_parse("1/2") == Q2(Fraction(1, 2))
    assert q2_parse("-3") == Q2(-3)
    assert q2_parse("1/2-1/3*sqrt2") == Q2(Fraction(1, 2), Fraction(-1, 3))
    assert q2_parse("sqrt2") == Q2(0, 1)
    assert q2_parse("-sqrt2") == Q2(0, -1)
    assert q2_parse("2*sqrt2") == Q2(0, 2)


def test_exact_scalar_complex_arithmetic():
    one_plus_i = ExactScalar.from_rational(1, 1)
    one_minus_i = one_plus_i.conjugate()
    assert one_plus_i * one_minus_i == ExactScalar.from_rational(2)
    assert abs_sq(one_plus_i) == Q2(2)


def test_inv_sqrt2_squares_to_half():
    assert EX_INV_SQRT2 * EX_INV_SQRT2 == ExactScalar.from_rational(Fraction(1, 2))
    assert EX_SQRT2 * EX_INV_SQRT2 == EX_ONE


def test_abs_exact_pythagorean():
    z = ExactScalar.from_rational(3, 4)
    assert z.abs_exact() == Q2(5)
    assert abs_upper(z) == Fraction(5)
    assert abs_lower(z) == Fraction(5)


def test_abs_bounds_on_irrational_modulus():
    # |1 + i| = sqrt2: no exact rational, bounds must straddle
    z = ExactScalar.from_rational(1, 1)
    assert z.abs_exact() == Q2(0, 1)
    assert abs_lower(z) <= abs_upper(z)
    assert abs_lower(z) ** 2 <= 2 <= abs_upper(z) ** 2


@given(x=st.fractions(min_value=0, max_value=10**6, max_denominator=10**4))
def test_sqrt_bracket_rigor(x):
    up = up_sqrt_frac(x)
    down = down_sqrt_frac(x)
    assert down * down <= x <= up * up
    assert down <= up


def test_as_scalar_modes():
    assert as_scalar("1/2", "exact") == ExactScalar.from_rational(Fraction(1, 2))
    assert as_scalar("1/2*sqrt2", "exact") == ExactScalar(Q2(0, Fraction(1, 2)))
    assert as_scalar(Fraction(1, 4), "float") == 0.25 + 0j
    with pytest.raises(TypeError):
        as_scalar(object(), "exact")


def test_is_zero_tolerances():
    assert is_zero(EX_ZERO)
    assert not is_zero(EX_INV_SQRT2)
    assert is_zero(1e-15 + 0j, 1e-12)
    assert not is_zero(1e-9 + 0j, 1e-12)


def test_scalar_str_frozen_forms():
    assert q2_str(Q2(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*sqrt2"
    assert scalar_str(ExactScalar.from_rational(Fraction(1, 2))) == "1/2"
    assert scalar_str(ExactScalar.from_rational(0, 1)) == "(0)+(1)i"


def test_q2_division():
    assert Q2(1) / Q2(1, 1) == Q2(-1, 1)  # 1/(1+sqrt2) = sqrt2 - 1
    with pytest.raises(ZeroDivisionError):
        Q2(1) / Q2(0)


def test_hash_agrees_with_equality_on_rationals():
    assert Q2(1) == 1 and hash(Q2(1)) == hash(1)
    assert len({Q2(1), 1}) == 1
    half = Fraction(1, 2)
    assert hash(Q2(half)) == hash(half)
    assert hash(ExactScalar.from_rational(half)) == hash(half)
    assert len({ExactScalar.from_rational(half), half, Q2(half)}) == 1
    assert hash(ExactScalar(Q2(0, 1))) == hash(Q2(0, 1))
    assert ExactScalar(1, 1) != 1
