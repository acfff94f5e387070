"""Exact scalar field Q(sqrt2, i): arithmetic, order, brackets, parsing.

Expected values are computed by hand: (1+sqrt2)(1-sqrt2) = -1,
1/(3+2*sqrt2) = 3-2*sqrt2, (1+sqrt2)^2 = 3+2*sqrt2, |3+4i| = 5.
"""
import copy
import math
import pickle
import sys
from fractions import Fraction
# the grammar Fraction(str) reads
from fractions import _RATIONAL_FORMAT as FRACTION_GRAMMAR

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from evolalg.errors import InvalidParams, ParseError
from evolalg.operators import _upperize
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
    _plain_rational,
    q2_parse,
    q2_str,
    scalar_str,
    up_float,
    up_sqrt,
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


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)


def _fraction_oracle(text):
    """Q2(Fraction(text)), but refusing, as q2_parse does, a literal that
    Fraction reads whose decimal exponent exceeds the int digit limit."""
    m = FRACTION_GRAMMAR.match(text)
    if m and m["exp"] and abs(int(m["exp"])) > sys.get_int_max_str_digits():
        raise ParseError(text)
    return Q2(Fraction(text))


@given(text=st.one_of(
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
    st.text(alphabet="0123456789-+/_.eE\u0661\u00b2", max_size=12)))
@example(text="1/0")
@example(text="-0/7")
@example(text="+3")
@example(text="1_000/3")
@example(text="\u0661\u0662")  # Arabic-Indic digits, which int() reads
@example(text="7" * 4301)  # past the interpreter's int-to-str digit limit
@example(text="1/" + "7" * 4301)
@example(text="0E1000000")  # Fraction would build 10**1000000 first
@example(text="1.5e-4301")
@example(text="1e4300")
def test_q2_parse_reads_rationals_exactly_as_fraction_does(text):
    assert _outcome(q2_parse, text) == _outcome(_fraction_oracle, text)


def test_a_huge_exponent_is_refused_before_it_is_built():
    limit = sys.get_int_max_str_digits()
    for text in ("1e1000000", "-2.5E-300000000", f"1e{limit + 1}"):
        with pytest.raises(ParseError, match="get_int_max_str_digits"):
            as_scalar(text)
    assert q2_parse(f"3e-{limit}") == Q2(Fraction(3, 10**limit))


def test_plain_rational_takes_only_plain_literals():
    assert _plain_rational("-13/7") == Fraction(-13, 7)
    assert _plain_rational("042") == 42
    for text in ("1/0", "+3", "1_0", "1.5", "1e3", "\u0661", "-", "", "1/"):
        assert _plain_rational(text) is None, text


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


q2s = st.builds(Q2, fractions, fractions)


@example(re=Q2(1), im=Q2(2))  # |1+2i| = sqrt5, which Q(sqrt2) lacks
@example(re=Q2(1), im=Q2(0, 1))  # |1+sqrt2 i| = sqrt3
@example(re=Q2(1, 1), im=Q2(0))  # 1+sqrt2 > 0: an exact modulus
@given(re=q2s, im=q2s)
def test_abs_brackets_enclose_the_modulus(re, im):
    """abs_lower(z)^2 <= |z|^2 <= abs_upper(z)^2, compared exactly in
    Q(sqrt2), whether or not |z| lies in Q(sqrt2)."""
    z = ExactScalar(re, im)
    sq = z.abs_sq()
    lo, hi = abs_lower(z), abs_upper(z)
    assert 0 <= lo <= hi
    assert Q2(lo * lo) <= sq <= Q2(hi * hi)
    # and they agree with a binary64 reference to within its rounding
    def approx(q):
        return float(q.a) + float(q.b) * math.sqrt(2)

    ref = abs(complex(approx(re), approx(im)))
    assert lo <= ref * (1 + 1e-12) + 1e-300
    assert ref <= hi * (1 + 1e-12) + 1e-300


def test_abs_brackets_take_the_inexact_branch():
    for z in (ExactScalar.from_rational(1, 2), ExactScalar(Q2(1), Q2(0, 1))):
        assert z.abs_exact() is None
        sq = z.abs_sq()
        assert Q2(abs_lower(z) ** 2) < sq < Q2(abs_upper(z) ** 2)


@example(x=Q2(0, 1))
@example(x=Q2(-1, 1))  # sqrt2 - 1 > 0
@given(x=q2s | st.fractions(min_value=0, max_value=100)
       | st.floats(min_value=0, max_value=1e300))
def test_upperize_bounds_from_above(x):
    if isinstance(x, Q2) and x.sign() < 0:
        x = -x
    up = _upperize(x)
    assert type(up) is Fraction
    assert Q2(up) >= (x if isinstance(x, Q2) else Q2(Fraction(x)))


@given(x=st.fractions(min_value=0, max_value=10**6, max_denominator=10**4))
def test_sqrt_bracket_rigor(x):
    up = up_sqrt_frac(x)
    down = down_sqrt_frac(x)
    assert down * down <= x <= up * up
    assert down <= up


@given(num=st.integers(1, 10**40), den=st.integers(1, 10**40),
       shift=st.integers(-2300, 2000))
@example(num=2722258935367507103244087052139591892992, den=1, shift=1917)
@example(num=10**40, den=1, shift=2000)  # a root near 2**1066
def test_sqrt_bounds_are_adjacent_doubles(num, den, shift):
    # shift spans roots below the smallest subnormal up to about 2**1066,
    # past the largest double (just under 2**1024)
    x = Fraction(num, den) * Fraction(2) ** shift
    up, down = up_sqrt_frac(x), down_sqrt_frac(x)
    assert down * down <= x <= up * up
    if up > Fraction(sys.float_info.max):
        # no double lies at or above the root: the rational bounds still
        # bracket it, and the float bound is refused
        with pytest.raises(InvalidParams, match="sys.float_info.max"):
            up_sqrt(x)
        return
    assert Fraction(float(up)) == up and Fraction(float(down)) == down
    if down == 0:
        assert up == Fraction(math.ulp(0.0))
    elif up != down:  # so down is below the largest double: the next is finite
        assert up == Fraction(math.nextafter(float(down), math.inf))


@given(x=st.one_of(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    # from far below the smallest subnormal to below the largest double
    st.builds(lambda num, den, shift: Fraction(num, den) * Fraction(2) ** shift,
              st.integers(-10**40, 10**40), st.integers(1, 10**40),
              st.integers(-1100, 850))))
@example(x=Fraction(1, 3))  # float(1/3) lies below 1/3
@example(x=Fraction(-1, 3))
@example(x=Fraction(0))
def test_up_float_is_the_least_double_at_or_above(x):
    up = up_float(x)
    assert up >= x
    assert math.nextafter(up, -math.inf) < x


def test_sqrt_bounds_outside_the_float_range():
    tiny, huge = Fraction(1, 10**330), Fraction(10**330)
    # float(tiny) is 0 and float(huge) overflows; the roots are ordinary
    assert float(up_sqrt_frac(tiny)) == 1e-165
    assert float(down_sqrt_frac(tiny)) == math.nextafter(1e-165, 0.0)
    assert float(down_sqrt_frac(huge)) == 1e165
    assert up_sqrt(huge) == math.nextafter(1e165, math.inf)
    assert up_sqrt_frac(Fraction(9, 4)) == down_sqrt_frac(Fraction(9, 4)) == \
        Fraction(3, 2)
    assert up_sqrt(0.0) == 0.0 and up_sqrt(4.0) == 2.0
    assert up_sqrt(2.0) == math.sqrt(2.0)  # nearest happens to lie above


def test_as_scalar_modes():
    """One scalar field: every weight form reads to an ExactScalar."""
    assert as_scalar("1/2") == ExactScalar.from_rational(Fraction(1, 2))
    assert as_scalar("1/2*sqrt2") == ExactScalar(Q2(0, Fraction(1, 2)))
    assert as_scalar(Fraction(1, 4)) == ExactScalar.from_rational(
        Fraction(1, 4))
    for value in (object(), True, 0.25, 1 + 0j, [1, 2, 3]):
        with pytest.raises(ParseError):
            as_scalar(value)


def test_decimal_strings_read_exactly():
    """A JSON float is refused with the advice to quote it; the quoted
    forms are read as the decimals written."""
    assert as_scalar("0.5") == as_scalar("1/2")
    assert as_scalar("0.1") == ExactScalar.from_rational(Fraction(1, 10))
    assert as_scalar("1e-3") == ExactScalar.from_rational(Fraction(1, 1000))
    assert as_scalar(["0.25", "-1.5"]) == ExactScalar.from_rational(
        Fraction(1, 4), Fraction(-3, 2))
    for value in (0.5, [0.25, "-1.5"]):
        with pytest.raises(ParseError, match='"0.5", "1/2"'):
            as_scalar(value)


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


def test_up_float_refuses_values_above_the_largest_double():
    top = Fraction(sys.float_info.max)
    assert up_float(top) == sys.float_info.max
    assert up_float(-Fraction(10**400)) == -sys.float_info.max
    for x in (top + 1, 2 * top, Fraction(10**400)):
        with pytest.raises(InvalidParams, match="sys.float_info.max"):
            up_float(x)
    with pytest.raises(InvalidParams, match="sys.float_info.max"):
        up_sqrt(Fraction(10**800))


@pytest.mark.parametrize("value", [
    EX_ZERO, EX_ONE, EX_INV_SQRT2, Q2(Fraction(-3, 4), 1), Q2(0, 2**70),
    ExactScalar(Q2(Fraction(1, 3), -2), Q2(0, Fraction(5, 7)))])
def test_scalars_survive_copy_and_pickle(value):
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_rational_arithmetic_builds_no_fraction(monkeypatch):
    """The integer representation is the whole hot path: a product, a sum
    and a zero test of two rational scalars construct no Fraction."""
    x = ExactScalar.from_rational(Fraction(3, 7))
    y = ExactScalar.from_rational(Fraction(-5, 6))
    built = []
    fraction_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and built == [(1, 2)]  # the counter is live
    built.clear()
    product, total = x * y, x + y
    zeros = [not product, not total, not x - x, bool(x * 0)]
    assert built == []
    monkeypatch.undo()
    assert zeros == [False, False, True, False]
    assert product == Fraction(-5, 14) and total == Fraction(-17, 42)


def test_equal_values_built_differently_share_one_form():
    groups = [
        [Q2(Fraction(2, 4)), Q2(1) / 2, q2_parse("1/2"), Q2("2/4"),
         Q2(3, 2) * Q2(3, -2) / 2, Fraction(1, 2)],
        [Q2(0, Fraction(1, 2)), Q2(1) / Q2(0, 1), q2_parse("2/4*sqrt2"),
         Q2(0, 1) / 2],
        [ExactScalar.from_rational(Fraction(6, 4)), ExactScalar(Q2("3/2")),
         as_scalar("3/2"), EX_ONE * 3 / 2, Q2(Fraction(3, 2))],
        [EX_INV_SQRT2, EX_ONE / EX_SQRT2, as_scalar("1/2*sqrt2"),
         ExactScalar(Q2(0, Fraction(1, 2)), 0)],
        [ExactScalar.from_rational(1, 1) / 2,
         as_scalar(["1/2", "2/4"]),
         ExactScalar(Fraction(1, 2), Fraction(1, 2))],
    ]
    for group in groups:
        first = group[0]
        for value in group[1:]:
            assert value == first and hash(value) == hash(first)
            if type(value) is type(first):
                assert repr(value) == repr(first)
