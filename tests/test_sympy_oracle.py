"""Exact arithmetic against sympy, an oracle that shares no scalar code with
evolalg: the subspace chain's dimensions must be the ranks sympy finds over
the field Q(sqrt2, i), and every Q2 / ExactScalar sum, difference, product,
quotient, inverse, conjugate, squared modulus and order must agree with
sympy's expansion of the same expression."""
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

sp = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from evolalg import (  # noqa: E402  (after the importorskip guard)
    EvolutionStructure,
    random_finite_structure,
    subspace_chain,
)
from evolalg.scalars import ExactScalar, Q2  # noqa: E402

FIELD = sp.QQ.algebraic_field(sp.sqrt(2), sp.I)
SQRT2 = FIELD.from_sympy(sp.sqrt(2))
I = FIELD.from_sympy(sp.I)


def q2_sympy(q):
    return sp.Rational(q.a.numerator, q.a.denominator) + \
        sp.Rational(q.b.numerator, q.b.denominator) * sp.sqrt(2)


def scalar_sympy(x):
    return q2_sympy(x.re) + sp.I * q2_sympy(x.im)


def rational_field(f):
    return FIELD.convert(sp.QQ(f.numerator, f.denominator))


def scalar_field(x):
    def q2(q):
        return rational_field(q.a) + rational_field(q.b) * SQRT2
    return q2(x.re) + I * q2(x.im)


def sympy_chain(s, n_max):
    """dim A^<1>, ..., dim A^<n_max>, all n_max steps, by rank over the field.

    A^<k+1> is spanned by x * e_j = x_j * row_j for x in a basis of A^<k>.
    """
    n = s.universe
    zero = FIELD.zero
    rows = []
    for j in range(1, n + 1):
        line = [zero] * n
        for k, w in s.row_of(j):
            line[k - 1] = scalar_field(w)
        rows.append(line)
    basis = [[FIELD.one if k == j else zero for k in range(n)]
             for j in range(n)]
    dims = [n]
    for _ in range(2, n_max + 1):
        products = [[x[j] * w for w in rows[j]]
                    for x in basis for j in range(n)]
        if products:
            reduced, pivots = DomainMatrix(
                products, (len(products), n), FIELD).rref()
            basis = reduced.to_list()[:len(pivots)]
        dims.append(len(basis))
    return dims


def test_chain_matches_sympy_rank_on_random_structures():
    for seed in range(300):
        s = random_finite_structure(seed)
        n_max = s.universe + 2
        assert subspace_chain(s, n_max) == sympy_chain(s, n_max), seed


SQ2 = ExactScalar(Q2(0, 1))
HALF_SQ2_I = ExactScalar(0, Q2(0, Fraction(1, 2)))
ONE_I = ExactScalar(1, 1)
I_EX = ExactScalar(0, 1)


@pytest.mark.parametrize("rows, n", [
    # row 2 is i * row 1, so A^<2> = span(row 1, e1, e2) has dimension 3
    ({1: [(3, 1), (4, I_EX)], 2: [(3, I_EX), (4, -1)],
      3: [(1, 1)], 4: [(2, 1)]}, 4),
    # row 2 is sqrt2 * (1 + i) * row 1
    ({1: [(2, ONE_I), (3, "sqrt2")],
      2: [(2, ExactScalar(0, Q2(0, 2))), (3, ExactScalar(2, 2))]}, 3),
    # a cycle 1 -> 2 -> 3 -> 1 with irrational and complex weights
    ({1: [(2, "1+sqrt2")], 2: [(3, HALF_SQ2_I)], 3: [(1, "-1/3*sqrt2")]}, 3),
    # a chain into a cycle on {4, 5}
    ({1: [(2, SQ2), (4, ONE_I)], 2: [(3, "2-sqrt2")], 3: [(4, I_EX)],
      4: [(5, "sqrt2")], 5: [(4, HALF_SQ2_I)]}, 5),
    # nilpotent: a DAG whose rows cancel only over Q(sqrt2, i)
    ({1: [(3, "sqrt2"), (4, I_EX)], 2: [(3, 2), (4, ExactScalar(0, Q2(0, 1)))],
      3: [(5, ONE_I)], 4: [(5, "1/2")]}, 5),
])
def test_chain_matches_sympy_rank_on_irrational_weights(rows, n):
    s = EvolutionStructure.from_rows(rows, n)
    assert subspace_chain(s, n + 2) == sympy_chain(s, n + 2)


# small rationals, zeros, and components whose denominators pass 2**64
fractions = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(2**64, 2**80)))
q2s = st.builds(Q2, fractions, st.one_of(st.just(0), fractions))
scalars = st.builds(ExactScalar, q2s, st.one_of(st.just(Q2(0)), q2s))
BIG = Fraction(3**50, 2**70 + 1)  # a denominator above 2**64


@settings(max_examples=150, deadline=None)
@given(x=q2s, y=q2s)
@example(x=Q2(Fraction(2, 3)), y=Q2(-5))  # both rational
@example(x=Q2(1, 1), y=Q2(1, -1))  # (1+sqrt2)(1-sqrt2) = -1
@example(x=Q2(3), y=Q2(0, Fraction(1, 2)))
def test_q2_product_matches_sympy(x, y):
    assert sp.expand(q2_sympy(x * y) - q2_sympy(x) * q2_sympy(y)) == 0


@settings(max_examples=150, deadline=None)
@given(x=scalars, y=scalars)
@example(x=ExactScalar(Fraction(3, 7)), y=ExactScalar(Q2(0, 2)))  # both real
@example(x=ExactScalar(Fraction(3, 7)), y=ExactScalar(Fraction(-7, 3)))
@example(x=ExactScalar(1, 1), y=ExactScalar(1, -1))  # (1+i)(1-i) = 2
@example(x=ExactScalar(Q2(0, 1), 1), y=ExactScalar(2))
def test_exact_scalar_product_matches_sympy(x, y):
    assert sp.expand(scalar_sympy(x * y) - scalar_sympy(x) * scalar_sympy(y)) \
        == 0


def _zero(expr):
    return sp.expand(expr) == 0


@settings(max_examples=150, deadline=None)
@given(x=scalars, y=scalars)
@example(x=ExactScalar(Fraction(1, 6)), y=ExactScalar(Fraction(1, 10)))
@example(x=ExactScalar(Q2(BIG, -1), Q2(0, BIG)), y=ExactScalar(Q2(0, 1), 1))
@example(x=ExactScalar(0), y=ExactScalar(Q2(0, Fraction(1, 3)), 2))
def test_exact_scalar_sum_and_difference_match_sympy(x, y):
    sx, sy = scalar_sympy(x), scalar_sympy(y)
    assert _zero(scalar_sympy(x + y) - (sx + sy))
    assert _zero(scalar_sympy(x - y) - (sx - sy))
    assert _zero(scalar_sympy(-x) + sx)


@settings(max_examples=150, deadline=None)
@given(x=scalars, y=scalars)
@example(x=ExactScalar(Fraction(2, 3)), y=ExactScalar(Fraction(-4, 9)))
@example(x=ExactScalar(1), y=ExactScalar(Q2(1, 1), Q2(0, BIG)))
@example(x=ExactScalar(0, BIG), y=ExactScalar(Q2(0, -2)))
def test_exact_scalar_quotient_conjugate_and_modulus_match_sympy(x, y):
    sx, sy = scalar_sympy(x), scalar_sympy(y)
    assert _zero(scalar_sympy(x.conjugate()) - sp.conjugate(sx))
    assert _zero(q2_sympy(x.abs_sq()) - sx * sp.conjugate(sx))
    if not y:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    assert _zero(scalar_sympy(x / y) * sy - sx)


@settings(max_examples=150, deadline=None)
@given(x=q2s, y=q2s)
@example(x=Q2(3, 2), y=Q2(0))  # 1/(3+2*sqrt2) = 3-2*sqrt2
@example(x=Q2(BIG, Fraction(-1, 2**65)), y=Q2(BIG))
@example(x=Q2(1, -1), y=Q2(Fraction(-5, 12)))  # 1 - sqrt2 < -5/12
@example(x=Q2(0, 1), y=Q2(Fraction(99, 70)))  # sqrt2 just above 99/70
def test_q2_inverse_quotient_and_order_match_sympy(x, y):
    sx, sy = q2_sympy(x), q2_sympy(y)
    if x:
        assert _zero(q2_sympy(x.inverse()) * sx - 1)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    if y:
        assert _zero(q2_sympy(x / y) * sy - sx)
    sign = sp.sign(sx - sy)
    assert sign in (-1, 0, 1)  # sympy decided it
    assert ((x < y), (x <= y), (x == y), (x >= y), (x > y)) == \
        (sign < 0, sign <= 0, sign == 0, sign >= 0, sign > 0)
