"""Adjacency operators: application, summability, Frobenius/Schur bounds."""
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from evolalg import (
    ApproxElement,
    BoundCertificate,
    Element,
    EvolutionStructure,
    FamilyMeta,
    FiniteCertified,
    FiniteRow,
    LazyRow,
    ONES,
    OperatorKind,
    PartialSum,
    SchurWeights,
    adjoint_pairing_residual,
    apply_operator,
    build_family,
    frobenius_certificate,
    left_mult_bound,
    matrix_window,
    random_element,
    random_finite_structure,
    schur_certificate,
    summability_check,
)
from evolalg.errors import InvalidParams, NoTailBound
from evolalg.graph import WINDOW_CEILING
from evolalg.scalars import EX_ONE, ExactScalar, Q2, conj


def test_omega_on_lazy_row_frozen():
    mk = build_family("markov_line")
    out = apply_operator(mk, OperatorKind.OMEGA, Element.basis(1), cutoff=5)
    assert isinstance(out, ApproxElement)
    assert out.prefix == Element({
        k: ExactScalar.from_rational(Fraction(1, 2 ** (k - 1)))
        for k in (2, 3, 4, 5)
    })
    assert out.tail_norm_bound == pytest.approx(1 / (16 * math.sqrt(3)))
    with pytest.raises(NoTailBound):
        apply_operator(mk, OperatorKind.OMEGA, Element.basis(1))


def test_gamma_on_markov_frozen():
    # the column of vertex 3 carries the first-row weight (1-q)q = 1/4 and
    # the chain weight 1
    mk = build_family("markov_line")
    out = apply_operator(mk, OperatorKind.GAMMA, Element.basis(3))
    assert out == Element({
        1: ExactScalar.from_rational(Fraction(1, 4)),
        2: EX_ONE,
    })


def test_adjoint_conjugates_weights():
    s = EvolutionStructure.from_rows(
        {1: [(2, ExactScalar.from_rational(0, 1))]}, 2)  # weight i
    out = apply_operator(s, OperatorKind.GAMMA, Element.basis(2))
    assert out == Element({1: ExactScalar.from_rational(0, -1)})
    # unweighted transpose keeps magnitude one
    out = apply_operator(s, OperatorKind.ADJ_T, Element.basis(2))
    assert out == Element({1: EX_ONE})


def test_unweighted_infinite_image_rejected():
    mk = build_family("markov_line")
    with pytest.raises(NoTailBound):
        apply_operator(mk, OperatorKind.ADJ, Element.basis(1), cutoff=10)


def test_operator_kind_coercion():
    mk = build_family("markov_line")
    assert apply_operator(mk, "adjT", Element.basis(3)) == \
        apply_operator(mk, OperatorKind.ADJ_T, Element.basis(3))


def test_summability_frozen():
    mk = build_family("markov_line")
    row = summability_check(mk, "row", 1, 4)
    assert isinstance(row, FiniteCertified)
    assert row.total == Q2(Fraction(21, 64))
    assert row.tail == Fraction(1, 192)
    col = summability_check(mk, "column", 3, 10)
    assert col == FiniteCertified(Q2(Fraction(17, 16)), Fraction(0))
    with pytest.raises(InvalidParams):
        summability_check(mk, "diagonal", 1, 4)


def test_summability_partial_when_no_tail():
    # a lazy row without tail bounds can only report its prefix
    def gen():
        k = 2
        while True:
            yield k, EX_ONE
            k += 1

    s = EvolutionStructure(lambda i: LazyRow(gen) if i == 1 else FiniteRow(()))
    res = summability_check(s, "row", 1, 3)
    assert isinstance(res, PartialSum)
    assert res.total == Q2(2)


def geometric_structure():
    # single-entry rows with weight 2^-i and a closed-form mass bound
    def row(i):
        return FiniteRow(((i + 1, ExactScalar.from_rational(Fraction(1, 2 ** i))),))

    meta = FamilyMeta(frobenius_tail_sq=lambda n: Fraction(1, 3 * 4 ** n))
    return EvolutionStructure(row, meta=meta)


def test_frobenius_certificates():
    two = EvolutionStructure.from_rows({1: [(2, 1)], 2: [(1, 1)]}, 2)
    cert = frobenius_certificate(two, 2)
    assert cert.status == "certified"
    assert cert.bound == pytest.approx(math.sqrt(2))
    # family metadata supplies the beyond-window mass: total is exactly 1/3
    cert = frobenius_certificate(geometric_structure(), 5)
    assert cert.status == "certified"
    assert cert.bound == pytest.approx(1 / math.sqrt(3))
    assert cert.detail["total_sq"] == "1/3"
    # no metadata, no finite universe: only a partial sum
    cert = frobenius_certificate(build_family("comb"), 40)
    assert cert.status == "inconclusive"
    assert cert.bound is None


def test_schur_frozen_triple():
    mk = build_family("markov_line")
    refuted_small = schur_certificate(mk, ONES, ONES, Fraction(1, 2), 2, 2)
    assert refuted_small.status == "refuted"
    assert refuted_small.refutation_index == ("row", 2)
    refuted_wide = schur_certificate(mk, ONES, ONES, Fraction(1, 2), 2, 3)
    assert refuted_wide.status == "refuted"
    assert refuted_wide.refutation_index == ("row", 1)
    certified = schur_certificate(mk, ONES, ONES, 1, 2, 8)
    assert certified.status == "certified"
    assert certified.bound == 1.4142135623730951


def test_schur_needs_tail_sup_for_lazy_rows():
    mk = build_family("markov_line")
    bare = SchurWeights(lambda i: Fraction(1))  # no sup bound past the window
    res = schur_certificate(mk, bare, bare, 1, 2, 8)
    assert res.status == "inconclusive"
    with pytest.raises(InvalidParams):
        schur_certificate(mk, ONES, ONES, 0, 2, 4)


def test_adjoint_pairing_residual_zero():
    mk = build_family("markov_line")
    for i in range(1, 11):
        r = adjoint_pairing_residual(mk, i, Element.basis(i + 1))
        assert r == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_adjoint_pairing_residual_random(seed, data):
    s = random_finite_structure(seed)
    i = data.draw(st.integers(1, s.universe))
    v = random_element(seed + 11, s.universe)
    assert adjoint_pairing_residual(s, i, v) == 0


def test_left_mult_bound_frozen():
    mk = build_family("markov_line")
    assert left_mult_bound(mk, Element.basis(1)) == 0.5773502691896258
    assert left_mult_bound(mk, Element.zero()) == 0.0


def test_matrix_window_frozen():
    mk = build_family("markov_line")
    half = ExactScalar.from_rational(Fraction(1, 2))
    quarter = ExactScalar.from_rational(Fraction(1, 4))
    zero = ExactScalar.from_rational(0)
    omega = matrix_window(mk, OperatorKind.OMEGA, 3)
    assert omega == [
        [zero, half, quarter],
        [zero, zero, EX_ONE],
        [zero, zero, zero],
    ]


def test_matrix_window_spans_only_what_exists():
    pair = EvolutionStructure.from_rows({1: [(2, 3)]}, 2)
    zero = ExactScalar.from_rational(0)
    three = ExactScalar.from_rational(3)
    assert matrix_window(pair, OperatorKind.OMEGA, 2000) == [[zero, three],
                                                             [zero, zero]]
    with pytest.raises(InvalidParams, match="WINDOW_CEILING"):
        matrix_window(build_family("comb"), OperatorKind.OMEGA,
                      WINDOW_CEILING + 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
def test_matrix_window_adjoint_is_conjugate_transpose(seed, n):
    s = random_finite_structure(seed)
    top = min(n, s.universe)
    omega = matrix_window(s, OperatorKind.OMEGA, top)
    gamma = matrix_window(s, OperatorKind.GAMMA, top)
    for i in range(top):
        for k in range(top):
            assert gamma[k][i] == conj(omega[i][k])


def lazy_column_structure():
    # column 1 is lazy: w_k1 = 2^-k for k >= 2, with squared tail 4^-n
    def gen():
        k = 2
        while True:
            yield k, ExactScalar.from_rational(Fraction(1, 2 ** k))
            k += 1

    column = LazyRow(gen, tail_sq_bound=lambda n: Fraction(1, 4 ** n))
    return EvolutionStructure(lambda i: FiniteRow(()),
                              column_fn=lambda k: column if k == 1
                              else FiniteRow(()))


def test_gamma_of_lazy_column_is_approximate():
    img = apply_operator(lazy_column_structure(), OperatorKind.GAMMA,
                         Element({1: EX_ONE}), cutoff=6)
    assert isinstance(img, ApproxElement)
    assert img.prefix == Element({k: ExactScalar.from_rational(
        Fraction(1, 2 ** k)) for k in range(2, 7)})
    assert img.tail_norm_bound == 0.015625


def test_unweighted_adjoint_of_lazy_column_has_no_tail_bound():
    with pytest.raises(NoTailBound):
        apply_operator(lazy_column_structure(), OperatorKind.ADJ_T,
                       Element({1: EX_ONE}), cutoff=6)


def test_schur_sums_finite_rows_past_the_window():
    # row i reaches i+50, far outside the window; the row sum is still 2
    s = EvolutionStructure(
        lambda i: FiniteRow(((i + 1, EX_ONE), (i + 50, EX_ONE))))
    cert = schur_certificate(s, ONES, ONES, 1, 2, window=10)
    assert cert.status == "refuted"
    assert cert.refutation_index == ("row", 1)
