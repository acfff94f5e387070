"""Element arithmetic, principal powers, nil search, bases, subspace chain."""
import copy
import math
import pickle
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from evolalg import (
    ApproxElement,
    BasisTransform,
    Element,
    EvolutionStructure,
    FiniteRow,
    NaturalOnWindow,
    NilAt,
    NotNilUpTo,
    OperatorKind,
    algebra,
    apply_operator,
    build_family,
    descendants_generation,
    inner_product,
    multiply,
    nil_witness_search,
    principal_power,
    random_element,
    random_finite_structure,
    square_basis,
    subspace_chain,
    transform_element,
    verify_natural_basis,
    verify_transform_inverse,
)
from evolalg.errors import (
    InfiniteRowReached,
    InvalidParams,
    NoTailBound,
    UniverseNotFinite,
)
from evolalg.scalars import EX_INV_SQRT2, EX_ONE, EX_ZERO, ExactScalar


def two_cycle():
    return EvolutionStructure.from_rows({1: [(2, 1)], 2: [(1, 1)]}, 2)


def shift_pair():
    # e1^2 = e2, e2^2 = 0
    return EvolutionStructure.from_rows({1: [(2, 1)]}, 2)


def test_element_drops_zeros_and_hashes():
    e = Element({1: EX_ONE, 2: EX_ZERO})
    assert e.support() == (1,)
    assert e == Element({1: EX_ONE})
    assert hash(e) == hash(Element({1: EX_ONE}))
    assert Element({}).is_zero()
    with pytest.raises(InvalidParams):
        Element({0: EX_ONE})


def test_element_linear_ops():
    a = Element.basis(1) + Element.basis(2)
    b = a - Element.basis(2)
    assert b == Element.basis(1)
    assert (-b + b).is_zero()
    assert a.scale(EX_ZERO).is_zero()
    assert a.norm_sq() == ExactScalar.from_rational(2).re


def test_square_basis_matches_rows():
    comb = build_family("comb")
    assert square_basis(comb, 2) == Element({1: EX_ONE, 3: EX_ONE, 5: EX_ONE})
    assert square_basis(comb, 1).is_zero()


def test_products_without_a_cutoff_pull_nothing_from_an_infinite_row():
    # row 1 of markov_line is infinite: refused before any entry is pulled
    mk = build_family("markov_line")
    e1 = Element.basis(1)
    with pytest.raises(NoTailBound, match="pass a cutoff"):
        apply_operator(mk, OperatorKind.OMEGA, e1)
    with pytest.raises(NoTailBound, match="pass a cutoff"):
        multiply(mk, e1, e1)
    assert mk.row_of(1).entries == []


def test_square_basis_infinite_row():
    mk = build_family("markov_line")
    with pytest.raises(NoTailBound):
        square_basis(mk, 1)
    approx = square_basis(mk, 1, cutoff=5)
    assert isinstance(approx, ApproxElement)
    assert approx.prefix.support() == (2, 3, 4, 5)
    assert approx.prefix.coeffs[5] == ExactScalar.from_rational(Fraction(1, 16))
    # sqrt of the exact geometric tail (1/3) * 4^-(cutoff-1)
    assert approx.tail_norm_bound == pytest.approx(1 / (16 * math.sqrt(3)))
    assert square_basis(mk, 2, cutoff=10) == Element({3: EX_ONE})


def test_markov_power_chain_frozen():
    mk = build_family("markov_line")
    v = Element.basis(2) + Element.basis(3)
    assert principal_power(mk, v, 2) == Element.basis(3) + Element.basis(4)
    assert principal_power(mk, v, 3) == Element.basis(4)
    assert principal_power(mk, v, 4) == Element.zero()
    assert nil_witness_search(mk, v, 10) == NilAt(4)


def test_comb_power_chain_frozen():
    comb = build_family("comb")
    v = sum((Element.basis(i) for i in (2, 3, 4)), Element.basis(1))
    p2 = principal_power(comb, v, 2)
    assert p2.support() == (1, 3, 4, 5)
    assert principal_power(comb, v, 3) == Element({4: EX_ONE})
    assert principal_power(comb, v, 4) == Element.zero()
    assert nil_witness_search(comb, v, 6) == NilAt(4)


def test_nil_search_on_cycle_and_lazy():
    assert nil_witness_search(two_cycle(), Element.basis(1) + Element.basis(2), 9) \
        == NotNilUpTo(9)
    mk = build_family("markov_line")
    with pytest.raises(InfiniteRowReached):
        nil_witness_search(mk, Element.basis(1), 5)
    with pytest.raises(InvalidParams):
        nil_witness_search(mk, Element.basis(2), 1)
    # each step is one product, so the step count is capped up front
    with pytest.raises(InvalidParams, match="POWER_CEILING"):
        nil_witness_search(mk, Element.basis(2), algebra.POWER_CEILING + 1)


def test_principal_power_truncation_rules():
    mk = build_family("markov_line")
    v = Element.basis(1)
    approx = principal_power(mk, v, 2, cutoff=5)
    assert isinstance(approx, ApproxElement)
    # an approximate intermediate can never feed the next product
    with pytest.raises(InfiniteRowReached):
        principal_power(mk, v, 3, cutoff=5)
    with pytest.raises(InvalidParams):
        principal_power(mk, v, 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_multiply_commutative_bilinear(seed, data):
    s = random_finite_structure(seed)
    u = random_element(seed + 1, s.universe)
    v = random_element(seed + 2, s.universe)
    w = random_element(seed + 3, s.universe)
    assert multiply(s, u, v) == multiply(s, v, u)
    lhs = multiply(s, u + w, v)
    rhs = multiply(s, u, v) + multiply(s, w, v)
    assert lhs == rhs
    c = ExactScalar.from_rational(Fraction(2, 3))
    assert multiply(s, u.scale(c), v) == multiply(s, u, v).scale(c)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
def test_power_support_containment(seed, n):
    s = random_finite_structure(seed)
    v = random_element(seed ^ 0xBEEF, s.universe)
    p = principal_power(s, v, n)
    gen = descendants_generation(s, v.support(), n - 1, 10**6)
    assert not gen.truncated
    assert set(p.support()) <= set(gen.members)


def test_inner_product_forms():
    u = Element.basis(1).scale(ExactScalar.from_rational(0, 1))  # i*e1
    v = Element.basis(1)
    assert inner_product(u, v) == ExactScalar.from_rational(0, 1)
    assert inner_product(v, u) == inner_product(u, v).conjugate()
    # disjoint supports: a typed zero, not a bare int
    z = inner_product(Element.basis(1), Element.basis(2))
    assert z == EX_ZERO and isinstance(z, ExactScalar)
    val, bound = inner_product(
        ApproxElement(Element.basis(1), 3, 0.25), Element.basis(1))
    assert val == EX_ONE and bound == pytest.approx(0.25)
    # an approximate second argument: the conjugate, with the same bound
    w = Element({1: ExactScalar.from_rational(0, 1), 2: EX_ONE})  # i e1 + e2
    approx = ApproxElement(
        Element({1: EX_ONE, 2: ExactScalar.from_rational(2, 3)}), 3, 0.25)
    val, bound = inner_product(w, approx)
    swapped, swapped_bound = inner_product(approx, w)
    assert val == ExactScalar.from_rational(2, -2)  # i + (2 - 3i)
    assert val == swapped.conjugate()
    assert bound == swapped_bound >= 0.25 * math.sqrt(2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_inner_product_hermitian(seed):
    s = random_finite_structure(seed)
    u = random_element(seed + 7, s.universe)
    v = random_element(seed + 8, s.universe)
    assert inner_product(u, v) == inner_product(v, u).conjugate()
    nrm = inner_product(u, u)
    assert nrm.im.sign() == 0 and nrm.re.sign() >= 0


def alt_transform():
    half = EX_INV_SQRT2

    def forward(i):
        if i % 2 == 1:
            return Element({i: half, i + 1: half})
        return Element({i - 1: -half, i: half})

    def inverse(k):
        if k % 2 == 1:
            return Element({k: half, k + 1: -half})
        return Element({k - 1: half, k: half})

    return BasisTransform(forward, inverse, band=1)


def test_alt_line_transform_is_natural():
    b = build_family("alt_line_B")
    t = alt_transform()
    assert verify_transform_inverse(t, 16)
    assert verify_natural_basis(b, t, 12) == NaturalOnWindow(12)


def test_alt_line_change_of_basis_reproduces_second_presentation():
    b = build_family("alt_line_B")
    c0 = build_family("alt_line_C0")
    t = alt_transform()
    for i in range(1, 21):
        sq = multiply(b, t.forward(i), t.forward(i))
        assert transform_element(sq, t) == square_basis(c0, i)


def test_subspace_chain_frozen():
    assert subspace_chain(two_cycle(), 4) == [2, 2, 2, 2]
    assert subspace_chain(shift_pair(), 4) == [2, 1, 0, 0]
    with pytest.raises(UniverseNotFinite):
        subspace_chain(build_family("comb"), 3)
    with pytest.raises(InvalidParams, match="CHAIN_UNIVERSE_CEILING = 12"):
        subspace_chain(EvolutionStructure.from_rows(
            {}, algebra.CHAIN_UNIVERSE_CEILING + 1), 2)


def test_subspace_chain_reads_each_row_once_and_never_multiplies(monkeypatch):
    def no_multiply(*args, **kwargs):
        raise AssertionError("subspace_chain called multiply")

    monkeypatch.setattr(algebra, "multiply", no_multiply)
    for seed in range(20):
        s = random_finite_structure(seed)
        reads = []
        row_of = s.row_of
        monkeypatch.setattr(s, "row_of", lambda i: reads.append(i) or row_of(i))
        subspace_chain(s, s.universe + 2)
        assert sorted(reads) == list(range(1, s.universe + 1)), seed


def test_subspace_chain_stops_at_its_first_repeat(monkeypatch):
    calls = []
    reduce_basis = algebra._reduce_basis

    def counting(vectors):
        calls.append(1)
        return reduce_basis(vectors)

    monkeypatch.setattr(algebra, "_reduce_basis", counting)
    assert subspace_chain(two_cycle(), 200) == [2] * 200
    assert len(calls) == 1
    calls.clear()
    assert subspace_chain(shift_pair(), 200) == [2, 1] + [0] * 198
    assert len(calls) == 3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_subspace_chain_monotone(seed):
    s = random_finite_structure(seed)
    dims = subspace_chain(s, 6)
    assert dims[0] == s.universe
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def wide_row_structure():
    # row 1 is a finite row with 198 entries, reaching far past any cutoff
    wide = FiniteRow(tuple((k, EX_ONE) for k in range(2, 200)))
    return EvolutionStructure(lambda i: wide if i == 1 else FiniteRow(()))


def test_multiply_uses_finite_rows_in_full_whatever_the_cutoff():
    e1 = Element({1: EX_ONE})
    full = Element({k: EX_ONE for k in range(2, 200)})
    prod = multiply(wide_row_structure(), e1, e1, cutoff=5)
    assert isinstance(prod, Element)
    assert prod == full
    assert square_basis(wide_row_structure(), 1, cutoff=5) == full


def test_exact_rows_and_elements_survive_copy_and_pickle():
    w = ExactScalar.from_rational(Fraction(-2, 9), 3)
    row = FiniteRow(((2, EX_INV_SQRT2), (5, w)))
    elem = Element({1: EX_ONE, 4: w * EX_INV_SQRT2})
    for value in (row, elem):
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
    assert pickle.loads(pickle.dumps(row)).upto(4) == row.upto(4)
