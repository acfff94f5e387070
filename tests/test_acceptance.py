"""Acceptance gate: end-to-end behavior at fixed seeds and tolerances.

Each test is one pass/fail gate; run with ``pytest -v tests/test_acceptance.py``
to see one line per gate.
"""
import math
import random
import time
from fractions import Fraction

from evolalg import (
    BasisTransform,
    Element,
    EX_INV_SQRT2,
    IndexExact,
    NilAt,
    OperatorKind,
    ONES,
    Permutation,
    RayPrefix,
    UnboundedDepthSequence,
    adjoint_pairing_residual,
    apply_operator,
    brute_force_nilpotent,
    build_family,
    classify,
    cycle_search,
    descendants_generation,
    growing_teeth_tooth,
    inner_product,
    left_mult_bound,
    multiply,
    nil_witness_search,
    norm_upper,
    permutation_is_strictly_lower,
    principal_power,
    random_finite_structure,
    schur_certificate,
    square_basis,
    transform_element,
    triangularize_window,
    validate_witness,
)
from evolalg.scalars import ExactScalar, EX_ZERO

ZERO = Element({})


def rational(rng, span=9, den=9):
    num = rng.choice([x for x in range(-span, span + 1) if x])
    return ExactScalar.from_rational(Fraction(num, rng.randint(1, den)))


def random_supported(rng, vertices, size):
    return Element({i: rational(rng) for i in rng.sample(vertices, size)})


def test_comb_fourth_powers_vanish_and_index_is_four():
    s = build_family("comb")
    rng = random.Random(20260823)
    start = time.perf_counter()
    cubes = 0
    for _ in range(100):
        v = random_supported(rng, range(1, 61), rng.randint(1, 12))
        assert principal_power(s, v, 4) == ZERO
        if principal_power(s, v, 3) != ZERO:
            cubes += 1
    rep = classify(s)
    elapsed = time.perf_counter() - start
    assert cubes >= 1
    assert rep.nilpotent.status == "yes" and rep.nilpotent.certified
    assert rep.index == IndexExact(4)
    assert elapsed < 5.0


def test_growing_teeth_blocks_die_but_depths_grow():
    s = build_family("growing_teeth")
    rng = random.Random(7)
    for k in range(1, 9):
        tooth = growing_teeth_tooth(k)
        ones = Element({i: ExactScalar.from_rational(1) for i in tooth})
        samples = [ones] + [Element({i: rational(rng, 5, 5) for i in tooth})
                            for _ in range(5)]
        for v in samples:
            out = nil_witness_search(s, v, k + 2)
            assert isinstance(out, NilAt) and out.n <= k + 2
    rep = classify(s)
    assert rep.nil.status == "yes" and rep.nil.certified
    assert rep.nilpotent.status == "no" and rep.nilpotent.certified
    w = rep.nilpotent.witness
    assert isinstance(w, UnboundedDepthSequence) and len(w.pairs) >= 8
    assert validate_witness(s, w)


def test_markov_line_not_nil_with_validated_ray_and_exact_powers():
    s = build_family("markov_line")
    rep = classify(s)
    assert rep.nil.status == "no" and rep.nil.certified
    w = rep.nil.witness
    assert isinstance(w, RayPrefix)
    assert validate_witness(s, w)
    one = ExactScalar.from_rational(1)
    v = Element({2: one, 3: one})
    assert principal_power(s, v, 2) == Element({3: one, 4: one})
    assert principal_power(s, v, 3) == Element({4: one})
    assert principal_power(s, v, 4) == ZERO


def test_finite_random_structures_four_way_agreement():
    disagreements = 0
    acyclic = cyclic = 0
    for seed in range(500):
        s = random_finite_structure(seed)
        n = s.universe
        bf = brute_force_nilpotent(s)
        path, completed = cycle_search(s, n, n * n + n + 8)
        assert completed
        tri = triangularize_window(s, n)
        rep = classify(s)
        conditions = (
            bf.nilpotent,
            path is None,
            isinstance(tri, Permutation),
            rep.nilpotent.status == "yes" and rep.nilpotent.certified,
        )
        if len(set(conditions)) != 1:
            disagreements += 1
        elif bf.nilpotent:
            acyclic += 1
            assert rep.index == IndexExact(bf.index)
        else:
            cyclic += 1
    assert disagreements == 0
    assert acyclic >= 100 and cyclic >= 100


def test_products_live_inside_descendant_generations():
    rng = random.Random(13)
    violations = 0
    for seed in range(200):
        s = random_finite_structure(1000 + seed)
        n_univ = s.universe
        U = sorted(rng.sample(range(1, n_univ + 1), rng.randint(1, n_univ)))
        n = rng.randint(1, 5)
        factors = [Element({i: rational(rng, 4, 4)
                            for i in U if rng.random() < 0.8})
                   for _ in range(n)]
        prod = factors[0]
        for f in factors[1:]:
            prod = multiply(s, prod, f)
        gen = descendants_generation(s, U, n - 1, 10_000)
        assert not gen.truncated
        if not set(prod.support()) <= set(gen.members):
            violations += 1
    assert violations == 0


def test_triangularization_strictly_lower_on_acyclic_and_comb_windows():
    for seed in range(500):
        s = random_finite_structure(seed)
        n = s.universe
        path, completed = cycle_search(s, n, n * n + n + 8)
        assert completed
        tri = triangularize_window(s, n)
        assert isinstance(tri, Permutation) == (path is None)
        if path is None:
            assert permutation_is_strictly_lower(s, tri.order, n)
    comb = build_family("comb")
    for window in range(1, 41):
        tri = triangularize_window(comb, window)
        assert isinstance(tri, Permutation)
        assert permutation_is_strictly_lower(comb, tri.order, window)


def test_operator_certificates_schur_adjoint_left_mult():
    mk = build_family("markov_line")
    cert = schur_certificate(mk, ONES, ONES, Fraction(1), Fraction(2), 32)
    assert cert.status == "certified"
    assert cert.bound == math.sqrt(2)

    rng = random.Random(99)
    two = ExactScalar.from_rational(2)
    for _ in range(200):
        v = random_supported(rng, range(2, 41), rng.randint(1, 8))
        img = apply_operator(mk, OperatorKind.OMEGA, v)
        slack = two * inner_product(v, v) - inner_product(img, img)
        assert slack.im == EX_ZERO.im and slack.re.sign() >= 0
    v = Element({1: ExactScalar.from_rational(1),
                 2: ExactScalar.from_rational(1)})
    approx = apply_operator(mk, OperatorKind.OMEGA, v, cutoff=12)
    lhs = float(norm_upper(approx.prefix))
    assert lhs <= math.sqrt(2) * float(norm_upper(v)) + approx.tail_norm_bound + 1e-9

    probe = Element({j: ExactScalar.from_rational(Fraction(3, 7))
                     for j in range(1, 13)})
    for name in ("comb", "markov_line"):
        s = build_family(name)
        for i in range(1, 31):
            assert adjoint_pairing_residual(s, i, probe) == EX_ZERO

    rng = random.Random(4242)
    for name in ("comb", "markov_line", "growing_teeth"):
        s = build_family(name)
        lo = 2 if name == "markov_line" else 1
        for _ in range(100):
            v = random_supported(rng, range(lo, 40), rng.randint(1, 6))
            w = random_supported(rng, range(lo, 40), rng.randint(1, 6))
            bound = left_mult_bound(s, v)
            lhs = float(norm_upper(multiply(s, v, w)))
            assert lhs <= bound * float(norm_upper(w)) + 1e-9


def test_change_of_basis_reproduces_signed_inv_sqrt2_pattern():
    b = build_family("alt_line_B")
    c0 = build_family("alt_line_C0")
    half = EX_INV_SQRT2

    def forward(i):
        if i % 2 == 1:
            return Element({i: half, i + 1: half})
        return Element({i - 1: -half, i: half})

    def inverse(k):
        if k % 2 == 1:
            return Element({k: half, k + 1: -half})
        return Element({k - 1: half, k: half})

    t = BasisTransform(forward, inverse, band=1)
    for i in range(1, 21):
        sq = transform_element(multiply(b, forward(i), forward(i)), t)
        target = square_basis(c0, i)
        assert sq == target
        m = i if i % 2 == 1 else i - 1
        assert target == Element({m: half, m + 1: half, m + 2: half,
                                  m + 3: -half})


def test_index_formula_discrepancy_is_flagged():
    # A chain 1 -> 2 has vertex ranks 1 and 0, yet the subspace chain dies
    # only at step 3: the exact index is max rank + 2, and the naive
    # "max rank + 1" shortcut undercounts.  This gate pins the exact value.
    from evolalg import EvolutionStructure

    def rank(s, i):
        # the last m with D^m(i) nonempty
        m = 0
        while descendants_generation(s, [i], m + 1, 10**6).members:
            m += 1
        return m

    s = EvolutionStructure.from_rows({1: [(2, 1)]}, 2)
    bf = brute_force_nilpotent(s)
    assert bf.nilpotent and bf.index == 3
    assert classify(s).index == IndexExact(3)
    assert (rank(s, 1), rank(s, 2)) == (1, 0)
    naive = 1 + 1
    assert naive != bf.index and bf.index == 1 + 2

    comb = build_family("comb")
    assert classify(comb).index == IndexExact(4)
    assert max(rank(comb, i) for i in range(1, 9)) == 2  # 2 + 2 = 4
