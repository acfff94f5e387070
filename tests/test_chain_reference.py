"""The subspace chain against a reference copy of the n^2-product algorithm.

The package forms A^<k+1> from x * e_j = x_j * row_j, reading each row once.
The reference below builds it as the definition reads: every product x * e_j
of a basis vector x of A^<k> with every basis vector e_j, through
``multiply``.  Both hand their products to the same row reduction, so this
pins the products, not the rank; the rank itself is checked against sympy in
``tests/test_sympy_oracle.py``.  The structures have up to eight vertices,
rational, sqrt2 and complex weights, and rows that are multiples of earlier
rows, so the chain loses dimensions through cancellation as well as through
zero rows.
"""
import random
from fractions import Fraction

import pytest

from evolalg import Element, EvolutionStructure, multiply, subspace_chain
from evolalg.algebra import _reduce_basis
from evolalg.scalars import EX_ONE, EX_SQRT2, ExactScalar, Q2

# factors that make a rational weight irrational, complex, or both
TWISTS = (EX_ONE, EX_SQRT2, ExactScalar(0, 1), ExactScalar(1, 1),
          ExactScalar(Q2(1, 1)), ExactScalar(0, Q2(0, 1)))
SEEDS_PER_N = 30


def reference_chain(s, n_max):
    """dim A^<1>, ..., dim A^<n_max>, from n * dim A^<k> products a step."""
    n = s.universe
    basis_vectors = [Element.basis(i) for i in range(1, n + 1)]
    dims = [n]
    current = basis_vectors
    for _ in range(2, n_max + 1):
        products = []
        for x in current:
            for e in basis_vectors:
                products.append(multiply(s, x, e))
        current = _reduce_basis(products)
        dims.append(len(current))
        if dims[-1] == dims[-2]:
            return dims + [dims[-1]] * (n_max - len(dims))
    return dims


def _weight(rng):
    r = Fraction(rng.randint(1, 7) * rng.choice((-1, 1)), rng.randint(1, 7))
    return ExactScalar.from_rational(r) * rng.choice(TWISTS)


def random_structure(seed, n):
    """Random rows on {1..n}; about a quarter repeat an earlier row times a
    random weight."""
    rng = random.Random(seed)
    p = rng.choice((0.2, 0.4, 0.6))
    rows = {}
    for i in range(1, n + 1):
        if rows and rng.random() < 0.25:
            c = _weight(rng)
            rows[i] = [(k, c * w) for k, w in rows[rng.choice(sorted(rows))]]
            continue
        entries = [(k, _weight(rng)) for k in range(1, n + 1)
                   if rng.random() < p]
        if entries:
            rows[i] = entries
    return EvolutionStructure.from_rows(rows, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_matches_the_reference(n):
    for seed in range(SEEDS_PER_N):
        s = random_structure(seed * 10 + n, n)
        for n_max in range(1, n + 3):
            assert subspace_chain(s, n_max) == reference_chain(s, n_max), \
                (n, seed, n_max)


def test_reference_structures_lose_dimensions_by_cancellation():
    # the rows of some structures are dependent without being zero, so the
    # chain drops below the number of nonzero rows at its second step
    dependent = 0
    for n in range(2, 9):
        for seed in range(SEEDS_PER_N):
            s = random_structure(seed * 10 + n, n)
            nonzero = sum(1 for j in range(1, n + 1) if tuple(s.row_of(j)))
            dependent += reference_chain(s, 2)[1] < nonzero
    assert dependent >= 100
