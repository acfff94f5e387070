"""The certified bounds against a reference copy of the sequential algorithm.

The package sums each certificate exactly over one common denominator.  The
reference below is the algorithm written out term by term: moduli taken
through ``abs_exact`` (an exact Q2 modulus read through its rational
brackets, else a double-rounded root of the squared modulus), then
``Fraction +=`` loops.  It shares no summing code with the package, and
every routine must return what it returns: the same status, bound,
refutation index and detail, the same float, or the same exception.
"""
from fractions import Fraction

import pytest

from evolalg import (
    ONES,
    Element,
    EvolutionStructure,
    FamilyMeta,
    FiniteRow,
    NoColumnAccess,
    SchurWeights,
    build_family,
    list_families,
    frobenius_certificate,
    left_mult_bound,
    norm_upper,
    random_element,
    random_finite_structure,
    schur_certificate,
)
from evolalg.errors import NoTailBound
from evolalg.scalars import (
    EX_INV_SQRT2,
    EX_SQRT2,
    ExactScalar,
    Q2,
    down_sqrt_frac,
    up_sqrt,
    up_sqrt_frac,
)

WINDOWS = (1, 2, 7, 32, 256)
FAMILIES = [name for name in list_families() if name != "finite_explicit"]
CONSTANTS = ((1, 1), (1, 2), (Fraction(1, 2), 2), (8, 8))
WEIGHTS = {
    "ones": ONES,
    "harmonic": SchurWeights(lambda k: Fraction(1, k)),
    "float": SchurWeights(lambda k: 1 / (k + 0.5), lambda n: 1 / (n + 1.5)),
}
# factors that make a rational weight irrational, complex, or both
TWISTS = (EX_SQRT2, ExactScalar(1, 1), ExactScalar(0, Q2(1, 1)),
          ExactScalar(3, 4), ExactScalar(1, 2), ExactScalar(1, Q2(0, 1)),
          EX_INV_SQRT2)


# -- the reference ------------------------------------------------------------

def ref_abs_upper(x):
    r = x.abs_exact()
    if r is not None:
        return r.upper()
    return up_sqrt_frac(x.abs_sq().upper())


def ref_abs_lower(x):
    r = x.abs_exact()
    if r is not None:
        return r.lower()
    lo = x.abs_sq().lower()
    return down_sqrt_frac(lo if lo >= 0 else Fraction(0))


def ref_upperize(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    return x.upper()


def ref_line_sum(line, weights, window):
    entries, exhausted = line.prefix(window)
    lo = Fraction(0)
    hi = Fraction(0)
    for k, w in entries:
        wk = Fraction(weights.fn(k))
        lo += ref_abs_lower(w) * wk
        hi += ref_abs_upper(w) * wk
    if exhausted:
        return lo, hi
    tail = line.tail_abs(window)
    if tail is None or weights.tail_sup is None:
        return lo, None
    return lo, hi + Fraction(tail) * Fraction(weights.tail_sup(window))


def ref_schur(s, alpha, beta, m1, m2, window):
    """(status, bound, refutation_index, detail)"""
    top = s.window_top(window)
    m1, m2 = Fraction(m1), Fraction(m2)
    inconclusive = False
    for i in range(1, top + 1):
        lo, hi = ref_line_sum(s.row_of(i), alpha, top)
        cap = m1 * beta.fn(i)
        if lo > cap:
            return "refuted", None, ("row", i), {}
        if hi is None or hi > cap:
            inconclusive = True
    for k in range(1, top + 1):
        try:
            col = s.column_of(k)
        except NoColumnAccess:
            inconclusive = True
            continue
        lo, hi = ref_line_sum(col, beta, top)
        cap = m2 * alpha.fn(k)
        if lo > cap:
            return "refuted", None, ("column", k), {}
        if hi is None or hi > cap:
            inconclusive = True
    if inconclusive:
        return "inconclusive", None, None, {"note": "boundedness undecided"}
    return ("certified", up_sqrt(m1 * m2), None,
            {"m1": str(m1), "m2": str(m2)})


def ref_row_mass(s, i, window):
    """(upper bound on the squared mass of row i, whether it is certified):
    the exact Q2 sum of the window's |w|^2, rounded up, plus the tail's."""
    line = s.row_of(i)
    entries, exhausted, _ = line.upto(window)
    total = Fraction(0)
    for _, w in entries:
        total = total + w.abs_sq()
    if exhausted:
        return ref_upperize(total), True
    try:
        tail = line.tail_sq(window)
    except NoTailBound:
        return ref_upperize(total), False
    return ref_upperize(total) + ref_upperize(tail), True


def ref_frobenius(s, window):
    top = s.window_top(window)
    total = Fraction(0)
    rows_certified = True
    for i in range(1, top + 1):
        mass, certified = ref_row_mass(s, i, window)
        total += mass
        rows_certified = rows_certified and certified
    beyond = None
    if s.universe is not None and s.universe <= window:
        beyond = Fraction(0)
    elif s.meta is not None and s.meta.frobenius_tail_sq is not None:
        beyond = Fraction(s.meta.frobenius_tail_sq(top))
    if rows_certified and beyond is not None:
        return ("certified", up_sqrt(total + beyond), None,
                {"total_sq": str(total + beyond)})
    return ("inconclusive", None, None,
            {"partial_sq": str(total), "partial_sqrt": up_sqrt(total)})


def ref_left_mult(s, v):
    total = Fraction(0)
    for i, c in v.items():
        row = s.row_of(i)
        entries, exhausted, _ = row.upto(256)
        sq = Fraction(0)
        for _, w in entries:
            sq += ref_upperize(w.abs_sq())
        if not exhausted:
            sq += ref_upperize(row.tail_sq(256))
        total += ref_upperize(c.abs_sq()) * sq
    return up_sqrt(total)


def ref_norm_upper(elem):
    total = Fraction(0)
    for _, v in elem.items():
        a = ref_abs_upper(v)
        total += a * a
    return up_sqrt_frac(total)


def ref_tail_abs(row, n):
    total = Fraction(0)
    for k, w in row.entries:
        if k > n:
            total += ref_abs_upper(w)
    return total


# -- comparisons ---------------------------------------------------------------

def same_certificate(cert, ref):
    status, bound, refutation, detail = ref
    assert (cert.status, cert.bound, cert.refutation_index, cert.detail) \
        == (status, bound, refutation, detail)
    assert type(cert.bound) is type(bound)


def same_outcome(f, ref, *args):
    """f(*args) == ref(*args), or both raise the same exception type."""
    try:
        want = ref(*args)
    except NoTailBound:
        with pytest.raises(NoTailBound):
            f(*args)
        return
    got = f(*args)
    assert got == want
    assert type(got) is type(want)


def check_structure(s, windows, element):
    for window in windows:
        for alpha in WEIGHTS.values():
            for m1, m2 in CONSTANTS:
                same_certificate(schur_certificate(s, alpha, alpha, m1, m2, window),
                                 ref_schur(s, alpha, alpha, m1, m2, window))
        same_certificate(frobenius_certificate(s, window),
                         ref_frobenius(s, window))
    same_outcome(left_mult_bound, ref_left_mult, s, element)
    same_outcome(norm_upper, ref_norm_upper, element)


def twisted(seed):
    """random_finite_structure(seed) with every weight times a factor from
    TWISTS: irrational, complex and Pythagorean moduli side by side."""
    s = random_finite_structure(seed)
    rows = {i: [(k, w * TWISTS[(i + k) % len(TWISTS)]) for k, w in s.row_of(i)]
            for i in range(1, s.universe + 1)}
    return EvolutionStructure.from_rows(rows, s.universe)


def twisted_element(seed, n):
    v = random_element(seed, n)
    return Element({k: c * TWISTS[k % len(TWISTS)] for k, c in v.items()})


def geometric():
    """Row 1 is markov_line's lazy row, row i > 1 the one entry 2^-i at
    i + 1, and the metadata bounds the mass of rows past n: Frobenius is
    certified on an infinite structure with a tail."""
    markov = build_family("markov_line")

    def row(i):
        if i == 1:
            return markov.row_of(1)
        return FiniteRow(((i + 1, ExactScalar(Fraction(1, 2 ** i))),))

    meta = FamilyMeta(frobenius_tail_sq=lambda n: Fraction(1, 3 * 4 ** n))
    return EvolutionStructure(row, meta=meta)


def check_tail_abs(s, top):
    """FiniteRow.tail_abs past every cut of the finite rows 1..top."""
    for i in range(1, top + 1):
        row = s.row_of(i)
        if isinstance(row, FiniteRow):
            for cut in range(top + 2):
                assert row.tail_abs(cut) == ref_tail_abs(row, cut)


@pytest.mark.parametrize("name", FAMILIES + ["geometric"])
def test_family_certificates_match_the_reference(name):
    s = geometric() if name == "geometric" else build_family(name)
    v = Element({1: ExactScalar(Fraction(3, 7)), 2: EX_SQRT2,
                 5: ExactScalar(Fraction(-2, 3), 1), 9: ExactScalar(0, Q2(1, 1))})
    check_structure(s, WINDOWS, v)
    check_tail_abs(s, 12)


@pytest.mark.parametrize("first", range(0, 200, 20))
def test_random_certificates_match_the_reference(first):
    for seed in range(first, first + 20):
        plain = random_finite_structure(seed)
        n = plain.universe
        for s, v in ((plain, random_element(seed, n)),
                     (twisted(seed), twisted_element(seed, n))):
            check_structure(s, (1, 2, 7), v)
            check_tail_abs(s, n)


def test_twisted_inputs_reach_every_modulus_route():
    """The twisted structures do hold irrational, complex and exact complex
    moduli, so the comparisons above reach each route of abs_lower."""
    structures = [twisted(sd) for sd in range(20)]
    weights = [w for s in structures for i in range(1, s.universe + 1)
               for _, w in s.row_of(i)]
    assert any(w.abs_exact() is None for w in weights)
    assert any(w.im and w.abs_exact() is not None for w in weights)
    assert any(not w.im and w.re.b for w in weights)
