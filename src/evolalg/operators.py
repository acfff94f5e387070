"""l2 operators attached to a structure, with certified bounds.

Four operators act on finite-support vectors:

* ``OMEGA`` (weighted):      (Omega v)_k = sum_i v_i w_ik
* ``GAMMA`` (its adjoint):   (Gamma v)_k = sum_i v_i conj(w_ki)
* ``ADJ`` / ``ADJ_T``:       the same with every nonzero weight replaced by 1.

Boundedness is only ever *certified* analytically: a Frobenius certificate
needs the full squared mass (finite universe or a family tail bound), and a
Schur certificate needs verified row/column inequalities including tails.
Numerical evidence alone never upgrades to a certificate; refutations, on
the other hand, only need a partial sum that already violates an inequality.
"""
from __future__ import annotations

import enum
from dataclasses import field
from fractions import Fraction
from typing import Callable, Optional

from .algebra import Element, _expand
from .errors import InvalidParams, NoColumnAccess, NoTailBound
from .graph import EvolutionStructure
from .records import Record
from .scalars import (
    abs_lower,
    abs_sq,
    abs_upper,
    conj,
    scalar_one,
    scalar_zero,
    up_sqrt,
)

# left_mult_bound reads rows up to this vertex, then defers to tail bounds.
_LEFT_MULT_WINDOW = 256


class OperatorKind(enum.Enum):
    OMEGA = "omega"          # weighted adjacency
    GAMMA = "gamma"          # adjoint of OMEGA
    ADJ = "adj"              # unweighted adjacency
    ADJ_T = "adjT"           # adjoint of ADJ

    @property
    def weighted(self) -> bool:
        return self in (OperatorKind.OMEGA, OperatorKind.GAMMA)

    @property
    def adjoint(self) -> bool:
        return self in (OperatorKind.GAMMA, OperatorKind.ADJ_T)


def _weight_map(kind: OperatorKind, mode: str):
    """What `kind` makes of each line weight; None leaves it as it is."""
    if kind.weighted:
        return conj if kind.adjoint else None
    unit = conj(scalar_one(mode)) if kind.adjoint else scalar_one(mode)
    return lambda w: unit


def apply_operator(s: EvolutionStructure, kind: OperatorKind, v: Element,
                   cutoff: Optional[int] = None):
    """Apply an operator to a finite-support vector.

    Exact whenever all touched lines (rows for OMEGA/ADJ, columns for the
    adjoints) are finite.  Infinite weighted rows need a cutoff and produce
    an :class:`ApproxElement`; infinite *unweighted* rows are rejected (their
    images are not square-summable, so no tail bound can exist).
    """
    if not isinstance(kind, OperatorKind):
        kind = OperatorKind(kind)
    line_of = s.column_of if kind.adjoint else s.row_of
    return _expand(s, ((i, c, line_of(i)) for i, c in v.items()), cutoff,
                   _weight_map(kind, s.mode), l2_tail=kind.weighted,
                   axis="column" if kind.adjoint else "row")


class FiniteCertified(Record):
    total: object   # partial sum up to the window (exact in exact mode)
    tail: object    # certified bound on the remainder


class PartialSum(Record):
    total: object


def summability_check(s: EvolutionStructure, axis: str, index: int, window: int):
    """Square-summability evidence for one row or column.

    ``FiniteCertified(partial, tail)`` when the line is finite or carries a
    tail bound; otherwise ``PartialSum`` of the window prefix.
    """
    if axis == "row":
        line = s.row_of(index)
    elif axis == "column":
        line = s.column_of(index)
    else:
        raise InvalidParams(f"axis must be 'row' or 'column', got {axis!r}")
    if window < 0:
        raise InvalidParams("window must be >= 0")
    entries, exhausted, _ = line.upto(window)
    total = None
    for _, w in entries:
        a = abs_sq(w)
        total = a if total is None else total + a
    if total is None:
        total = Fraction(0)
    if exhausted:
        return FiniteCertified(total, Fraction(0))
    try:
        tail = line.tail_sq(window)
    except NoTailBound:
        return PartialSum(total)
    return FiniteCertified(total, tail)


class BoundCertificate(Record):
    kind: str                      # "frobenius" | "schur"
    status: str                    # "certified" | "refuted" | "inconclusive"
    bound: Optional[float]         # operator-norm bound when certified
    window: int
    refutation_index: Optional[tuple] = None   # ("row"|"column", index)
    detail: dict = field(default_factory=dict, compare=False)


def frobenius_certificate(s: EvolutionStructure, window: int) -> BoundCertificate:
    """Hilbert-Schmidt bound: ||Omega|| <= sqrt(total squared weight).

    Certifiable only when the mass of rows beyond the window is controlled
    (finite universe inside the window, or a family-level tail bound).
    Otherwise the partial sum is reported as inconclusive evidence.
    """
    top = s.window_top(window)
    total = Fraction(0)
    rows_certified = True
    for i in range(1, top + 1):
        res = summability_check(s, "row", i, window)
        if isinstance(res, FiniteCertified):
            total += _upperize(res.total) + _upperize(res.tail)
        else:
            total += _upperize(res.total)
            rows_certified = False
    beyond = None
    if s.universe is not None and s.universe <= window:
        beyond = Fraction(0)
    elif s.meta is not None and s.meta.frobenius_tail_sq is not None:
        beyond = Fraction(s.meta.frobenius_tail_sq(top))
    if rows_certified and beyond is not None:
        m = up_sqrt(total + beyond)
        return BoundCertificate("frobenius", "certified", m, window,
                               detail={"total_sq": str(total + beyond)})
    return BoundCertificate("frobenius", "inconclusive", None, window,
                            detail={"partial_sq": str(total),
                                    "partial_sqrt": up_sqrt(total)})


def _upperize(x) -> Fraction:
    """Rational upper bound of a nonnegative quantity (Q2/Fraction/float)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    return x.upper()  # Q2


class SchurWeights(Record):
    """A positive weight sequence with (optionally) a bound on its sup beyond
    any prefix, needed to certify lazy rows against it."""

    fn: Callable[[int], Fraction]
    tail_sup: Optional[Callable[[int], Fraction]] = None


def _one(_i):
    return Fraction(1)


ONES = SchurWeights(_one, _one)


def schur_certificate(s: EvolutionStructure, alpha, beta, m1, m2,
                      window: int) -> BoundCertificate:
    """Schur test for ||Omega|| <= sqrt(M1*M2).

    Verifies on {1..window}: sum_k |w_ik| alpha_k <= M1 beta_i per row i and
    sum_i |w_ik| beta_i <= M2 alpha_k per column k.  Rows with tails are
    certified through their l1 tail bound times the sup of alpha beyond the
    window.  A partial sum already violating its inequality refutes *this*
    certificate (boundedness itself stays undecided); the first violation in
    scan order (rows ascending, then columns) is reported.
    """
    top = s.window_top(window)
    if not isinstance(alpha, SchurWeights):
        alpha = SchurWeights(alpha)
    if not isinstance(beta, SchurWeights):
        beta = SchurWeights(beta)
    m1 = Fraction(m1) if not isinstance(m1, Fraction) else m1
    m2 = Fraction(m2) if not isinstance(m2, Fraction) else m2
    if m1 <= 0 or m2 <= 0:
        raise InvalidParams("Schur constants must be positive")

    inconclusive = False
    for i in range(1, top + 1):
        lo, hi = _schur_line_sum(s.row_of(i), alpha, top)
        cap = m1 * beta.fn(i)
        if lo > cap:
            return BoundCertificate("schur", "refuted", None, window,
                                    refutation_index=("row", i))
        if hi is None or hi > cap:
            inconclusive = True
    for k in range(1, top + 1):
        try:
            col = s.column_of(k)
        except NoColumnAccess:
            inconclusive = True
            continue
        lo, hi = _schur_line_sum(col, beta, top)
        cap = m2 * alpha.fn(k)
        if lo > cap:
            return BoundCertificate("schur", "refuted", None, window,
                                    refutation_index=("column", k))
        if hi is None or hi > cap:
            inconclusive = True
    if inconclusive:
        return BoundCertificate("schur", "inconclusive", None, window,
                                detail={"note": "boundedness undecided"})
    return BoundCertificate("schur", "certified", up_sqrt(m1 * m2), window,
                            detail={"m1": str(m1), "m2": str(m2)})


def _schur_line_sum(line, weights: SchurWeights, window: int):
    """(lower, upper) rational bounds on sum_k |w_k| * weight_k for one line.

    Finite lines are completely known and summed in full; the window only
    limits how far lazy lines are enumerated.  The lower bound is what
    refutations rely on, so it must never overshoot; the upper bound (None
    when the tail cannot be controlled) is what certification relies on.
    """
    entries, exhausted = line.prefix(window)
    lo = Fraction(0)
    hi = Fraction(0)
    for k, w in entries:
        wk = Fraction(weights.fn(k))
        lo += abs_lower(w) * wk
        hi += abs_upper(w) * wk
    if exhausted:
        return lo, hi
    tail = line.tail_abs(window)
    if tail is None or weights.tail_sup is None:
        return lo, None
    return lo, hi + Fraction(tail) * Fraction(weights.tail_sup(window))


def adjoint_pairing_residual(s: EvolutionStructure, i: int, v: Element):
    """<Omega delta_i, v> - <delta_i, Gamma v>; exactly zero in exact mode.

    The left side only needs row i at the support of v, so it is computable
    even for infinite rows; the right side exercises the column access.
    """
    s._check_vertex(i)
    sup = v.support()
    lhs = None
    if sup:
        entries, _, _ = s.row_of(i).upto(sup[-1])
        coeffs = dict(entries)
        for k in sup:
            if k in coeffs:
                t = coeffs[k] * conj(v.coeffs[k])
                lhs = t if lhs is None else lhs + t
    gamma_v = apply_operator(s, OperatorKind.GAMMA, v)
    rhs = None
    if i in gamma_v.coeffs:
        rhs = conj(gamma_v.coeffs[i])
    zero = scalar_zero(s.mode)
    lhs = zero if lhs is None else lhs
    rhs = zero if rhs is None else rhs
    return lhs - rhs


def left_mult_bound(s: EvolutionStructure, v: Element) -> float:
    """Continuity bound M_v = sqrt(sum_i |v_i|^2 ||e_i^2||^2) for w -> v*w."""
    total = Fraction(0)
    for i, c in v.items():
        row = s.row_of(i)
        entries, exhausted, _ = row.upto(_LEFT_MULT_WINDOW)
        sq = Fraction(0)
        for _, w in entries:
            sq += _upperize(abs_sq(w))
        if not exhausted:
            sq += _upperize(row.tail_sq(_LEFT_MULT_WINDOW))  # NoTailBound if absent
        total += _upperize(abs_sq(c)) * sq
    return up_sqrt(total)


def matrix_window(s: EvolutionStructure, kind: OperatorKind, n: int):
    """Dense top x top window, where top = ``s.window_top(n)``: n clipped to
    a finite universe, and refused past WINDOW_CEILING on an infinite one.
    Entry (i, k) is w_ik, a_ik, or the conjugate transpose for the adjoint
    kinds.  Lists are 0-indexed: entry [i-1][k-1]."""
    if not isinstance(kind, OperatorKind):
        kind = OperatorKind(kind)
    top = s.window_top(n)
    zero = scalar_zero(s.mode)
    mat = [[zero] * top for _ in range(top)]
    weight = _weight_map(kind, s.mode)
    for i in range(1, top + 1):
        entries, _, _ = s.row_of(i).upto(top)
        for k, w in entries:
            wv = w if weight is None else weight(w)
            if kind.adjoint:
                mat[k - 1][i - 1] = wv
            else:
                mat[i - 1][k - 1] = wv
    return mat
