"""Element arithmetic over the natural basis.

Elements are finite-support vectors; the product is determined by
bilinearity from e_i * e_i = row_i and e_i * e_j = 0 for i != j, so

    u * v = sum_i u_i v_i * row_i.

When a product touches an infinite row it can only be computed to a cutoff;
the result is then an :class:`ApproxElement` carrying a certified bound on
the l2 norm of everything dropped.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import InfiniteRowReached, InvalidParams, NoTailBound, UniverseNotFinite
from .graph import WINDOW_CEILING, EvolutionStructure
from .records import Record
from .scalars import (
    EX_ONE,
    EX_ZERO,
    abs_sq,
    abs_upper,
    conj,
    up_float,
    up_sqrt_frac,
)

# principal_power takes at most this many steps: each is one product, so a
# larger exponent is refused up front instead of running for hours.
POWER_CEILING = 4096


class Element:
    """Finite-support vector; no stored zero coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {}
        for k, v in coeffs.items():
            if not isinstance(k, int) or k < 1:
                raise InvalidParams(f"bad vertex id {k!r}")
            if v:
                clean[k] = v
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *_):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        # copy and pickle would set the slot through the frozen __setattr__
        return Element, (self.coeffs,)

    @classmethod
    def zero(cls) -> "Element":
        return cls({})

    @classmethod
    def basis(cls, i: int) -> "Element":
        return cls({i: EX_ONE})

    def items(self):
        return sorted(self.coeffs.items())

    def support(self):
        return tuple(sorted(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return Element(out)

    def __sub__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] - v if k in out else -v
        return Element(out)

    def __neg__(self) -> "Element":
        return Element({k: -v for k, v in self.coeffs.items()})

    def scale(self, c) -> "Element":
        if not c:
            return Element.zero()
        return Element({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.items()))

    def norm_sq(self):
        total = None
        for _, v in self.items():
            a = abs_sq(v)
            total = a if total is None else total + a
        return total if total is not None else Fraction(0)

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in self.items())
        return "Element({" + body + "})"


class ApproxElement(Record):
    """Prefix of a vector supported on {1..cutoff} plus a certified bound on
    the l2 norm of the discarded remainder."""

    prefix: Element
    cutoff: int
    tail_norm_bound: float

    def __post_init__(self):
        sup = self.prefix.support()
        if sup and sup[-1] > self.cutoff:
            raise InvalidParams("prefix support exceeds the cutoff")


def norm_upper(elem: Element) -> Fraction:
    """Rational upper bound on the l2 norm."""
    total = Fraction(0)
    for _, v in elem.items():
        a = abs_upper(v)
        total += a * a
    return up_sqrt_frac(total)


def _expand(s: EvolutionStructure, terms, cutoff: Optional[int],
            weight: Optional[Callable] = None, l2_tail: bool = True,
            axis: str = "row"):
    """Sum of c * line over (index, coefficient, line) triples.

    Finite lines are used in full.  Without a cutoff a lazy line must turn
    out finite within its probe, else NoTailBound.  With one, a lazy line
    longer than the cutoff contributes its prefix, and the result is an
    :class:`ApproxElement` whose tail bound adds |c| * sqrt(tail_sq(cutoff))
    per such line plus the norm of whatever finite-line mass lies beyond the
    cutoff.  `weight` maps each line weight before it is scaled;
    ``l2_tail=False`` declares that mapped lines have no square-summable
    tail, so truncating one raises NoTailBound.  On an infinite universe a
    cutoff above WINDOW_CEILING is refused with InvalidParams: a lazy line
    caches every entry up to the cutoff.
    """
    if s.universe is None and cutoff is not None and cutoff > WINDOW_CEILING:
        raise InvalidParams(f"cutoff {cutoff} exceeds the ceiling "
                            f"WINDOW_CEILING = {WINDOW_CEILING}")
    acc: dict[int, object] = {}
    tail_bound = Fraction(0)
    approx = False
    for i, c, line in terms:
        if not c:
            continue
        entries, exhausted = line.prefix(cutoff)
        if not exhausted:
            if cutoff is None:
                raise NoTailBound(f"{axis} {i} is infinite; pass a cutoff")
            if not l2_tail:
                raise NoTailBound(
                    "unweighted image of an infinite line is not in l2")
            approx = True
            tail_bound += abs_upper(c) * up_sqrt_frac(line.tail_sq(cutoff))
        for k, w in entries:
            cw = c * (w if weight is None else weight(w))
            acc[k] = acc[k] + cw if k in acc else cw
    result = Element(acc)
    if not approx:
        return result
    kept = {k: w for k, w in result.coeffs.items() if k <= cutoff}
    dropped = Element({k: w for k, w in result.coeffs.items() if k > cutoff})
    if dropped.coeffs:
        tail_bound += norm_upper(dropped)
    return ApproxElement(Element(kept), cutoff, up_float(tail_bound))


def square_basis(s: EvolutionStructure, i: int, cutoff: Optional[int] = None):
    """The square of the i-th natural basis vector, i.e. row i as an element."""
    return _expand(s, ((i, EX_ONE, s.row_of(i)),), cutoff)


def multiply(s: EvolutionStructure, u: Element, v: Element,
             cutoff: Optional[int] = None):
    """Product of two finite-support elements.

    Exact (an :class:`Element`) whenever every row touched by the common
    support is finite; otherwise a cutoff is required and the result is an
    :class:`ApproxElement` with tail bound
    sum_i |u_i v_i| * sqrt(tail_sq_bound_i(cutoff)) plus the norm of any
    finite-row mass beyond the cutoff.
    """
    if not isinstance(u, Element) or not isinstance(v, Element):
        raise InvalidParams("multiply takes two exact Elements")
    uc, vc = u.coeffs, v.coeffs
    return _expand(s, ((i, uc[i] * vc[i], s.row_of(i))
                       for i in sorted(uc.keys() & vc.keys())), cutoff)


def principal_power(s: EvolutionStructure, v: Element, n: int,
                    cutoff: Optional[int] = None):
    """v^n under the principal powers v^(k+1) = v^k * v; v^1 = v."""
    if n < 1:
        raise InvalidParams("power must be >= 1")
    if n > POWER_CEILING:
        raise InvalidParams(f"power {n} exceeds the ceiling POWER_CEILING = "
                            f"{POWER_CEILING}")
    acc: Union[Element, ApproxElement] = v
    for _ in range(n - 1):
        if isinstance(acc, ApproxElement):
            raise InfiniteRowReached(
                "an intermediate power was truncated by an infinite row; "
                "only the final factor may be approximate")
        acc = multiply(s, acc, v, cutoff)
    return acc


class NilAt(Record):
    n: int


class NotNilUpTo(Record):
    n_max: int


def nil_witness_search(s: EvolutionStructure, v: Element, n_max: int):
    """Smallest n <= n_max with v^n == 0, else NotNilUpTo(n_max).

    Exact zero tests only: if any power's support touches an infinite row the
    search raises :class:`InfiniteRowReached` (a truncated power can never
    certify vanishing).
    """
    if n_max < 2:
        raise InvalidParams("n_max must be >= 2")
    power = v
    if power.is_zero():
        return NilAt(1)
    for n in range(2, n_max + 1):
        try:
            power = multiply(s, power, v)
        except NoTailBound as e:
            raise InfiniteRowReached(str(e)) from e
        if power.is_zero():
            return NilAt(n)
    return NotNilUpTo(n_max)


def inner_product(u, v):
    """Hermitian inner product <u, v> = sum_k u_k * conj(v_k).

    For an approximate first argument the value on the prefix is returned
    together with an error bound tail_norm_bound * ||v||.
    """
    if isinstance(u, ApproxElement):
        val = inner_product(u.prefix, v)
        bound = up_float(Fraction(u.tail_norm_bound)
                         * up_sqrt_frac(v.norm_sq()))
        return val, bound
    if isinstance(v, ApproxElement):
        val = inner_product(u, v.prefix)
        bound = up_float(Fraction(v.tail_norm_bound)
                         * up_sqrt_frac(u.norm_sq()))
        return val, bound
    total = EX_ZERO
    for k in sorted(set(u.coeffs) & set(v.coeffs)):
        total += u.coeffs[k] * conj(v.coeffs[k])
    return total


class BasisTransform(Record):
    """A banded change of basis: ``forward(i)`` writes the new basis vector
    f_i in natural coordinates, ``inverse(k)`` writes e_k in f-coordinates.
    Supports stay within `band` of the index on both sides."""

    forward: Callable[[int], Element]
    inverse: Callable[[int], Element]
    band: int


class NaturalOnWindow(Record):
    window: int


class Violation(Record):
    i: int
    j: int
    kind: str  # "product" or "inner"
    value: object


def verify_natural_basis(s: EvolutionStructure, t: BasisTransform, window: int):
    """Check f_i * f_j == 0 and <f_i, f_j> == 0 for i != j on a window.

    Pairs further apart than twice the band are disjoint by construction, so
    only |i - j| <= 2*band is examined.  Returns the first violation found
    (ordered by (i, j)) or :class:`NaturalOnWindow`.
    """
    if window < 1:
        raise InvalidParams("window must be >= 1")
    cache = {i: t.forward(i) for i in range(1, window + 1)}
    for i in range(1, window + 1):
        for j in range(i + 1, min(window, i + 2 * t.band) + 1):
            prod = multiply(s, cache[i], cache[j])
            if isinstance(prod, Element) and not prod.is_zero():
                return Violation(i, j, "product", prod)
            ip = inner_product(cache[i], cache[j])
            if ip:
                return Violation(i, j, "inner", ip)
    return NaturalOnWindow(window)


def transform_element(elem: Element, t: BasisTransform) -> Element:
    """Rewrite a natural-coordinates element in the transformed basis."""
    out = Element.zero()
    for k, c in elem.items():
        out = out + t.inverse(k).scale(c)
    return out


def verify_transform_inverse(t: BasisTransform, window: int) -> bool:
    """forward o inverse == identity on {1..window}."""
    for i in range(1, window + 1):
        acc = Element.zero()
        for j, c in t.inverse(i).items():
            acc = acc + t.forward(j).scale(c)
        if acc != Element.basis(i):
            return False
    return True


# -- exact linear algebra (small finite universes) ---------------------------

def _reduce_basis(vectors):
    """Row-reduce sparse vectors over the scalar field; returns a pivot basis."""
    pivots: dict[int, Element] = {}
    for vec in vectors:
        cur = vec
        while True:
            sup = cur.support()
            if not sup:
                break
            lead = sup[0]
            if lead in pivots:
                cur = cur - pivots[lead].scale(cur.coeffs[lead])
                continue
            pivots[lead] = cur.scale(EX_ONE / cur.coeffs[lead])
            break
    return [pivots[k] for k in sorted(pivots)]


def subspace_chain(s: EvolutionStructure, n_max: int):
    """Dimensions of the principal power subspaces A^<1>, ..., A^<n_max>.

    Requires a finite universe of size at most 12 (this is the oracle-scale
    brute force, not a general-purpose routine) and n_max at most
    POWER_CEILING.
    """
    if s.universe is None:
        raise UniverseNotFinite("subspace chain needs a finite universe")
    n = s.universe
    if n > 12:
        raise InvalidParams("subspace chain is restricted to n <= 12")
    if n_max < 1:
        raise InvalidParams("n_max must be >= 1")
    if n_max > POWER_CEILING:
        raise InvalidParams(f"n_max {n_max} exceeds the ceiling "
                            f"POWER_CEILING = {POWER_CEILING}")
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
            # A^<k+1> <= A^<k>, so equal dims give A^<k+2> = A^<k>*A = A^<k+1>
            return dims + [dims[-1]] * (n_max - len(dims))
    return dims
