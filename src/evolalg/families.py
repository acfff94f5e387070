"""Built-in structure families.

Each family fixes a vertex numbering (documented per builder), ships column
access, and declares the analytic facts it is entitled to (the rank of each
vertex, tail bounds).  Those facts are what the classifier trusts; the
test suite cross-validates them against budgeted search on windows.
"""
from __future__ import annotations

from dataclasses import field
from fractions import Fraction
from math import isqrt, prod
from typing import Callable, Optional

from .errors import InvalidParams
from .graph import (
    INFINITE,
    WINDOW_CEILING,
    EvolutionStructure,
    FamilyMeta,
    FiniteRow,
    LazyRow,
)
from .records import Record
from .scalars import EX_INV_SQRT2, EX_ONE, ExactScalar


class FamilySpec(Record):
    name: str
    params: dict = field(default_factory=dict)


def _exact(x) -> ExactScalar:
    return ExactScalar.from_rational(x)


# -- r-ary tree --------------------------------------------------------------
# Level order: root is 1; the children of v are (v-1)*r + 2 .. (v-1)*r + r+1.

def rary_children(v: int, r: int):
    base = (v - 1) * r + 1
    return list(range(base + 1, base + r + 1))


def rary_parent(v: int, r: int) -> int:
    if v < 2:
        raise InvalidParams("the root has no parent")
    return (v - 2) // r + 1


def tree_label(v: int, r: int) -> str:
    """Path-style label: root "1", then child indices appended level by level."""
    digits = []
    while v > 1:
        p = rary_parent(v, r)
        digits.append(v - (p - 1) * r - 1)
        v = p
    sep = "" if r <= 9 else "."
    return "1" + sep + sep.join(str(d) for d in reversed(digits)) if digits else "1"


def tree_id(label: str, r: int) -> int:
    body = label.split(".") if r > 9 else list(label)
    if not body or body[0] != "1":
        raise InvalidParams(f"tree labels start at the root '1', got {label!r}")
    v = 1
    for d in body[1:]:
        d = int(d)
        if not 1 <= d <= r:
            raise InvalidParams(f"child index {d} outside 1..{r}")
        v = (v - 1) * r + 1 + d
    return v


def _check_keys(name: str, params: dict, allowed: frozenset) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise InvalidParams(
            f"{name} does not understand parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed) or 'none'}")


def _build_rary_tree(params: dict) -> EvolutionStructure:
    _check_keys("rary_tree", params, frozenset({"r", "weights"}))
    r = params.get("r", 2)
    if not isinstance(r, int) or r < 2:
        raise InvalidParams("rary_tree needs an integer branching factor r >= 2")
    if r > WINDOW_CEILING:
        # each row holds r children; no window holds more than the ceiling
        raise InvalidParams(f"rary_tree branching factor {r} exceeds the "
                            f"ceiling WINDOW_CEILING = {WINDOW_CEILING}")
    weights = params.get("weights", "unit")
    if weights != "unit":
        raise InvalidParams("rary_tree supports unit weights only")

    def row(i):
        return FiniteRow(tuple((c, EX_ONE) for c in rary_children(i, r)))

    def col(i):
        if i == 1:
            return FiniteRow(())
        return FiniteRow(((rary_parent(i, r), EX_ONE),))

    meta = FamilyMeta(
        # every vertex heads the ray through its first children
        rank=lambda i: INFINITE,
        sup_rank=INFINITE,
        ranks_finite=False,
        no_window_reentry=True,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "rary_tree",
                                      "params": {"r": r}})


# -- periodic families ------------------------------------------------------
# The rows of markov_line, alt_line_B, alt_line_C0, hub_line and comb repeat
# with a period, so each is one period of (offset, weight) pairs, the form in
# which Iwano & Steiglitz give periodic digraphs, and an optional lazy
# geometric row 1.  The columns are that pattern inverted: column k reads no
# row, so a far column costs what a near one does.

def _periodic(name: str, params: dict, meta: FamilyMeta, pattern,
              hub=None) -> EvolutionStructure:
    """The structure whose row i holds the targets i + offset with their
    weights, for each (offset, weight) in ``pattern[i % len(pattern)]``,
    offsets strictly increasing.

    ``hub = (first, ratios, tail_sq, tail_abs)`` replaces row 1 by a lazy
    row over the targets 2, 3, ... with w_2 = first and
    w_{j+1} = w_j * ratios[j % len(ratios)], whose tail bounds are the two
    given functions; the pattern then covers the vertices i >= 2.
    """
    period = len(pattern)
    rows = [(tuple(d for d, _w in pat),
             tuple(w for _d, w in pat)) for pat in pattern]
    # residue t -> (source - target, weight) of each edge into a vertex
    # k = t (mod period), in order of source
    inverse = [[] for _ in pattern]
    for r, pat in enumerate(pattern):
        for d, w in pat:
            inverse[(r + d) % period].append((-d, w))
    for into in inverse:
        into.sort(key=lambda entry: entry[0])
    first_row = 1 if hub is None else 2
    row1 = hub_weight = None
    if hub is not None:
        first, ratios, tail_sq, tail_abs = hub
        cycle = len(ratios)

        def factory():
            j, w = 2, first
            while True:
                yield j, _exact(w)
                w *= ratios[j % cycle]
                j += 1

        row1 = LazyRow(factory, tail_sq_bound=tail_sq, tail_abs_bound=tail_abs)
        # w_k = heads[m] * per_cycle ** n where k - 2 = n * cycle + m: n
        # whole cycles of ratios, then the first m ratios from ratios[2 % cycle]
        per_cycle = prod(ratios)
        heads = [first]
        for j in range(2, cycle + 1):
            heads.append(heads[-1] * ratios[j % cycle])

        def hub_weight(k):
            n, m = divmod(k - 2, cycle)
            return _exact(heads[m] * per_cycle ** n)

    def row(i):
        if i < first_row:
            return row1
        offsets, weights = rows[i % period]
        targets = tuple(map(i.__add__, offsets))
        return FiniteRow(tuple(zip(targets, weights)), targets)

    def col(k):
        entries = [(k + d, w) for d, w in inverse[k % period]
                   if k + d >= first_row]
        if hub_weight is not None and k >= 2:
            entries.insert(0, (1, hub_weight(k)))
        return FiniteRow(tuple(entries))

    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": name,
                                      "params": params})


# -- markov line -------------------------------------------------------------
# Vertex 1 feeds every j >= 2 with weights c_1j = (1-q) q^(j-2) (row sum 1);
# every i >= 2 shifts to i+1 with weight 1.

def markov_weight(j: int, q: Fraction) -> Fraction:
    if j < 2:
        raise InvalidParams("row-1 weights start at target 2")
    return (1 - q) * q ** (j - 2)


def _build_markov_line(params: dict) -> EvolutionStructure:
    _check_keys("markov_line", params, frozenset({"ratio"}))
    try:
        q = Fraction(params.get("ratio", Fraction(1, 2)))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise InvalidParams(f"markov_line ratio is not a rational: {e}") from e
    if not 0 < q < 1:
        raise InvalidParams("markov_line ratio must satisfy 0 < ratio < 1")

    def tail_abs(n: int) -> Fraction:
        n = max(n, 1)
        return q ** (n - 1)

    def tail_sq(n: int) -> Fraction:
        n = max(n, 1)
        return (1 - q) * q ** (2 * (n - 1)) / (1 + q)

    meta = FamilyMeta(
        # 1 -> 2 -> 3 -> ... is an infinite ray, and so is each of its tails
        rank=lambda i: INFINITE,
        sup_rank=INFINITE,
        ranks_finite=False,
        no_window_reentry=True,
    )
    return _periodic("markov_line", {"ratio": str(q)}, meta,
                     (((1, EX_ONE),),),
                     hub=(1 - q, (q,), tail_sq, tail_abs))


# -- alternating line, natural basis ----------------------------------------
# Odd i: e_i^2 = e_{i+1} + e_{i+2}; even i: e_i^2 = e_i + e_{i+1}.

def _build_alt_line_B(params: dict) -> EvolutionStructure:
    if params:
        raise InvalidParams("alt_line_B takes no parameters")
    meta = FamilyMeta(
        # every vertex reaches the self-loop at an even vertex
        rank=lambda i: INFINITE,
        sup_rank=INFINITE,
        ranks_finite=False,
    )
    return _periodic("alt_line_B", {}, meta,
                     (((0, EX_ONE), (1, EX_ONE)),    # even i
                      ((1, EX_ONE), (2, EX_ONE))))   # odd i


# -- alternating line, orthonormalised natural basis -------------------------
# The rows the change of basis produces:
#   odd i:  (1/sqrt2) { f_i + f_{i+1} + f_{i+2} - f_{i+3} }
#   even i: (1/sqrt2) { f_{i-1} + f_i + f_{i+1} - f_{i+2} }

def _build_alt_line_C0(params: dict) -> EvolutionStructure:
    if params:
        raise InvalidParams("alt_line_C0 takes no parameters")
    p, m = EX_INV_SQRT2, -EX_INV_SQRT2
    meta = FamilyMeta(
        # every row contains its own index: a self-loop at every vertex
        rank=lambda i: INFINITE,
        sup_rank=INFINITE,
        ranks_finite=False,
    )
    return _periodic("alt_line_C0", {}, meta,
                     (((-1, p), (0, p), (1, p), (2, m)),    # even i
                      ((0, p), (1, p), (2, p), (3, m))))    # odd i


# -- hub line ----------------------------------------------------------------
# Vertex 1 feeds every l >= 2 with alpha_l; odd i >= 3: e_i^2 = e_i + e_{i-1};
# even i: e_i^2 = e_i + e_{i+1}.

# alpha as (alpha_2, ratios): generic alpha_l = 2^-(l-1); paired
# alpha_{2l} = alpha_{2l+1} = 4^-l
_HUB_ALPHA = {
    "generic": (Fraction(1, 2), (Fraction(1, 2),)),
    "paired": (Fraction(1, 4), (Fraction(1), Fraction(1, 4))),
}


def _build_hub_line(params: dict) -> EvolutionStructure:
    _check_keys("hub_line", params, frozenset({"alpha"}))
    kind = params.get("alpha", "generic")
    alpha = _HUB_ALPHA.get(kind) if isinstance(kind, str) else None
    if alpha is None:
        raise InvalidParams("hub_line alpha must be 'generic' or 'paired'")
    meta = FamilyMeta(
        # a self-loop at every vertex >= 2, and vertex 1 feeds them all
        rank=lambda i: INFINITE,
        sup_rank=INFINITE,
        ranks_finite=False,
    )
    # both alpha choices sit under the envelope |alpha_l| <= 2^-(l-1)
    return _periodic("hub_line", {"alpha": kind}, meta,
                     (((0, EX_ONE), (1, EX_ONE)),     # even i
                      ((-1, EX_ONE), (0, EX_ONE))),   # odd i >= 3
                     hub=(*alpha,
                          lambda n: Fraction(4, 3) / 4 ** max(n, 1),
                          lambda n: Fraction(2, 2 ** max(n, 1))))


# -- comb --------------------------------------------------------------------
# Blocks of four along the spine, ids by residue mod 4:
#   1: spine sink, 2: hub, 3: tooth middle, 0: tooth top.
# Hub h points to the sinks h-1 and h+3 (shared with the next hub) and up to
# its tooth middle h+1, which points to the top h+2.

_COMB_KINDS = ("top", "sink", "hub", "mid")


def comb_hub(k: int) -> int:
    if k < 1:
        raise InvalidParams("hub index starts at 1")
    return 4 * k - 2


def comb_vertex_kind(i: int) -> str:
    return _COMB_KINDS[i % 4]


def _build_comb(params: dict) -> EvolutionStructure:
    if params:
        raise InvalidParams("comb takes no parameters")
    rank_by_kind = {"sink": 0, "hub": 2, "mid": 1, "top": 0}
    meta = FamilyMeta(
        rank=lambda i: rank_by_kind[comb_vertex_kind(i)],
        sup_rank=2,
        ranks_finite=True,
        no_window_reentry=True,
    )
    return _periodic("comb", {}, meta,
                     ((),                                             # top
                      (),                                             # sink
                      ((-1, EX_ONE), (1, EX_ONE), (3, EX_ONE)),       # hub
                      ((1, EX_ONE),)))                                # mid


# -- growing teeth -----------------------------------------------------------
# Block k: hub H(k), tooth H(k)+1 .. H(k)+k, right sink H(k)+k+1 (shared as
# the next hub's left sink); vertex 1 is the leftmost sink; H(1) = 2 and
# H(k+1) = H(k) + k + 2.

def growing_teeth_hub(k: int) -> int:
    if k < 1:
        raise InvalidParams("hub index starts at 1")
    return 2 + (k - 1) * k // 2 + 2 * (k - 1)


def growing_teeth_tooth(k: int):
    """The hub of block k together with its tooth path, hub first."""
    h = growing_teeth_hub(k)
    return [h] + list(range(h + 1, h + k + 1))


def _growing_block(i: int):
    """(k, offset) with offset 0 for the hub, 1..k on the tooth, k+1 the sink."""
    if i < 2:
        raise InvalidParams("vertex 1 is the leftmost sink, outside any block")
    k = (isqrt(8 * i + 9) - 3) // 2  # largest k with k(k+3)/2 <= i
    return k, i - growing_teeth_hub(k)


def growing_teeth_depth(i: int) -> int:
    """The rank of vertex i, the most edges on a walk from it: hub k walks
    its tooth of k vertices, a tooth vertex the rest of its tooth."""
    if i == 1:
        return 0
    k, off = _growing_block(i)
    if off == 0:
        return k
    if off <= k:
        return k - off
    return 0  # spine sink


def _build_growing_teeth(params: dict) -> EvolutionStructure:
    if params:
        raise InvalidParams("growing_teeth takes no parameters")

    def row(i):
        if i == 1:
            return FiniteRow(())
        k, off = _growing_block(i)
        h = growing_teeth_hub(k)
        if off == 0:
            return FiniteRow(((h - 1, EX_ONE), (h + 1, EX_ONE), (h + k + 1, EX_ONE)))
        if off < k:
            return FiniteRow(((i + 1, EX_ONE),))
        return FiniteRow(())  # tooth end or spine sink

    def col(i):
        if i == 1:
            return FiniteRow(((2, EX_ONE),))
        k, off = _growing_block(i)
        h = growing_teeth_hub(k)
        if off == 0:
            return FiniteRow(())
        if off == 1:
            return FiniteRow(((h, EX_ONE),))
        if off <= k:
            return FiniteRow(((i - 1, EX_ONE),))
        return FiniteRow(((h, EX_ONE), (growing_teeth_hub(k + 1), EX_ONE)))

    meta = FamilyMeta(
        rank=growing_teeth_depth,
        sup_rank=INFINITE,
        ranks_finite=True,
        no_window_reentry=True,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "growing_teeth",
                                      "params": {}})


# -- explicit finite ---------------------------------------------------------

_EXPLICIT_KEYS = ("rows", "n", "universe", "mode", "tol")


def _build_finite_explicit(params: dict) -> EvolutionStructure:
    """The finite structure of an explicit spec, ``{"rows": ..., "n": N,
    "mode": ..., "tol": ...}``, where ``"universe": "finite:N"`` may stand
    for ``"n": N``.  Both spellings, a ``{"rows": ...}`` spec and this
    family's params, are read here; ``from_rows`` checks mode and tol."""
    stray = [k for k in params if k not in _EXPLICIT_KEYS]
    if stray:
        raise InvalidParams(f"unknown key {stray[0]!r} in an explicit spec; "
                            f"known: {', '.join(_EXPLICIT_KEYS)}")
    if "rows" not in params:
        raise InvalidParams("an explicit spec needs 'rows'")
    if "universe" in params:
        if "n" in params:
            raise InvalidParams("give 'n' or 'universe', not both")
        uni = params["universe"]
        n = None
        digits = (uni[len("finite:"):] if isinstance(uni, str)
                  and uni.startswith("finite:") else "")
        # ASCII digits alone, the rule of row keys: int() would also take
        # " 3", "1_0", "+3" and "٣"
        if digits.isascii() and digits.isdigit():
            try:
                n = int(digits)
            except ValueError:  # past the interpreter's int-string limit
                pass
        if n is None:
            raise InvalidParams(f"'universe' must look like 'finite:N', "
                                f"got {uni!r}")
    elif "n" in params:
        n = params["n"]
    else:
        raise InvalidParams("an explicit spec needs 'n' or 'universe': "
                            "'finite:N'")
    return EvolutionStructure.from_rows(params["rows"], n,
                                        params.get("mode", "exact"),
                                        params.get("tol", 1e-12))


_BUILDERS: dict[str, Callable[[dict], EvolutionStructure]] = {
    "rary_tree": _build_rary_tree,
    "markov_line": _build_markov_line,
    "alt_line_B": _build_alt_line_B,
    "alt_line_C0": _build_alt_line_C0,
    "hub_line": _build_hub_line,
    "comb": _build_comb,
    "growing_teeth": _build_growing_teeth,
    "finite_explicit": _build_finite_explicit,
}

FAMILY_DOCS = {
    "rary_tree": "infinite r-ary tree, level-order ids (params: r >= 2)",
    "markov_line": "hub feeding a shift line, geometric row weights "
                   "(params: ratio, default 1/2)",
    "alt_line_B": "alternating line, natural basis (no params)",
    "alt_line_C0": "alternating line after orthonormal change of basis (no params)",
    "hub_line": "hub over closed two-vertex blocks (params: alpha in "
                "{generic, paired})",
    "comb": "spine of hubs with two-step teeth (no params)",
    "growing_teeth": "spine of hubs with teeth of growing length (no params)",
    "finite_explicit": "finite structure from explicit rows (params: rows, n, "
                       "mode, tol)",
}


def list_families():
    return sorted(_BUILDERS)


def build_family(spec, params: Optional[dict] = None) -> EvolutionStructure:
    """Build a structure from a :class:`FamilySpec` (or name + params)."""
    if isinstance(spec, str):
        spec = FamilySpec(spec, dict(params or {}))
    elif params is not None:
        raise InvalidParams("pass params inside the FamilySpec")
    builder = _BUILDERS.get(spec.name)
    if builder is None:
        raise InvalidParams(f"unknown family {spec.name!r}; "
                            f"known: {', '.join(list_families())}")
    return builder(dict(spec.params))

