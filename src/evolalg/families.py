"""Built-in structure families.

Each family fixes a vertex numbering (documented per builder), ships column
access, and declares the analytic facts it is entitled to (cycle-freeness,
depth oracle, tail bounds).  Those facts are what the classifier trusts; the
test suite cross-validates them against budgeted search on windows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import InvalidParams, OracleUnavailable
from .graph import INFINITE, EvolutionStructure, FamilyMeta, FiniteRow, LazyRow
from .scalars import EX_INV_SQRT2, EX_ONE, ExactScalar


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: dict = field(default_factory=dict)


def _unit():
    return EX_ONE


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
    weights = params.get("weights", "unit")
    if weights != "unit":
        raise InvalidParams("rary_tree supports unit weights only")

    def row(i):
        return FiniteRow(tuple((c, _unit()) for c in rary_children(i, r)))

    def col(i):
        if i == 1:
            return FiniteRow(())
        return FiniteRow(((rary_parent(i, r), _unit()),))

    meta = FamilyMeta(
        cycle_free=True,
        depth_oracle=lambda i: INFINITE,
        sup_depth=INFINITE,
        locally_finite=True,
        all_depths_finite=False,
        longest_path=INFINITE,
        no_window_reentry=True,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "rary_tree",
                                      "params": {"r": r}})


# -- markov line -------------------------------------------------------------
# Vertex 1 feeds every j >= 2 with weights c_1j = (1-q) q^(j-2) (row sum 1);
# every i >= 2 shifts to i+1 with weight 1.

def _geometric_row1(q: Fraction):
    def factory():
        j = 2
        c = 1 - q
        while True:
            yield j, _exact(c)
            c *= q
            j += 1

    def tail_abs(n: int) -> Fraction:
        n = max(n, 1)
        return q ** (n - 1)

    def tail_sq(n: int) -> Fraction:
        n = max(n, 1)
        return (1 - q) * q ** (2 * (n - 1)) / (1 + q)

    return LazyRow(factory, tail_sq_bound=tail_sq, tail_abs_bound=tail_abs)


def markov_weight(j: int, q: Fraction) -> Fraction:
    if j < 2:
        raise InvalidParams("row-1 weights start at target 2")
    return (1 - q) * q ** (j - 2)


def _build_markov_line(params: dict) -> EvolutionStructure:
    _check_keys("markov_line", params, frozenset({"ratio"}))
    try:
        q = Fraction(params.get("ratio", Fraction(1, 2)))
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InvalidParams(f"markov_line ratio is not a rational: {e}") from e
    if not 0 < q < 1:
        raise InvalidParams("markov_line ratio must satisfy 0 < ratio < 1")

    row1 = _geometric_row1(q)

    def row(i):
        if i == 1:
            return row1
        return FiniteRow(((i + 1, _unit()),))

    def col(k):
        if k == 1:
            return FiniteRow(())
        if k == 2:
            return FiniteRow(((1, _exact(markov_weight(2, q))),))
        return FiniteRow(((1, _exact(markov_weight(k, q))), (k - 1, _unit())))

    meta = FamilyMeta(
        cycle_free=True,
        # vertex 1 sees every descendant at distance 1, so its depth is 1;
        # every i >= 2 heads an infinite ray i -> i+1 -> ...
        depth_oracle=lambda i: 1 if i == 1 else INFINITE,
        sup_depth=INFINITE,
        locally_finite=False,
        all_depths_finite=False,
        longest_path=INFINITE,
        no_window_reentry=True,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "markov_line",
                                      "params": {"ratio": str(q)}})


# -- alternating line, natural basis ----------------------------------------
# Odd i: e_i^2 = e_{i+1} + e_{i+2}; even i: e_i^2 = e_i + e_{i+1}.

def _build_alt_line_B(params: dict) -> EvolutionStructure:
    if params:
        raise InvalidParams("alt_line_B takes no parameters")

    def row(i):
        if i % 2 == 1:
            return FiniteRow(((i + 1, _unit()), (i + 2, _unit())))
        return FiniteRow(((i, _unit()), (i + 1, _unit())))

    def col(k):
        if k == 1:
            return FiniteRow(())
        if k % 2 == 0:
            return FiniteRow(((k - 1, _unit()), (k, _unit())))
        return FiniteRow(((k - 2, _unit()), (k - 1, _unit())))

    meta = FamilyMeta(
        cycle_free=False,  # self-loop at every even vertex
        depth_oracle=lambda i: INFINITE,
        sup_depth=INFINITE,
        locally_finite=True,
        all_depths_finite=False,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "alt_line_B",
                                      "params": {}})


# -- alternating line, orthonormalised natural basis -------------------------
# The rows the change of basis produces:
#   odd i:  (1/sqrt2) { f_i + f_{i+1} + f_{i+2} - f_{i+3} }
#   even i: (1/sqrt2) { f_{i-1} + f_i + f_{i+1} - f_{i+2} }

def _c0_row_entries(i: int):
    p = EX_INV_SQRT2
    if i % 2 == 1:
        return ((i, p), (i + 1, p), (i + 2, p), (i + 3, -p))
    return ((i - 1, p), (i, p), (i + 1, p), (i + 2, -p))


def _build_alt_line_C0(params: dict) -> EvolutionStructure:
    if params:
        raise InvalidParams("alt_line_C0 takes no parameters")

    def row(i):
        return FiniteRow(_c0_row_entries(i))

    def col(k):
        out = []
        for i in range(max(1, k - 3), k + 2):
            for tgt, w in _c0_row_entries(i):
                if tgt == k:
                    out.append((i, w))
        return FiniteRow(tuple(out))

    meta = FamilyMeta(
        cycle_free=False,  # every row contains its own index
        depth_oracle=lambda i: INFINITE,
        sup_depth=INFINITE,
        locally_finite=True,
        all_depths_finite=False,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "alt_line_C0",
                                      "params": {}})


# -- hub line ----------------------------------------------------------------
# Vertex 1 feeds every l >= 2 with alpha_l; odd i >= 3: e_i^2 = e_i + e_{i-1};
# even i: e_i^2 = e_i + e_{i+1}.

def _hub_alpha(kind: str) -> Callable[[int], Fraction]:
    if kind == "generic":
        return lambda l: Fraction(1, 2 ** (l - 1))
    if kind == "paired":
        # alpha_{2l} = alpha_{2l+1} = 4^-l
        return lambda l: Fraction(1, 4 ** (l // 2))
    raise InvalidParams("hub_line alpha must be 'generic' or 'paired'")


def _build_hub_line(params: dict) -> EvolutionStructure:
    _check_keys("hub_line", params, frozenset({"alpha"}))
    kind = params.get("alpha", "generic")
    alpha = _hub_alpha(kind)

    def factory():
        l = 2
        while True:
            yield l, _exact(alpha(l))
            l += 1

    # both alpha choices sit under the envelope |alpha_l| <= 2^-(l-1)
    row1 = LazyRow(factory,
                   tail_sq_bound=lambda n: Fraction(4, 3) / 4 ** max(n, 1),
                   tail_abs_bound=lambda n: Fraction(2, 2 ** max(n, 1)))

    def row(i):
        if i == 1:
            return row1
        if i % 2 == 1:
            return FiniteRow(((i - 1, _unit()), (i, _unit())))
        return FiniteRow(((i, _unit()), (i + 1, _unit())))

    def col(k):
        if k == 1:
            return FiniteRow(())
        if k % 2 == 0:
            return FiniteRow(((1, _exact(alpha(k))), (k, _unit()), (k + 1, _unit())))
        return FiniteRow(((1, _exact(alpha(k))), (k - 1, _unit()), (k, _unit())))

    meta = FamilyMeta(
        cycle_free=False,  # self-loop at every vertex >= 2
        # pairs {2l, 2l+1} are closed under descent, so every depth is 1
        depth_oracle=lambda i: 1,
        sup_depth=1,
        locally_finite=False,
        all_depths_finite=True,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "hub_line",
                                      "params": {"alpha": kind}})


# -- comb --------------------------------------------------------------------
# Blocks of four along the spine, ids by residue mod 4:
#   1: spine sink, 2: hub, 3: tooth middle, 0: tooth top.
# Hub h points to the sinks h-1 and h+3 (shared with the next hub) and up to
# its tooth middle h+1, which points to the top h+2.

def comb_hub(k: int) -> int:
    if k < 1:
        raise InvalidParams("hub index starts at 1")
    return 4 * k - 2


def comb_vertex_kind(i: int) -> str:
    return {1: "sink", 2: "hub", 3: "mid", 0: "top"}[i % 4]


def _build_comb(params: dict) -> EvolutionStructure:
    if params:
        raise InvalidParams("comb takes no parameters")

    def row(i):
        kind = comb_vertex_kind(i)
        if kind == "hub":
            return FiniteRow(((i - 1, _unit()), (i + 1, _unit()), (i + 3, _unit())))
        if kind == "mid":
            return FiniteRow(((i + 1, _unit()),))
        return FiniteRow(())

    def col(k):
        kind = comb_vertex_kind(k)
        if kind == "sink":
            if k == 1:
                return FiniteRow(((2, _unit()),))
            return FiniteRow(((k - 3, _unit()), (k + 1, _unit())))
        if kind == "mid":
            return FiniteRow(((k - 1, _unit()),))
        if kind == "top":
            return FiniteRow(((k - 1, _unit()),))
        return FiniteRow(())  # hubs have no in-edges

    depth_by_kind = {"sink": 0, "hub": 2, "mid": 1, "top": 0}
    meta = FamilyMeta(
        cycle_free=True,
        depth_oracle=lambda i: depth_by_kind[comb_vertex_kind(i)],
        sup_depth=2,
        locally_finite=True,
        all_depths_finite=True,
        longest_path=2,
        no_window_reentry=True,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "comb",
                                      "params": {}})


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
    k = 1
    while growing_teeth_hub(k + 1) <= i:
        k += 1
    return k, i - growing_teeth_hub(k)


def growing_teeth_depth(i: int) -> int:
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
            return FiniteRow(((h - 1, _unit()), (h + 1, _unit()), (h + k + 1, _unit())))
        if off < k:
            return FiniteRow(((i + 1, _unit()),))
        return FiniteRow(())  # tooth end or spine sink

    def col(i):
        if i == 1:
            return FiniteRow(((2, _unit()),))
        k, off = _growing_block(i)
        h = growing_teeth_hub(k)
        if off == 0:
            return FiniteRow(())
        if off == 1:
            return FiniteRow(((h, _unit()),))
        if off <= k:
            return FiniteRow(((i - 1, _unit()),))
        return FiniteRow(((h, _unit()), (growing_teeth_hub(k + 1), _unit())))

    meta = FamilyMeta(
        cycle_free=True,
        depth_oracle=growing_teeth_depth,
        sup_depth=INFINITE,
        locally_finite=True,
        all_depths_finite=True,
        longest_path=INFINITE,
        no_window_reentry=True,
    )
    return EvolutionStructure("exact", row, None, col, meta,
                              source={"kind": "family", "family": "growing_teeth",
                                      "params": {}})


# -- explicit finite ---------------------------------------------------------

def _build_finite_explicit(params: dict) -> EvolutionStructure:
    try:
        rows = params["rows"]
        n = params["n"]
    except KeyError as e:
        raise InvalidParams("finite_explicit needs 'rows' and 'n'") from e
    try:
        n = int(n)
    except (TypeError, ValueError) as e:
        raise InvalidParams(f"finite_explicit 'n' is not an integer: {e}") from e
    mode = params.get("mode", "exact")
    tol = params.get("tol", 1e-12)
    return EvolutionStructure.from_rows(rows, n, mode, tol)


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


def family_depth_oracle(spec, i: int):
    """Closed-form depth for a family vertex: an int or math.inf."""
    if isinstance(spec, str):
        spec = FamilySpec(spec, {})
    s = build_family(spec)
    if s.meta is None or s.meta.depth_oracle is None:
        raise OracleUnavailable(f"family {spec.name!r} has no depth oracle")
    s._check_vertex(i)
    return s.meta.depth_oracle(i)
