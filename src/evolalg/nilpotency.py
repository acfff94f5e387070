"""Nil / nilpotency decision procedures with checkable witnesses.

Certification discipline: a "certified" verdict rests either on a witness the
caller can re-check against the structure (an oriented cycle, a ray prefix, a
sequence of vertices with strictly growing depth) or on facts the structure's
family metadata is entitled to assert (cycle-freeness, closed-form depths).
Search that merely ran out of budget is reported as inconclusive, never
dressed up as a certificate.

The underlying graph criteria:

* an oriented cycle rules out both nil and nilpotent;
* no cycles + every vertex of finite depth  <=>  nil;
* no cycles + depths uniformly bounded      <=>  nilpotent;
* the exact index of right nilpotency is the first m with D^{m-1}(V) empty,
  which on a cycle-free structure is (longest path length) + 2.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from .errors import BudgetZero, InvalidParams
from .graph import (
    INFINITE,
    DepthAtLeast,
    DepthExact,
    EvolutionStructure,
    cycle_search,
    depth,
    path_is_valid,
)

# classify() searches the window {1..min(budget + 8, CLASSIFY_WINDOW_CAP)}
# for cycles, reading at most CLASSIFY_ENTRIES_PER_BUDGET * budget row
# entries, and at most CLASSIFY_SCAN_CAP vertices for one of infinite depth.
CLASSIFY_WINDOW_CAP = 4096
CLASSIFY_ENTRIES_PER_BUDGET = 64
CLASSIFY_SCAN_CAP = 256

# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class CycleWitness:
    """Closed walk with first == last vertex; re-check with validate_witness."""

    path: tuple


@dataclass(frozen=True)
class RayPrefix:
    """Distinct consecutive vertices of an edge walk whose last vertex still
    has an out-edge; evidence for an infinite ray (hence infinite depth)."""

    vertices: tuple


@dataclass(frozen=True)
class UnboundedDepthSequence:
    """(vertex, depth) pairs with strictly increasing depths; evidence that
    depths are finite but not uniformly bounded."""

    pairs: tuple


@dataclass(frozen=True)
class LongPath:
    """Longest simple path found within budget; evidence only, certifies
    nothing."""

    path: tuple


def validate_witness(s: EvolutionStructure, witness) -> bool:
    """Re-check a witness directly against the structure."""
    if isinstance(witness, CycleWitness):
        p = witness.path
        return len(p) >= 2 and p[0] == p[-1] and path_is_valid(s, p)
    if isinstance(witness, RayPrefix):
        v = witness.vertices
        if len(v) < 2 or len(set(v)) != len(v):
            return False
        if not path_is_valid(s, v):
            return False
        nxt, _ = s.row_of(v[-1]).first(1)
        return bool(nxt)
    if isinstance(witness, UnboundedDepthSequence):
        pairs = witness.pairs
        if len(pairs) < 2:
            return False
        if any(d2 <= d1 for (_, d1), (_, d2) in zip(pairs, pairs[1:])):
            return False
        for vertex, d in pairs:
            got = depth(s, vertex, budget=d + 2)
            if isinstance(got, DepthExact) and got.n >= d:
                continue
            if isinstance(got, DepthAtLeast) and got.bound >= d:
                continue
            return False
        return True
    if isinstance(witness, LongPath):
        return len(witness.path) >= 2 and path_is_valid(s, witness.path)
    return False


# -- verdicts and reports ----------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "inconclusive"
    certified: bool
    reason: str
    witness: object = field(default=None, compare=False)

    def __bool__(self):
        raise TypeError("inspect Verdict.status; truthiness would silently "
                        "conflate 'no' with 'inconclusive'")


def _yes(reason: str) -> Verdict:
    return Verdict("yes", True, reason)


def _no(reason: str, witness=None) -> Verdict:
    return Verdict("no", True, reason, witness)


def _maybe(reason: str, evidence=None) -> Verdict:
    return Verdict("inconclusive", False, reason, evidence)


@dataclass(frozen=True)
class IndexExact:
    n: int


@dataclass(frozen=True)
class IndexAtLeast:
    n: int


@dataclass(frozen=True)
class IndexInfinite:
    pass


@dataclass(frozen=True)
class NilpotencyReport:
    nil: Verdict
    nilpotent: Verdict
    index: object  # IndexExact | IndexAtLeast | IndexInfinite | None
    budget: int
    notes: tuple = ()


# -- helpers -----------------------------------------------------------------


def _finite_generations(s: EvolutionStructure):
    """Exact D^m(V) sets for a finite universe until empty or surely cyclic.

    Returns (generations, cyclic): `generations` is [D^0, D^1, ...]; when the
    sets fail to die within n+1 steps the structure must contain a cycle and
    the list is cut there.
    """
    n = s.universe
    current = frozenset(range(1, n + 1))
    gens = [current]
    for _ in range(n + 1):
        nxt = set()
        for v in current:
            entries, _ = s.row_of(v).first(n)
            nxt.update(t for t, _ in entries)
        current = frozenset(nxt)
        if not current:
            gens.append(current)
            return gens, False
        gens.append(current)
    return gens, True


def _materialise_ray(s: EvolutionStructure, start: int, length: int,
                     scan: int = 64):
    """Walk a ray prefix from `start`, preferring children the depth oracle
    marks infinite; falls back to the first child when no oracle is present."""
    oracle = s.meta.depth_oracle if s.meta is not None else None
    out = [start]
    seen = {start}
    v = start
    while len(out) < length:
        entries, _ = s.row_of(v).first(scan)
        step = None
        for t, _w in entries:
            if t in seen:
                continue
            if oracle is None or oracle(t) == INFINITE:
                step = t
                break
        if step is None:
            break
        out.append(step)
        seen.add(step)
        v = step
    return tuple(out)


def _longest_path_evidence(s: EvolutionStructure, window: int, budget: int):
    """Bounded DFS for a long simple path within the window: evidence only."""
    best: tuple = ()
    entries_left = budget
    top = s.clip(window)
    for start in range(1, top + 1):
        if entries_left <= 0:
            break
        stack = [(start, [start])]
        while stack and entries_left > 0:
            v, path = stack.pop()
            if len(path) > len(best):
                best = tuple(path)
            entries, _, used = s.row_of(v).upto(top)
            entries_left -= max(used, 1)
            for t, _w in reversed(entries):
                if t not in path:
                    stack.append((t, path + [t]))
    return best


def _probe_increasing_depths(s: EvolutionStructure, limit: int):
    """(vertex, oracle depth) pairs with strictly increasing positive depths."""
    oracle = s.meta.depth_oracle
    pairs = []
    record = 0
    for i in range(1, limit + 1):
        d = oracle(i)
        if d == INFINITE:
            continue
        if d > record:
            pairs.append((i, int(d)))
            record = d
    return tuple(pairs)


# -- classification ----------------------------------------------------------


def classify(s: EvolutionStructure, budget: int = 64) -> NilpotencyReport:
    """Decide nil and nilpotency, with witnesses, within a budget.

    Finite universes are decided exactly (the budget is advisory there).
    Infinite structures lean on family metadata where it exists; without it
    the only reachable certified verdict is "no" via a found cycle.

    On infinite structures `budget` sets a window and an entry count: the
    cycle search and the long-path evidence cover the window {1..min(budget
    + 8, CLASSIFY_WINDOW_CAP)} and may enumerate CLASSIFY_ENTRIES_PER_BUDGET
    * budget row entries each.  The depth oracle is asked about the first min(budget,
    CLASSIFY_SCAN_CAP) vertices when looking for an infinite depth, and
    about the first `budget` when looking for unbounded depths.
    """
    if budget == 0:
        raise BudgetZero("classify needs a budget >= 1")
    if budget < 0:
        raise InvalidParams("budget must be >= 1")
    notes = []
    meta = s.meta

    if s.universe is not None:
        return _classify_finite(s, budget)

    # Stage 1: oriented cycles decide everything.
    window = min(budget + 8, CLASSIFY_WINDOW_CAP)
    entries = CLASSIFY_ENTRIES_PER_BUDGET * budget
    path, completed = cycle_search(s, window, entries)
    if path is not None:
        w = CycleWitness(tuple(path))
        nil = _no(f"oriented cycle through vertex {path[0]}", w)
        return NilpotencyReport(nil, nil, IndexInfinite(), budget, tuple(notes))

    cycle_free = meta is not None and meta.cycle_free is True
    if cycle_free:
        notes.append("cycle-freeness from family metadata")
    elif meta is not None and meta.cycle_free is False:
        notes.append(f"metadata declares a cycle but the search (window "
                     f"{window}) did not reach it")
        nil = _no("family metadata declares an oriented cycle")
        return NilpotencyReport(nil, nil, IndexInfinite(), budget, tuple(notes))
    else:
        reason = ("cycle search %s within window %d found no cycle; no "
                  "metadata to certify cycle-freeness"
                  % ("completed" if completed else "ran out of budget", window))
        evidence = LongPath(_longest_path_evidence(s, window, entries))
        verdict = _maybe(reason, evidence if len(evidence.path) >= 2 else None)
        idx = IndexAtLeast(len(evidence.path) + 1) if len(evidence.path) >= 2 else None
        return NilpotencyReport(verdict, verdict, idx, budget, tuple(notes))

    # Stage 2: cycle-free; depths decide via the family oracle.
    if meta.depth_oracle is None or meta.all_depths_finite is None:
        verdict = _maybe("cycle-free, but no depth oracle to settle depths")
        return NilpotencyReport(verdict, verdict, None, budget, tuple(notes))

    if not meta.all_depths_finite:
        scan = min(budget, CLASSIFY_SCAN_CAP)
        bad = next((i for i in range(1, scan + 1)
                    if meta.depth_oracle(i) == INFINITE), None)
        if bad is None:
            verdict = _maybe(f"oracle reports an infinite depth somewhere, "
                             f"but none within the first {scan} vertices")
            return NilpotencyReport(verdict, verdict, None, budget, tuple(notes))
        ray = _materialise_ray(s, bad, min(budget, 48) + 1)
        witness = RayPrefix(ray) if len(ray) >= 2 else None
        nil = _no(f"vertex {bad} has infinite depth (family oracle)", witness)
        return NilpotencyReport(nil, nil, IndexInfinite(), budget, tuple(notes))

    # All depths finite: nil holds.
    nil = _yes("no oriented cycles and every vertex has finite depth")
    if meta.sup_depth == INFINITE:
        pairs = _probe_increasing_depths(s, budget)
        witness = UnboundedDepthSequence(pairs) if len(pairs) >= 2 else None
        nilp = _no("depths are finite but not uniformly bounded", witness)
        return NilpotencyReport(nil, nilp, IndexInfinite(), budget, tuple(notes))

    sup = int(meta.sup_depth)
    nilp = _yes(f"no oriented cycles and depths bounded by {sup}")
    if meta.longest_path is not None and meta.longest_path != INFINITE:
        idx = IndexExact(int(meta.longest_path) + 2)
    else:
        idx = IndexAtLeast(sup + 2)
        notes.append("longest path length unknown; index is a lower bound")
    return NilpotencyReport(nil, nilp, idx, budget, tuple(notes))


def _classify_finite(s: EvolutionStructure, budget: int) -> NilpotencyReport:
    n = s.universe
    notes = ["finite universe decided exactly; budget advisory"]
    gens, cyclic = _finite_generations(s)
    if cyclic:
        path, completed = cycle_search(s, n, n * n + n + 8)
        assert completed and path is not None, "generations never die => cycle"
        w = CycleWitness(tuple(path))
        nil = _no(f"oriented cycle through vertex {path[0]}", w)
        return NilpotencyReport(nil, nil, IndexInfinite(), budget, tuple(notes))
    index = IndexExact(len(gens))  # gens = [D^0, ..., D^{m} = empty]; n_r = m+1
    nil = _yes("finite and cycle-free: every principal power chain dies")
    nilp = _yes(f"finite and cycle-free: D^{len(gens) - 1}(V) is empty")
    return NilpotencyReport(nil, nilp, index, budget, tuple(notes))


def nilpotency_index(s: EvolutionStructure, budget: int = 64):
    """The index of right nilpotency as far as the budget lets us see.

    Delegates to :func:`classify`, so the two can never disagree.
    """
    return classify(s, budget).index


# -- window triangularisation ------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """order[t] is the original vertex assigned position t+1; in that order
    the window-restricted weight matrix is strictly lower triangular."""

    order: tuple


@dataclass(frozen=True)
class CycleFound:
    path: tuple


@dataclass(frozen=True)
class Blocked:
    """No within-window sink remains, but some stuck vertices have out-edges
    leaving the window, so a cycle cannot be inferred."""

    vertices: frozenset


def triangularize_window(s: EvolutionStructure, window: int,
                         budget: int = 1 << 20):
    """Iterated sink-removal on the induced window {1..window}.

    A vertex is removable once all its within-window targets are already
    removed.  Out-of-window targets block removal unless the family metadata
    promises walks never re-enter the window, or the universe fits inside it.
    Smallest removable vertex first, so the order is deterministic.
    `budget` counts row entries enumerated while reading the window's rows;
    running out raises :class:`BudgetZero`.
    """
    if window < 1:
        raise InvalidParams("window must be >= 1")
    if budget < 1:
        raise BudgetZero("triangularize needs a budget >= 1")
    top = s.clip(window)
    exempt = (s.universe is not None and s.universe <= window) or (
        s.meta is not None and s.meta.no_window_reentry is True)

    pending: dict[int, set] = {}
    stuck = set()
    rev: dict[int, list] = {v: [] for v in range(1, top + 1)}
    entries_left = budget
    for v in range(1, top + 1):
        entries, exhausted, used = s.row_of(v).upto(top)
        entries_left -= max(used, 1)
        if entries_left < 0:
            raise BudgetZero(f"row enumeration budget exhausted at vertex {v}")
        targets = {t for t, _w in entries if t != v}
        if any(t == v for t, _w in entries):
            # self-loop: immediate cycle
            return CycleFound((v, v))
        if not exhausted and not exempt:
            stuck.add(v)
        pending[v] = targets
        for t in targets:
            rev[t].append(v)

    removed: list[int] = []
    done = set()
    ready = [v for v in range(1, top + 1)
             if not pending[v] and v not in stuck]
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        if v in done:
            continue
        done.add(v)
        removed.append(v)
        for u in rev[v]:
            if u in done:
                continue
            pending[u].discard(v)
            if not pending[u] and u not in stuck:
                heapq.heappush(ready, u)

    if len(removed) == top:
        return Permutation(tuple(removed))

    remaining = set(range(1, top + 1)) - done
    # Peel vertices with no surviving within-window targets; whatever is left
    # is a core where every vertex has an out-edge into the core, which
    # guarantees a within-window cycle.  An empty core means all blockage is
    # due to edges leaving the window.
    core = set(remaining)
    peeled = True
    while peeled:
        peeled = False
        for v in sorted(core):
            if not (pending[v] & core):
                core.discard(v)
                peeled = True
    if not core:
        return Blocked(frozenset(remaining))
    v = min(core)
    walk = [v]
    seen_at = {v: 0}
    while True:
        nxt = min(pending[v] & core)
        if nxt in seen_at:
            cyc = walk[seen_at[nxt]:] + [nxt]
            return CycleFound(tuple(cyc))
        walk.append(nxt)
        seen_at[nxt] = len(walk) - 1
        v = nxt


def permutation_is_strictly_lower(s: EvolutionStructure, order,
                                  window: int) -> bool:
    """Re-check a triangularisation: within the window, every row of order[t]
    must target only vertices removed before t."""
    top = s.clip(window)
    position = {v: t for t, v in enumerate(order)}
    if sorted(order) != list(range(1, top + 1)):
        return False
    for t, v in enumerate(order):
        entries, _, _ = s.row_of(v).upto(top)
        for target, _w in entries:
            if position[target] >= t:
                return False
    return True


# -- finite brute force ------------------------------------------------------


@dataclass(frozen=True)
class BruteForceReport:
    dims: tuple
    nilpotent: bool
    index: Optional[int]


def brute_force_nilpotent(s: EvolutionStructure,
                          n_max: Optional[int] = None) -> BruteForceReport:
    """Decide nilpotency of a finite structure by computing the dimensions of
    the subspace chain A^{<1>} >= A^{<2>} >= ... directly from products.

    Independent of the graph route: no descendant sets, no cycle search.
    """
    from .algebra import subspace_chain  # local import avoids a cycle

    if s.universe is None:
        raise InvalidParams("brute force needs a finite universe")
    if n_max is None:
        n_max = s.universe + 2
    dims = subspace_chain(s, n_max)
    first_zero = next((k for k, d in enumerate(dims, start=1) if d == 0), None)
    if first_zero is not None:
        return BruteForceReport(tuple(dims), True, first_zero)
    return BruteForceReport(tuple(dims), False, None)
