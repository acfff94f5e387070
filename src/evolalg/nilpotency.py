"""Nil / nilpotency decision procedures with checkable witnesses.

Certification discipline: a "certified" verdict rests either on a witness the
caller can re-check against the structure (an oriented cycle, a ray prefix, a
sequence of vertices with strictly growing rank) or on the rank the
structure's family metadata is entitled to assert.  Search that merely ran
out of budget is reported as inconclusive, never dressed up as a
certificate.

The underlying graph criteria read the rank r(v), the most edges on a walk
from v (the last m with D^m(v) nonempty), which is infinite when a cycle or
an infinite ray is reachable from v:

* every vertex of finite rank      <=>  nil (and then there are no cycles);
* ranks bounded by R               <=>  nilpotent;
* the exact index of right nilpotency is the first m with D^{m-1}(V) empty,
  which is sup r + 2.
"""
from __future__ import annotations

import heapq
from dataclasses import field
from typing import Optional

from .algebra import subspace_chain
from .errors import BudgetZero, InvalidParams
from .graph import (
    INFINITE,
    WINDOW_CEILING,
    EvolutionStructure,
    descendants_generation,
    path_is_valid,
    window_dfs,
)
from .records import Record

# On an infinite universe classify() searches the window
# {1..min(budget + CLASSIFY_WINDOW_MARGIN, WINDOW_CEILING)} for cycles,
# reading at most CLASSIFY_ENTRIES_PER_BUDGET * budget row entries, and reads
# the rank of at most CLASSIFY_SCAN_CAP vertices; a ray prefix from a vertex
# of infinite rank takes at most min(budget, CLASSIFY_RAY_STEPS) steps and
# looks at the first CLASSIFY_RAY_ROW_SCAN entries of each row it walks.
# validate_witness reads at most CLASSIFY_ENTRIES_PER_BUDGET * (r + 1) row
# entries to find D^r(v) of a rank pair (v, r).
CLASSIFY_WINDOW_MARGIN = 8
CLASSIFY_ENTRIES_PER_BUDGET = 64
CLASSIFY_SCAN_CAP = 256
CLASSIFY_RAY_STEPS = 48
CLASSIFY_RAY_ROW_SCAN = 64

# -- witnesses ---------------------------------------------------------------


class CycleWitness(Record):
    """Closed walk with first == last vertex; re-check with validate_witness."""

    path: tuple


class RayPrefix(Record):
    """Distinct consecutive vertices of an edge walk whose last vertex still
    has an out-edge; evidence for an infinite ray (hence infinite rank)."""

    vertices: tuple


class UnboundedDepthSequence(Record):
    """(vertex, r) pairs with strictly increasing r, each claiming that
    vertex has rank at least r, i.e. D^r(vertex) is nonempty; evidence that
    ranks are finite but not uniformly bounded."""

    pairs: tuple


class LongPath(Record):
    """A longest path among the vertices the window search finished;
    evidence only, certifies nothing."""

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
        if any(r2 <= r1 for (_, r1), (_, r2) in zip(pairs, pairs[1:])):
            return False
        return all(descendants_generation(
            s, [v], r, CLASSIFY_ENTRIES_PER_BUDGET * (r + 1)).members
            for v, r in pairs)
    if isinstance(witness, LongPath):
        return len(witness.path) >= 2 and path_is_valid(s, witness.path)
    return False


# -- verdicts and reports ----------------------------------------------------


class Verdict(Record):
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


class IndexExact(Record):
    n: int


class IndexAtLeast(Record):
    n: int


class IndexInfinite(Record):
    pass


class NilpotencyReport(Record):
    nil: Verdict
    nilpotent: Verdict
    index: object  # IndexExact | IndexAtLeast | IndexInfinite | None
    budget: int
    notes: tuple = ()


# -- helpers -----------------------------------------------------------------


def _materialise_ray(s: EvolutionStructure, rank, start: int, steps: int):
    """Walk a ray prefix of at most `steps` edges from `start`, along the
    first unvisited child of infinite rank."""
    out = [start]
    seen = {start}
    v = start
    while len(out) <= steps:
        entries, _ = s.row_of(v).first(CLASSIFY_RAY_ROW_SCAN)
        step = None
        for t, _w in entries:
            if t in seen:
                continue
            if rank(t) == INFINITE:
                step = t
                break
        if step is None:
            break
        out.append(step)
        seen.add(step)
        v = step
    return tuple(out)


def _heights(finished, targets, top: int) -> list:
    """height[v] for every vertex the search finished: the most edges on a
    path from v.  Each finished vertex comes after all of its targets."""
    height = [0] * (top + 1)
    at = height.__getitem__
    for v in finished:
        height[v] = max(map(at, targets[v]), default=-1) + 1
    return height


# -- classification ----------------------------------------------------------


def classify(s: EvolutionStructure, budget: int = 64) -> NilpotencyReport:
    """Decide nil and nilpotency, with witnesses, within a budget.

    One depth-first search over a window, the one :func:`cycle_search`
    runs, decides every universe: a cycle it meets settles the verdict and
    is the witness; otherwise it finishes every vertex after its targets,
    and that order gives each vertex's height.  Every row in the window is
    read once.

    A finite universe is its own window and is decided exactly (the budget
    is advisory there): cycle-free, it is nilpotent of index longest path +
    2.  Infinite structures lean on the rank their family metadata
    asserts where it exists; without it the only reachable certified verdict
    is "no" via a found cycle, and the long-path evidence is walked down the
    heights.

    On infinite structures `budget` sets a window and an entry count: the
    search covers {1..min(budget + CLASSIFY_WINDOW_MARGIN, WINDOW_CEILING)}
    and may enumerate CLASSIFY_ENTRIES_PER_BUDGET * budget row entries.  The
    rank is read for at most the first min(budget, CLASSIFY_SCAN_CAP)
    vertices, once each: the first of infinite rank starts a ray, and the
    record ranks before it show unbounded ranks.
    """
    if budget == 0:
        raise BudgetZero("classify needs a budget >= 1")
    if budget < 0:
        raise InvalidParams("budget must be >= 1")
    notes = []
    meta = s.meta
    finite = s.universe is not None
    if finite:
        window = s.universe
        notes.append("finite universe decided exactly; budget advisory")
    else:
        window = min(budget + CLASSIFY_WINDOW_MARGIN, WINDOW_CEILING)

    # Stage 1: oriented cycles decide everything.
    path, finished, targets, completed = window_dfs(
        s, window, CLASSIFY_ENTRIES_PER_BUDGET * budget)
    if path is not None:
        w = CycleWitness(tuple(path))
        nil = _no(f"oriented cycle through vertex {path[0]}", w)
        return NilpotencyReport(nil, nil, IndexInfinite(), budget, tuple(notes))

    if finite:
        longest = max(_heights(finished, targets, window))
        nil = _yes("finite and cycle-free: every principal power chain dies")
        nilp = _yes(f"finite and cycle-free: D^{longest + 1}(V) is empty")
        return NilpotencyReport(nil, nilp, IndexExact(longest + 2), budget,
                                tuple(notes))

    rank = meta.rank if meta is not None else None
    if rank is None:
        reason = ("cycle search %s within window %d found no cycle; no "
                  "metadata to certify cycle-freeness"
                  % ("completed" if completed else "ran out of budget", window))
        # From the highest finished vertex down one level per step, taking
        # the smallest vertex on ties.
        height = _heights(finished, targets, window)
        walk = []
        if finished:
            v = min(finished, key=lambda u: (-height[u], u))
            walk.append(v)
            while height[v]:
                v = min(t for t in targets[v] if height[t] == height[v] - 1)
                walk.append(v)
        evidence = LongPath(tuple(walk)) if len(walk) >= 2 else None
        verdict = _maybe(reason, evidence)
        idx = IndexAtLeast(len(walk) + 1) if evidence is not None else None
        return NilpotencyReport(verdict, verdict, idx, budget, tuple(notes))

    # Stage 2: the family's rank decides.  One scan finds the first vertex
    # of infinite rank and the record ranks before it.
    if meta.ranks_finite:
        notes.append("cycle-freeness from family metadata")
    scan = min(budget, CLASSIFY_SCAN_CAP)
    bad = None
    records = []
    for i in range(1, scan + 1):
        r = rank(i)
        if r == INFINITE:
            bad = i
            break
        if r > (records[-1][1] if records else 0):
            records.append((i, int(r)))

    if not meta.ranks_finite:
        if bad is None:
            limit = (f"the budget {budget}" if budget <= CLASSIFY_SCAN_CAP
                     else f"CLASSIFY_SCAN_CAP = {CLASSIFY_SCAN_CAP}")
            verdict = _maybe(f"family metadata reports an infinite rank, but "
                             f"vertices 1..{scan} have finite rank; the scan "
                             f"stops at {limit}")
            return NilpotencyReport(verdict, verdict, None, budget, tuple(notes))
        ray = _materialise_ray(s, rank, bad, min(budget, CLASSIFY_RAY_STEPS))
        witness = RayPrefix(ray) if len(ray) >= 2 else None
        nil = _no(f"vertex {bad} has infinite depth (family oracle)", witness)
        return NilpotencyReport(nil, nil, IndexInfinite(), budget, tuple(notes))

    # All ranks finite: nil holds.
    nil = _yes("no oriented cycles and every vertex has finite depth")
    if meta.sup_rank == INFINITE:
        witness = (UnboundedDepthSequence(tuple(records))
                   if len(records) >= 2 else None)
        nilp = _no("depths are finite but not uniformly bounded", witness)
        return NilpotencyReport(nil, nilp, IndexInfinite(), budget, tuple(notes))

    sup = int(meta.sup_rank)
    nilp = _yes(f"no oriented cycles and depths bounded by {sup}")
    return NilpotencyReport(nil, nilp, IndexExact(sup + 2), budget,
                            tuple(notes))


# -- window triangularisation ------------------------------------------------


class Permutation(Record):
    """order[t] is the original vertex assigned position t+1; in that order
    the window-restricted weight matrix is strictly lower triangular."""

    order: tuple


class CycleFound(Record):
    path: tuple


class Blocked(Record):
    """No within-window sink remains, but some stuck vertices have out-edges
    leaving the window, so a cycle cannot be inferred."""

    vertices: frozenset


def triangularize_window(s: EvolutionStructure, window: int):
    """Iterated sink-removal on the induced window {1..window}.

    A vertex is removable once all its within-window targets are already
    removed; smallest removable vertex first, so the order is deterministic.
    Each vertex and edge is handled once, and each row is read up to its
    first target past the window, so the window bounds the work.

    When every vertex is removed, the removal order is a
    :class:`Permutation`, unless some rows leave the window: then a walk may
    re-enter it, and the vertices with such a row, together with the
    vertices that reach them, are :class:`Blocked`.  Leaving rows block
    nothing when the universe fits inside the window or the family metadata
    promises walks never re-enter it.  Otherwise the vertices never removed
    form a core in which a walk along smallest targets closes a cycle.
    """
    top = s.window_top(window)
    exempt = top == s.universe or (
        s.meta is not None and s.meta.no_window_reentry is True)

    # pending[v] counts the targets of v not removed yet (a row's targets
    # are distinct, and a self-loop returns at once)
    table = s._targets if top == s.universe else None
    targets_of: list = [()] * (top + 1) if table is None else table
    pending = [0] * (top + 1)
    stuck = set()
    rev: list = [[] for _ in range(top + 1)]
    for v in range(1, top + 1):
        if table is None:
            targets, exhausted, _ = s.row_of(v).targets_upto(top)
            targets_of[v] = targets
            if not exhausted and not exempt:
                stuck.add(v)
        else:
            targets = table[v]
        if v in targets:
            # self-loop: immediate cycle
            return CycleFound((v, v))
        pending[v] = len(targets)
        for t in targets:
            rev[t].append(v)

    order = []
    ready = [v for v in range(1, top + 1) if not pending[v]]
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in rev[v]:
            pending[u] -= 1
            if not pending[u]:
                heapq.heappush(ready, u)
    if len(order) == top:
        if not stuck:
            return Permutation(tuple(order))
        # the order lists each vertex after its targets
        blocked = [False] * (top + 1)
        for v in order:
            blocked[v] = v in stuck or any(blocked[t] for t in targets_of[v])
        return Blocked(frozenset(v for v in order if blocked[v]))
    # the vertices never removed still count a target among themselves
    v = min(u for u in range(1, top + 1) if pending[u])
    walk = [v]
    seen_at = {v: 0}
    while True:
        nxt = min(t for t in targets_of[v] if pending[t])
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
    top = s.window_top(window)
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


class BruteForceReport(Record):
    dims: tuple
    nilpotent: Optional[bool]  # None: n_max cut the chain short
    index: Optional[int]


def brute_force_nilpotent(s: EvolutionStructure,
                          n_max: Optional[int] = None) -> BruteForceReport:
    """Decide nilpotency of a finite structure by computing the dimensions of
    the subspace chain A^{<1>} >= A^{<2>} >= ... directly from products.

    Independent of the graph route: no descendant sets, no cycle search.
    A chain cut short before it repeats a nonzero dimension is undecided.
    """
    if s.universe is None:
        raise InvalidParams("brute force needs a finite universe")
    if n_max is None:
        n_max = s.universe + 2
    dims = tuple(subspace_chain(s, n_max))
    if 0 in dims:
        return BruteForceReport(dims, True, dims.index(0) + 1)
    repeats = any(a == b for a, b in zip(dims, dims[1:]))
    return BruteForceReport(dims, False if repeats else None, None)
