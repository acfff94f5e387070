"""Weighted digraphs of structural constants, with budgeted queries.

A structure is a map ``i -> row_i`` where row i lists the (target, weight)
pairs of the out-edges of vertex i, i.e. the expansion of the i-th basis
square.  Rows enumerate in strictly increasing target order and never carry
zero weights.  Vertex ids are 1-based.

Budgets for generation/descendant queries are counted in *row entries
enumerated*; the depth query takes its budget in BFS levels (and caps lazy
row enumeration internally, see :func:`depth`).  A truncated traversal is
always reported as such; nothing truncated is ever presented as a
certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetZero,
    InvalidParams,
    NoColumnAccess,
    NoTailBound,
    ValidationError,
)
from .scalars import abs_sq, abs_upper, as_scalar, is_zero, scalar_str

VertexId = int
Entry = Tuple[VertexId, object]  # (target, weight)

INFINITE = math.inf


# A lazy row without a cutoff is probed this far before it counts as infinite.
LAZY_ROW_PROBE = 4096

# depth() pulls at most DEPTH_PROBE + DEPTH_PROBE_PER_LEVEL * budget entries
# of each lazy row.
DEPTH_PROBE = 64
DEPTH_PROBE_PER_LEVEL = 4


@dataclass(frozen=True)
class FiniteRow:
    """Fully materialised row; entries strictly increasing by target.

    It shares its reading methods with :class:`LazyRow`; each returns what
    the lazy row would return once materialised in full.
    """

    entries: Tuple[Entry, ...]

    def __post_init__(self):
        last = 0
        for k, w in self.entries:
            if k < 1:
                raise ValidationError(f"vertex id {k} out of range")
            if k <= last:
                raise ValidationError("row entries must be strictly increasing")
            last = k

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def first(self, count: int) -> Tuple[list, bool]:
        """First `count` entries and whether the row was exhausted by them."""
        return list(self.entries[:count]), len(self.entries) <= count

    def upto(self, max_vertex: int) -> Tuple[list, bool, int]:
        """(entries with target <= max_vertex, exhausted, entries enumerated)."""
        out = [e for e in self.entries if e[0] <= max_vertex]
        exhausted = len(out) == len(self.entries)
        return out, exhausted, len(out) + (0 if exhausted else 1)

    def prefix(self, cutoff: Optional[int] = None,
               probe: int = LAZY_ROW_PROBE) -> Tuple[Sequence[Entry], bool]:
        """Every entry, whatever the cutoff or probe; always exhausted."""
        return self.entries, True

    def tail_sq(self, n: int):
        """sum_{k>n} |w_k|^2, exactly."""
        return sum((abs_sq(w) for k, w in self.entries if k > n), Fraction(0))

    def tail_abs(self, n: int) -> Fraction:
        """Rational upper bound on sum_{k>n} |w_k|."""
        return sum((abs_upper(w) for k, w in self.entries if k > n), Fraction(0))


class LazyRow:
    """Potentially infinite row backed by a deterministic generator factory.

    ``tail_sq_bound(N)`` must upper-bound sum_{k>N} |w_k|^2; ``tail_abs_bound``
    does the same for sum |w_k|.  Either may be None when no closed form is
    available, in which case operations that need the bound raise
    :class:`NoTailBound`.
    """

    def __init__(self, factory: Callable[[], Iterator[Entry]],
                 tail_sq_bound: Optional[Callable[[int], Fraction]] = None,
                 tail_abs_bound: Optional[Callable[[int], Fraction]] = None):
        self._factory = factory
        self.tail_sq_bound = tail_sq_bound
        self.tail_abs_bound = tail_abs_bound
        self._cache: list[Entry] = []
        self._it: Optional[Iterator[Entry]] = None
        self._done = False

    def _extend(self, want: int) -> None:
        # grow the materialised prefix to `want` entries (or exhaustion)
        if self._it is None:
            self._it = self._factory()
        while len(self._cache) < want and not self._done:
            try:
                k, w = next(self._it)
            except StopIteration:
                self._done = True
                return
            if self._cache and k <= self._cache[-1][0]:
                raise ValidationError("lazy row targets must increase strictly")
            self._cache.append((k, w))

    def __iter__(self) -> Iterator[Entry]:
        """Entries in order, pulled one at a time as the caller advances."""
        n = 0
        while True:
            self._extend(n + 1)
            if n == len(self._cache):
                return
            yield self._cache[n]
            n += 1

    def first(self, count: int) -> Tuple[list, bool]:
        """First `count` entries and whether the row was exhausted by them."""
        self._extend(count + 1)
        exhausted = self._done and len(self._cache) <= count
        return self._cache[:count], exhausted

    def upto(self, max_vertex: int) -> Tuple[list, bool, int]:
        """Entries with target <= max_vertex.

        Returns (entries, exhausted, enumerated) where `enumerated` counts the
        entries actually pulled (including the first one beyond the window,
        which is what detects non-exhaustion).
        """
        n = 0
        while True:
            self._extend(n + 1)
            if len(self._cache) <= n:
                return self._cache[:n], True, n
            if self._cache[n][0] > max_vertex:
                return self._cache[:n], False, n + 1
            n += 1

    def prefix(self, cutoff: Optional[int] = None,
               probe: int = LAZY_ROW_PROBE) -> Tuple[Sequence[Entry], bool]:
        """Entries with target <= cutoff, or the first `probe` entries when
        there is no cutoff, and whether they exhaust the row."""
        if cutoff is None:
            return self.first(probe)
        entries, exhausted, _ = self.upto(cutoff)
        return entries, exhausted

    def tail_sq(self, n: int):
        """Certified upper bound on sum_{k>n} |w_k|^2, or raise NoTailBound."""
        if self.upto(n)[1]:
            return Fraction(0)  # no entry lies beyond n
        if self.tail_sq_bound is None:
            raise NoTailBound(f"row has no square tail bound beyond {n}")
        return self.tail_sq_bound(n)

    def tail_abs(self, n: int) -> Optional[Fraction]:
        """Certified upper bound on sum_{k>n} |w_k|, or None if unavailable."""
        if self.upto(n)[1]:
            return Fraction(0)
        if self.tail_abs_bound is None:
            return None
        return self.tail_abs_bound(n)


Row = Union[FiniteRow, LazyRow]


@dataclass(frozen=True)
class FamilyMeta:
    """Analytic facts a family ships with; consumers trust these.

    ``depth_oracle`` maps a vertex to its depth (an int, or ``math.inf``).
    ``sup_depth``/``longest_path`` are ints, ``math.inf`` or None (unknown).
    ``no_window_reentry`` certifies that an edge leaving a window {1..W}
    never has a descendant back inside it, which makes window
    triangularisation sound at the boundary.  ``frobenius_tail_sq(N)`` bounds
    the total squared weight of all rows with index > N.
    """

    cycle_free: Optional[bool] = None
    depth_oracle: Optional[Callable[[int], float]] = None
    sup_depth: Optional[float] = None
    locally_finite: Optional[bool] = None
    all_depths_finite: Optional[bool] = None
    longest_path: Optional[float] = None
    no_window_reentry: Optional[bool] = None
    frobenius_tail_sq: Optional[Callable[[int], Fraction]] = None


class EvolutionStructure:
    """An evolution algebra presented by its rows of structural constants.

    ``universe`` is the number of vertices for finite structures and None for
    the countable case.  ``row_fn``/``column_fn`` return :class:`FiniteRow`
    or :class:`LazyRow`; columns are optional.  ``mode`` is "exact" or
    "float"; ``tol`` is the float-mode zero tolerance.
    """

    def __init__(self, mode: str, row_fn: Callable[[int], Row],
                 universe: Optional[int] = None,
                 column_fn: Optional[Callable[[int], Row]] = None,
                 meta: Optional[FamilyMeta] = None,
                 tol: float = 1e-12,
                 source: Optional[dict] = None):
        if mode not in ("exact", "float"):
            raise InvalidParams(f"unknown mode {mode!r}")
        if universe is not None and universe < 1:
            raise InvalidParams("finite universe must have n >= 1")
        self.mode = mode
        self.universe = universe
        self.meta = meta
        self.tol = tol
        self.source = source or {}
        self._row_fn = row_fn
        self._column_fn = column_fn
        self._rows: dict[int, Row] = {}
        self._cols: dict[int, Row] = {}

    # -- access -------------------------------------------------------------
    def _check_vertex(self, i: int) -> None:
        if not isinstance(i, int) or i < 1:
            raise InvalidParams(f"vertex id must be a positive integer, got {i!r}")
        if self.universe is not None and i > self.universe:
            raise InvalidParams(f"vertex {i} outside finite universe of size {self.universe}")

    def row_of(self, i: int) -> Row:
        self._check_vertex(i)
        row = self._rows.get(i)
        if row is None:
            row = self._row_fn(i)
            self._rows[i] = row
        return row

    @property
    def has_columns(self) -> bool:
        return self._column_fn is not None

    @property
    def zero_tol(self) -> float:
        """Magnitude up to which a scalar counts as zero: ``tol`` in float
        mode, 0 (literal zero tests) in exact mode."""
        return self.tol if self.mode == "float" else 0.0

    def clip(self, window: int) -> int:
        """The last vertex of the window {1..window} that exists."""
        return window if self.universe is None else min(window, self.universe)

    def column_of(self, i: int) -> Row:
        self._check_vertex(i)
        if self._column_fn is None:
            raise NoColumnAccess("structure has no column access")
        col = self._cols.get(i)
        if col is None:
            col = self._column_fn(i)
            self._cols[i] = col
        return col

    # -- construction -------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: dict, n: int, mode: str = "exact",
                  tol: float = 1e-12) -> "EvolutionStructure":
        """Finite structure from an explicit row map {i: [(target, weight), ...]}."""
        if n < 1:
            raise ValidationError("universe size must be >= 1")
        table: dict[int, FiniteRow] = {}
        for i, entries in rows.items():
            i = int(i)
            if not 1 <= i <= n:
                raise ValidationError(f"row index {i} outside universe 1..{n}")
            seen = 0
            converted = []
            for k, w in entries:
                k = int(k)
                if not 1 <= k <= n:
                    raise ValidationError(f"target {k} outside universe 1..{n}")
                if k <= seen:
                    raise ValidationError(f"row {i}: targets must be strictly increasing")
                seen = k
                wv = as_scalar(w, mode)
                if is_zero(wv):
                    raise ValidationError(f"row {i}: zero weight on edge to {k}")
                converted.append((k, wv))
            table[i] = FiniteRow(tuple(converted))
        empty = FiniteRow(())
        cols: dict[int, list] = {}
        for i in sorted(table):
            for k, w in table[i].entries:
                cols.setdefault(k, []).append((i, w))
        col_table = {k: FiniteRow(tuple(v)) for k, v in cols.items()}
        src = {"kind": "explicit", "mode": mode, "n": n,
               "rows": {i: list(r.entries) for i, r in sorted(table.items())}}
        return cls(mode,
                   row_fn=lambda i: table.get(i, empty),
                   universe=n,
                   column_fn=lambda i: col_table.get(i, empty),
                   tol=tol,
                   source=src)


# -- budgeted traversals ----------------------------------------------------

class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def take(self, k: int = 1) -> bool:
        if self.left < k:
            self.left = 0
            return False
        self.left -= k
        return True


@dataclass(frozen=True)
class GenerationResult:
    generation: int
    members: frozenset
    truncated: bool
    first_hit: dict = field(compare=False)


def enumerate_row(s: EvolutionStructure, i: int, limit: int) -> Tuple[list, bool]:
    """First `limit` row entries and an exhaustion flag."""
    if limit < 0:
        raise InvalidParams("limit must be >= 0")
    return s.row_of(i).first(limit)


def descendants_generation(s: EvolutionStructure, vertices: Iterable[int],
                           m: int, budget: int) -> GenerationResult:
    """The m-th generation D^m(U) of a vertex set, within an entry budget.

    Generation 0 is U itself.  `budget` counts row entries enumerated,
    summed over all rows and generations.  When the enumeration hits the
    budget, the result is flagged truncated and `members` is a subset of the
    true D^m(U).  `first_hit` maps each vertex reached during the recursion to the first
    generation that produced it (the BFS distance from U when untruncated).
    """
    U = sorted(set(vertices))
    for v in U:
        s._check_vertex(v)
    if m < 0:
        raise InvalidParams("generation must be >= 0")
    if m == 0:
        return GenerationResult(0, frozenset(U), False, {})
    if budget <= 0:
        if U:
            raise BudgetZero("no budget to enumerate any row entry")
        return GenerationResult(m, frozenset(), False, {})

    bud = _Budget(budget)
    truncated = False
    current = set(U)
    first_hit: dict[int, int] = {}
    for g in range(1, m + 1):
        nxt: set[int] = set()
        for v in sorted(current):
            for k, _w in s.row_of(v):
                if not bud.take():
                    # out of budget: whatever was collected stays a subset of
                    # the true generation, and later generations of a subset
                    # are subsets too -- keep going without enumerating more
                    truncated = True
                    break
                nxt.add(k)
                if k not in first_hit:
                    first_hit[k] = g
        current = nxt
    return GenerationResult(m, frozenset(current), truncated, first_hit)


@dataclass(frozen=True)
class DepthExact:
    n: int


@dataclass(frozen=True)
class DepthAtLeast:
    bound: int


@dataclass(frozen=True)
class DepthInfinite:
    reason: str  # "family_oracle" (cycles alone never certify infinite depth)
    cycle: Optional[tuple] = None


def depth(s: EvolutionStructure, i: int, budget: int, use_oracle: bool = False):
    """Depth of the descendant graph of i: sup of distances from i.

    `budget` counts BFS levels explored.  Finite rows are read in full; lazy
    rows are enumerated up to ``DEPTH_PROBE + DEPTH_PROBE_PER_LEVEL *
    budget`` entries each, and if any was left unexhausted the verdict
    degrades to ``DepthAtLeast`` (a path of that length was found).  With
    ``use_oracle=True`` an infinite-depth claim from the family metadata is
    returned up front.
    """
    s._check_vertex(i)
    if budget < 1:
        raise InvalidParams("budget must be >= 1")
    if use_oracle and s.meta is not None and s.meta.depth_oracle is not None:
        if s.meta.depth_oracle(i) == INFINITE:
            return DepthInfinite("family_oracle")

    probe = DEPTH_PROBE + DEPTH_PROBE_PER_LEVEL * budget
    visited = {i}
    dist: dict[int, int] = {}
    frontier = [i]
    truncated = False
    level = 0
    while frontier and level < budget:
        level += 1
        nxt: list[int] = []
        for v in sorted(frontier):
            entries, exhausted = s.row_of(v).prefix(probe=probe)
            if not exhausted:
                truncated = True
            for k, _w in entries:
                if k not in dist:
                    dist[k] = level
                if k not in visited:
                    visited.add(k)
                    nxt.append(k)
        frontier = nxt
    if not frontier and not truncated:
        return DepthExact(max(dist.values(), default=0))
    # every recorded distance is a genuine path length from i
    return DepthAtLeast(max(dist.values(), default=0))


def cycle_search(s: EvolutionStructure, window: int, budget: int):
    """DFS cycle search on the induced window {1..window}.

    `budget` counts row entries enumerated (each row is read once, up to the
    first entry beyond the window).  Returns ``(path, completed)``: `path` is a vertex cycle ``[v, ..., v]``
    (first == last) or None, and `completed` says whether the whole window
    was searched without running out of budget.  A None with
    ``completed=False`` proves nothing.
    """
    if window < 1:
        raise InvalidParams("window must be >= 1")
    bud = _Budget(max(budget, 0))
    top = s.clip(window)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    adj_cache: dict[int, list] = {}

    def adjacency(v):
        if v not in adj_cache:
            entries, _, enumerated = s.row_of(v).upto(top)
            if not bud.take(max(enumerated, 1)):
                return None
            adj_cache[v] = [k for k, _ in entries]
        return adj_cache[v]

    for start in range(1, top + 1):
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, 0)]
        color[start] = GRAY
        while stack:
            v, idx = stack.pop()
            targets = adjacency(v)
            if targets is None:
                return None, False  # budget exhausted
            if idx < len(targets):
                stack.append((v, idx + 1))
                k = targets[idx]
                c = color.get(k, WHITE)
                if c == GRAY:
                    # k is on the current DFS path: walk back up to it
                    path = [v]
                    cur = v
                    while cur != k:
                        cur = parent[cur]
                        path.append(cur)
                    path.reverse()
                    path.append(k)
                    return path, True
                if c == WHITE:
                    color[k] = GRAY
                    parent[k] = v
                    stack.append((k, 0))
            else:
                color[v] = BLACK
    return None, True


def path_is_valid(s: EvolutionStructure, path: Sequence[int]) -> bool:
    """Re-walk a path and confirm every edge exists with nonzero weight."""
    if len(path) < 2:
        return False
    for u, v in zip(path, path[1:]):
        entries, _, _ = s.row_of(u).upto(v)
        hit = [w for k, w in entries if k == v]
        if not hit or is_zero(hit[0], s.zero_tol):
            return False
    return True


@dataclass(frozen=True)
class DegreeExact:
    d: int


@dataclass(frozen=True)
class DegreeAtLeastCap:
    cap: int


def degree(s: EvolutionStructure, i: int, direction: str, cap: int):
    """Out- or in-degree of i, exact up to `cap`."""
    s._check_vertex(i)
    if cap < 0:
        raise InvalidParams("cap must be >= 0")
    if direction == "out":
        row = s.row_of(i)
    elif direction == "in":
        row = s.column_of(i)  # raises NoColumnAccess when absent
    else:
        raise InvalidParams(f"direction must be 'out' or 'in', got {direction!r}")
    entries, exhausted = row.first(cap + 1)
    if exhausted and len(entries) <= cap:
        return DegreeExact(len(entries))
    return DegreeAtLeastCap(cap)


def export_window_dot(s: EvolutionStructure, window: int) -> str:
    """DOT text of the induced window; exact weights render as exact strings."""
    if window < 1:
        raise InvalidParams("window must be >= 1")
    top = s.clip(window)
    lines = ["digraph evolution {"]
    for v in range(1, top + 1):
        lines.append(f"  {v};")
    for v in range(1, top + 1):
        entries, _, _ = s.row_of(v).upto(top)
        for k, w in entries:
            lines.append(f'  {v} -> {k} [label="{scalar_str(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
