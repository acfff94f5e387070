"""Weighted digraphs of structural constants, with budgeted queries.

A structure is a map ``i -> row_i`` where row i lists the (target, weight)
pairs of the out-edges of vertex i, i.e. the expansion of the i-th basis
square.  Rows enumerate in strictly increasing target order and never carry
zero weights.  Vertex ids are 1-based.

Budgets for traversals are counted in *row entries enumerated*.  A
truncated traversal is always reported as such; nothing truncated is ever
presented as a certificate.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetZero,
    InvalidParams,
    NoColumnAccess,
    NoTailBound,
    ParseError,
    ValidationError,
)
from .records import Record
from .scalars import abs_sq, abs_upper, as_scalar, is_zero, scalar_str

VertexId = int
Entry = Tuple[VertexId, object]  # (target, weight)

INFINITE = math.inf


# A lazy row without a cutoff is probed this far before it counts as infinite.
LAZY_ROW_PROBE = 4096

# A window {1..window} on an infinite universe may span at most this many
# vertices: windowed routines build a row and some state for every vertex in
# it, so their time and memory grow with the window (a Schur certificate on
# markov_line takes seconds at 4096 and grows faster than linearly).  A
# finite universe clips the window to its own rows, which are already built.
WINDOW_CEILING = 4096

# A finite universe may have at most this many vertices: deciding it builds
# state for every vertex, so a larger n is refused before anything is built.
UNIVERSE_CEILING = 1 << 20

# Weights of exactly these types are literals that from_rows reads once.
_LITERALS = (str, int)


def _order_error(k: int) -> ValidationError:
    """The refusal of target k, the first that does not exceed the one
    before it in its row (0 before the first)."""
    return ValidationError(f"vertex id {k} out of range" if k < 1
                           else "row entries must be strictly increasing")


def _vertex_key(key, what: str) -> int:
    """A row or element key as a vertex id: an int that is no bool, or an
    ASCII string of decimal digits with an optional leading '-'.  Anything
    else, such as 1.9, True, " 3 " or "1_0", is a ParseError; the range is
    the caller's to check."""
    if isinstance(key, str):
        if key.isascii() and (key.isdigit()
                              or key[:1] == "-" and key[1:].isdigit()):
            try:
                return int(key)
            except ValueError:  # past the interpreter's int-string limit
                pass
    elif isinstance(key, int) and not isinstance(key, bool):
        return key
    raise ParseError(f"{what} key {key!r} is not an integer")


class FiniteRow(Record):
    """Fully materialised row; entries strictly increasing by target.

    It shares its reading methods with :class:`LazyRow`; each returns what
    the lazy row would return once materialised in full.  The targets are
    kept as an int tuple in a slot that is no dataclass field, checked once
    when the row is built, or by the caller that hands them over.
    """

    __slots__ = ("entries", "_targets")
    entries: Tuple[Entry, ...]

    def __init__(self, entries: Tuple[Entry, ...],
                 targets: Optional[Tuple[int, ...]] = None):
        # written out, not the shared Record.__init__: it checks the target
        # order and fills the `_targets` slot, which is no field.  Given
        # `targets`, the caller has built and checked them from `entries`.
        if targets is None:
            targets = tuple([k for k, _w in entries])
            last = 0
            for k in targets:
                if k <= last:  # last starts at 0, so this also catches k < 1
                    raise _order_error(k)
                last = k
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_targets", targets)

    def __reduce__(self):
        # copy and pickle would set the slots through the frozen __setattr__
        return FiniteRow, (self.entries,)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def first(self, count: int) -> Tuple[list, bool]:
        """First `count` entries and whether the row was exhausted by them."""
        return list(self.entries[:count]), len(self.entries) <= count

    def upto(self, max_vertex: int) -> Tuple[list, bool, int]:
        """(entries with target <= max_vertex, exhausted, entries enumerated)."""
        count = bisect_right(self._targets, max_vertex)
        exhausted = count == len(self.entries)
        return list(self.entries[:count]), exhausted, count + (not exhausted)

    def targets_upto(self, max_vertex: int) -> Tuple[Sequence[int], bool, int]:
        """(targets <= max_vertex, exhausted, entries enumerated), counted
        like :meth:`upto`."""
        targets = self._targets
        count = bisect_right(targets, max_vertex)
        if count == len(targets):
            return targets, True, count
        return targets[:count], False, count + 1

    def prefix(self, cutoff: Optional[int] = None
               ) -> Tuple[Sequence[Entry], bool]:
        """Every entry, whatever the cutoff; always exhausted."""
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

    def targets_upto(self, max_vertex: int) -> Tuple[Sequence[int], bool, int]:
        """:meth:`upto` with the targets alone."""
        entries, exhausted, enumerated = self.upto(max_vertex)
        return tuple(k for k, _w in entries), exhausted, enumerated

    def prefix(self, cutoff: Optional[int] = None
               ) -> Tuple[Sequence[Entry], bool]:
        """Entries with target <= cutoff, or the first LAZY_ROW_PROBE entries
        when there is no cutoff, and whether they exhaust the row."""
        if cutoff is None:
            return self.first(LAZY_ROW_PROBE)
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


class FamilyMeta(Record):
    """Analytic facts a family ships with; consumers trust these.

    ``rank`` maps a vertex to its rank, the most edges on a walk from it: an
    int, or ``math.inf`` when walks from it are unbounded (a cycle or an
    infinite ray is reachable).  A finite rank is 1 + the largest rank among
    the vertex's children, 0 at a sink.  ``sup_rank`` is the supremum of the
    ranks (an int or ``math.inf``) and ``ranks_finite`` says whether every
    rank is finite, which rules out cycles.
    ``no_window_reentry`` certifies that an edge leaving a window {1..W}
    never has a descendant back inside it, which makes window
    triangularisation sound at the boundary.  ``frobenius_tail_sq(N)`` bounds
    the total squared weight of all rows with index > N.
    """

    rank: Optional[Callable[[int], float]] = None
    sup_rank: Optional[float] = None
    ranks_finite: Optional[bool] = None
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
        if universe is not None and universe > UNIVERSE_CEILING:
            raise InvalidParams(f"finite universe of size {universe} exceeds "
                                f"the ceiling UNIVERSE_CEILING = "
                                f"{UNIVERSE_CEILING}")
        if type(tol) not in (int, float) or not 0 <= tol < math.inf:
            raise InvalidParams(f"tol must be a finite number >= 0, "
                                f"got {tol!r}")
        self.mode = mode
        self.universe = universe
        self.meta = meta
        self.tol = tol
        self.source = source or {}
        self._row_fn = row_fn
        self._column_fn = column_fn
        self._rows: dict[int, Row] = {}
        self._cols: dict[int, Row] = {}
        # from_rows: every vertex's target tuple, indexed by vertex
        self._targets: Optional[list] = None

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
    def zero_tol(self) -> float:
        """Magnitude up to which a scalar counts as zero: ``tol`` in float
        mode, 0 (literal zero tests) in exact mode."""
        return self.tol if self.mode == "float" else 0.0

    def clip(self, window: int) -> int:
        """The last vertex of the window {1..window} that exists."""
        return window if self.universe is None else min(window, self.universe)

    def window_top(self, window: int) -> int:
        """``clip(window)`` of a window that is at least 1 and, on an
        infinite universe, at most WINDOW_CEILING; InvalidParams otherwise."""
        if window < 1:
            raise InvalidParams("window must be >= 1")
        if self.universe is None and window > WINDOW_CEILING:
            raise InvalidParams(f"window {window} exceeds the ceiling "
                                f"WINDOW_CEILING = {WINDOW_CEILING}")
        return self.clip(window)

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
        """Finite structure from explicit rows ``{i: [[target, weight] or
        [target, re, im], ...]}``; keys are ints or decimal strings.

        ``n``, mode and tol are checked before any weight is read.  One
        pass then reads each entry once: its target, checked to be an int
        above the one before it, and its weight, by :func:`as_scalar`.
        Each distinct weight literal (an int or a string) is converted and
        checked for zero once per call; later entries share its immutable
        scalar.  Each row's entry tuple goes into a table indexed by vertex
        (None where no row is given) and its target tuple into a second
        one, which the window searches read directly when the window is
        the whole universe.  ``row_of`` builds a vertex's
        :class:`FiniteRow` from the two on its first read, with no second
        check; absent vertices share one empty row.  The column table is
        built on the first ``column_of``.
        """
        # literal -> its nonzero scalar; keyed by exact type only, since
        # 1 == 1.0 == True == Fraction(1) while exact mode refuses 1.0 and True
        scalars: dict = {}
        empty = FiniteRow((), ())
        columns: Optional[dict] = None

        def row_fn(i: int) -> FiniteRow:
            entries = table[i]
            return FiniteRow(entries, targets_of[i]) if entries else empty

        def column_fn(k: int) -> FiniteRow:
            nonlocal columns
            if columns is None:
                cols: dict[int, list] = {}
                for i, entries in enumerate(table):
                    for t, w in entries or ():
                        cols.setdefault(t, []).append((i, w))
                columns = {t: FiniteRow(tuple(v)) for t, v in cols.items()}
            return columns.get(k, empty)

        if type(n) is not int:  # None would make the universe infinite
            raise InvalidParams(f"the universe size n must be an integer, "
                                f"got {n!r}")
        s = cls(mode, row_fn=row_fn, universe=n,
                column_fn=column_fn, tol=tol)
        if not isinstance(rows, dict):
            raise ParseError("'rows' must be an object mapping vertex -> "
                             "entries")
        # n is within UNIVERSE_CEILING now
        table: list = [None] * (n + 1)
        targets_of: list = [()] * (n + 1)
        for key, entries in rows.items():
            i = _vertex_key(key, "row")
            if not 1 <= i <= n:
                raise ValidationError(f"row index {i} outside universe 1..{n}")
            if table[i] is not None:
                raise ValidationError(f"row {i} is given twice")
            converted = []
            last = 0
            bad = None  # the first target that does not exceed the last
            try:
                if not isinstance(entries, (list, tuple)):
                    raise ParseError("entries must be a list")
                for e in entries:
                    m = len(e) if isinstance(e, (list, tuple)) else 0
                    if m == 2:
                        k, raw = e
                    elif m == 3:
                        k, raw = e[0], e[1:]
                    else:
                        raise ParseError(f"entries are [target, weight] or "
                                         f"[target, re, im], got {e!r}")
                    if type(k) is not int:
                        raise ParseError(f"target {k!r} is not an integer")
                    if k <= last and bad is None:
                        bad = k
                    last = k
                    # None is never stored, so get() misses
                    key = raw if type(raw) in _LITERALS else None
                    w = scalars.get(key)
                    if w is None:
                        w = as_scalar(raw, mode)
                        if is_zero(w, tol):  # exact scalars ignore tol
                            raise ValidationError(
                                f"zero weight on edge to {k}")
                        if key is not None:
                            scalars[key] = w
                    converted.append((k, w))
                if bad is not None:
                    raise _order_error(bad)
                if last > n:  # the largest target
                    raise ValidationError(f"target {last} outside universe "
                                          f"1..{n}")
            except (ParseError, ValidationError) as e:
                raise type(e)(f"row {i}: {e}") from None
            table[i] = tuple(converted)
            targets_of[i] = tuple([k for k, _w in converted])
        s._targets = targets_of
        # a row given empty is (), not None, so it stays listed
        s.source = {"kind": "explicit", "mode": mode, "n": n,
                    "rows": {i: entries for i, entries in enumerate(table)
                             if entries is not None}}
        return s


# -- budgeted traversals ----------------------------------------------------

class GenerationResult(Record):
    generation: int
    members: frozenset
    truncated: bool


def descendants_generation(s: EvolutionStructure, vertices: Iterable[int],
                           m: int, budget: int) -> GenerationResult:
    """The m-th generation D^m(U) of a vertex set, within an entry budget.

    Generation 0 is U itself.  `budget` counts row entries enumerated,
    summed over all rows and generations.  When the enumeration hits the
    budget, the result is flagged truncated and `members` is a subset of the
    true D^m(U).  Generations after an empty one are empty, so the
    recursion stops at the first empty generation, which comes one step
    past the largest rank in U or past the step that spent the budget,
    however large m is.

    Each generation is a function of the one before, so once one repeats,
    the rest repeat with the same period and the same entry count per
    period.  Brent's cycle detection (Brent 1980) finds such a repeat
    keeping one earlier generation, and the recursion then skips every
    whole period the budget pays for, so a cyclic U costs O(rank + period)
    steps, not m.  Truncation happens exactly where the step-by-step
    recursion would hit it.
    """
    U = sorted(set(vertices))
    for v in U:
        s._check_vertex(v)
    if m < 0:
        raise InvalidParams("generation must be >= 0")
    if m == 0:
        return GenerationResult(0, frozenset(U), False)
    if budget <= 0:
        if U:
            raise BudgetZero("no budget to enumerate any row entry")
        return GenerationResult(m, frozenset(), False)

    left = budget
    truncated = False
    current = set(U)
    # Brent: `saved` is generation `saved_at`, taken with `saved_left` budget
    # left; it moves up to the current one whenever the gap reaches `power`
    saved, saved_at, saved_left, power = current, 0, left, 1
    step = 0
    while step < m and current:
        nxt: set[int] = set()
        for v in sorted(current):
            for k, _w in s.row_of(v):
                if not left:
                    # out of budget: what was collected stays a subset of
                    # the true generation, and so do the later ones; with
                    # nothing left to enumerate, the next one is empty
                    truncated = True
                    break
                left -= 1
                nxt.add(k)
        current = nxt
        step += 1
        if truncated:
            continue  # a cut generation is no function of the one before
        if current == saved:
            # a nonempty repeat: each of its steps read at least one entry
            period, cost = step - saved_at, saved_left - left
            skip = min((m - step) // period, left // cost)
            step += skip * period
            left -= skip * cost
            saved_at, saved_left = step, left
        elif step - saved_at == power:
            saved, saved_at, saved_left, power = current, step, left, 2 * power
    return GenerationResult(m, frozenset(current), truncated)


def cycle_search(s: EvolutionStructure, window: int, budget: int):
    """DFS cycle search on the induced window {1..window}.

    A window covering a finite universe is read in full; elsewhere `budget`
    counts row entries enumerated, each row read once up to its first entry
    beyond the window.  Returns ``(path, completed)``: `path` is a vertex
    cycle ``[v, ..., v]`` (first == last) or None, and `completed` says
    whether the whole window was searched.  A None with ``completed=False``
    proves nothing.
    """
    path, _finished, _targets, completed = window_dfs(s, window, budget)
    return path, completed


def _universe_targets(s: EvolutionStructure, top: int) -> Optional[list]:
    """The target tuples of a :meth:`~EvolutionStructure.from_rows` table,
    indexed by vertex, when {1..top} is the whole finite universe; None
    otherwise, and then rows are read through ``row_of(v).targets_upto(top)``.
    """
    return s._targets if top == s.universe else None


def window_dfs(s: EvolutionStructure, window: int, budget: int):
    """The depth-first search behind :func:`cycle_search`, with what it read.

    Starts from each unvisited vertex of {1..window} in increasing order and
    follows targets in increasing order.  Returns ``(path, finished,
    targets, completed)``: `path` and `completed` as in
    :func:`cycle_search`; `finished` lists the vertices in the order the
    search finished them, each after all of its descendants, so on a
    cycle-free window sinks come first; `targets` maps each vertex read to
    its targets within the window (the table of :func:`_universe_targets`
    where there is one, which also maps the vertices not read).  Iterative
    over int arrays (color, parent, the next target to follow), so long
    paths cannot overflow the interpreter stack.
    """
    top = s.window_top(window)
    left = INFINITE if top == s.universe else budget
    table = _universe_targets(s, top)
    adjacency: Union[list, dict] = {} if table is None else table
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * (top + 1)
    parent = [0] * (top + 1)  # 0: a root of the search
    cursor = [0] * (top + 1)  # the index of the next target to follow
    finished: list[int] = []

    def read(v) -> bool:
        """Read v's row for max(entries, 1); False, with nothing charged,
        when the budget left cannot pay for it (the search stops there)."""
        nonlocal left
        targets, _, used = s.row_of(v).targets_upto(top)
        used = used or 1
        if used > left:
            return False
        left -= used
        adjacency[v] = targets
        return True

    for start in range(1, top + 1):
        if color[start] != WHITE:
            continue
        if table is None and not read(start):
            return None, finished, adjacency, False  # budget exhausted
        color[start] = GRAY
        v = start
        while v:
            targets = adjacency[v]
            for i in range(cursor[v], len(targets)):
                k = targets[i]
                c = color[k]
                if c == WHITE:
                    break
                if c == GRAY:
                    # k is on the current DFS path: walk back up to it
                    path = [v]
                    cur = v
                    while cur != k:
                        cur = parent[cur]
                        path.append(cur)
                    path.reverse()
                    path.append(k)
                    return path, finished, adjacency, True
            else:
                color[v] = BLACK
                finished.append(v)
                v = parent[v]
                continue
            cursor[v] = i + 1
            if table is None and not read(k):
                return None, finished, adjacency, False
            color[k] = GRAY
            parent[k] = v
            v = k
    return None, finished, adjacency, True


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


class DegreeExact(Record):
    d: int


class DegreeAtLeastCap(Record):
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
    top = s.window_top(window)
    lines = ["digraph evolution {"]
    for v in range(1, top + 1):
        lines.append(f"  {v};")
    for v in range(1, top + 1):
        entries, _, _ = s.row_of(v).upto(top)
        for k, w in entries:
            lines.append(f'  {v} -> {k} [label="{scalar_str(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
