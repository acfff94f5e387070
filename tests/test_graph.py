"""Graph layer: rows, budgeted traversals, cycles, degrees, DOT."""
import math
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from evolalg import (
    DegreeAtLeastCap,
    DegreeExact,
    EvolutionStructure,
    FiniteRow,
    LazyRow,
    build_family,
    classify,
    cycle_search,
    degree,
    descendants_generation,
    export_window_dot,
    path_is_valid,
    random_finite_structure,
    triangularize_window,
)
from evolalg import graph
from evolalg.errors import (
    BudgetZero,
    InvalidParams,
    NoColumnAccess,
    NoTailBound,
    ParseError,
    ValidationError,
)
from evolalg.graph import UNIVERSE_CEILING, window_dfs
from evolalg.scalars import EX_ONE, ExactScalar, as_scalar
from evolalg.serialize import parse_structure


def test_finite_row_rejects_bad_targets():
    with pytest.raises(ValidationError):
        FiniteRow(((3, EX_ONE), (2, EX_ONE)))
    with pytest.raises(ValidationError):
        FiniteRow(((2, EX_ONE), (2, EX_ONE)))
    with pytest.raises(ValidationError):
        FiniteRow(((0, EX_ONE),))


def test_lazy_row_prefix_and_window():
    def gen():
        k = 2
        while True:
            yield k, EX_ONE
            k += 2

    row = LazyRow(gen)
    entries, exhausted = row.first(3)
    assert [k for k, _ in entries] == [2, 4, 6]
    assert not exhausted
    entries, exhausted, enumerated = row.upto(5)
    assert [k for k, _ in entries] == [2, 4]
    assert not exhausted
    assert enumerated == 3  # the probe that saw 6 counts


def test_row_methods_on_finite():
    row = FiniteRow(((1, EX_ONE), (4, EX_ONE)))
    assert row.first(5) == ([(1, EX_ONE), (4, EX_ONE)], True)
    assert row.upto(3) == ([(1, EX_ONE)], False, 2)
    assert row.upto(4) == ([(1, EX_ONE), (4, EX_ONE)], True, 2)


@settings(max_examples=200, deadline=None)
@given(targets=st.lists(st.integers(1, 60), unique=True, max_size=12),
       top=st.integers(0, 70))
def test_targets_upto_agrees_with_upto(targets, top):
    entries = tuple((k, EX_ONE) for k in sorted(targets))
    for row in (FiniteRow(entries), LazyRow(lambda: iter(entries))):
        got, exhausted, enumerated = row.targets_upto(top)
        want, want_exhausted, want_enumerated = row.upto(top)
        assert list(got) == [k for k, _ in want]
        assert (exhausted, enumerated) == (want_exhausted, want_enumerated)


def test_finite_and_lazy_rows_answer_alike():
    half = ExactScalar.from_rational(Fraction(1, 2))
    entries = ((2, EX_ONE), (5, half), (9, EX_ONE))
    finite = FiniteRow(entries)
    lazy = LazyRow(lambda: iter(entries))
    for row in (finite, lazy):
        assert list(row) == list(entries)
        assert row.first(2) == (list(entries[:2]), False)
        assert row.upto(5) == (list(entries[:2]), False, 3)
        assert list(row.prefix(cutoff=20)[0]) == list(entries)
        assert row.prefix(cutoff=20)[1]
        assert row.tail_sq(9) == row.tail_abs(9) == 0
    # past the cutoff a finite row still answers in full, a lazy one does not
    assert finite.tail_sq(4) == Fraction(5, 4)
    assert finite.tail_abs(4) == Fraction(3, 2)
    with pytest.raises(NoTailBound):
        lazy.tail_sq(4)
    assert lazy.tail_abs(4) is None
    assert finite.prefix(cutoff=4) == (entries, True)
    assert lazy.prefix(cutoff=4) == ([(2, EX_ONE)], False)


def test_comb_generations_frozen():
    comb = build_family("comb")
    g1 = descendants_generation(comb, [2], 1, 100)
    assert sorted(g1.members) == [1, 3, 5]
    assert not g1.truncated
    g2 = descendants_generation(comb, [2], 2, 100)
    assert sorted(g2.members) == [4]
    g3 = descendants_generation(comb, [2], 3, 100)
    assert g3.members == frozenset()


def test_generation_truncation_is_a_subset():
    mk = build_family("markov_line")
    g = descendants_generation(mk, [1], 1, 3)
    assert g.truncated
    assert sorted(g.members) == [2, 3, 4]


def test_generation_stops_at_the_first_empty_one():
    # vertex 2 of growing_teeth has rank 1: D^2(2) is empty, and so is every
    # later generation, which must not cost a step each
    gt = build_family("growing_teeth")
    start = time.perf_counter()
    g = descendants_generation(gt, [2], 10**9, 1000)
    assert time.perf_counter() - start < 1.0
    assert g.members == frozenset() and not g.truncated
    assert g.generation == 10**9
    # a run cut short by its budget stops one generation later
    mk = build_family("markov_line")
    g = descendants_generation(mk, [1], 10**9, 3)
    assert g.truncated and g.members == frozenset()


def test_generation_budget_zero():
    comb = build_family("comb")
    with pytest.raises(BudgetZero):
        descendants_generation(comb, [2], 1, 0)
    g = descendants_generation(comb, [], 2, 0)
    assert g.members == frozenset()


def _plain_generation(s, vertices, m, budget):
    """D^m(U) one generation at a time, with the budget spent as
    descendants_generation spends it: (members, truncated)."""
    left, truncated, current = budget, False, set(vertices)
    for _ in range(m):
        if not current:
            break
        nxt = set()
        for v in sorted(current):
            for k, _w in s.row_of(v):
                if not left:
                    truncated = True
                    break
                left -= 1
                nxt.add(k)
        current = nxt
    return frozenset(current), truncated


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2999), m=st.integers(1, 40),
       budget=st.integers(1, 200), data=st.data())
def test_generation_composition_on_finite(seed, m, budget, data):
    # random structures are small and often cyclic, so generations repeat
    # and the periods they skip must give what D^m = D(D^{m-1}) gives
    s = random_finite_structure(seed)
    U = data.draw(st.sets(st.integers(1, s.universe), min_size=1))
    g = descendants_generation(s, U, m, 10**6)
    assert not g.truncated
    assert (g.members, False) == _plain_generation(s, U, m, 10**6)
    # a budgeted run is cut where the plain loop is, and yields a subset
    small = descendants_generation(s, U, m, budget)
    assert (small.members, small.truncated) == \
        _plain_generation(s, U, m, budget)
    assert small.members <= g.members


def test_generation_of_a_cycle_skips_its_periods(cap_row_reads):
    two = cap_row_reads(
        EvolutionStructure.from_rows({1: [(2, 1)], 2: [(1, 1)]}, 2))
    hub = cap_row_reads(build_family("hub_line"))  # 3 -> {2, 3} forever
    assert descendants_generation(two, [1], 10**9, 10**12).members == {1}
    assert descendants_generation(two, [1], 10**9 + 1, 10**12).members == {2}
    assert descendants_generation(hub, [3], 10**9, 10**12).members == {2, 3}
    # a budget that runs out inside the skipped periods still truncates
    g = descendants_generation(two, [1], 10**9, 10**6)
    assert g.truncated and g.members == frozenset()
    g = descendants_generation(two, [1], 10**6, 10**6)
    assert not g.truncated and g.members == {1}


def test_cycle_search_results():
    hub = build_family("hub_line")
    assert cycle_search(hub, 4, 1000) == ([2, 2], True)
    comb = build_family("comb")
    path, completed = cycle_search(comb, 30, 10**5)
    assert path is None and completed
    two = EvolutionStructure.from_rows({1: [(2, 1)], 2: [(1, 1)]}, 2)
    path, completed = cycle_search(two, 2, 100)
    assert completed and path[0] == path[-1] and len(path) == 3
    # starved search proves nothing
    path, completed = cycle_search(comb, 30, 1)
    assert path is None and not completed


@st.composite
def finite_specs(draw):
    """(n, rows) with n <= 60: forward edges only, so a DAG, unless a cycle
    is planted; some vertices are given empty rows, the rest none."""
    n = draw(st.integers(1, 60))
    rows = {}
    for v in draw(st.sets(st.integers(1, n))):
        rows[v] = draw(st.sets(st.integers(v + 1, n), max_size=4)
                       if v < n else st.just(set()))
    if draw(st.booleans()):
        cycle = draw(st.lists(st.integers(1, n), min_size=1, max_size=6,
                              unique=True))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rows.setdefault(a, set()).add(b)
    return n, {v: [[t, 1] for t in sorted(ts)] for v, ts in rows.items()}


@settings(max_examples=300, deadline=None)
@given(spec=finite_specs(), data=st.data())
def test_table_and_row_readers_decide_alike(spec, data):
    # from_rows searches read its target table when the window is the
    # whole universe; a plain row_fn over the same rows goes through row_of
    n, rows = spec
    s = EvolutionStructure.from_rows(rows, n)
    plain = EvolutionStructure("exact", row_fn=s.row_of, universe=n)
    window = data.draw(st.one_of(st.just(n), st.integers(1, n)))
    # small budgets run out inside the search; the largest never does
    budget = data.draw(st.one_of(st.integers(1, 2 * n + 8),
                                 st.integers(1, n * n + n + 8)))
    path, finished, targets, completed = window_dfs(s, window, budget)
    expected = window_dfs(plain, window, budget)
    assert (path, finished, completed) == \
        (expected[0], expected[1], expected[3])
    assert {v: targets[v] for v in expected[2]} == expected[2]
    assert cycle_search(s, window, budget) == \
        cycle_search(plain, window, budget)
    assert triangularize_window(s, window) == \
        triangularize_window(plain, window)
    assert classify(s) == classify(plain)


def _sparse_rows(n, cyclic):
    rows = {v: [[t, "1/2"] for t in (v + 1, v + 3) if t <= n]
            for v in range(1, n + 1) if v % 7}
    if cyclic:
        rows[n - 100] = [[n - 400, 1]] + rows[n - 100]
    return rows


@pytest.mark.parametrize("cyclic", [False, True])
def test_whole_universe_decisions_read_no_row(cap_row_reads, cyclic):
    n = 2000
    s = cap_row_reads(EvolutionStructure.from_rows(_sparse_rows(n, cyclic),
                                                   n), cap=0)
    report = classify(s)
    assert (report.nil.status == "no") == cyclic
    tri = triangularize_window(s, n)
    assert type(tri).__name__ == ("CycleFound" if cyclic else "Permutation")
    path, completed = cycle_search(s, n, 8 * n + 8)
    assert completed and (path is not None) == cyclic


@pytest.mark.parametrize("cyclic", [False, True])
def test_whole_universe_windows_are_read_in_full(cyclic):
    # a window covering a finite universe is searched to the end whatever
    # the budget, through the from_rows table and through row_of alike
    n = 500
    s = EvolutionStructure.from_rows(_sparse_rows(n, cyclic), n)
    plain = EvolutionStructure("exact", row_fn=s.row_of, universe=n)
    for t in (s, plain):
        full = window_dfs(t, n, n * n)
        assert full[3] and (full[0] is not None) == cyclic
        assert window_dfs(t, n, 1) == full
        assert cycle_search(t, n, 1) == cycle_search(t, n, n * n) \
            == (full[0], True)
    # a partial window is still charged
    assert cycle_search(s, n - 1, 1) == (None, False)


def test_path_is_valid():
    comb = build_family("comb")
    assert path_is_valid(comb, [2, 3, 4])
    assert not path_is_valid(comb, [2, 4])
    # a path is a sequence of edges: singletons carry no evidence
    assert not path_is_valid(comb, [6])
    assert not path_is_valid(comb, [])


def test_degree():
    comb = build_family("comb")
    mk = build_family("markov_line")
    assert degree(comb, 2, "out", 10) == DegreeExact(3)
    assert degree(comb, 1, "out", 10) == DegreeExact(0)
    assert degree(comb, 1, "in", 10) == DegreeExact(1)
    assert degree(mk, 1, "out", 5) == DegreeAtLeastCap(5)
    with pytest.raises(InvalidParams):
        degree(comb, 2, "sideways", 3)


def test_degree_needs_columns():
    bare = EvolutionStructure("exact", row_fn=lambda i: FiniteRow(()), universe=3)
    with pytest.raises(NoColumnAccess):
        degree(bare, 1, "in", 5)


def test_from_rows_validation():
    with pytest.raises(ValidationError):
        EvolutionStructure.from_rows({1: [(5, 1)]}, 3)
    with pytest.raises(ValidationError):
        EvolutionStructure.from_rows({1: [(2, 0)]}, 3)
    with pytest.raises(ValidationError):
        EvolutionStructure.from_rows({1: [(3, 1), (2, 1)]}, 3)


def test_from_rows_reads_keys_as_decimal_integers():
    for key in (1.9, True, 1.0, None, (1,), " 3 ", "1_0", "+1", "", "-",
                "\u0661", "1" * 5000):
        with pytest.raises(ParseError, match="^row key "):
            EvolutionStructure.from_rows({key: [[2, 1]]}, 2)
    for key in ("0", "-1", 0, 3):
        with pytest.raises(ValidationError, match="outside universe"):
            EvolutionStructure.from_rows({key: []}, 2)
    with pytest.raises(ValidationError, match="given twice"):
        EvolutionStructure.from_rows({1: [], "01": []}, 2)
    s = EvolutionStructure.from_rows({"3": [], 1: [[2, 1]]}, 4)
    # in vertex order, rows given empty listed, absent ones not
    assert list(s.source["rows"].items()) == [(1, ((2, EX_ONE),)), (3, ())]
    assert s.row_of(3) == s.row_of(4) == FiniteRow(())


def _count_as_scalar(monkeypatch):
    calls = []

    def counted(value, mode):
        calls.append(value)
        return as_scalar(value, mode)

    monkeypatch.setattr(graph, "as_scalar", counted)
    return calls


def test_from_rows_reads_each_literal_once(monkeypatch):
    literals = ["1", "-1/2", "3/7", "1/3+1/2*sqrt2", "5", "-2/9", "7/4"]
    n = 2000
    rows = {str(i): [[i + 1, literals[i % 7]], [i + 2, literals[i * i % 7]]]
            for i in range(1, n - 1)}
    calls = _count_as_scalar(monkeypatch)
    s = EvolutionStructure.from_rows(rows, n)
    assert sorted(calls) == sorted(literals)
    # every entry holds the scalar as_scalar gives its literal
    for i in (1, 2, 777, n - 2):
        assert s.row_of(i).entries == tuple(
            (t, as_scalar(w, "exact")) for t, w in rows[str(i)])
    # ints and strings are literals, and an int is not its string
    calls.clear()
    s = EvolutionStructure.from_rows(
        {1: [[2, 1], [3, "1"]], 2: [[3, 1], [4, "1"]], 3: [[4, 1]]}, 4)
    assert calls == [1, "1"]
    assert s.row_of(2).entries == ((3, EX_ONE), (4, EX_ONE))
    # other weights are converted entry by entry
    calls.clear()
    EvolutionStructure.from_rows(
        {i: [(i + 1, Fraction(1, 2))] for i in range(1, n)}, n)
    assert len(calls) == n - 1


def test_interned_literals_keep_their_refusals():
    # 1.0 and True equal 1 and hash alike, yet exact mode refuses them
    for bad in ("1.0", "true"):
        with pytest.raises(ParseError, match="^row 2: "):
            parse_structure(
                f'{{"n": 3, "rows": {{"1": [[2, 1]], "2": [[3, {bad}]]}}}}')
    # a repeated zero is refused in the first row that holds it
    rows = {"3": [[1, "1"]], "1": [[2, "0"]], "2": [[3, "0"]]}
    with pytest.raises(ValidationError, match="^row 1: zero weight on edge "
                                              "to 2$"):
        EvolutionStructure.from_rows(rows, 3)
    # and so is a repeated literal within tol in float mode
    rows = {"1": [[2, "1"], [3, "1/10000000000"]], "2": [[3, "1/10000000000"]]}
    with pytest.raises(ValidationError, match="^row 1: zero weight on edge "
                                              "to 3$"):
        EvolutionStructure.from_rows(rows, 3, mode="float", tol=1e-9)
    kept = EvolutionStructure.from_rows(rows, 3, mode="float", tol=1e-12)
    assert kept.row_of(2).entries == ((3, 1e-10 + 0j),)


def test_finite_universe_ceiling():
    assert EvolutionStructure.from_rows({}, UNIVERSE_CEILING).universe == \
        UNIVERSE_CEILING
    # refused before any per-vertex state is built
    for n in (UNIVERSE_CEILING + 1, 10**12):
        with pytest.raises(InvalidParams, match="UNIVERSE_CEILING"):
            EvolutionStructure.from_rows({}, n)


def test_export_window_dot_frozen():
    comb = build_family("comb")
    assert export_window_dot(comb, 4) == (
        "digraph evolution {\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        "  4;\n"
        '  2 -> 1 [label="1"];\n'
        '  2 -> 3 [label="1"];\n'
        '  3 -> 4 [label="1"];\n'
        "}\n"
    )


def test_vertex_bounds_checked():
    two = EvolutionStructure.from_rows({1: [(2, 1)]}, 2)
    with pytest.raises(InvalidParams):
        two.row_of(3)
    with pytest.raises(InvalidParams):
        two.row_of(0)


def test_float_path_is_valid_uses_tol():
    rows = {1: [(2, 1e-13), (3, 1.0)], 2: [], 3: []}
    # from_rows refuses a weight at or below tol, so build the rows directly
    row1 = FiniteRow(((2, 1e-13 + 0j), (3, 1 + 0j)))
    s = EvolutionStructure("float", lambda i: row1 if i == 1 else FiniteRow(()),
                           3, tol=1e-9)
    assert path_is_valid(s, [1, 3])
    assert not path_is_valid(s, [1, 2])
    strict = EvolutionStructure.from_rows(rows, 3, mode="float", tol=1e-15)
    assert path_is_valid(strict, [1, 2])


def test_float_from_rows_refuses_weights_within_tol():
    # accepted, the 1e-13 edge would close a cycle for the graph code while
    # every tol-aware consumer (brute force: nilpotent, index 3) drops it
    rows = {1: [(2, 1e-13)], 2: [(1, 1.0)]}
    with pytest.raises(ValidationError, match="zero weight on edge to 2"):
        EvolutionStructure.from_rows(rows, 2, mode="float", tol=1e-9)
    with pytest.raises(ValidationError):
        EvolutionStructure.from_rows({1: [(2, 1e-9j)]}, 2, mode="float",
                                     tol=1e-9)
    kept = EvolutionStructure.from_rows(rows, 2, mode="float", tol=1e-15)
    assert cycle_search(kept, 2, 16) == ([1, 2, 1], True)


def test_float_from_rows_refuses_weights_that_are_not_finite():
    for w in (math.nan, math.inf, -math.inf, complex(1, math.inf)):
        with pytest.raises(ValidationError, match="not finite"):
            EvolutionStructure.from_rows({1: [(2, w)]}, 2, mode="float")
    big = EvolutionStructure.from_rows({1: [(2, 1e308)]}, 2, mode="float")
    assert big.row_of(1).entries == ((2, 1e308 + 0j),)
