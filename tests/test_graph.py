"""Graph layer: rows, budgeted traversals, depth, cycles, degrees, DOT."""
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from evolalg import (
    DegreeAtLeastCap,
    DegreeExact,
    DepthAtLeast,
    DepthExact,
    DepthInfinite,
    EvolutionStructure,
    FiniteRow,
    LazyRow,
    build_family,
    cycle_search,
    degree,
    depth,
    descendants_generation,
    export_window_dot,
    family_depth_oracle,
    path_is_valid,
    random_finite_structure,
)
from evolalg.errors import (
    BudgetZero,
    InvalidParams,
    NoColumnAccess,
    NoTailBound,
    ValidationError,
)
from evolalg.scalars import EX_ONE, ExactScalar


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
    assert lazy.prefix(probe=1) == ([(2, EX_ONE)], False)


def test_comb_generations_frozen():
    comb = build_family("comb")
    g1 = descendants_generation(comb, [2], 1, 100)
    assert sorted(g1.members) == [1, 3, 5]
    assert not g1.truncated
    g2 = descendants_generation(comb, [2], 2, 100)
    assert sorted(g2.members) == [4]
    assert g2.first_hit == {1: 1, 3: 1, 5: 1, 4: 2}
    g3 = descendants_generation(comb, [2], 3, 100)
    assert g3.members == frozenset()


def test_generation_truncation_is_a_subset():
    mk = build_family("markov_line")
    g = descendants_generation(mk, [1], 1, 3)
    assert g.truncated
    assert sorted(g.members) == [2, 3, 4]


def test_generation_budget_zero():
    comb = build_family("comb")
    with pytest.raises(BudgetZero):
        descendants_generation(comb, [2], 1, 0)
    g = descendants_generation(comb, [], 2, 0)
    assert g.members == frozenset()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 999), m=st.integers(1, 4), data=st.data())
def test_generation_composition_on_finite(seed, m, data):
    s = random_finite_structure(seed)
    start = data.draw(st.integers(1, s.universe))
    big = 10**6
    g = descendants_generation(s, [start], m, big)
    assert not g.truncated
    # D^{m} = D(D^{m-1}), computed independently step by step
    cur = {start}
    for _ in range(m):
        nxt = set()
        for v in cur:
            nxt.update(k for k, _ in s.row_of(v).entries)
        cur = nxt
    assert g.members == frozenset(cur)
    # any budgeted run yields a subset
    small = descendants_generation(s, [start], m, 2)
    assert small.members <= g.members
    # first_hit is the BFS distance from the start
    for v, d in g.first_hit.items():
        assert 1 <= d <= m
        assert v in descendants_generation(s, [start], d, big).members
        for earlier in range(1, d):
            assert v not in descendants_generation(s, [start], earlier, big).members


def test_depth_frozen_values():
    comb = build_family("comb")
    assert depth(comb, 2, 8) == DepthExact(2)
    assert depth(comb, 1, 5) == DepthExact(0)  # sinks have depth 0
    assert depth(comb, 3, 5) == DepthExact(1)
    # budget-starved: frontier still alive after 2 levels
    assert depth(comb, 2, 2) == DepthAtLeast(2)


def test_depth_atleast_is_a_path_length_not_an_eccentricity():
    # vertex 1 of the markov line has every descendant at distance 1 (the
    # first row touches all of them), yet bounded search keeps finding longer
    # and longer paths through the chain: AtLeast reports path evidence only.
    mk = build_family("markov_line")
    assert depth(mk, 2, 10) == DepthAtLeast(10)
    assert depth(mk, 1, 5) == DepthAtLeast(5)
    assert family_depth_oracle("markov_line", 1) == 1


def test_depth_oracle_shortcircuits_infinite():
    mk = build_family("markov_line")
    assert depth(mk, 2, 10, use_oracle=True) == DepthInfinite("family_oracle")
    with pytest.raises(InvalidParams):
        depth(mk, 2, 0)


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


def test_depth_reads_wide_finite_rows_in_full():
    # 198 entries exceed the lazy-row cap of 64 + 4*budget
    wide = FiniteRow(tuple((k, EX_ONE) for k in range(2, 200)))
    s = EvolutionStructure("exact", lambda i: wide if i == 1 else FiniteRow(()))
    assert depth(s, 1, budget=3) == DepthExact(1)


def test_float_path_is_valid_uses_tol():
    rows = {1: [(2, 1e-13), (3, 1.0)], 2: [], 3: []}
    s = EvolutionStructure.from_rows(rows, 3, mode="float", tol=1e-9)
    assert path_is_valid(s, [1, 3])
    assert not path_is_valid(s, [1, 2])
    strict = EvolutionStructure.from_rows(rows, 3, mode="float", tol=1e-15)
    assert path_is_valid(strict, [1, 2])
