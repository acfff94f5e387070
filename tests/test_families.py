"""Built-in structure families: layouts, weights, tails, metadata honesty."""
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from evolalg import (
    DepthExact,
    DepthInfinite,
    FamilySpec,
    build_family,
    comb_hub,
    comb_vertex_kind,
    cycle_search,
    depth,
    family_depth_oracle,
    growing_teeth_depth,
    growing_teeth_hub,
    growing_teeth_tooth,
    list_families,
    markov_weight,
    path_is_valid,
    rary_children,
    rary_parent,
    tree_id,
    tree_label,
)
from evolalg.errors import InvalidParams, OracleUnavailable
from evolalg.graph import INFINITE

ALL = ("alt_line_B", "alt_line_C0", "comb", "growing_teeth", "hub_line",
       "markov_line", "rary_tree")
CYCLE_FREE = ("comb", "growing_teeth", "markov_line", "rary_tree")
CYCLIC = ("alt_line_B", "alt_line_C0", "hub_line")


def targets(row, window=10**9):
    entries, _, _ = row.upto(window)
    return [k for k, _ in entries]


def test_list_families():
    assert list_families() == sorted(ALL + ("finite_explicit",))


def test_build_family_spec_forms():
    a = build_family("markov_line", {"ratio": "1/3"})
    b = build_family(FamilySpec("markov_line", {"ratio": "1/3"}))
    assert a.source == b.source
    with pytest.raises(InvalidParams):
        build_family(FamilySpec("comb"), {"x": 1})
    with pytest.raises(InvalidParams):
        build_family("no_such_family")
    with pytest.raises(InvalidParams):
        build_family("comb", {"teeth": 3})


def test_comb_layout_frozen():
    assert [comb_hub(k) for k in (1, 2, 3, 4)] == [2, 6, 10, 14]
    assert [comb_vertex_kind(i) for i in range(1, 9)] == \
        ["sink", "hub", "mid", "top", "sink", "hub", "mid", "top"]
    comb = build_family("comb")
    assert targets(comb.row_of(2)) == [1, 3, 5]
    assert targets(comb.row_of(6)) == [5, 7, 9]
    assert targets(comb.row_of(3)) == [4]
    assert targets(comb.row_of(1)) == []
    assert targets(comb.row_of(4)) == []
    # the sink between two hubs is fed by both
    assert targets(comb.column_of(5)) == [2, 6]
    assert targets(comb.column_of(1)) == [2]
    assert targets(comb.column_of(4)) == [3]


def test_growing_teeth_layout_frozen():
    assert [growing_teeth_hub(k) for k in range(1, 10)] == \
        [2, 5, 9, 14, 20, 27, 35, 44, 54]
    assert growing_teeth_tooth(3) == [9, 10, 11, 12]
    gt = build_family("growing_teeth")
    assert targets(gt.row_of(2)) == [1, 3, 4]
    assert targets(gt.row_of(5)) == [4, 6, 8]
    assert targets(gt.row_of(9)) == [8, 10, 13]
    assert targets(gt.row_of(10)) == [11]   # tooth step
    assert targets(gt.row_of(12)) == []     # tooth end
    assert targets(gt.column_of(4)) == [2, 5]
    assert targets(gt.column_of(1)) == [2]
    assert [growing_teeth_depth(i) for i in range(1, 15)] == \
        [0, 1, 0, 0, 2, 1, 0, 0, 3, 2, 1, 0, 0, 4]
    # the depth of hub k is exactly k, realized along its tooth
    for k in (1, 2, 3, 4, 5):
        h = growing_teeth_hub(k)
        assert family_depth_oracle("growing_teeth", h) == k
        assert path_is_valid(gt, growing_teeth_tooth(k))


def test_markov_line_weights_and_tails():
    mk = build_family("markov_line")
    # markov_weight(j, q) = (1-q) q^(j-2) is the weight of edge 1 -> j
    assert markov_weight(2, Fraction(1, 2)) == Fraction(1, 2)
    assert markov_weight(4, Fraction(1, 2)) == Fraction(1, 8)
    row1 = mk.row_of(1)
    assert [str(w.re) for _, w in row1.first(4)[0]] == \
        ["1/2", "1/4", "1/8", "1/16"]
    assert row1.tail_sq(5) == Fraction(1, 768)
    assert row1.tail_abs(5) == Fraction(1, 16)
    assert targets(mk.row_of(2)) == [3]
    assert targets(mk.column_of(1)) == []
    assert targets(mk.column_of(2)) == [1]
    assert targets(mk.column_of(5)) == [1, 4]
    third = build_family("markov_line", {"ratio": "1/3"})
    assert [str(w.re) for _, w in third.row_of(1).first(3)[0]] == \
        ["2/3", "2/9", "2/27"]
    for bad in ("0", "1", "-1/2", "5/3"):
        with pytest.raises(InvalidParams):
            build_family("markov_line", {"ratio": bad})


def test_markov_tail_bounds_are_true_bounds():
    q = Fraction(1, 2)
    for n in (1, 3, 7):
        exact_sq = sum((markov_weight(j, q)) ** 2 for j in range(n + 1, n + 200))
        exact_abs = sum(markov_weight(j, q) for j in range(n + 1, n + 200))
        mk = build_family("markov_line")
        assert mk.row_of(1).tail_sq(n) >= exact_sq
        assert mk.row_of(1).tail_abs(n) >= exact_abs


def test_hub_line_weights():
    hub = build_family("hub_line")
    assert [(k, str(w.re)) for k, w in hub.row_of(1).first(4)[0]] == \
        [(2, "1/2"), (3, "1/4"), (4, "1/8"), (5, "1/16")]
    paired = build_family("hub_line", {"alpha": "paired"})
    assert [(k, str(w.re)) for k, w in paired.row_of(1).first(5)[0]] == \
        [(2, "1/4"), (3, "1/4"), (4, "1/16"), (5, "1/16"), (6, "1/64")]
    # shared envelope alpha_l <= 2^-(l-1) backs both tail bounds
    for fam in (hub, paired):
        assert fam.row_of(1).tail_sq(3) == Fraction(1, 48)
        assert fam.row_of(1).tail_abs(3) == Fraction(1, 4)
    assert targets(hub.row_of(3)) == [2, 3]
    assert targets(hub.row_of(4)) == [4, 5]
    assert targets(hub.column_of(4))[0:1] == [1]
    with pytest.raises(InvalidParams):
        build_family("hub_line", {"alpha": "random"})


def test_alt_line_rows():
    b = build_family("alt_line_B")
    assert targets(b.row_of(1)) == [2, 3]
    assert targets(b.row_of(2)) == [2, 3]
    assert targets(b.row_of(5)) == [6, 7]
    assert targets(b.column_of(3)) == [1, 2]
    c0 = build_family("alt_line_C0")
    assert targets(c0.row_of(1)) == [1, 2, 3, 4]
    assert targets(c0.row_of(2)) == [1, 2, 3, 4]
    assert targets(c0.row_of(3)) == [3, 4, 5, 6]
    signs = [w.re.sign() for _, w in c0.row_of(1).entries]
    assert signs == [1, 1, 1, -1]


def test_rary_tree_navigation():
    assert rary_children(1, 2) == [2, 3]
    assert rary_parent(5, 2) == 2
    assert tree_label(1, 2) == "1"
    assert tree_label(5, 2) == "112"
    tree = build_family("rary_tree", {"r": 3})
    assert targets(tree.row_of(1)) == [2, 3, 4]
    assert targets(tree.column_of(6)) == [2]
    with pytest.raises(InvalidParams):
        build_family("rary_tree", {"r": 1})


@settings(max_examples=80, deadline=None)
@given(v=st.integers(1, 10**6), r=st.integers(2, 12))
def test_tree_label_roundtrip(v, r):
    lbl = tree_label(v, r)
    assert tree_id(lbl, r) == v
    if v > 1:
        parent = rary_parent(v, r)
        assert v in rary_children(parent, r)


@pytest.mark.parametrize("name", ALL)
def test_rows_and_columns_transpose_consistently(name):
    s = build_family(name)
    window = 40
    from_rows = {}
    for i in range(1, window + 1):
        entries, _, _ = s.row_of(i).upto(window)
        for k, w in entries:
            from_rows[(i, k)] = w
    from_cols = {}
    for k in range(1, window + 1):
        entries, _, _ = s.column_of(k).upto(window)
        for i, w in entries:
            from_cols[(i, k)] = w
    assert from_rows == from_cols


@pytest.mark.parametrize("name", CYCLE_FREE)
def test_cycle_free_metadata_is_honest(name):
    s = build_family(name)
    assert s.meta.cycle_free is True
    path, completed = cycle_search(s, 48, 10**6)
    assert completed and path is None


@pytest.mark.parametrize("name", CYCLIC)
def test_cyclic_families_expose_a_cycle(name):
    s = build_family(name)
    assert s.meta.cycle_free is False
    path, completed = cycle_search(s, 8, 10**6)
    assert completed and path is not None
    assert path[0] == path[-1]
    assert path_is_valid(s, path)


def test_depth_oracles_match_search_where_exact():
    comb = build_family("comb")
    gt = build_family("growing_teeth")
    for i in range(1, 21):
        assert depth(comb, i, 12) == DepthExact(family_depth_oracle("comb", i))
        assert depth(gt, i, 24) == DepthExact(family_depth_oracle("growing_teeth", i))
    hub = build_family("hub_line")
    for i in range(2, 12):
        assert depth(hub, i, 12) == DepthExact(1)
    assert family_depth_oracle("markov_line", 2) == INFINITE
    assert depth(build_family("markov_line"), 2, 6, use_oracle=True) == \
        DepthInfinite("family_oracle")
    assert family_depth_oracle("rary_tree", 17) == INFINITE


def test_depth_oracle_unavailable_for_explicit():
    with pytest.raises(OracleUnavailable):
        family_depth_oracle(
            FamilySpec("finite_explicit", {"rows": {1: [(2, 1)]}, "n": 2}), 1)


def test_finite_explicit_family():
    s = build_family("finite_explicit",
                     {"rows": {1: [(2, "1/2")]}, "n": 2})
    assert s.universe == 2
    assert targets(s.row_of(1)) == [2]
    with pytest.raises(InvalidParams):
        build_family("finite_explicit", {"n": 2})
