"""Classification, witnesses, triangularization, and the brute-force oracle."""
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from evolalg import (
    Blocked,
    BruteForceReport,
    CycleFound,
    CycleWitness,
    Element,
    EvolutionStructure,
    FiniteRow,
    IndexAtLeast,
    IndexExact,
    IndexInfinite,
    LongPath,
    Permutation,
    RayPrefix,
    UnboundedDepthSequence,
    Verdict,
    brute_force_nilpotent,
    build_family,
    classify,
    cycle_search,
    nilpotency_index,
    permutation_is_strictly_lower,
    random_finite_structure,
    triangularize_window,
    validate_witness,
)
from evolalg.errors import BudgetZero, InvalidParams


def two_cycle():
    return EvolutionStructure.from_rows({1: [(2, 1)], 2: [(1, 1)]}, 2)


def shift_pair():
    return EvolutionStructure.from_rows({1: [(2, 1)]}, 2)


def test_verdict_refuses_truthiness():
    v = Verdict("yes", True, "reason")
    with pytest.raises(TypeError):
        bool(v)


def test_classify_comb():
    r = classify(build_family("comb"))
    assert (r.nil.status, r.nilpotent.status) == ("yes", "yes")
    assert r.nil.certified and r.nilpotent.certified
    assert r.index == IndexExact(4)


def test_classify_growing_teeth():
    r = classify(build_family("growing_teeth"))
    assert (r.nil.status, r.nilpotent.status) == ("yes", "no")
    assert r.index == IndexInfinite()
    w = r.nilpotent.witness
    assert isinstance(w, UnboundedDepthSequence)
    assert len(w.pairs) == 9
    assert w.pairs[:4] == ((2, 1), (5, 2), (9, 3), (14, 4))
    assert validate_witness(build_family("growing_teeth"), w)


def test_classify_markov_line():
    mk = build_family("markov_line")
    r = classify(mk)
    assert (r.nil.status, r.nilpotent.status) == ("no", "no")
    assert r.index == IndexInfinite()
    w = r.nil.witness
    assert isinstance(w, RayPrefix)
    assert w.vertices[:5] == (2, 3, 4, 5, 6)
    assert validate_witness(mk, w)


def test_classify_rary_tree_ray_follows_first_child():
    r = classify(build_family("rary_tree"))
    assert (r.nil.status, r.nilpotent.status) == ("no", "no")
    assert r.nil.witness.vertices[:5] == (1, 2, 4, 8, 16)


@pytest.mark.parametrize("name,cyc", [
    ("hub_line", (2, 2)), ("alt_line_B", (2, 2)), ("alt_line_C0", (1, 1)),
])
def test_classify_cyclic_families(name, cyc):
    s = build_family(name)
    r = classify(s)
    assert (r.nil.status, r.nilpotent.status) == ("no", "no")
    assert r.index == IndexInfinite()
    assert r.nil.witness == CycleWitness(cyc)
    assert r.nilpotent.witness == CycleWitness(cyc)
    assert validate_witness(s, r.nil.witness)


@pytest.mark.parametrize("budget", [4, 16, 64, 256])
def test_classify_stable_across_budgets(budget):
    for name, expect in [
        ("comb", ("yes", "yes")),
        ("growing_teeth", ("yes", "no")),
        ("markov_line", ("no", "no")),
        ("hub_line", ("no", "no")),
    ]:
        r = classify(build_family(name), budget=budget)
        assert (r.nil.status, r.nilpotent.status) == expect


def test_classify_budget_validation():
    with pytest.raises(BudgetZero):
        classify(build_family("comb"), budget=0)
    with pytest.raises(InvalidParams):
        classify(build_family("comb"), budget=-3)


def test_classify_finite_exact():
    r = classify(two_cycle())
    assert (r.nil.status, r.nilpotent.status) == ("no", "no")
    assert isinstance(r.nil.witness, CycleWitness)
    assert r.index == IndexInfinite()
    r = classify(shift_pair())
    assert (r.nil.status, r.nilpotent.status) == ("yes", "yes")
    assert r.index == IndexExact(3)


def test_classify_without_metadata_is_inconclusive():
    # an infinite structure with no family facts: only evidence, no verdict
    one = shift_pair().row_of(1).entries[0][1]
    s = EvolutionStructure("exact", lambda i: FiniteRow(((i + 1, one),)))
    r = classify(s, budget=16)
    assert r.nil.status == "inconclusive"
    assert r.nilpotent.status == "inconclusive"
    assert not r.nil.certified
    # best effort evidence: the longest path the budget could find
    assert isinstance(r.nilpotent.witness, LongPath)
    assert r.index == IndexAtLeast(len(r.nilpotent.witness.path) + 1)
    assert validate_witness(s, r.nilpotent.witness)


def test_tampered_witnesses_rejected():
    mk = build_family("markov_line")
    gt = build_family("growing_teeth")
    assert not validate_witness(mk, RayPrefix((2, 3, 5)))      # missing edge
    assert not validate_witness(mk, RayPrefix((2, 2, 3)))      # repeated vertex
    assert not validate_witness(gt, UnboundedDepthSequence(((2, 1), (5, 1))))
    assert not validate_witness(gt, UnboundedDepthSequence(((2, 2), (5, 3))))
    assert not validate_witness(build_family("comb"), CycleWitness((2, 3, 2)))
    assert not validate_witness(two_cycle(), CycleWitness((1, 2)))  # not closed
    assert not validate_witness(two_cycle(), CycleWitness((1, 1)))  # no loop
    assert validate_witness(two_cycle(), CycleWitness((1, 2, 1)))
    assert validate_witness(mk, LongPath((2, 3, 4)))
    assert not validate_witness(mk, LongPath((2, 4)))


def test_triangularize_frozen():
    comb = build_family("comb")
    res = triangularize_window(comb, 12)
    assert res == Permutation((1, 4, 3, 5, 2, 8, 7, 9, 6, 12, 11, 10))
    assert permutation_is_strictly_lower(comb, res.order, 12)
    assert not permutation_is_strictly_lower(comb, tuple(range(1, 13)), 12)
    # lazy first row is exempt from the window rule: its stragglers never
    # descend back inside, so removal can proceed
    assert triangularize_window(build_family("markov_line"), 5) == \
        Permutation((5, 4, 3, 2, 1))
    assert triangularize_window(two_cycle(), 2) == CycleFound((1, 2, 1))


def test_triangularize_blocked_without_reentry_facts():
    one = shift_pair().row_of(1).entries[0][1]
    s = EvolutionStructure("exact", lambda i: FiniteRow(((i + 1, one),)))
    assert triangularize_window(s, 6) == Blocked(frozenset(range(1, 7)))


def test_triangularize_cyclic_families():
    for name in ("hub_line", "alt_line_B", "alt_line_C0"):
        res = triangularize_window(build_family(name), 8)
        assert isinstance(res, CycleFound)
        assert res.path[0] == res.path[-1]


def test_brute_force_frozen():
    assert brute_force_nilpotent(two_cycle()) == \
        BruteForceReport((2, 2, 2, 2), False, None)
    assert brute_force_nilpotent(shift_pair()) == \
        BruteForceReport((2, 1, 0, 0), True, 3)


def test_index_delegates_to_classify():
    for s in (build_family("comb"), two_cycle(), shift_pair(),
              build_family("markov_line")):
        assert nilpotency_index(s) == classify(s).index


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_finite_four_way_agreement(seed):
    s = random_finite_structure(seed)
    n = s.universe
    cyc_path, completed = cycle_search(s, n, 10**6)
    assert completed
    acyclic = cyc_path is None
    brute = brute_force_nilpotent(s)
    r = classify(s)
    tri = triangularize_window(s, n)
    assert brute.nilpotent == acyclic
    assert (r.nilpotent.status == "yes") == acyclic
    assert isinstance(tri, Permutation) == acyclic
    if acyclic:
        assert permutation_is_strictly_lower(s, tri.order, n)
        assert r.index == IndexExact(brute.index)
    else:
        assert isinstance(tri, CycleFound)
        assert r.index == IndexInfinite()


def test_float_brute_force_uses_tol():
    rows = {1: [(3, 1.0), (4, 1.0)], 2: [(3, 1.0), (4, 1.0 + 1e-13)]}
    s = EvolutionStructure.from_rows(rows, 4, mode="float", tol=1e-9)
    assert brute_force_nilpotent(s) == BruteForceReport((4, 1, 0, 0, 0, 0),
                                                        True, 3)
    strict = EvolutionStructure.from_rows(rows, 4, mode="float", tol=1e-15)
    assert brute_force_nilpotent(strict).dims[:3] == (4, 2, 0)
