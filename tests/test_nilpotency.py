"""Classification, witnesses, triangularization, and the brute-force oracle."""
import dataclasses

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
    descendants_generation,
    permutation_is_strictly_lower,
    random_finite_structure,
    triangularize_window,
    validate_witness,
)
from evolalg import nilpotency
from evolalg.errors import BudgetZero, InvalidParams
from evolalg.graph import INFINITE, FamilyMeta
from evolalg.scalars import EX_ONE


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
    assert w.vertices[:5] == (1, 2, 3, 4, 5)
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


def test_classify_finite_witness_is_the_cycle_search_path():
    for seed in range(2000):
        s = random_finite_structure(seed)
        n = s.universe
        path, completed = cycle_search(s, n, n * n + n + 8)
        assert completed
        witness = classify(s).nil.witness
        if path is None:
            assert witness is None
        else:
            assert witness.path == tuple(path), seed


def test_classify_long_chain_and_its_closed_cycle():
    # the search is iterative: a 10^5-vertex path overflows no stack
    n = 100_000
    rows = {i: [(i + 1, 1)] for i in range(1, n)}
    assert classify(EvolutionStructure.from_rows(rows, n)).index == \
        IndexExact(n + 1)
    rows[n] = [(1, 1)]
    r = classify(EvolutionStructure.from_rows(rows, n))
    assert r.index == IndexInfinite()
    assert r.nil.witness.path == (*range(1, n + 1), 1)


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
    # vertex 5 has rank 2: D^3(5) is empty, so the check stops there
    assert not validate_witness(gt, UnboundedDepthSequence(((2, 1), (5, 10**9))))
    assert not validate_witness(build_family("comb"), CycleWitness((2, 3, 2)))
    assert not validate_witness(two_cycle(), CycleWitness((1, 2)))  # not closed
    assert not validate_witness(two_cycle(), CycleWitness((1, 1)))  # no loop
    assert validate_witness(two_cycle(), CycleWitness((1, 2, 1)))
    assert validate_witness(mk, LongPath((2, 3, 4)))
    assert not validate_witness(mk, LongPath((2, 4)))


def test_rank_witness_is_a_walk_length_not_a_bfs_distance():
    # 1 -> {2, 3}, 2 -> 3: every descendant of 1 is one edge away, yet the
    # walk 1 -> 2 -> 3 gives D^2(1) = {3}, so vertex 1 has rank 2, not 3
    s = EvolutionStructure.from_rows({1: [(2, 1), (3, 1)], 2: [(3, 1)]}, 3)
    assert validate_witness(s, UnboundedDepthSequence(((2, 1), (1, 2))))
    assert not validate_witness(s, UnboundedDepthSequence(((2, 1), (1, 3))))


def test_rank_pairs_under_a_cycle_validate_at_once(cap_row_reads):
    # a vertex whose descendants hold a cycle has every rank; the check
    # skips the repeating generations instead of walking 10^9 of them.
    # hub_line's vertex 1 has an infinite row, so its blocks stand in
    cases = ((two_cycle(), 1), (build_family("hub_line"), 2),
             (build_family("hub_line"), 3))
    for s, v in cases:
        assert validate_witness(cap_row_reads(s), UnboundedDepthSequence(
            ((v, 1), (v, 10**9))))


@pytest.mark.parametrize("budget", [64, 256, 4096])
def test_growing_teeth_witnesses_validate(budget):
    gt = build_family("growing_teeth")
    w = classify(gt, budget).nilpotent.witness
    assert isinstance(w, UnboundedDepthSequence)
    assert validate_witness(build_family("growing_teeth"), w)
    # each claim is sharp: one more generation from the same vertex is empty
    for v, r in w.pairs:
        assert not descendants_generation(gt, [v], r + 1, 10**6).members


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


def test_classify_reads_at_most_scan_cap_ranks():
    s = build_family("growing_teeth")
    real = s.meta.rank
    calls = []

    def counted(i):
        calls.append(i)
        # fail at once rather than after 10^9 reads
        assert len(calls) <= nilpotency.CLASSIFY_SCAN_CAP
        return real(i)

    s.meta = dataclasses.replace(s.meta, rank=counted)
    r = classify(s, 10**9)
    assert (r.nil.status, r.nilpotent.status) == ("yes", "no")
    assert validate_witness(s, r.nilpotent.witness)
    assert calls


def _late_ray(start):
    """Sinks 1..start-1, then the ray start -> start+1 -> ...; its metadata
    says some rank is infinite, as it is from `start` on."""
    def row(i):
        return FiniteRow(((i + 1, EX_ONE),) if i >= start else ())
    meta = FamilyMeta(rank=lambda i: INFINITE if i >= start else 0,
                      sup_rank=INFINITE, ranks_finite=False)
    return EvolutionStructure("exact", row, meta=meta)


def test_classify_inconclusive_when_the_infinite_rank_lies_past_the_scan():
    cap = nilpotency.CLASSIFY_SCAN_CAP
    s = _late_ray(cap + 1)
    for budget, limit in ((5, "the budget 5"), (cap, f"the budget {cap}"),
                          (10**6, f"CLASSIFY_SCAN_CAP = {cap}")):
        r = classify(s, budget)
        assert r.nil.status == r.nilpotent.status == "inconclusive"
        assert not r.nil.certified and r.index is None
        scan = min(budget, cap)
        assert r.nil.reason == (
            f"family metadata reports an infinite rank, but vertices 1..{scan}"
            f" have finite rank; the scan stops at {limit}")
    # once the scan reaches the ray it certifies "not nil"
    r = classify(_late_ray(40), 64)
    assert (r.nil.status, r.nil.certified) == ("no", True)
    assert validate_witness(_late_ray(40), r.nil.witness)


def test_classify_runs_one_window_search(monkeypatch):
    calls = []
    real = nilpotency.window_dfs

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(nilpotency, "window_dfs", counted)
    one = shift_pair().row_of(1).entries[0][1]
    bare = EvolutionStructure("exact", lambda i: FiniteRow(((i + 1, one),)))
    for s, budget in ((shift_pair(), 64), (build_family("growing_teeth"), 64),
                      (bare, 16)):
        calls.clear()
        classify(s, budget)
        assert len(calls) == 1
    # the bare line's window is budget + 8, with 64 entries per budget unit
    assert calls == [(24, 64 * 16)]


def test_triangularize_reads_a_finite_universe_in_full():
    # 1450 vertices, each row targeting every smaller vertex: 1,050,525
    # entries, more than 2**20, in rows that share their entry tuples
    n = 1450
    one = shift_pair().row_of(1).entries[0][1]
    entries = tuple((k, one) for k in range(n))
    targets = tuple(range(n))
    s = EvolutionStructure(
        "exact", lambda i: FiniteRow(entries[1:i], targets[1:i]), universe=n)
    res = triangularize_window(s, n)
    assert res == Permutation(tuple(range(1, n + 1)))
    assert permutation_is_strictly_lower(s, res.order, n)


def test_permutation_check_refuses_bad_windows():
    comb = build_family("comb")
    for window in (-5, 0, 10**12):
        with pytest.raises(InvalidParams):
            permutation_is_strictly_lower(comb, (), window)
