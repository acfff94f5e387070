"""classify on finite structures against networkx, an oracle that shares no
code with evolalg's graph layer: the verdict must match
``nx.is_directed_acyclic_graph`` and the exact index must be
``nx.dag_longest_path_length + 2``.  A cycle witness must be a closed walk of
networkx's graph.  On an infinite structure without family metadata, the
long-path evidence of a completed search must be as long as networkx's
longest path in the window.  Rank witnesses built from networkx's
longest-path lengths must validate, and overstate no rank.  A window
triangularisation must block exactly the rows that leave the window and
their ancestors, and otherwise remove sinks in networkx's lexicographic
order."""
import random

import pytest

nx = pytest.importorskip("networkx")

from evolalg import (  # noqa: E402  (after the importorskip guard)
    Blocked,
    EvolutionStructure,
    ExactScalar,
    FiniteRow,
    IndexAtLeast,
    IndexExact,
    IndexInfinite,
    LongPath,
    Permutation,
    UnboundedDepthSequence,
    classify,
    permutation_is_strictly_lower,
    random_finite_structure,
    triangularize_window,
    validate_witness,
)
from evolalg.graph import WINDOW_CEILING  # noqa: E402

WEIGHTS = ("1", "-1/2", "3", "2/3")


def structure_and_graph(n, edges, rng):
    rows = {}
    for u, v in sorted(edges):
        rows.setdefault(u, []).append((v, rng.choice(WEIGHTS)))
    g = nx.DiGraph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return EvolutionStructure.from_rows(rows, n), g


def check_against_networkx(s, g):
    r = classify(s)
    if nx.is_directed_acyclic_graph(g):
        assert (r.nil.status, r.nilpotent.status) == ("yes", "yes")
        assert r.index == IndexExact(nx.dag_longest_path_length(g) + 2)
        return "dag"
    assert (r.nil.status, r.nilpotent.status) == ("no", "no")
    assert r.index == IndexInfinite()
    path = r.nil.witness.path
    assert len(path) >= 2 and path[0] == path[-1]
    assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
    return "cyclic"


def test_random_finite_structures_against_networkx():
    seen = set()
    for seed in range(1000):
        s = random_finite_structure(seed)
        g = nx.DiGraph()
        g.add_nodes_from(range(1, s.universe + 1))
        for i, entries in s.source["rows"].items():
            g.add_edges_from((i, k) for k, _w in entries)
        seen.add(check_against_networkx(s, g))
    assert seen == {"dag", "cyclic"}


@pytest.mark.parametrize("seed", range(10))
def test_sparse_graphs_against_networkx(seed):
    """Short forward edges along a shuffled order; odd seeds also get a
    forward chain closed by one back edge, which makes a cycle."""
    rng = random.Random(seed)
    n = rng.randint(200, 3000)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for p in range(n):
        for q in range(p + 1, min(n, p + 5)):
            if rng.random() < 0.4:
                edges.add((order[p], order[q]))
    if seed % 2:
        a = rng.randrange(n - 10)
        b = a + rng.randint(1, 9)
        edges.update((order[j], order[j + 1]) for j in range(a, b))
        edges.add((order[b], order[a]))
    s, g = structure_and_graph(n, edges, rng)
    assert check_against_networkx(s, g) == ("cyclic" if seed % 2 else "dag")


def test_long_path_and_its_closed_cycle():
    n = 3000
    rng = random.Random(0)
    path = {(v, v + 1) for v in range(1, n)}
    s, g = structure_and_graph(n, path, rng)
    assert check_against_networkx(s, g) == "dag"
    assert classify(s).index == IndexExact(3001)
    s, g = structure_and_graph(n, path | {(n, 1)}, rng)
    assert check_against_networkx(s, g) == "cyclic"
    assert len(classify(s).nil.witness.path) == n + 1


@pytest.mark.parametrize("seed", range(40))
def test_rank_witnesses_against_networkx(seed):
    """On a random DAG the rank of v is networkx's longest path among v and
    its descendants.  One vertex per even rank makes a witness whose ranks
    leave a gap, so raising any one of them by 1 keeps them increasing and
    must fail on D^(r+1)(v) being empty."""
    rng = random.Random(seed)
    n = rng.randint(8, 40)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {(order[p], order[q]) for p in range(n) for q in range(p + 1, n)
             if rng.random() < 0.15}
    s, g = structure_and_graph(n, edges, rng)
    by_rank = {}
    for v in range(1, n + 1):
        sub = g.subgraph(nx.descendants(g, v) | {v})
        by_rank.setdefault(nx.dag_longest_path_length(sub), []).append(v)
    pairs = [(rng.choice(by_rank[r]), r) for r in sorted(by_rank) if r % 2 == 0]
    if len(pairs) < 2:
        return
    assert validate_witness(s, UnboundedDepthSequence(tuple(pairs)))
    for j, (v, r) in enumerate(pairs):
        raised = pairs[:j] + [(v, r + 1)] + pairs[j + 1:]
        assert not validate_witness(s, UnboundedDepthSequence(tuple(raised)))


def forward_structure(steps_of):
    """Infinite, metadata-free structure whose row i targets i + d for each
    d in steps_of(i); every edge points forward, so no window has a cycle."""
    one = ExactScalar(1)
    return EvolutionStructure(
        "exact", lambda i: FiniteRow(tuple((i + d, one)
                                           for d in sorted(steps_of(i)))))


def random_steps(seed):
    return lambda i: random.Random(seed * 100003 + i).sample(range(1, 7), 2)


@pytest.mark.parametrize("steps_of", [lambda i: (1, 2), lambda i: (2,),
                                      lambda i: (1,) if i % 3 else (3,)]
                         + [random_steps(seed) for seed in range(4)])
def test_long_path_evidence_against_networkx(steps_of):
    s = forward_structure(steps_of)
    for budget in (1, 4, 16, 64, 300):
        r = classify(s, budget)
        evidence = r.nil.witness
        assert isinstance(evidence, LongPath)
        assert validate_witness(s, evidence)
        assert r.index == IndexAtLeast(len(evidence.path) + 1)
        window = min(budget + 8, WINDOW_CEILING)
        if "completed" not in r.nil.reason:
            continue
        g = nx.DiGraph()
        g.add_nodes_from(range(1, window + 1))
        g.add_edges_from((i, k) for i in range(1, window + 1)
                         for k, _w in s.row_of(i).upto(window)[0])
        assert len(evidence.path) - 1 == nx.dag_longest_path_length(g)


def test_long_path_evidence_covers_what_an_exhausted_search_finished():
    # 1 -> 2 -> ... -> 20 is finished before the dense rows from 21 on run
    # the search out of entries
    s = forward_structure(
        lambda i: (1,) if i < 20 else () if i == 20 else range(1, 400))
    r = classify(s, 300)
    assert "ran out of budget" in r.nil.reason
    assert r.nil.witness == LongPath(tuple(range(1, 21)))
    assert validate_witness(s, r.nil.witness)


@pytest.mark.parametrize("seed", range(4))
def test_blocked_vertices_against_networkx(seed):
    # rows of 0, 1 or 2 forward steps: each window is cycle-free, and the
    # rows that step past it may lead back in, blocking them and whatever
    # reaches them
    def steps_of(i):
        rng = random.Random(seed * 100003 + i)
        return rng.sample(range(1, 5), rng.choice((0, 0, 1, 2)))

    s = forward_structure(steps_of)
    seen = set()
    for window in range(1, 61):
        g = nx.DiGraph()
        g.add_nodes_from(range(1, window + 1))
        leaving = set()
        for i in range(1, window + 1):
            for k, _w in s.row_of(i):
                if k > window:
                    leaving.add(i)
                else:
                    g.add_edge(i, k)
        res = triangularize_window(s, window)
        if leaving:
            blocked = leaving.union(*(nx.ancestors(g, v) for v in leaving))
            assert res == Blocked(frozenset(blocked))
            if len(blocked) < window:
                seen.add("some blocked")
        else:
            order = tuple(nx.lexicographical_topological_sort(g.reverse()))
            assert res == Permutation(order)
            assert permutation_is_strictly_lower(s, res.order, window)
            seen.add("none blocked")
    assert seen == {"none blocked", "some blocked"}
