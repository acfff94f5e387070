"""classify on finite structures against networkx, an oracle that shares no
code with evolalg's graph layer: the verdict must match
``nx.is_directed_acyclic_graph`` and the exact index must be
``nx.dag_longest_path_length + 2``.  A cycle witness must be a closed walk of
networkx's graph."""
import random

import pytest

nx = pytest.importorskip("networkx")

from evolalg import (  # noqa: E402  (after the importorskip guard)
    EvolutionStructure,
    IndexExact,
    IndexInfinite,
    classify,
    random_finite_structure,
)

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
