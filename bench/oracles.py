"""Reference graph facts computed from the benchmark's own input data.

Nothing here imports evolalg: the sparse_finite checks compare the
package's decisions against these plain-stdlib answers, so a bug shared by
`evolalg.graph` and the code that checks it cannot hide.  Graphs are given
as ``{vertex: [target, ...]}`` on vertices ``1..n``.
"""
from __future__ import annotations


def find_cycle(n: int, adj: dict) -> list | None:
    """A closed walk ``[v, ..., v]`` if the graph has a cycle, else None."""
    color = [0] * (n + 1)  # 0 unseen, 1 on the DFS path, 2 finished
    parent = [0] * (n + 1)
    for root in range(1, n + 1):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(adj.get(root, ())))]
        while stack:
            v, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[v] = 2
                stack.pop()
            elif color[nxt] == 1:
                walk = [v]
                while walk[-1] != nxt:
                    walk.append(parent[walk[-1]])
                walk.reverse()
                return walk + [nxt]
            elif color[nxt] == 0:
                color[nxt] = 1
                parent[nxt] = v
                stack.append((nxt, iter(adj.get(nxt, ()))))
    return None


def longest_path(n: int, adj: dict) -> int:
    """Edge count of the longest path of an acyclic graph."""
    indeg = [0] * (n + 1)
    for targets in adj.values():
        for t in targets:
            indeg[t] += 1
    order = [v for v in range(1, n + 1) if indeg[v] == 0]
    for v in order:  # Kahn's algorithm; `order` grows while it is read
        for t in adj.get(v, ()):
            indeg[t] -= 1
            if indeg[t] == 0:
                order.append(t)
    if len(order) != n:
        raise ValueError("graph has a cycle")
    height = [0] * (n + 1)
    for v in reversed(order):
        height[v] = max((height[t] + 1 for t in adj.get(v, ())), default=0)
    return max(height[1:], default=0)


def is_closed_walk(adj: dict, path) -> bool:
    """True when `path` is ``[v, ..., v]`` and every step is an edge."""
    if len(path) < 2 or path[0] != path[-1]:
        return False
    return all(b in adj.get(a, ()) for a, b in zip(path, path[1:]))


def is_strictly_lower(n: int, adj: dict, order) -> bool:
    """True when `order` lists 1..n and every edge points to an earlier vertex."""
    if sorted(order) != list(range(1, n + 1)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[t] < pos[v] for v in adj for t in adj[v])
