"""Exact isomorphism testing for small graphs.

Backtracking over a connectivity-friendly vertex order, pruned by iterated
degree refinement (vertices get provisional colors; a color is the multiset
of neighbor colors, refined to a fixed point).  Good enough for the graphs
in scope: components of split star graphs, 6-cycles, cubes, and the
vertex-transitive 90-vertex cases, where the BFS order makes candidate sets
collapse after the first two assignments.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from .errors import CapExceeded
from .graphs import Graph

ISO_CAP = 10**4


def _refined_colors(g: Graph) -> list[int]:
    """Stable vertex colors under iterated neighborhood refinement."""
    colors = [len(g.row(i)) for i in range(g.n)]
    classes = len(set(colors))
    while True:
        sigs = [
            (colors[i], tuple(sorted(colors[j] for j in g.row(i))))
            for i in range(g.n)
        ]
        relabel = {s: c for c, s in enumerate(sorted(set(sigs)))}
        colors = [relabel[s] for s in sigs]
        new_classes = len(set(colors))
        if new_classes == classes:
            return colors
        classes = new_classes


def _search_order(g: Graph, colors: list[int]) -> list[int]:
    """BFS order seeded per component from the rarest color class, so each
    vertex after the first has a mapped neighbor whenever possible."""
    census: dict[int, int] = {}
    for c in colors:
        census[c] = census.get(c, 0) + 1
    seen = [False] * g.n
    order = []
    for seed in sorted(range(g.n), key=lambda i: (census[colors[i]], i)):
        if seen[seed]:
            continue
        seen[seed] = True
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            order.append(x)
            for y in g.row(x):
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return order


def isomorphic(g: Graph, h: Graph) -> tuple[bool, Optional[dict]]:
    """Decide g ~ h; on success also return a vertex bijection (as labels)."""
    if max(g.n, h.n) > ISO_CAP:
        raise CapExceeded(f"isomorphism capped at {ISO_CAP} vertices")
    if g.n != h.n or g.m != h.m:
        return False, None
    if g.degree_census() != h.degree_census():
        return False, None
    gc = _refined_colors(g)
    hc = _refined_colors(h)
    if sorted(gc) != sorted(hc):
        return False, None

    order = _search_order(g, gc)
    h_by_color: dict[int, list[int]] = {}
    for i, c in enumerate(hc):
        h_by_color.setdefault(c, []).append(i)

    g_adj = [set(g.row(i)) for i in range(g.n)]
    h_adj = [set(h.row(i)) for i in range(h.n)]
    mapping: dict[int, int] = {}
    used = [False] * h.n
    images: set[int] = set()

    def candidates(v: int) -> Iterator[int]:
        """Images for v, filtered lazily: when the search comes back to this
        position, every later assignment has been undone."""
        mapped_nbrs = [mapping[u] for u in g_adj[v] if u in mapping]
        if mapped_nbrs:
            cands = sorted(h_adj[mapped_nbrs[0]].intersection(*(h_adj[w] for w in mapped_nbrs[1:])))
        else:
            cands = h_by_color[gc[v]]
        need = len(mapped_nbrs)
        # w may not touch images of already-mapped non-neighbors of v
        return (w for w in cands if not used[w] and hc[w] == gc[v] and len(h_adj[w] & images) == need)

    # Backtracking with an explicit stack, one candidate iterator per mapped
    # position, so the depth is not bounded by the recursion limit.
    stack: list[Iterator[int]] = []
    while len(mapping) < len(order):
        if len(stack) == len(mapping):
            stack.append(candidates(order[len(mapping)]))
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            if not stack:
                return False, None
            _, w = mapping.popitem()  # the last position mapped
            used[w] = False
            images.discard(w)
            continue
        mapping[order[len(stack) - 1]] = w
        used[w] = True
        images.add(w)
    return True, {g.vertices[v]: h.vertices[w] for v, w in mapping.items()}
