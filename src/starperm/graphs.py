"""Graph construction and structural metrics.

The central type is an immutable simple undirected :class:`Graph` whose
vertices are arbitrary hashable labels kept in a fixed canonical order, with
an optional tuple of integer labels per edge (the transposition positions
that realize the edge).  :class:`PermGraph` specializes it to the multiset
permutation graphs: vertices are the lexicographically ordered ell-set
permutations, edges come from a generator family (star transpositions,
prefix reversals, or a custom sequence of position involutions).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded
from .mstrings import DEFAULT_VERTEX_CAP, Params, enumerate_vertices, prefix_reversal, star_neighbors

Label = Hashable
Edge = tuple[Label, Label]


class Graph:
    """Simple undirected graph with labeled vertices and edge label sets.

    The vertex order given at construction is the canonical order; all
    derived sequences (edges, components, witnesses) follow it, so every
    operation downstream is deterministic.
    """

    __slots__ = ("vertices", "_index", "_adj")

    def __init__(
        self,
        vertices: Sequence[Label],
        edges: Iterable[tuple] = (),
    ) -> None:
        self.vertices: tuple = tuple(vertices)
        self._index: dict = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self._adj: list[dict[int, tuple[int, ...]]] = [{} for _ in self.vertices]
        for e in edges:
            u, v = e[0], e[1]
            labels = tuple(e[2]) if len(e) > 2 else ()
            self._add_edge(u, v, labels)

    @classmethod
    def _from_internal(cls, vertices: tuple, adj: list[dict]) -> "Graph":
        g = cls.__new__(cls)
        g.vertices = vertices
        g._index = {v: i for i, v in enumerate(vertices)}
        g._adj = adj
        return g

    def _add_edge(self, u: Label, v: Label, labels: tuple[int, ...] = ()) -> None:
        iu, iv = self.index(u), self.index(v)
        if iu == iv:
            raise ValueError(f"loop at {u!r}")
        merged = tuple(sorted(set(self._adj[iu].get(iv, ())) | set(labels)))
        self._adj[iu][iv] = merged
        self._adj[iv][iu] = merged

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def index(self, u: Label) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise ValueError(f"unknown vertex {u!r}") from None

    def has_vertex(self, u: Label) -> bool:
        return u in self._index

    def has_edge(self, u: Label, v: Label) -> bool:
        return self.index(v) in self._adj[self.index(u)]

    def neighbors(self, u: Label) -> tuple:
        return tuple(self.vertices[i] for i in sorted(self._adj[self.index(u)]))

    def degree(self, u: Label) -> int:
        return len(self._adj[self.index(u)])

    def edge_labels(self, u: Label, v: Label) -> tuple[int, ...]:
        iu, iv = self.index(u), self.index(v)
        if iv not in self._adj[iu]:
            raise ValueError(f"unknown edge ({u!r}, {v!r})")
        return self._adj[iu][iv]

    def edges(self) -> Iterator[tuple[Label, Label, tuple[int, ...]]]:
        """Edges as (u, v, labels) with index(u) < index(v), canonical order."""
        for iu, nbrs in enumerate(self._adj):
            for iv in sorted(nbrs):
                if iv > iu:
                    yield self.vertices[iu], self.vertices[iv], nbrs[iv]

    def edge_key(self, u: Label, v: Label) -> Edge:
        """The (u, v) pair ordered by canonical vertex order."""
        if self.index(u) > self.index(v):
            u, v = v, u
        return (u, v)

    # -- degree structure --------------------------------------------------

    def degree_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for a in self._adj:
            census[len(a)] = census.get(len(a), 0) + 1
        return dict(sorted(census.items()))

    def regularity(self) -> tuple[str, tuple[int, ...]]:
        """("regular", (d,)) / ("biregular", (a, b)) / ("irregular", degrees)."""
        degs = tuple(sorted(self.degree_census()))
        if len(degs) == 1:
            return ("regular", degs)
        if len(degs) == 2:
            return ("biregular", degs)
        return ("irregular", degs)

    def regular_degree(self) -> Optional[int]:
        """The common degree of a regular graph, None otherwise."""
        kind, degs = self.regularity()
        return degs[0] if kind == "regular" else None

    # -- traversal ---------------------------------------------------------

    def bfs_distances(self, u: Label, limit: Optional[int] = None) -> dict:
        """Distances from u to every reachable vertex (within limit if given)."""
        src = self.index(u)
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            d = dist[x]
            if limit is not None and d >= limit:
                continue
            for y in self._adj[x]:
                if y not in dist:
                    dist[y] = d + 1
                    queue.append(y)
        return {self.vertices[i]: d for i, d in dist.items()}

    def distance(self, u: Label, v: Label) -> Optional[int]:
        return self.bfs_distances(u).get(v)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.bfs_distances(self.vertices[0])) == self.n

    def components(self) -> list["Graph"]:
        """Connected components as induced subgraphs, ordered by least vertex."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        queue.append(y)
            comps.append(self.induced_subgraph([self.vertices[i] for i in sorted(comp)]))
        return comps

    # -- surgery -----------------------------------------------------------

    def induced_subgraph(self, keep: Iterable[Label]) -> "Graph":
        keep_idx = [self.index(u) for u in keep]
        old_to_new = {old: new for new, old in enumerate(keep_idx)}
        adj: list[dict[int, tuple[int, ...]]] = [{} for _ in keep_idx]
        for new_u, old_u in enumerate(keep_idx):
            for old_v, labels in self._adj[old_u].items():
                new_v = old_to_new.get(old_v)
                if new_v is not None:
                    adj[new_u][new_v] = labels
        return Graph._from_internal(tuple(self.vertices[i] for i in keep_idx), adj)

    def subgraph(
        self,
        delete_vertices: Iterable[Label] = (),
        delete_edges: Iterable[Edge] = (),
    ) -> "Graph":
        """Delete vertices (with incident edges) and further explicit edges."""
        drop = {self.index(u) for u in delete_vertices}
        kept = [v for i, v in enumerate(self.vertices) if i not in drop]
        g = self.induced_subgraph(kept)
        for u, v in delete_edges:
            iu, iv = g.index(u), g.index(v)
            if iv not in g._adj[iu]:
                raise ValueError(f"unknown edge ({u!r}, {v!r})")
            del g._adj[iu][iv]
            del g._adj[iv][iu]
        return g

    # -- cycles, parity ----------------------------------------------------

    def has_triangle(self) -> bool:
        for iu, nbrs in enumerate(self._adj):
            su = set(nbrs)
            for iv in nbrs:
                if iv > iu and su & set(self._adj[iv]):
                    return True
        return False

    def girth(self) -> Optional[int]:
        """Length of a shortest cycle, or None for an acyclic graph.

        BFS from every vertex; the minimum over all roots of the first
        closing edge is exact for unweighted graphs.
        """
        best: Optional[int] = None
        for root in range(self.n):
            dist = {root: 0}
            parent = {root: -1}
            queue = deque([root])
            while queue:
                x = queue.popleft()
                if best is not None and 2 * dist[x] >= best:
                    break
                for y in self._adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        queue.append(y)
                    elif parent[x] != y:
                        cand = dist[x] + dist[y] + 1
                        if best is None or cand < best:
                            best = cand
        return best

    def odd_closed_walk(self) -> Optional[list]:
        """An explicit odd closed walk (vertex list, first = last), or None
        if the graph is bipartite."""
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            parent = {start: None}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if color[y] == -1:
                        color[y] = color[x] ^ 1
                        parent[y] = x
                        queue.append(y)
                    elif color[y] == color[x]:
                        up, wp = [], []
                        a: Optional[int] = x
                        while a is not None:
                            up.append(a)
                            a = parent[a]
                        b: Optional[int] = y
                        while b is not None:
                            wp.append(b)
                            b = parent[b]
                        walk = list(reversed(up)) + wp
                        return [self.vertices[i] for i in walk]
        return None

    def is_bipartite(self) -> bool:
        return self.odd_closed_walk() is None


# ---------------------------------------------------------------------------
# generator families and permutation graphs
# ---------------------------------------------------------------------------

Transposition = tuple[int, int]


@dataclass(frozen=True)
class GeneratorFamily:
    """The edge rule of a permutation graph.

    kind "star": generator j swaps positions 0 and j.
    kind "pancake": generator j reverses the prefix of length j+1.
    kind "custom": generator j applies (0 j) composed with a given involution
    pi_j, a product of independent transpositions inside {1, ..., j-1}
    (pi_1 = pi_2 = identity).  pis[j-1] holds pi_j as a tuple of (a, b) pairs.
    """

    kind: str
    pis: Optional[tuple[tuple[Transposition, ...], ...]] = None

    @staticmethod
    def star() -> "GeneratorFamily":
        return GeneratorFamily("star")

    @staticmethod
    def pancake() -> "GeneratorFamily":
        return GeneratorFamily("pancake")

    @staticmethod
    def custom(pis: Sequence[Sequence[Transposition]]) -> "GeneratorFamily":
        frozen = tuple(tuple((int(a), int(b)) for a, b in pi) for pi in pis)
        fam = GeneratorFamily("custom", frozen)
        fam.validate_pis(len(frozen) + 1)
        return fam

    def validate_pis(self, length: int) -> None:
        if self.kind != "custom":
            return
        assert self.pis is not None
        if len(self.pis) != length - 1:
            raise ValueError(f"need {length - 1} involutions pi_1..pi_{length - 1}, got {len(self.pis)}")
        for j, pi in enumerate(self.pis, start=1):
            if j <= 2 and pi:
                raise ValueError(f"pi_{j} must be the identity")
            used: set[int] = set()
            for a, b in pi:
                if not (1 <= a < b <= j - 1):
                    raise ValueError(f"pi_{j} moves {a, b}, outside 1..{j - 1}")
                if a in used or b in used:
                    raise ValueError(f"pi_{j} transpositions are not independent")
                used.update((a, b))

    def position_maps(self, length: int) -> list[tuple[int, ...]]:
        """Generator j as a full position permutation, for j = 1..length-1.

        Entry j-1 maps new position -> old position; all generators are
        involutions so the direction is immaterial.
        """
        maps = []
        for j in range(1, length):
            perm = list(range(length))
            if self.kind == "star":
                perm[0], perm[j] = j, 0
            elif self.kind == "pancake":
                perm[: j + 1] = reversed(perm[: j + 1])
            elif self.kind == "custom":
                assert self.pis is not None
                perm[0], perm[j] = j, 0
                for a, b in self.pis[j - 1]:
                    perm[a], perm[b] = perm[b], perm[a]
            else:
                raise ValueError(f"unknown family kind {self.kind!r}")
            maps.append(tuple(perm))
        return maps


class PermGraph(Graph):
    """A multiset permutation graph: metadata on top of :class:`Graph`."""

    __slots__ = ("params", "family", "nonstar_edges")

    params: Params
    family: GeneratorFamily
    #: custom-family edges created by an application with v[j] == v[0]
    nonstar_edges: frozenset


def build_graph(
    p: Params,
    family: GeneratorFamily = GeneratorFamily.star(),
    cap: int = DEFAULT_VERTEX_CAP,
) -> PermGraph:
    """Construct the permutation graph on all ell-set permutations under p.

    Star and pancake edges exist only when the transposed/front entry
    differs from v[0]; custom edges exist whenever the generator image
    differs from the source, flagged "non-star-like" when v[j] == v[0].
    Parallel edges (distinct generators, same endpoints) are collapsed into
    one edge carrying the set of generator positions as labels.
    """
    verts = enumerate_vertices(p, cap)
    index = {v: i for i, v in enumerate(verts)}
    adj: list[dict[int, tuple[int, ...]]] = [{} for _ in verts]
    length = p.length
    label_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
    nonstar: set[Edge] = set()

    if family.kind == "custom":
        family.validate_pis(length)
        maps = family.position_maps(length)

    for iv, v in enumerate(verts):
        if family.kind == "star":
            moves = star_neighbors(v)
        elif family.kind == "pancake":
            moves = [(j, prefix_reversal(v, j)) for j in range(1, length) if v[j] != v[0]]
        else:
            moves = [(j, tuple(v[i] for i in g)) for j, g in enumerate(maps, start=1)]
        for j, w in moves:
            if w == v:
                continue
            iw = index[w]
            if family.kind == "custom" and v[j] == v[0]:
                nonstar.add((v, w) if iv < iw else (w, v))
            if iw > iv:
                prev = adj[iv].get(iw, ())
                labels = prev + (j,) if j not in prev else prev
                labels = label_cache.setdefault(labels, labels)
                adj[iv][iw] = labels
                adj[iw][iv] = labels

    g = PermGraph.__new__(PermGraph)
    g.vertices = tuple(verts)
    g._index = index
    g._adj = adj
    g.params = p
    g.family = family
    g.nonstar_edges = frozenset(nonstar)
    return g


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphMetrics:
    n: int
    m: int
    degree_census: dict[int, int] = field(hash=False)
    regularity: tuple[str, tuple[int, ...]] = ("irregular", ())
    connected: bool = False
    bipartite: bool = False
    girth: Optional[int] = None


def analyze(g: Graph, compute_girth: bool = True) -> GraphMetrics:
    """Vertex/edge counts, degree structure, connectivity, parity, girth."""
    return GraphMetrics(
        n=g.n,
        m=g.m,
        degree_census=g.degree_census(),
        regularity=g.regularity(),
        connected=g.is_connected(),
        bipartite=g.is_bipartite(),
        girth=g.girth() if compute_girth else None,
    )


# ---------------------------------------------------------------------------
# 6-cycle enumeration
# ---------------------------------------------------------------------------

SIX_CYCLE_CAP = 10**4


def six_cycles(g: Graph, cap: int = SIX_CYCLE_CAP) -> list[tuple]:
    """All 6-cycles, each once, as canonical vertex tuples.

    A cycle is reported rooted at its least vertex r with its opposite
    vertex fourth; the two halves (r-x-y-z and r-x'-y'-z) are joined with
    the smaller second vertex first, which fixes rotation and reflection.
    Meets in the middle: for each root, 3-step paths through larger
    vertices are bucketed by endpoint and paired.
    """
    if g.n > cap:
        raise CapExceeded(f"6-cycle enumeration capped at {cap} vertices, graph has {g.n}")
    adj = [sorted(nbrs) for nbrs in g._adj]
    cycles = []
    for r in range(g.n):
        buckets: dict[int, list[tuple[int, int]]] = {}
        for x in adj[r]:
            if x <= r:
                continue
            for y in adj[x]:
                if y <= r:
                    continue
                for z in adj[y]:
                    if z <= r or z == x:
                        continue
                    buckets.setdefault(z, []).append((x, y))
        for z in sorted(buckets):
            halves = buckets[z]
            for a in range(len(halves)):
                x1, y1 = halves[a]
                for b in range(a + 1, len(halves)):
                    x2, y2 = halves[b]
                    if x1 == x2 or y1 == y2 or x1 == y2 or x2 == y1:
                        continue
                    if x1 < x2:
                        cycles.append((r, x1, y1, z, y2, x2))
                    else:
                        cycles.append((r, x2, y2, z, y1, x1))
    cycles.sort()
    return [tuple(g.vertices[i] for i in c) for c in cycles]


# ---------------------------------------------------------------------------
# reference constructions
# ---------------------------------------------------------------------------


def build_odd_complete_colored(n: int):
    """K_{2n+1} with its cyclic total coloring.

    Vertex j gets color j; the edge {j-i, j+i} (mod 2n+1) gets color j for
    0 < i <= n.  Returns (graph, TotalColoring); the coloring is total and
    efficient on 2n+1 colors.
    """
    from .coloring import TotalColoring

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    order = 2 * n + 1
    vertices = tuple(range(order))
    g = Graph(vertices)
    edge_colors = {}
    for j in range(order):
        for i in range(1, n + 1):
            u, v = (j - i) % order, (j + i) % order
            key = (u, v) if u < v else (v, u)
            g._add_edge(u, v)
            edge_colors[key] = j
    vertex_colors = {j: j for j in range(order)}
    tc = TotalColoring(
        vertex_colors=vertex_colors,
        edge_colors=edge_colors,
        palette=frozenset(range(order)),
    )
    return g, tc
