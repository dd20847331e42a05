"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately naive and shares no code with the package:
itertools-based enumeration, the generator moves applied to the strings,
rooted path DFS for cycle counting, a direct per-definition domination
predicate over plain dicts of sets, BFS component counts, the cyclic total
coloring of K_{2n+1} and the chain embeddings kappa_j, as plain data.
"""

from itertools import permutations


def brute_multiset_perms(k, ell):
    base = []
    for s in range(k):
        base.extend([s] * ell)
    return sorted(set(permutations(base)))


def brute_move_graph(k, ell, family="star", pis=None):
    """{u: {v: labels}} of a permutation graph read off the strings.

    Generator j (1 <= j < k*ell) swaps entries 0 and j ("star"), reverses
    entries 0..j ("pancake"), or swaps entries 0 and j and then each pair in
    pis[j-1] ("custom").  A star or pancake move is an edge when entries 0
    and j differ, a custom move whenever it changes the string; the labels
    of an edge are the generators joining its ends, ascending.
    """
    adj = {}
    for v in brute_multiset_perms(k, ell):
        adj[v] = {}
        for j in range(1, len(v)):
            w = list(v)
            if family == "pancake":
                w[: j + 1] = reversed(w[: j + 1])
            else:
                w[0], w[j] = w[j], w[0]
                for a, b in pis[j - 1] if family == "custom" else ():
                    w[a], w[b] = w[b], w[a]
            w = tuple(w)
            if w != v and (family == "custom" or v[j] != v[0]):
                adj[v][w] = adj[v].get(w, ()) + (j,)
    return adj


def brute_edge_adjacency(vertices, edges):
    """{u: {v: labels}} of an edge list over the given vertices, in their
    order: an edge is (u, v) or (u, v, labels), and parallel edges merge
    their labels, ascending."""
    adj = {u: {} for u in vertices}
    for e in edges:
        u, v = e[0], e[1]
        labels = tuple(sorted(set(adj[u].get(v, ())) | set(e[2] if len(e) > 2 else ())))
        adj[u][v] = adj[v][u] = labels
    return adj


def brute_cut(adj, keep, drop=()):
    """adj restricted to the vertices keep, less the edges (u, v) in drop,
    either way round."""
    gone = {frozenset(e) for e in drop}
    return {u: {v: labels for v, labels in adj[u].items() if v in keep and frozenset((u, v)) not in gone} for u in keep}


def brute_component_sizes(adj):
    """Sorted component sizes of a dict-of-sets graph, by BFS."""
    seen, sizes = set(), []
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        frontier, size = [root], 0
        while frontier:
            x = frontier.pop()
            size += 1
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        sizes.append(size)
    return sorted(sizes)


def adjacency_dict(g):
    """{label: set of neighbour labels} of a graph read by vertex id."""
    verts = g.vertices
    return {v: {verts[j] for j in g.row(i)} for i, v in enumerate(verts)}


def labels_of(g, ids):
    """The labels of a set of g's vertex ids, to compare the package's id
    sets with label-keyed references."""
    return frozenset(g.vertices[i] for i in ids)


def brute_count_six_cycles(adj):
    """Closed 6-walks with all distinct vertices, divided by 12."""
    count = 0
    for root in adj:
        stack = [(root, [root])]
        while stack:
            node, path = stack.pop()
            if len(path) == 6:
                if root in adj[node]:
                    count += 1
                continue
            for nxt in adj[node]:
                if nxt not in path:
                    stack.append((nxt, path + [nxt]))
    assert count % 12 == 0
    return count // 12


def brute_is_e_ell_set(adj, s, ell):
    """The efficient dominating-ell predicate straight from its definition."""
    s = set(s)
    for v in adj:
        if v in s:
            continue
        doms = adj[v] & s
        if len(doms) != ell:
            return False
        if ell > 1:
            spheres = [adj[u] for u in doms]
            common = set.intersection(*spheres)
            if common != {v}:
                return False
            for u in doms:
                if doms & adj[u]:
                    return False
    if ell == 1:
        for u in s:
            if adj[u] & s:
                return False
    return True


def brute_distance(adj, u, v):
    if u == v:
        return 0
    frontier = {u}
    seen = {u}
    d = 0
    while frontier:
        d += 1
        frontier = {y for x in frontier for y in adj[x] if y not in seen}
        if v in frontier:
            return d
        seen |= frontier
    return None


def _repeat(v):
    """The repeat position of a 2-set string: the j >= 1 with v[j] = v[0]."""
    return next(j for j in range(1, len(v)) if v[j] == v[0])


def _swapped(u, v):
    """The transposition position of an edge: the j >= 1 where its ends differ."""
    return next(j for j in range(1, len(u)) if u[j] != v[j])


def _minus_color(adj, color):
    """A 2-set star graph without the vertices and edges of one color: a
    vertex is colored by its repeat position, an edge by its transposition
    position, both read straight from the strings."""
    kept = {v for v in adj if _repeat(v) != color}
    return {x: {y for y in adj[x] if y in kept and _swapped(x, y) != color} for x in kept}


def brute_color_class_components(adj, color):
    """Sorted component sizes of a 2-set star graph minus one color class."""
    return brute_component_sizes(_minus_color(adj, color))


def brute_component_keys(adj, color):
    """(key, size) of each component of a 2-set star graph minus one color
    class, ordered by least vertex; the key is None where the component
    breaks the key claim.

    The key of v is (v[color], p), p the other position of that symbol.  The
    claim: the vertices of a component share one key, and deleting
    positions color and p (and renaming the symbols left to 0, 1, ... in
    order) maps them one to one onto all 2-set strings on one symbol fewer.
    """
    rest = _minus_color(adj, color)
    seen, out = set(), []
    for root in sorted(rest):
        if root in seen:
            continue
        comp, frontier = {root}, [root]
        while frontier:
            for y in rest[frontier.pop()] - comp:
                comp.add(y)
                frontier.append(y)
        seen |= comp
        keys = {(v[color], next(j for j in range(len(v)) if j != color and v[j] == v[color])) for v in comp}
        key = keys.pop() if len(keys) == 1 else None
        if key is not None:
            drop = {color, key[1]}
            rename = {t: r for r, t in enumerate(sorted(set(root) - {key[0]}))}
            images = [tuple(rename[t] for j, t in enumerate(v) if j not in drop) for v in comp]
            if sorted(images) != brute_multiset_perms(len(rename), 2):
                key = None
        out.append((key, len(comp)))
    return out


def brute_coloring_flags(adj, vertex_colors, edge_color, palette):
    """(proper_edge, proper_vertex, no_incidence_clash, efficient) of a
    coloring of a dict-of-sets graph, each straight from its definition.

    edge_color maps frozenset({u, v}) to the color of that edge.  An empty
    vertex_colors makes it an edge coloring: only proper_edge is decided and
    the other three are None.  Efficient means every degree is
    len(palette) - 1 and every closed neighborhood shows the whole palette.
    """
    proper_edge = all(len({edge_color[frozenset((v, w))] for w in adj[v]}) == len(adj[v]) for v in adj)
    if not vertex_colors:
        return proper_edge, None, None, None
    proper_vertex = all(vertex_colors[v] != vertex_colors[w] for v in adj for w in adj[v])
    no_clash = all(vertex_colors[v] != edge_color[frozenset((v, w))] for v in adj for w in adj[v])
    efficient = bool(adj) and all(
        len(adj[v]) == len(palette) - 1 and {vertex_colors[v]} | {vertex_colors[w] for w in adj[v]} == set(palette)
        for v in adj
    )
    return proper_edge, proper_vertex, no_clash, efficient


def brute_local_generators(fibers, ell):
    """{x: the positions j whose star swap (entries 0 and j) takes a member
    of x's fiber to another fiber}, or None for x when the members
    disagree.  A member s is in the fiber of tuple(c // ell for c in s)."""
    out = {}
    for x, fiber in fibers.items():
        per_member = set()
        for s in fiber:
            leaving = []
            for j in range(1, len(s)):
                w = list(s)
                w[0], w[j] = w[j], w[0]
                if tuple(c // ell for c in w) != x:
                    leaving.append(j)
            per_member.add(tuple(leaving))
        out[x] = per_member.pop() if len(per_member) == 1 else None
    return out


def odd_complete_total_coloring(n):
    """K_{2n+1} with its cyclic total coloring, as plain data: the vertices
    0..2n, the edges (u, v, (color,)) and the vertex colors by vertex.

    Vertex j gets color j; the edge {j-i, j+i} (mod 2n+1) gets color j, for
    0 < i <= n.  The coloring is total and efficient on 2n+1 colors.
    """
    order = 2 * n + 1
    edges = [((j - i) % order, (j + i) % order, (j,)) for j in range(order) for i in range(1, n + 1)]
    return list(range(order)), edges, list(range(order))


def brute_kappa(v, j, k):
    """kappa_j of a 2-set string on k symbols: every symbol s becomes
    s + j - k mod k + 1, then jj is appended."""
    assert len(v) == 2 * k and 0 <= j <= k
    return tuple((s + j - k) % (k + 1) for s in v) + (j, j)
