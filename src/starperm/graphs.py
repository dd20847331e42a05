"""Graph construction and structural metrics.

The central type is an immutable simple undirected :class:`Graph` whose
vertices are arbitrary hashable labels kept in a fixed canonical order, with
an optional tuple of integer labels per edge (the transposition positions
that realize the edge).  :class:`PermGraph` specializes it to the multiset
permutation graphs: vertices are the lexicographically ordered ell-set
permutations, edges come from a generator family (star transpositions,
prefix reversals, or a custom sequence of position involutions).

The adjacency is one compressed-row core of vertex ids, known to this
module only: row i of the neighbour ids is ``_nbr[_start[i]:_start[i + 1]]``
in ascending order, and ``_lab`` holds each entry's index into ``_labels``,
the tuple of distinct edge-label tuples (one byte per entry while there are
at most 256 of them, as in every star graph).  Other modules read it through
:meth:`Graph.row`, :meth:`Graph.labeled_row` (with
:attr:`Graph.label_sets`), :meth:`Graph.label` and :meth:`Graph.edge_ids`.

A plain :class:`Graph` keeps its labels as a tuple and a label -> id dict.
A :class:`PermGraph` keeps none of either: its labels are
:class:`PackedLabels`, one integer code per string with 4 bits per symbol
(so k <= 16), 8 bytes per vertex in one array for strings of up to 16
symbols, unpacked to a tuple on access.  Its per-vertex columns (first
symbol, repeat position) are bytes by vertex id.  The packing is known to
this module only: the chain checks handle codes through the helpers beside
:func:`_pack` and the lookup of :class:`PackedLabels`, never their digits.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Sequence as SequenceABC
from typing import Callable, Container, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded
from .mstrings import DEFAULT_VERTEX_CAP, Params, iter_vertices, mstring, prefix_reversal, render, repeat_position

Label = Hashable
Edge = tuple[Label, Label]


class Graph:
    """Immutable simple undirected graph with labeled vertices and edge
    label sets.

    The vertex order given at construction is the canonical order; all
    derived sequences (edges, components, witnesses) follow it, so every
    operation downstream is deterministic.
    """

    __slots__ = ("vertices", "_index", "_start", "_nbr", "_lab", "_labels", "_triangle")

    def __init__(
        self,
        vertices: Sequence[Label],
        edges: Iterable[tuple] = (),
    ) -> None:
        self._set_vertices(tuple(vertices))
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        # Parallel edges merge their labels here before the rows are packed.
        rows: list[dict[int, set]] = [{} for _ in self.vertices]
        for e in edges:
            iu, iv = self.index(e[0]), self.index(e[1])
            if iu == iv:
                raise ValueError(f"loop at {e[0]!r}")
            rows[iv][iu] = rows[iu].setdefault(iv, set())
            rows[iu][iv].update(e[2] if len(e) > 2 else ())
        self._set_rows(sorted((iw, tuple(sorted(labels))) for iw, labels in row.items()) for row in rows)

    def _set_vertices(self, vertices: tuple) -> None:
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}

    def _set_rows(self, rows: Iterable[Iterable[tuple[int, tuple]]]) -> None:
        """Pack the core from one row of (neighbour id, labels) pairs per
        vertex, ids ascending in each."""
        # 4-byte row offsets: 2^31 of them would hold 8 GB of neighbour ids
        start, nbr, lab, ids = array("i", [0]), array("i"), array("B"), {}
        for row in rows:
            for iw, labels in row:
                nbr.append(iw)
                lid = ids.setdefault(labels, len(ids))
                try:
                    lab.append(lid)
                except OverflowError:  # a 257th label set: widen the label ids
                    lab = array("i", lab)
                    lab.append(lid)
            start.append(len(nbr))
        self._start, self._nbr, self._lab, self._labels = start, nbr, lab, tuple(ids)
        #: has_triangle's verdict, None until asked
        self._triangle: Optional[bool] = None

    # -- the core, by vertex id ----------------------------------------------

    def row(self, i: int) -> array:
        """Neighbour ids of vertex id i, ascending."""
        return self._nbr[self._start[i] : self._start[i + 1]]

    def labeled_row(self, i: int) -> Iterator[tuple[int, int]]:
        """(neighbour id, label id) pairs of vertex id i, ids ascending: one
        slice of each; ``label_sets[label id]`` is the edge's labels."""
        lo, hi = self._start[i], self._start[i + 1]
        return zip(self._nbr[lo:hi], self._lab[lo:hi])

    @property
    def label_sets(self) -> tuple[tuple[int, ...], ...]:
        """The distinct edge-label tuples, by label id; a subgraph cut from
        this graph shares the same tuple."""
        return self._labels

    def label(self, i: int, j: int) -> Optional[tuple[int, ...]]:
        """Labels of the edge between vertex ids i and j; None if there is none."""
        hi = self._start[i + 1]
        p = bisect_left(self._nbr, j, self._start[i], hi)
        return self._labels[self._lab[p]] if p < hi and self._nbr[p] == j else None

    def edge_ids(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """Edges as (i, j, labels) by vertex id, i < j, in canonical order."""
        start, nbr, lab, labels = self._start, self._nbr, self._lab, self._labels
        for i in range(self.n):
            hi = start[i + 1]
            for p in range(bisect_right(nbr, i, start[i], hi), hi):
                yield i, nbr[p], labels[lab[p]]

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self._nbr) // 2

    def index(self, u: Label) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise ValueError(f"unknown vertex {u!r}") from None

    def has_vertex(self, u: Label) -> bool:
        return u in self._index

    def has_edge(self, u: Label, v: Label) -> bool:
        return self.label(self.index(u), self.index(v)) is not None

    def neighbors(self, u: Label) -> tuple:
        return tuple(self.vertices[i] for i in self.row(self.index(u)))

    def degree(self, u: Label) -> int:
        return len(self.row(self.index(u)))

    def edge_labels(self, u: Label, v: Label) -> tuple[int, ...]:
        labels = self.label(self.index(u), self.index(v))
        if labels is None:
            raise ValueError(f"unknown edge ({u!r}, {v!r})")
        return labels

    def edges(self) -> Iterator[tuple[Label, Label, tuple[int, ...]]]:
        """Edges as (u, v, labels) with index(u) < index(v), canonical order."""
        verts = self.vertices
        for i, j, labels in self.edge_ids():
            yield verts[i], verts[j], labels

    # -- degree structure --------------------------------------------------

    def degree_census(self) -> dict[int, int]:
        start = self._start
        return dict(sorted(Counter(start[i + 1] - start[i] for i in range(self.n)).items()))

    def regularity(self) -> tuple[str, tuple[int, ...]]:
        """("regular", (d,)) / ("biregular", (a, b)) / ("irregular", degrees)."""
        degs = tuple(sorted(self.degree_census()))
        if len(degs) == 1:
            return ("regular", degs)
        if len(degs) == 2:
            return ("biregular", degs)
        return ("irregular", degs)

    # -- traversal ---------------------------------------------------------

    def bfs_distances(self, u: Label, limit: Optional[int] = None) -> dict:
        """Distances from u to every reachable vertex (within limit if given)."""
        verts = self.vertices
        return {verts[i]: d for i, d in self.bfs_ids(self.index(u), limit).items()}

    def bfs_ids(self, src: int, limit: Optional[int] = None) -> dict[int, int]:
        """:meth:`bfs_distances` by vertex id: from vertex id src to the id
        of every reachable vertex (within limit if given)."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            d = dist[x]
            if limit is not None and d >= limit:
                continue
            for y in self.row(x):
                if y not in dist:
                    dist[y] = d + 1
                    queue.append(y)
        return dist

    def distance(self, u: Label, v: Label) -> Optional[int]:
        return self.bfs_distances(u).get(v)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.bfs_ids(0)) == self.n

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
                for y in self.row(x):
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        queue.append(y)
            comps.append(self.restrict(sorted(comp)))
        return comps

    # -- surgery -----------------------------------------------------------

    def induced_subgraph(self, keep: Iterable[Label]) -> "Graph":
        """The subgraph induced on `keep`, its vertices in this graph's order."""
        return self.restrict(sorted(map(self.index, keep)))

    def subgraph(
        self,
        delete_vertices: Iterable[Label] = (),
        delete_edges: Iterable[Edge] = (),
    ) -> "Graph":
        """Delete vertices (with incident edges) and further explicit edges."""
        drop = {self.index(u) for u in delete_vertices}
        cut: set[tuple[int, int]] = set()
        for u, v in delete_edges:
            iu, iv = self.index(u), self.index(v)
            if iu in drop or iv in drop:
                raise ValueError(f"unknown vertex {u if iu in drop else v!r}")
            if self.label(iu, iv) is None or (iu, iv) in cut:
                raise ValueError(f"unknown edge ({u!r}, {v!r})")
            cut.update(((iu, iv), (iv, iu)))
        return self.restrict([i for i in range(self.n) if i not in drop], cut)

    def restrict(self, keep: Sequence[int], drop: Container[tuple[int, int]] = ()) -> "Graph":
        """The subgraph on the ascending vertex ids `keep`, without the edges
        `drop` holds both ways round, as (i, j) and (j, i); vertex id
        ``keep[i]`` becomes i, and the edges keep their label ids."""
        new_id = array("i", [-1]) * self.n
        for new, old in enumerate(keep):
            new_id[old] = new
        g = Graph.__new__(Graph)
        g._set_vertices(tuple(self.vertices[i] for i in keep))
        g._start, g._nbr, g._lab, g._labels = array("i", [0]), array("i"), array(self._lab.typecode), self._labels
        g._triangle = None
        for i in keep:
            for p in range(self._start[i], self._start[i + 1]):
                w = self._nbr[p]
                if new_id[w] >= 0 and (i, w) not in drop:
                    g._nbr.append(new_id[w])
                    g._lab.append(self._lab[p])
            g._start.append(len(g._nbr))
        return g

    # -- cycles, parity ----------------------------------------------------

    def has_triangle(self) -> bool:
        """Whether any three vertices are pairwise adjacent; scanned once
        per graph."""
        if self._triangle is None:
            self._triangle = False
            for i in range(self.n):
                nbrs = set(self.row(i))
                if any(j > i and not nbrs.isdisjoint(self.row(j)) for j in nbrs):
                    self._triangle = True
                    break
        return self._triangle

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
                for y in self.row(x):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        queue.append(y)
                    elif parent[x] != y:
                        cand = dist[x] + dist[y] + 1
                        if best is None or cand < best:
                            best = cand
        return best

    def odd_closed_walk(self, skip: Optional[Callable[[tuple], bool]] = None) -> Optional[list]:
        """An explicit odd closed walk (vertex list, first = last), or None
        if the graph is bipartite.  With `skip`, each edge whose labels
        satisfy ``skip(labels)`` is left out, as if deleted."""
        labels = self._labels
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            parent = {start: None}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y, lid in self.labeled_row(x):
                    if skip is not None and skip(labels[lid]):
                        continue
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


def regular_degree(degrees: set[int]) -> Optional[int]:
    """The one degree in `degrees`, or None unless they are all equal."""
    return next(iter(degrees)) if len(degrees) == 1 else None


# ---------------------------------------------------------------------------
# generator families and permutation graphs
# ---------------------------------------------------------------------------

Transposition = tuple[int, int]


class GeneratorFamily:
    """The edge rule of a permutation graph.

    kind "star": generator j swaps positions 0 and j.
    kind "pancake": generator j reverses the prefix of length j+1.
    kind "custom": generator j applies (0 j) composed with a given involution
    pi_j, a product of independent transpositions inside {1, ..., j-1}
    (pi_1 = pi_2 = identity).  pis[j-1] holds pi_j as a tuple of (a, b) pairs.

    A value: families of one kind and equal pis compare, hash and print alike.
    """

    def __init__(self, kind: str, pis: Optional[tuple[tuple[Transposition, ...], ...]] = None) -> None:
        self.kind, self.pis = kind, pis

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GeneratorFamily:
            return NotImplemented
        return (self.kind, self.pis) == (other.kind, other.pis)

    def __hash__(self) -> int:
        return hash((self.kind, self.pis))

    def __repr__(self) -> str:
        return f"GeneratorFamily(kind={self.kind!r}, pis={self.pis!r})"

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
        """Custom generator j as a full position permutation, for
        j = 1..length-1.  Star and pancake moves are
        :func:`~starperm.mstrings.star_neighbors` and
        :func:`~starperm.mstrings.prefix_reversal`.

        Entry j-1 maps new position -> old position; all generators are
        involutions so the direction is immaterial.
        """
        if self.kind != "custom":
            raise ValueError(f"position maps exist for the custom family only, got {self.kind!r}")
        assert self.pis is not None
        maps = []
        for j in range(1, length):
            perm = list(range(length))
            perm[0], perm[j] = j, 0
            for a, b in self.pis[j - 1]:
                perm[a], perm[b] = perm[b], perm[a]
            maps.append(tuple(perm))
        return maps


#: A symbol 0..15 to its hex digit.  Every other byte becomes "?", which no
#: hex parse accepts, so no stranger (symbol 16, or 48, ASCII "0") aliases a
#: label.
_TO_HEX = bytes(b"0123456789abcdef"[b] if b < 16 else ord("?") for b in range(256))
#: hex digits back to the symbols they name
_FROM_HEX = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
#: Codes of strings up to this long fit one unsigned 64-bit array entry.
_ARRAY_LENGTH = 16
#: Every _STRIDE-th code is also held in a list: reading an array entry makes
#: a Python int and reading a list entry does not, so a lookup bisects that
#: list first and then fewer than _STRIDE array entries.
_STRIDE = 16


def _pack(v) -> int:
    """The code of a string of symbols 0..15 (a tuple or bytes); ValueError
    or TypeError for anything else."""
    return int(bytes(v).translate(_TO_HEX), 16)


def _code_array(codes: Iterable[int], length: int):
    """Codes of strings of `length` symbols, in the given order: one
    ``array('Q')`` up to 16 symbols, a list of ints beyond."""
    return array("Q", codes) if length <= _ARRAY_LENGTH else list(codes)


def _star_steps(length: int) -> list[int]:
    """The star move (0 j) of a string v of `length` symbols adds
    ``(v[j] - v[0]) * step[j]`` to its code; step[j] by position j."""
    return [16 ** (length - 1) - 16 ** (length - 1 - j) for j in range(length)]


class PackedLabels(SequenceABC):
    """The vertex labels of a permutation graph, a read-only sequence held
    as one ascending sequence of packed codes.

    A string v of length L is the code whose L hex digits are its symbols,
    ``int(bytes(v).translate(_TO_HEX), 16)``.  Among strings of one length,
    lexicographic order is the numeric order of their codes, so the codes
    are the canonical vertex order, and a label is found by packing it and
    bisecting.  Codes of up to 16 symbols fit one ``array('Q')`` entry, 8
    bytes each; longer strings keep a list of ints, and nothing else
    differs.  Entry i unpacks on access to the tuple it stands for; the
    sequence compares equal to the tuple of them.
    """

    __slots__ = ("_codes", "_heads", "_length", "_nbytes", "_odd")

    def __init__(self, codes: Iterable[int], length: int) -> None:
        self._codes = _code_array(codes, length)
        self._heads = list(self._codes[::_STRIDE])
        self._length = length
        # a code's L hex digits are those of its bytes, less a leading "0"
        # when L is odd
        self._nbytes, self._odd = (length + 1) // 2, length % 2

    def _digits(self, c: int) -> str:
        """The L hex digits of code c, one per symbol."""
        return c.to_bytes(self._nbytes, "big").hex()[self._odd :]

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._unpacked(self._codes[i]))
        return tuple(self._digits(self._codes[i]).encode().translate(_FROM_HEX))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self._unpacked(self._codes)

    def _unpacked(self, codes) -> Iterator[tuple[int, ...]]:
        digits = self._digits
        return (tuple(digits(c).encode().translate(_FROM_HEX)) for c in codes)

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedLabels):
            return self._length == other._length and self._codes == other._codes
        return isinstance(other, tuple) and tuple(self) == other

    __hash__ = None  # type: ignore[assignment]

    def __contains__(self, v) -> bool:
        return self.find(v) >= 0

    def find(self, v) -> int:
        """The id of label v; -1 for anything that is not one of the labels."""
        if not isinstance(v, tuple) or len(v) != self._length:
            return -1
        try:
            code = _pack(v)
        except (TypeError, ValueError):  # an entry that is no symbol
            return -1
        return self._find_code(code)

    def find_text(self, token: str) -> int:
        """The id of the label whose text form (see
        :func:`~starperm.mstrings.mstring`) is token; -1 for none.  A token
        mstring refuses raises its ValueError."""
        if token.isdigit() and token.isascii():  # one digit per symbol, already the code's hex digits
            if len(token) != self._length:
                return -1
            return self._find_code(int(token, 16))
        return self.find(mstring(token))

    def text(self, i: int) -> str:
        """The text form of label i (see :func:`~starperm.mstrings.render`),
        the inverse of :meth:`find_text`: the code's hex digits while they
        are all decimal, one per symbol."""
        digits = self._digits(self._codes[i])
        return digits if digits.isdigit() else render(self[i])

    def _find_code(self, c: int) -> int:
        codes = self._codes
        lo = (bisect_right(self._heads, c) - 1) * _STRIDE
        if lo < 0:
            return -1
        n, hi = len(codes), lo + _STRIDE
        i = bisect_left(codes, c, lo, hi if hi < n else n)
        return i if i < n and codes[i] == c else -1


def _disjoint(labels: Iterable[PackedLabels]) -> bool:
    """Whether no code is in two of `labels`, each of distinct codes: their
    merged codes never repeat."""
    from heapq import merge  # imported here, not at load: only the chain check merges

    prev = None
    for c in merge(*(lab._codes for lab in labels)):
        if c == prev:
            return False
        prev = c
    return True


class PermGraph(Graph):
    """A multiset permutation graph: metadata and per-vertex columns on top
    of :class:`Graph`, its labels held as :class:`PackedLabels`."""

    __slots__ = ("params", "family", "nonstar_edges", "_first", "_repeat")

    vertices: PackedLabels
    params: Params
    family: GeneratorFamily
    #: custom-family edges created by an application with v[j] == v[0], as id pairs i < j
    nonstar_edges: frozenset[tuple[int, int]]

    def index(self, u: Label) -> int:
        if (i := self.vertices.find(u)) < 0:
            raise ValueError(f"unknown vertex {u!r}")
        return i

    def has_vertex(self, u: Label) -> bool:
        return u in self.vertices

    def first_symbols(self) -> bytes:
        """v[0] of every vertex, by vertex id; computed on first use."""
        if self._first is None:
            shift = 4 * (self.params.length - 1)
            self._first = bytes(c >> shift for c in self.vertices._codes)
        return self._first

    def repeat_positions(self) -> bytes:
        """The repeat position of every vertex (ell = 2), by vertex id;
        computed on first use, one repeat_position call per vertex."""
        if self._repeat is None:
            self._repeat = bytes(map(repeat_position, self.vertices))
        return self._repeat


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
    one edge carrying the set of generator positions as labels.  The codes
    and then the rows are written straight into the graph's core, one vertex
    at a time, each move found as a packed code by bisection.  k > 16 is
    refused with a ValueError: a code holds symbols 0..15 only.
    """
    if p.k > 16:
        raise ValueError(f"packed codes hold symbols 0..15, so k <= 16, got k = {p.k}")
    length = p.length
    nonstar: set[tuple[int, int]] = set()
    if family.kind == "custom":
        family.validate_pis(length)
        maps = family.position_maps(length)

    g = PermGraph.__new__(PermGraph)
    g.vertices = PackedLabels(map(_pack, iter_vertices(p, cap)), length)
    codes, heads, digits = g.vertices._codes, g.vertices._heads, g.vertices._digits
    n = len(codes)
    step = _star_steps(length)
    single = [(j,) for j in range(length)]

    def rows():
        # Every generator is an involution, so a row finds each of its edges,
        # and the edge's full label set, from its own end: the labels are
        # the ones the lower endpoint finds.
        for iv, c in enumerate(codes):
            h = digits(c)  # one hex digit per symbol
            if family.kind == "star":  # distinct neighbours, one label each
                v = h.encode().translate(_FROM_HEX)
                v0 = v[0]
                found = []
                for j, s in enumerate(v):
                    if s != v0:  # PackedLabels._find_code, inlined: the move is a vertex
                        code = c + (s - v0) * step[j]
                        lo = (bisect_right(heads, code) - 1) * _STRIDE
                        found.append((bisect_left(codes, code, lo, lo + _STRIDE if lo + _STRIDE < n else n), single[j]))
                found.sort()
                yield found
                continue
            # the other moves permute the hex digits, which are the symbols
            if family.kind == "pancake":
                moves = [(j, prefix_reversal(h, j)) for j in range(1, length) if h[j] != h[0]]
            else:
                moves = [(j, "".join(map(h.__getitem__, perm))) for j, perm in enumerate(maps, start=1)]
            row: dict[int, tuple[int, ...]] = {}
            for j, w in moves:
                if w == h:
                    continue
                iw = g.vertices._find_code(int(w, 16))
                if family.kind == "custom" and h[j] == h[0]:
                    nonstar.add((iv, iw) if iv < iw else (iw, iv))
                row[iw] = row.get(iw, ()) + (j,)
            yield sorted(row.items())

    g._set_rows(rows())
    g.params = p
    g.family = family
    g.nonstar_edges = frozenset(nonstar)
    g._first = g._repeat = None
    return g


# ---------------------------------------------------------------------------
# 6-cycle enumeration
# ---------------------------------------------------------------------------

SIX_CYCLE_CAP = 10**4


def six_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    """All 6-cycles, each once, as canonical tuples of vertex ids, in
    ascending order, one root's batch at a time.  The cap is checked here,
    at the call, not when the first cycle is asked for.

    A cycle is reported rooted at its least vertex r with its opposite
    vertex fourth; the two halves (r-x-y-z and r-x'-y'-z) are joined with
    the smaller second vertex first, which fixes rotation and reflection.
    Meets in the middle: for each root, 3-step paths through larger
    vertices are bucketed by endpoint and paired.
    """
    if g.n > SIX_CYCLE_CAP:
        raise CapExceeded(f"6-cycle enumeration capped at {SIX_CYCLE_CAP} vertices, graph has {g.n}")
    return _rooted_six_cycles(g)


def _rooted_six_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    adj = [g.row(i) for i in range(g.n)]
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
        cycles = []  # every cycle rooted at r starts with r: sorting each batch sorts them all
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
        yield from cycles
