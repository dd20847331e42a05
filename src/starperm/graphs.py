"""Graph construction and structural metrics.

The central type is an immutable simple undirected :class:`Graph` whose
vertices are hashable labels in a fixed canonical order, read by vertex id
(``index(v)``, ``vertices[i]``), and whose edges each carry a tuple, maybe
empty, of integer labels: the generator positions that realize the edge.
:class:`PermGraph` specializes it to the multiset permutation graphs: the
lexicographically ordered ell-set permutations, with the edges of a
generator family (star transpositions, prefix reversals, or custom ones).

The adjacency is one compressed-row core of vertex ids, known to this
module only: ``_nbr`` holds the stored rows of neighbour ids one after
another, each ascending, and ``_lab`` holds each entry's index into
``_labels``, the tuple of distinct edge-label tuples (one byte per entry
while there are at most 256 of them).  A regular graph of degree d, as
every graph the paper studies is, keeps ``_stride = d`` and no offsets:
stored row i is ``_nbr[i * d : i * d + d]``.  Any other keeps ``_stride =
None`` and 4-byte row offsets: stored row i is ``_nbr[_start[i]:_start[i +
1]]``.  Other modules read the core through :meth:`Graph.row`,
:meth:`Graph.labeled_row` (with :attr:`Graph.label_sets`),
:meth:`Graph.row_index`, :meth:`Graph.row_entry`, :meth:`Graph.label` and
:meth:`Graph.edge_ids`.

A plain :class:`Graph` stores every row, and keeps its labels as a tuple
and a label -> id dict.  A :class:`PermGraph` keeps neither: its labels
are :class:`PackedLabels`, one integer code per string with 4 bits per
symbol (so k <= 16), unpacked to a tuple on access.  The symbol reversal
b -> k-1-b is an automorphism of every permutation graph here, since each
generator permutes positions only, and it keeps each edge's labels; it
reverses the lexicographic order, so it maps id i to n-1-i.  A PermGraph
therefore stores the codes and the rows of ids 0..h-1 only, h = ceil(n/2),
and reads row n-1-i as the mirror of row i: each id w as n-1-w, in reverse
order, the label ids reversed with them.  n is odd only at k = 1: the
reversal pairs off the strings, save one it fixes, whose symbols would
all be (k-1)/2; there the one row, the middle one, is stored.  Codes take 8 bytes each in one
array for strings of up to 16 symbols.  Its repeat-position column is
bytes by vertex id.  A star graph also keeps no ``_lab``: the label of its
edge (0 j) is j, read off the two endpoints' codes through ``_moves``
once the row has shown the edge, so its core is half the codes and half
the rows, 2.34 MB at ST(5,2), about 20.6 bytes a vertex.  The packing is
known to this module only: the chain checks handle codes through the
helpers beside :func:`_pack` and the lookup of :class:`PackedLabels`, and
chi reads a label's digits through :meth:`PackedLabels.digits`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Sequence as SequenceABC
from itertools import chain, islice
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

    __slots__ = ("vertices", "n", "_index", "_stored", "_stride", "_start", "_nbr", "_lab", "_labels", "_triangle")

    def __init__(
        self,
        vertices: Sequence[Label],
        edges: Iterable[tuple] = (),
    ) -> None:
        self._set_vertices(tuple(vertices))
        if len(self._index) != self.n:
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
        self.vertices, self.n = vertices, len(vertices)
        self._index = {v: i for i, v in enumerate(vertices)}

    def _set_rows(self, rows: Iterable[Iterable[tuple[int, tuple]]]) -> None:
        """Pack the core from one row of (neighbour id, labels) pairs per
        stored vertex, ids ascending in each."""
        nbr, lab, ids = array("i"), array("B"), {}

        def ends() -> Iterator[int]:
            nonlocal lab
            for row in rows:
                for iw, labels in row:
                    nbr.append(iw)
                    lid = ids.setdefault(labels, len(ids))
                    try:
                        lab.append(lid)
                    except OverflowError:  # a 257th label set: widen the label ids
                        lab = array("i", lab)
                        lab.append(lid)
                yield len(nbr)

        self._lay_out(ends())
        self._nbr, self._lab, self._labels = nbr, lab, tuple(ids)

    def _lay_out(self, ends: Iterable[int]) -> None:
        """Decide the row layout from each stored row's end in ``_nbr``,
        read as the rows are filled, in vertex order: a fixed stride d while
        every row has d entries, and 4-byte row offsets from the first row
        that does not, which is the only time they are built (an offset of
        2^31 would stand for 8 GB of neighbour ids).  The rows given are
        the stored ones: all n, or the first ceil(n/2), the others read as
        their mirrors (see the module docstring)."""
        stride, start, i = None, None, -1
        for i, end in enumerate(ends):
            if start is not None:
                start.append(end)
            elif stride is None:
                stride = end
            elif end != (i + 1) * stride:
                start = array("i", (p * stride for p in range(i + 1)))
                start.append(end)
        self._stored = i + 1
        self._stride = (stride or 0) if start is None else None
        self._start = start
        #: has_triangle's verdict, None until asked
        self._triangle: Optional[bool] = None

    # -- the core, by vertex id ----------------------------------------------
    # Row i < _stored is _nbr[lo:hi], lo and hi from the stride or the
    # offsets; row i >= _stored is row n-1-i mirrored, each id w read as
    # n-1-w, in reverse order, with the label ids reversed alongside.

    def _span(self, i: int) -> tuple[int, int]:
        """Where stored row i lies in ``_nbr``: its first and past-last entry."""
        d = self._stride
        if d is None:
            return self._start[i], self._start[i + 1]
        return i * d, i * d + d

    def row(self, i: int) -> Sequence[int]:
        """Neighbour ids of vertex id i, ascending: an array slice of a
        stored row, a list for a mirrored one."""
        d = self._stride
        if i >= self._stored:
            last = self.n - 1
            r = last - i
            lo = self._start[r] if d is None else r * d
            hi = self._start[r + 1] if d is None else lo + d
            return [last - w for w in reversed(self._nbr[lo:hi])]
        if d is None:
            return self._nbr[self._start[i] : self._start[i + 1]]
        return self._nbr[i * d : i * d + d]

    def labeled_row(self, i: int) -> Iterator[tuple[int, int]]:
        """(neighbour id, label id) pairs of vertex id i, ids ascending;
        ``label_sets[label id]`` is the edge's labels."""
        if i < self._stored:
            lo, hi = self._span(i)
            ids = self._nbr[lo:hi]
            return zip(ids, self._label_ids(i, ids, lo, hi))
        last = self.n - 1
        r = last - i
        lo, hi = self._span(r)
        ids = self._nbr[lo:hi]
        return zip([last - w for w in reversed(ids)], reversed(self._label_ids(r, ids, lo, hi)))

    def _label_ids(self, i: int, ids: Sequence[int], lo: int, hi: int) -> Sequence[int]:
        """The label ids of ``_nbr[lo:hi]``, a part of stored row i whose
        entries are ids."""
        return self._lab[lo:hi]

    def row_index(self, i: int, j: int) -> int:
        """The index of vertex id j in row i, by bisection: ``row(i).index(j)``
        without the slice.  ValueError if j is not in the row."""
        d, r, t, mirrored = self._stride, i, j, i >= self._stored
        if mirrored:
            r, t = self.n - 1 - i, self.n - 1 - j
        if d is None:
            lo, hi = self._start[r], self._start[r + 1]
        else:
            lo = r * d
            hi = lo + d
        p = bisect_left(self._nbr, t, lo, hi)
        if p == hi or self._nbr[p] != t:
            raise ValueError(f"vertex id {j} is not in row {i}")
        return hi - 1 - p if mirrored else p - lo

    def row_entry(self, i: int, p: int) -> int:
        """Entry p of row i, ``0 <= p < len(row(i))``: ``row(i)[p]`` without
        the slice."""
        d = self._stride
        if i >= self._stored:
            last = self.n - 1
            r = last - i
            return last - self._nbr[(self._start[r + 1] if d is None else r * d + d) - 1 - p]
        return self._nbr[(self._start[i] if d is None else i * d) + p]

    @property
    def label_sets(self) -> tuple[tuple[int, ...], ...]:
        """The distinct edge-label tuples, by label id; a subgraph cut from
        this graph shares the same tuple."""
        return self._labels

    def label(self, i: int, j: int) -> Optional[tuple[int, ...]]:
        """Labels of the edge between vertex ids i and j; None if there is none."""
        if i >= self._stored:  # the mirrored edge carries the same labels
            i, j = self.n - 1 - i, self.n - 1 - j
        lo, hi = self._span(i)
        p = bisect_left(self._nbr, j, lo, hi)
        return self._labels[self._lab[p]] if p < hi and self._nbr[p] == j else None

    def edge_ids(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """Edges as (i, j, labels) by vertex id, i < j, in canonical order:
        the part of each row past i.  Past the stored rows, that part of row
        i is the mirror of the part of row n-1-i before n-1-i."""
        nbr, labels, last, span = self._nbr, self._labels, self.n - 1, self._span
        for i in range(self._stored):
            lo, hi = span(i)
            lo = bisect_right(nbr, i, lo, hi)
            ids = nbr[lo:hi]
            for j, lid in zip(ids, self._label_ids(i, ids, lo, hi)):
                yield i, j, labels[lid]
        for i in range(self._stored, last + 1):
            r = last - i
            lo, hi = span(r)
            hi = bisect_left(nbr, r, lo, hi)
            ids = nbr[lo:hi]
            for w, lid in zip(reversed(ids), reversed(self._label_ids(r, ids, lo, hi))):
                yield i, last - w, labels[lid]

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        # the mirrored rows hold the entries of the first n - _stored rows again
        r, d = self.n - self._stored, self._stride
        return (len(self._nbr) + (self._start[r] if d is None else r * d)) // 2

    def index(self, u: Label) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise ValueError(f"unknown vertex {u!r}") from None

    def edges(self) -> Iterator[tuple[Label, Label, tuple[int, ...]]]:
        """Edges as (u, v, labels) with index(u) < index(v), canonical order."""
        verts = self.vertices
        for i, j, labels in self.edge_ids():
            yield verts[i], verts[j], labels

    # -- degree structure --------------------------------------------------

    def degree_census(self) -> dict[int, int]:
        if self._stride is not None:
            return {self._stride: self.n} if self.n else {}
        start = self._start
        degrees = [start[i + 1] - start[i] for i in range(self._stored)]
        # mirrored row i has the degree of row n-1-i, one of the first n - _stored
        return dict(sorted(Counter(chain(degrees, islice(degrees, self.n - self._stored))).items()))

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
        seen: set[int] = set()
        comps = []
        for start in range(self.n):
            if start not in seen:
                comp = self.bfs_ids(start)
                seen.update(comp)
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
        nbr, lab = array("i"), array("B" if len(self._labels) <= 256 else "i")

        def ends() -> Iterator[int]:
            for i in keep:
                for w, lid in self.labeled_row(i):
                    if new_id[w] >= 0 and (i, w) not in drop:
                        nbr.append(new_id[w])
                        lab.append(lid)
                yield len(nbr)

        g._lay_out(ends())
        g._nbr, g._lab, g._labels = nbr, lab, self._labels
        return g

    # -- cycles, parity ----------------------------------------------------

    def has_triangle(self) -> bool:
        """Whether any three vertices are pairwise adjacent; scanned once
        per graph.  Two stored vertices root the scan: a triangle with two
        mirrored vertices is the mirror of one with two stored ones."""
        if self._triangle is None:
            self._triangle = False
            h = self._stored
            for i in range(h):
                nbrs = set(self.row(i))
                if any(i < j < h and not nbrs.isdisjoint(self.row(j)) for j in nbrs):
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

    Families of one kind and equal pis print alike.
    """

    def __init__(self, kind: str, pis: Optional[tuple[tuple[Transposition, ...], ...]] = None) -> None:
        self.kind, self.pis = kind, pis

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
    as ascending packed codes.

    A string v of length L is the code whose L hex digits are its symbols,
    ``int(bytes(v).translate(_TO_HEX), 16)``.  Among strings of one length,
    lexicographic order is the numeric order of their codes, so the codes
    are the canonical vertex order, and a label is found by packing it and
    bisecting.  Codes of up to 16 symbols fit one ``array('Q')`` entry, 8
    bytes each; longer strings keep a list of ints, and nothing else
    differs.  A graph's whole vertex set (see :func:`_vertex_labels`) keeps
    only the codes of ids 0..h-1, h = ceil(n/2): the symbol reversal
    b -> k-1-b maps the set onto itself and reverses its order, so id n-1-i
    has code K - codes[i], K = (k-1)(16^L-1)/15 being the code of the
    string of k-1s.  That halves the codes, 0.87 -> 0.43 MB at ST(5,2)
    and 59.9 -> 29.9 MB at ST(6,2); a set of codes given to the
    constructor keeps them all.  Codes are read through :meth:`_code`,
    :meth:`_all_codes` and :meth:`_find_code`, one bisection of the stored
    codes (a list of every 16th code, bisected first, was 7% faster at
    k = 5 and held 0.28 MB); the build's lookups and a star graph's label
    rows repeat the mirror branch inline, as a call per entry costs more
    than the branch.  Entry i unpacks on access to the tuple it stands
    for; compare the sequence through ``tuple(labels)``, and find a label
    with :meth:`find` or a graph's :meth:`~PermGraph.index`.
    """

    __slots__ = ("_codes", "_n", "_top", "_length", "_nbytes", "_odd")

    def __init__(self, codes: Iterable[int], length: int) -> None:
        self._codes = _code_array(codes, length)
        # n labels; ids from len(_codes) on are read as _top - _codes[n - 1 - id]
        self._n, self._top = len(self._codes), 0
        self._length = length
        # a code's L hex digits are those of its bytes, less a leading "0"
        # when L is odd
        self._nbytes, self._odd = (length + 1) // 2, length % 2

    def _code(self, i: int) -> int:
        """The code of label id i, 0 <= i < n."""
        codes = self._codes
        if 0 <= i < len(codes):
            return codes[i]
        if len(codes) <= i < self._n:
            return self._top - codes[self._n - 1 - i]
        raise IndexError(f"label id {i} out of range({self._n})")

    def _find_code(self, c: int) -> int:
        """The id of code c; -1 for a code that is no label's."""
        codes, top = self._codes, self._top
        if 2 * c > top and len(codes) < self._n:  # past the stored half: found as its mirror
            m = top - c
            i = bisect_left(codes, m)
            return self._n - 1 - i if i < len(codes) and codes[i] == m else -1
        i = bisect_left(codes, c)
        return i if i < len(codes) and codes[i] == c else -1

    def _all_codes(self) -> Iterator[int]:
        """Every code, by id: the stored ones, then the mirrored ones."""
        codes, top = self._codes, self._top
        return chain(codes, (top - codes[j] for j in range(self._n - len(codes) - 1, -1, -1)))

    def _digits(self, c: int) -> str:
        """The L hex digits of code c, one per symbol."""
        return c.to_bytes(self._nbytes, "big").hex()[self._odd :]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> tuple[int, ...]:
        i = range(self._n)[i]  # a negative index as a tuple reads it
        return tuple(self._digits(self._code(i)).encode().translate(_FROM_HEX))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self._unpacked(self._all_codes())

    def _unpacked(self, codes: Iterable[int]) -> Iterator[tuple[int, ...]]:
        digits = self._digits
        return (tuple(digits(c).encode().translate(_FROM_HEX)) for c in codes)

    # in, index and count answer through find: the Sequence mixin's would
    # unpack every label in turn

    def __contains__(self, v) -> bool:
        return self.find(v) >= 0

    def index(self, v, start: int = 0, stop: Optional[int] = None) -> int:
        """The id of label v, if it lies in ``range(n)[start:stop]``;
        ValueError otherwise."""
        if (i := self.find(v)) < 0 or i not in range(self._n)[start:stop]:
            raise ValueError(f"{v!r} is not in the labels")
        return i

    def count(self, v) -> int:
        """1 for a label, 0 for anything else: the labels are distinct."""
        return int(self.find(v) >= 0)

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
        # _digits inline: the edge-list writer names every edge end here
        digits = self._code(i).to_bytes(self._nbytes, "big").hex()[self._odd :]
        return digits if digits.isdigit() else render(self[i])

    def digits(self, i: int) -> str:
        """Label i as one hex digit per symbol, ``"0"`` to ``"f"``: a string
        that slices and compares without unpacking to a tuple."""
        return self._digits(self._code(i))


def _vertex_labels(p: Params, cap: int) -> PackedLabels:
    """The labels of every vertex under p, the lower half of their codes
    stored (see :class:`PackedLabels`).  Every string is still enumerated:
    each one past the stored half must be the reversal of its mirror, or
    RuntimeError is raised, so no label is taken on trust."""
    strings = map(_pack, iter_vertices(p, cap))
    n = p.vertex_count()
    labels = PackedLabels(islice(strings, (n + 1) // 2), p.length)
    codes, top = labels._codes, (p.k - 1) * (16**p.length - 1) // 15
    last = len(codes) - 1
    for last, c in enumerate(strings, len(codes)):
        if last >= n or c != top - codes[n - 1 - last]:
            raise RuntimeError(f"vertex {last} of {n} under {p} is not the symbol reversal of vertex {n - 1 - last}")
    if last != n - 1:
        raise RuntimeError(f"{last + 1} vertices under {p}, not {n}")
    labels._n, labels._top = n, top
    return labels


def _disjoint(labels: Iterable[PackedLabels]) -> bool:
    """Whether no code is in two of `labels`, each of distinct codes: their
    merged codes never repeat."""
    from heapq import merge  # imported here, not at load: only the chain check merges

    prev = None
    for c in merge(*(lab._all_codes() for lab in labels)):
        if c == prev:
            return False
        prev = c
    return True


class PermGraph(Graph):
    """A multiset permutation graph: metadata and per-vertex columns on top
    of :class:`Graph`, its labels held as :class:`PackedLabels`.  It stores
    the rows of ids 0..h-1, h = ceil(n/2), and reads row n-1-i as the
    mirror of row i under the symbol reversal (see the module docstring).
    A star graph's edge (i, w) carries label id j - 1 for its move (0 j),
    read as ``_moves[code(w) - code(i)]``, which holds both signs of each
    difference, so a mirrored edge reads the label of the edge it mirrors;
    the other families keep ``_lab``, reversed with the mirrored rows."""

    __slots__ = ("params", "family", "_repeat", "_moves")

    vertices: PackedLabels
    params: Params
    family: GeneratorFamily

    def index(self, u: Label) -> int:
        if (i := self.vertices.find(u)) < 0:
            raise ValueError(f"unknown vertex {u!r}")
        return i

    def _label_ids(self, i: int, ids: Sequence[int], lo: int, hi: int) -> Sequence[int]:
        moves = self._moves
        if moves is None:
            return self._lab[lo:hi]
        # each code as _code reads it, the mirror branch inline: no call per
        # entry; stored row i has a stored code
        verts = self.vertices
        codes, top = verts._codes, verts._top
        h, last, c = len(codes), verts._n - 1, codes[i]
        return [moves[(codes[w] if w < h else top - codes[last - w]) - c] for w in ids]

    def label(self, i: int, j: int) -> Optional[tuple[int, ...]]:
        if self._moves is None:
            return Graph.label(self, i, j)
        verts = self.vertices
        codes, top, last = verts._codes, verts._top, verts._n - 1
        if i >= self._stored:  # the mirrored edge carries the same labels
            i, j = last - i, last - j
        lo, hi = self._span(i)
        p = bisect_left(self._nbr, j, lo, hi)
        if p == hi or self._nbr[p] != j:  # the row decides adjacency, never the codes
            return None
        # j's code as _code reads it, inline as in _label_ids
        cj = codes[j] if j < len(codes) else top - codes[last - j]
        return self._labels[self._moves[cj - codes[i]]]

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
    differs from the source, v[j] == v[0] included.
    Parallel edges (distinct generators, same endpoints) are collapsed into
    one edge carrying the set of generator positions as labels.  Every
    string is enumerated and checked against its mirror (see
    :func:`_vertex_labels`); the codes and then the rows of the lower half,
    ids 0..ceil(n/2)-1, are written straight into the graph's core, one
    vertex at a time, each move found as a packed code by bisection.  The
    upper half's rows are read as mirrors of these, which is sound because
    the symbol reversal commutes with every generator, a permutation of
    positions, and keeps the edge rule, a test on the symbols' equality.  A
    star graph's rows hold neighbour ids only.  k > 16 is refused with a
    ValueError: a code holds symbols 0..15 only.
    """
    if p.k > 16:
        raise ValueError(f"packed codes hold symbols 0..15, so k <= 16, got k = {p.k}")
    length = p.length
    if family.kind == "custom":
        family.validate_pis(length)
        maps = family.position_maps(length)

    g = PermGraph.__new__(PermGraph)
    g.vertices = _vertex_labels(p, cap)
    g.n, digits = len(g.vertices), g.vertices._digits
    g.params, g.family, g._repeat, g._moves = p, family, None, None

    def rows():
        # Every generator is an involution, so a row finds each of its edges,
        # and the edge's full label set, from its own end: the labels are
        # the ones the lower endpoint finds.
        for c in g.vertices._codes:  # the stored rows: ids 0..h-1
            h = digits(c)  # one hex digit per symbol
            # the moves permute the hex digits, which are the symbols
            if family.kind == "pancake":
                moves = [(j, prefix_reversal(h, j)) for j in range(1, length) if h[j] != h[0]]
            else:
                moves = [(j, "".join(map(h.__getitem__, perm))) for j, perm in enumerate(maps, start=1)]
            row: dict[int, tuple[int, ...]] = {}
            for j, w in moves:
                if w == h:
                    continue
                iw = g.vertices._find_code(int(w, 16))
                row[iw] = row.get(iw, ()) + (j,)
            yield sorted(row.items())

    def star_ends() -> Iterator[int]:
        # neighbour ids only: the move (0 j) is an edge when v[j] != v[0],
        # to the code it makes; the moves are distinct, so no edge is parallel
        # each move's code found as _find_code does, the mirror branch inline
        codes, top, last = g.vertices._codes, g.vertices._top, g.vertices._n - 1
        half = top // 2  # w <= half when 2 w <= top
        for c in codes:  # the stored rows: ids 0..h-1
            v = digits(c).encode().translate(_FROM_HEX)
            v0 = v[0]
            ends = [c + (s - v0) * step[j] for j, s in enumerate(v) if s != v0]
            nbr.extend(sorted([bisect_left(codes, w) if w <= half else last - bisect_left(codes, top - w) for w in ends]))
            yield len(nbr)

    if family.kind == "star":
        step = _star_steps(length)
        nbr = g._nbr = array("i")
        g._lay_out(star_ends())
        # label id j - 1 by the change the move (0 j) makes to a code; no two
        # moves make one change, as its nonzero hex digits, at positions 0 and
        # j and each under 16 in size, fix j and v[j] - v[0]
        g._moves = {d * step[j]: j - 1 for j in range(1, length) for d in range(1 - p.k, p.k) if d}
        g._lab, g._labels = None, tuple((j,) for j in range(1, length)) if nbr else ()
    else:
        g._set_rows(rows())
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
