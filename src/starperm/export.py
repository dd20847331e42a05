"""Text formats: edge lists, DOT figures, coloring dumps.

Edge list: a header line `family k l n m`, then one line per edge
`u v label[,label...]` in canonical order, and a vertex without edges as a
line holding its name alone, in vertex order; m counts the edge lines.
Generic graphs (for the oracle) use family "generic" with k = l = 0 and
arbitrary vertex tokens.

DOT uses the fixed palette-to-name table 1=red 2=blue 3=green 4=hazel
5=black; higher colors fall back to c<N>.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, TextIO

from .coloring import TotalColoring
from .graphs import GeneratorFamily, Graph, PermGraph
from .mstrings import mstring, render

PALETTE_NAMES = {1: "red", 2: "blue", 3: "green", 4: "hazel", 5: "black"}


def color_name(c: int) -> str:
    return PALETTE_NAMES.get(c, f"c{c}")


def _namer(g: Graph) -> Callable[[int], str]:
    """Vertex id -> the text form of its label, as :func:`render` writes it."""
    if isinstance(g, PermGraph):
        return g.vertices.text
    verts = g.vertices
    return lambda i: render(verts[i])


def write_edge_list(g: Graph, out: TextIO) -> None:
    if isinstance(g, PermGraph):
        family, k, ell = g.family.kind, g.params.k, g.params.ell
    else:
        family, k, ell = "generic", 0, 0
    out.write(f"{family} {k} {ell} {g.n} {g.m}\n")
    # no table of names: each line is written as it is made, its endpoints named by id
    text, labeled_row = _namer(g), g.labeled_row
    tails = [f" {','.join(map(str, labels))}" if labels else "" for labels in g.label_sets]
    for i in range(g.n):
        u = text(i)
        if not g.row(i):
            out.write(f"{u}\n")
        for j, lid in labeled_row(i):
            if j > i:
                out.write(f"{u} {text(j)}{tails[lid]}\n")


def _edge_lines(src: TextIO, parse: Callable[[str], object] = mstring) -> Iterator[tuple]:
    """The edge-list grammar: yields the header's (n, m), then (u, v, labels)
    per edge line and (u,) per vertex line, a permutation family's vertex
    tokens read by `parse`; a malformed line or integer raises ValueError
    where it is."""
    header = src.readline().split()
    if len(header) != 5:
        raise ValueError(f"malformed header {' '.join(header)!r}")
    family, _, _, n, m = header[0], int(header[1]), int(header[2]), int(header[3]), int(header[4])
    yield n, m
    if family not in ("st", "star", "pc", "pancake", "custom"):
        parse = str
    for line in src:
        parts = line.split()
        if not parts:
            continue
        if len(parts) == 1:
            yield (parse(parts[0]),)
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"malformed edge line {line.rstrip()!r}")
        u, v = parse(parts[0]), parse(parts[1])
        yield u, v, tuple(map(int, parts[2].split(","))) if len(parts) == 3 else ()


def _check_counts(n: int, m: int, file_n: int, file_m: int) -> None:
    if file_n != n or file_m != m:
        raise ValueError(f"header says n={n} m={m}, file has n={file_n} m={file_m}")


def read_edge_list(src: TextIO) -> Graph:
    """Rebuild a graph from :func:`write_edge_list` output.

    Permutation families come back as plain Graphs carrying the file's
    vertices in sorted order; the header is validated against the contents.
    """
    (n, m), *lines = _edge_lines(src)
    edges = [line for line in lines if len(line) == 3]
    seen = {x for line in lines for x in line[:2]}
    _check_counts(n, m, len(seen), len(edges))
    return Graph(sorted(seen), edges)


def edge_list_matches(src: TextIO, g: PermGraph) -> bool:
    """Whether an edge list holds the star graph g's vertices, edges and
    merged edge labels, read line by line into a byte per vertex and a bit
    per edge of g (the labels g lacks are kept too, to count them).  A file
    :func:`read_edge_list` refuses raises its ValueError."""
    find = g.vertices.find_text

    def vertex(token: str):
        # g's vertices by id, the others as read_edge_list reads them
        i = find(token)
        return i if i >= 0 else mstring(token)

    lines = _edge_lines(src, vertex)
    n, m = next(lines)
    length = g.params.length
    # covered: bit (lower endpoint) * length + label of each edge line
    # matched, counted in `matched` when it is first set
    seen, covered, foreign = bytearray(g.n), bytearray((g.n * length + 7) >> 3), set()
    edge_lines, matched, differs, loop = 0, 0, False, None
    for line in lines:
        for x in line[:2]:
            if type(x) is int:
                seen[x] = 1
            else:
                foreign.add(x)
        if len(line) == 1:
            continue
        u, v, labels = line
        edge_lines += 1
        if u == v:
            loop = u if loop is None else loop
        elif type(u) is not int or type(v) is not int or (own := g.label(u, v)) is None or any(j != own[0] for j in labels):
            differs = True
        elif labels:
            slot = min(u, v) * length + labels[0]
            byte, bit = slot >> 3, 1 << (slot & 7)
            if not covered[byte] & bit:
                covered[byte] |= bit
                matched += 1
    known = seen.count(1)
    _check_counts(n, m, known + len(foreign), edge_lines)
    if loop is not None:
        raise ValueError(f"loop at {g.vertices[loop] if type(loop) is int else loop!r}")
    # the file's edge lines are its header's m; a repeated line makes them more than g.m
    return not differs and not foreign and known == g.n and edge_lines == matched == g.m


def write_dot(g: Graph, out: TextIO, tc: Optional[TotalColoring] = None, name: str = "g") -> None:
    if tc is not None and tc.graph is not g:
        raise ValueError("the coloring given is not a coloring of this graph")
    out.write(f"graph {name} {{\n")
    text = _namer(g)
    if tc is not None and tc.vertex_colors is not None:
        for i, c in enumerate(tc.vertex_colors):
            out.write(f'  "{text(i)}" [color={color_name(c)}];\n')
    for i, j, labels in g.edge_ids():
        attrs = ""
        if tc is not None:
            attrs = f" [color={color_name(labels[0])}]"
        elif labels:
            attrs = f' [label="{",".join(str(x) for x in labels)}"]'
        out.write(f'  "{text(i)}" -- "{text(j)}"{attrs};\n')
    out.write("}\n")


def write_coloring(tc: TotalColoring, out: TextIO) -> None:
    """Lines `V u color` then `E u v color`, canonical order."""
    g = tc.graph
    text = _namer(g)
    if tc.vertex_colors is not None:
        for i, c in enumerate(tc.vertex_colors):
            out.write(f"V {text(i)} {c}\n")
    for i, j, labels in g.edge_ids():
        out.write(f"E {text(i)} {text(j)} {labels[0]}\n")


def load_pi_file(path: str, length: int) -> GeneratorFamily:
    """Custom involutions from JSON: a list of length k*l-1, entry i-1 being
    pi_i as a list of [a, b] transpositions."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("pi file must hold a JSON list of transposition lists")
    if len(data) != length - 1:
        raise ValueError(f"pi file must list {length - 1} involutions, has {len(data)}")
    for j, pi in enumerate(data, start=1):
        pairs = isinstance(pi, list) and all(isinstance(t, list) and len(t) == 2 for t in pi)
        if not (pairs and all(type(x) is int for t in pi for x in t)):
            raise ValueError(f"pi_{j} must be a list of [a, b] integer pairs")
    return GeneratorFamily.custom(data)
