"""Text formats: edge lists, DOT figures, coloring dumps.

Edge list: a header line `family k l n m`, then one line per edge
`u v label[,label...]` in canonical order.  Generic graphs (for the oracle)
use family "generic" with k = l = 0 and arbitrary vertex tokens.

DOT uses the fixed palette-to-name table 1=red 2=blue 3=green 4=hazel
5=black; higher colors fall back to c<N>.
"""

from __future__ import annotations

from typing import Optional, TextIO

from .coloring import TotalColoring
from .graphs import GeneratorFamily, Graph, PermGraph
from .mstrings import mstring, render

PALETTE_NAMES = {1: "red", 2: "blue", 3: "green", 4: "hazel", 5: "black"}


def color_name(c: int) -> str:
    return PALETTE_NAMES.get(c, f"c{c}")


def write_edge_list(g: Graph, out: TextIO) -> None:
    if isinstance(g, PermGraph):
        family, k, ell = g.family.kind, g.params.k, g.params.ell
    else:
        family, k, ell = "generic", 0, 0
    out.write(f"{family} {k} {ell} {g.n} {g.m}\n")
    for u, v, labels in g.edges():
        lab = ",".join(str(x) for x in labels)
        out.write(f"{render(u)} {render(v)} {lab}".rstrip() + "\n")


def read_edge_list(src: TextIO) -> Graph:
    """Rebuild a graph from :func:`write_edge_list` output.

    Permutation families come back as plain Graphs carrying the file's
    vertices in sorted order; the header is validated against the contents.
    """
    header = src.readline().split()
    if len(header) != 5:
        raise ValueError(f"malformed header {' '.join(header)!r}")
    family, k, ell, n, m = header[0], int(header[1]), int(header[2]), int(header[3]), int(header[4])
    parse = mstring if family in ("st", "star", "pc", "pancake", "custom") else (lambda t: t)
    edges = []
    seen: set = set()
    for line in src:
        parts = line.split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"malformed edge line {line.rstrip()!r}")
        u, v = parse(parts[0]), parse(parts[1])
        labels = tuple(int(x) for x in parts[2].split(",")) if len(parts) == 3 else ()
        edges.append((u, v, labels))
        seen.update((u, v))
    if len(seen) != n or len(edges) != m:
        raise ValueError(f"header says n={n} m={m}, file has n={len(seen)} m={len(edges)}")
    return Graph(sorted(seen), edges)


def write_dot(g: Graph, out: TextIO, tc: Optional[TotalColoring] = None, name: str = "g") -> None:
    out.write(f"graph {name} {{\n")
    if tc is not None:
        for v in g.vertices:
            c = tc.vertex_colors.get(v)
            if c is not None:
                out.write(f'  "{render(v)}" [color={color_name(c)}];\n')
    for u, v, labels in g.edges():
        attrs = ""
        if tc is not None:
            try:
                attrs = f" [color={color_name(tc.edge_color(u, v))}]"
            except KeyError:
                attrs = ""
        elif labels:
            attrs = f' [label="{",".join(str(x) for x in labels)}"]'
        out.write(f'  "{render(u)}" -- "{render(v)}"{attrs};\n')
    out.write("}\n")


def write_coloring(tc: TotalColoring, out: TextIO) -> None:
    """Lines `V u color` then `E u v color`, canonical order."""
    for v in tc.vertex_colors:
        out.write(f"V {render(v)} {tc.vertex_colors[v]}\n")
    for (u, v), c in tc.edge_colors.items():
        out.write(f"E {render(u)} {render(v)} {c}\n")


def read_coloring(src: TextIO) -> TotalColoring:
    vertex_colors: dict = {}
    edge_colors: dict = {}
    for line in src:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "V" and len(parts) == 3:
            vertex_colors[mstring(parts[1])] = int(parts[2])
        elif parts[0] == "E" and len(parts) == 4:
            edge_colors[(mstring(parts[1]), mstring(parts[2]))] = int(parts[3])
        else:
            raise ValueError(f"malformed coloring line {line.rstrip()!r}")
    palette = frozenset(vertex_colors.values()) | frozenset(edge_colors.values())
    return TotalColoring(vertex_colors, edge_colors, palette)


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
    return GeneratorFamily.custom([[(int(a), int(b)) for a, b in pi] for pi in data])
