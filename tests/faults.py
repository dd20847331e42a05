"""Fault injection: for the chi tests an altered W_1, read through the
vertex colors by id of the whole graph; for the Schreier tests a lost
fiber or a different move on Sym strings."""

from itertools import islice

import starperm.chains
import starperm.structure
from starperm import ColoringReport, PermGraph, TotalColoring

_by_id = TotalColoring.vertex_colors_by_id
_verify_coloring = starperm.structure.verify_coloring


class AlsoColorOne(int):
    """A vertex color that is also color 1: its vertex joins W_1 and stays
    in its own class."""

    def __eq__(self, other):
        return other == 1 or int(self) == other

    __hash__ = int.__hash__


def add_to_w1(monkeypatch, pick):
    """Make the vertex id ``pick(g, column)`` of the whole graph g a member
    of W_1 as well, and let chi's precondition pass on g, whose coloring is
    no longer total.  A component copy (a plain Graph) sees the true colors."""

    def vertex_colors_by_id(self, g):
        column = _by_id(self, g)
        if not isinstance(g, PermGraph):
            return column
        column = list(column)
        x = pick(g, column)
        column[x] = AlsoColorOne(column[x])
        return column

    def verify_coloring(g, tc):
        return ColoringReport(True, True, True, True) if isinstance(g, PermGraph) else _verify_coloring(g, tc)

    monkeypatch.setattr(TotalColoring, "vertex_colors_by_id", vertex_colors_by_id)
    monkeypatch.setattr(starperm.structure, "verify_coloring", verify_coloring)


def lose_first_fiber(monkeypatch):
    """The Schreier check streams every fiber but the first."""
    fibers = starperm.chains.schreier_fibers
    monkeypatch.setattr(starperm.chains, "schreier_fibers", lambda k, ell: islice(fibers(k, ell), 1, None))


def move_sym_strings(monkeypatch, move):
    """The Schreier check's star moves of a Sym string v (its entries
    distinct) become (j, move(v, j)) for j >= 1; moves of the multiset
    strings stay star moves."""
    star = starperm.chains.star_neighbors

    def neighbors(v):
        if len(set(v)) < len(v):
            return star(v)
        return tuple((j, move(v, j)) for j in range(1, len(v)))

    monkeypatch.setattr(starperm.chains, "star_neighbors", neighbors)
