"""Fault injection: for the chi tests an altered W_1, put into a coloring's
vertex column; for the chain tests a wrong shift or a lost source string;
for the Schreier tests a lost fiber or a different move on Sym strings."""

from itertools import islice

import starperm.chains
import starperm.structure
import starperm.suites
from starperm import ChainEmbedding, ColoringReport, Params, PermGraph, TotalColoring

_sigma_total_coloring = starperm.suites.sigma_total_coloring
_verify_coloring = starperm.structure.verify_coloring


class AlsoColorOne(int):
    """A vertex color that is also color 1: its vertex joins W_1 and stays
    in its own class."""

    def __eq__(self, other):
        return other == 1 or int(self) == other

    __hash__ = int.__hash__


def add_to_w1(monkeypatch, tc: TotalColoring, pick) -> TotalColoring:
    """tc with the vertex id ``pick(g, column)`` of its graph g a member of
    W_1 as well; the suites' repeat-position coloring gets the same fault.
    chi's precondition passes on g, whose coloring is no longer total, when
    it reads the patched ``starperm.structure.verify_coloring``'s report, as
    the suite's shared one is.  A component's coloring is verified, and sees
    the fault."""

    def faulted(tc):
        column = list(tc.vertex_colors)
        x = pick(tc.graph, column)
        column[x] = AlsoColorOne(column[x])
        return TotalColoring(tc.graph, column, tc.palette)

    def verify_coloring(tc):
        return ColoringReport(True, True, True, True, []) if isinstance(tc.graph, PermGraph) else _verify_coloring(tc)

    monkeypatch.setattr(starperm.structure, "verify_coloring", verify_coloring)
    monkeypatch.setattr(starperm.suites, "verify_coloring", verify_coloring)
    monkeypatch.setattr(starperm.suites, "sigma_total_coloring", lambda g: faulted(_sigma_total_coloring(g)))
    return faulted(tc)


def shift_one_embedding(monkeypatch, j):
    """kappa_j shifts every symbol one step further than it should; the
    other embeddings keep their shifts."""
    shift = ChainEmbedding.shift.fget

    def wrong(emb):
        return (shift(emb) + (emb.j == j)) % (emb.source_k + 1)

    monkeypatch.setattr(ChainEmbedding, "shift", property(wrong))


def drop_source_string(monkeypatch, k, index):
    """The chain check streams the strings of ST(k,2) without the one at
    `index`; those of ST(k+1,2) stay whole."""
    strings = starperm.chains.iter_vertices

    def streamed(p, *args):
        if p != Params(k, 2):
            return strings(p, *args)
        return (v for n, v in enumerate(strings(p, *args)) if n != index)

    monkeypatch.setattr(starperm.chains, "iter_vertices", streamed)


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
