"""Multiset permutation strings.

A string over the alphabet [k] = {0, ..., k-1} holding exactly `ell` copies
of each symbol has length k*ell; there are (k*ell)! / (ell!)^k of them.  They
are the vertex language of the star-transposition and pancake graphs, so this
module carries the exact string-level operations everything else is built on:
lexicographic enumeration, star transpositions, prefix reversals, repeat
positions (ell = 2) and the per-vertex position lists used for list
colorings.  The bijection between strings and vertex ids is the graph's
:class:`~starperm.graphs.PackedLabels`.

All values are immutable (strings are plain tuples of small ints) and every
function is pure.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator

from .errors import CapExceeded

MString = tuple[int, ...]

#: Refuse to enumerate vertex sets larger than this unless overridden.
DEFAULT_VERTEX_CAP = 10**7


class Params:
    """Instance parameters: k symbols, each repeated ell times.  A value:
    equal pairs compare and hash alike, so a pair keys a dict."""

    def __init__(self, k: int, ell: int) -> None:
        if k < 1 or ell < 1:
            raise ValueError(f"need k >= 1 and ell >= 1, got k={k}, ell={ell}")
        self.k, self.ell = k, ell

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Params:
            return NotImplemented
        return (self.k, self.ell) == (other.k, other.ell)

    def __hash__(self) -> int:
        return hash((self.k, self.ell))

    def __repr__(self) -> str:
        return f"Params(k={self.k!r}, ell={self.ell!r})"

    @property
    def length(self) -> int:
        return self.k * self.ell

    def vertex_count(self) -> int:
        return math.factorial(self.length) // math.factorial(self.ell) ** self.k


def mstring(text: str) -> MString:
    """Parse a vertex label: digit string, or comma-separated for symbols > 9."""
    text = text.strip()
    if "," in text:
        return tuple(map(int, text.split(",")))
    return tuple(map(int, text))


def render(v: object) -> str:
    """Inverse of :func:`mstring`: digits while every symbol fits in one.

    Any other vertex label (a generic token) comes back as
    ``str(v)``, so this is the one text form of every label written out.
    """
    if not (isinstance(v, tuple) and all(isinstance(s, int) for s in v)):
        return str(v)
    if v and max(v) > 9:
        return ",".join(str(s) for s in v)
    return "".join(str(s) for s in v)


def infer_params(v: MString) -> Params:
    """Recover (k, ell) from a string, validating the multiset shape."""
    counts = Counter(v)
    k = len(counts)
    if set(counts) != set(range(k)):
        raise ValueError(f"symbols must be exactly 0..k-1, got {sorted(counts)}")
    mults = set(counts.values())
    if len(mults) != 1:
        raise ValueError(f"unequal symbol multiplicities {dict(counts)}")
    return Params(k, mults.pop())


def iter_vertices(p: Params, cap: int = DEFAULT_VERTEX_CAP) -> Iterator[MString]:
    """All ell-set permutations in lexicographic order, one at a time.

    Uses the classic next-permutation step, which on sequences with repeated
    entries yields each distinct arrangement exactly once.  The cap is
    checked here, at the call, not when the first string is asked for.
    """
    total = p.vertex_count()
    if total > cap:
        raise CapExceeded(f"instance too large: {total} vertices exceeds cap {cap}")
    return _next_permutations(p)


def _next_permutations(p: Params) -> Iterator[MString]:
    cur = []
    for s in range(p.k):
        cur.extend([s] * p.ell)
    n = len(cur)
    while True:
        yield tuple(cur)
        i = n - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while cur[j] <= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1 :] = reversed(cur[i + 1 :])


def enumerate_vertices(p: Params, cap: int = DEFAULT_VERTEX_CAP) -> list[MString]:
    """All ell-set permutations in lexicographic order, as a list."""
    return list(iter_vertices(p, cap))


def star_neighbors(v: MString) -> tuple[tuple[int, MString], ...]:
    """All (position j, neighbor) pairs obtained by swapping v[0] with a
    differing entry v[j].  There are (k-1)*ell of them."""
    v0 = v[0]
    out = []
    for j in range(1, len(v)):
        if v[j] != v0:
            out.append((j, (v[j],) + v[1:j] + (v0,) + v[j + 1 :]))
    return tuple(out)


def prefix_reversal(v: MString, j: int) -> MString:
    """Reverse entries 0..j (inclusive), leaving the tail unchanged."""
    if not 1 <= j <= len(v) - 1:
        raise ValueError(f"position {j} out of range [1, {len(v) - 1}]")
    return v[j::-1] + v[j + 1 :]


def repeat_position(v: MString) -> int:
    """The unique i >= 1 with v[i] = v[0].  Defined only for ell = 2."""
    p = infer_params(v)
    if p.ell != 2:
        raise ValueError(f"repeat position needs ell = 2, got ell = {p.ell}")
    return v.index(v[0], 1)


def list_assignment(v: MString) -> frozenset[int]:
    """L(v) = positions j >= 1 carrying the same symbol as v[0]; the ell-1
    element color list attached to v.  Needs ell >= 2."""
    p = infer_params(v)
    if p.ell < 2:
        raise ValueError(f"list assignment needs ell >= 2, got ell = {p.ell}")
    v0 = v[0]
    return frozenset(j for j in range(1, len(v)) if v[j] == v0)
