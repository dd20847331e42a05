"""Multiset permutation strings.

A string over the alphabet [k] = {0, ..., k-1} holding exactly `ell` copies
of each symbol has length k*ell; there are (k*ell)! / (ell!)^k of them.  They
are the vertex language of the star-transposition and pancake graphs, so this
module carries the exact string-level operations everything else is built on:
lexicographic enumeration, ranking/unranking, star transpositions, prefix
reversals, repeat positions (ell = 2) and the per-vertex position lists used
for list colorings.

All values are immutable (strings are plain tuples of small ints) and every
function is pure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceeded

MString = tuple[int, ...]

#: Refuse to enumerate vertex sets larger than this unless overridden.
DEFAULT_VERTEX_CAP = 10**7


@dataclass(frozen=True)
class Params:
    """Instance parameters: k symbols, each repeated ell times."""

    k: int
    ell: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.ell < 1:
            raise ValueError(f"need k >= 1 and ell >= 1, got k={self.k}, ell={self.ell}")

    @property
    def length(self) -> int:
        return self.k * self.ell

    def vertex_count(self) -> int:
        return math.factorial(self.length) // math.factorial(self.ell) ** self.k


def vertex_count(p: Params) -> int:
    return p.vertex_count()


def mstring(text: str) -> MString:
    """Parse a vertex label: digit string, or comma-separated for symbols > 9."""
    text = text.strip()
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return tuple(int(c) for c in text)


def render(v: object) -> str:
    """Inverse of :func:`mstring`: digits while every symbol fits in one.

    Any other vertex label (a generic token, an apex tag) comes back as
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


def validate(v: MString, p: Params) -> None:
    if len(v) != p.length:
        raise ValueError(f"length {len(v)} != k*ell = {p.length}")
    counts = Counter(v)
    for s in range(p.k):
        if counts.get(s, 0) != p.ell:
            raise ValueError(f"symbol {s} occurs {counts.get(s, 0)} times, want {p.ell}")
    if set(counts) - set(range(p.k)):
        raise ValueError(f"symbols out of range [0, {p.k}) in {render(v)}")


def enumerate_vertices(p: Params, cap: int = DEFAULT_VERTEX_CAP) -> list[MString]:
    """All ell-set permutations in lexicographic order.

    Uses the classic next-permutation step, which on sequences with repeated
    entries yields each distinct arrangement exactly once.
    """
    total = p.vertex_count()
    if total > cap:
        raise CapExceeded(f"instance too large: {total} vertices exceeds cap {cap}")
    cur = []
    for s in range(p.k):
        cur.extend([s] * p.ell)
    out = [tuple(cur)]
    n = len(cur)
    while True:
        i = n - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while cur[j] <= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1 :] = reversed(cur[i + 1 :])
        out.append(tuple(cur))


@lru_cache(maxsize=None)
def _arrangements(counts: tuple[int, ...]) -> int:
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return total


def rank(v: MString, p: Params) -> int:
    """Position of v in the lexicographic enumeration under p."""
    validate(v, p)
    counts = [p.ell] * p.k
    r = 0
    for s in v:
        for c in range(s):
            if counts[c]:
                counts[c] -= 1
                r += _arrangements(tuple(counts))
                counts[c] += 1
        counts[s] -= 1
    return r


def unrank(i: int, p: Params) -> MString:
    """Inverse of :func:`rank`."""
    total = p.vertex_count()
    if not 0 <= i < total:
        raise ValueError(f"rank {i} out of range [0, {total})")
    counts = [p.ell] * p.k
    out = []
    for _ in range(p.length):
        for s in range(p.k):
            if not counts[s]:
                continue
            counts[s] -= 1
            block = _arrangements(tuple(counts))
            if i < block:
                out.append(s)
                break
            i -= block
            counts[s] += 1
    return tuple(out)


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
