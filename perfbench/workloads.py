"""The benchmark's workloads: CLI steps made from a seed.

Each workload is a function ``(seed, workdir) -> list[Step]``.  A step is
one ``starperm`` command line, run as its own process; ``prepare`` is the
command line of bench work done before the step and not timed (rewriting
an input file).  It runs in a process of its own, because Linux carries a
parent's peak RSS into the ``getrusage`` figures of every later child.  The
same seed gives the same steps and the same input files.

``python3 workloads.py shuffle PATH SEED`` rewrites an edge list in place.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent


@dataclass
class Step:
    key: str  # the step's entry in the expected-verdict record
    argv: list[str]
    prepare: Optional[list[str]] = None


def toroidal_choice(seed: int) -> tuple[int, tuple[int, ...]]:
    """``(d1, quad)``: five distinct colors of ST(4,2)'s 1..7, from the seed."""
    colors = random.Random(seed).sample(range(1, 8), 5)
    return colors[0], tuple(colors[1:])


def desk_k4_all(seed: int, work: Path) -> list[Step]:
    d1, quad = toroidal_choice(seed)
    return [
        Step(
            "verify-all-k4",
            ["verify", "--suite", "all", "--k", "4", "--l", "2", "--d1", str(d1),
             "--quad", ",".join(map(str, quad)), "--seed", str(seed)],
        ),
        Step("verify-all-k3-l3", ["verify", "--suite", "all", "--k", "3", "--l", "3", "--seed", str(seed)]),
        Step("search-codes-k3", ["search-codes", "--k", "3", "--l", "2", "--ell", "1"]),
    ]


def scale_k5_domination(seed: int, work: Path) -> list[Step]:
    return [Step("verify-domination-k5", ["verify", "--suite", "domination", "--k", "5", "--l", "2", "--seed", str(seed)])]


def shuffle_edge_list(path: Path, seed: int) -> None:
    """Permute the edge lines of an edge-list file, and the two endpoints
    within each line; the header line stays first."""
    rng = random.Random(seed)
    with open(path) as fh:
        header = fh.readline()
        lines = fh.read().splitlines()
    rng.shuffle(lines)
    out = []
    for line in lines:
        parts = line.split(" ")
        if rng.random() < 0.5:
            parts[0], parts[1] = parts[1], parts[0]
        out.append(" ".join(parts))
    with open(path, "w") as fh:
        fh.write(header)
        fh.write("\n".join(out))
        fh.write("\n")


def io_k5_coloring(seed: int, work: Path) -> list[Step]:
    edges = work / "st-5-2.edges"
    return [
        Step("build-k5", ["build", "--k", "5", "--l", "2", "--out", str(edges)]),
        Step(
            "verify-coloring-k5-input",
            ["verify", "--suite", "coloring", "--k", "5", "--l", "2", "--input", str(edges)],
            prepare=[sys.executable, "-I", str(HERE / "workloads.py"), "shuffle", str(edges), str(seed)],
        ),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Step]]] = {
    "desk-k4-all": desk_k4_all,
    "scale-k5-domination": scale_k5_domination,
    "io-k5-coloring": io_k5_coloring,
}


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "shuffle":
        sys.exit("usage: workloads.py shuffle PATH SEED")
    shuffle_edge_list(Path(sys.argv[2]), int(sys.argv[3]))
