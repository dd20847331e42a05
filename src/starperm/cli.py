"""Command-line surface.

Subcommands: build (emit an edge list), verify (run a named check suite),
search-codes (the exhaustive oracle), export (DOT / coloring).
Exit codes: 0 all checks pass, 1 some check failed, 2 usage error, 3 size
cap exceeded, 141 stdout closed early (128 + SIGPIPE, as a shell reports).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

from . import __version__
from .coloring import positional_edge_coloring, sigma_total_coloring
from .domination import _require_searchable, code_search
from .errors import CapExceeded
from .export import (
    _edge_lines,
    edge_list_matches,
    load_pi_file,
    read_edge_list,
    write_coloring,
    write_dot,
    write_edge_list,
)
from .graphs import GeneratorFamily, build_graph
from .mstrings import DEFAULT_VERTEX_CAP, Params, render
from .suites import SUITES, run_suite

USAGE_EXIT = 2
CAP_EXIT = 3
PIPE_EXIT = 141


def _family(args, length: int) -> GeneratorFamily:
    if args.family == "st":
        return GeneratorFamily.star()
    if args.family == "pc":
        return GeneratorFamily.pancake()
    if not args.pi:
        raise ValueError("--family custom requires --pi FILE")
    return load_pi_file(args.pi, length)


def _add_params(sub, family: bool = False) -> None:
    sub.add_argument("--k", type=int, required=True, help="number of symbols")
    sub.add_argument("--l", type=int, required=True, help="repetitions per symbol")
    if family:
        sub.add_argument("--family", choices=("st", "pc", "custom"), default="st")
        sub.add_argument("--pi", help="JSON file with custom involutions")
    sub.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help="vertex-count cap")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starperm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"starperm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="build a graph and write its edge list")
    _add_params(b, family=True)
    b.add_argument("--out", required=True, help="output path")

    v = subs.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITES, required=True)
    _add_params(v)
    v.add_argument("--json", help="also write the report as JSON")
    v.add_argument("--input", help="verify a previously built edge-list file")
    v.add_argument("--seed", type=int, help="recorded in the report (results are deterministic)")
    v.add_argument("--d1", type=int, help="toroidal suite: shared type-2 color")
    v.add_argument("--quad", help="toroidal suite: four comma-separated colors")

    s = subs.add_parser("search-codes", help="exhaustively search efficient dominating sets")
    s.add_argument("--k", type=int)
    s.add_argument("--l", type=int)
    s.add_argument("--ell", type=int, required=True, help="dominators per outside vertex")
    s.add_argument("--input", help="edge-list file to search instead of building")
    s.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)

    e = subs.add_parser("export", help="write DOT or coloring text")
    _add_params(e, family=True)
    e.add_argument("--format", choices=("dot", "coloring"), required=True)
    e.add_argument("--out", required=True)
    return parser


def cmd_build(args) -> int:
    p = Params(args.k, args.l)
    g = build_graph(p, _family(args, p.length), cap=args.cap)
    with open(args.out, "w") as fh:
        write_edge_list(g, fh)
    print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    return 0


def cmd_verify(args) -> int:
    graph = None
    if args.input:
        with open(args.input) as fh:
            # the graph is built first, so the cap is checked before the file is read
            graph = build_graph(Params(args.k, args.l), cap=args.cap)
            if not edge_list_matches(fh, graph):
                print("input file does not match the stated parameters", file=sys.stderr)
                return USAGE_EXIT
    quad = tuple(int(x) for x in args.quad.split(",")) if args.quad else None
    report = run_suite(
        args.suite,
        args.k,
        args.l,
        graph=graph,
        cap=args.cap,
        seed=args.seed,
        d1=args.d1,
        quad=quad,
    )
    print(report.format_lines())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    return report.exit_code


def cmd_search_codes(args) -> int:
    if args.input:
        with open(args.input) as fh:
            header = next(fh, "")
            _require_searchable(next(_edge_lines([header]))[0], args.ell)  # before the body is read
            g = read_edge_list(chain([header], fh))
    else:
        if args.k is None or args.l is None:
            raise ValueError("search-codes needs either --input or both --k and --l")
        p = Params(args.k, args.l)
        _require_searchable(p.vertex_count(), args.ell)  # before the graph is built
        g = build_graph(p, cap=args.cap)
    codes = code_search(g, args.ell)
    print(f"found {len(codes)} efficient dominating-{args.ell} sets")
    for code in codes:
        print("  {" + ", ".join(render(g.vertices[x]) for x in sorted(code)) + "}")
    return 0


def cmd_export(args) -> int:
    p = Params(args.k, args.l)
    g = build_graph(p, _family(args, p.length), cap=args.cap)
    # the coloring is decided before --out is opened, so a refused one leaves the file as it was
    tc = sigma_total_coloring(g) if args.l == 2 and args.family == "st" else None
    if args.format == "coloring" and tc is None:
        tc = positional_edge_coloring(g)
    with open(args.out, "w") as fh:
        if args.format == "dot":
            write_dot(g, fh, tc=tc, name=f"{args.family}_{args.k}_{args.l}")
        else:
            write_coloring(tc, fh)
    print(f"wrote {args.format} for {args.family}({args.k},{args.l}) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": cmd_build,
        "verify": cmd_verify,
        "search-codes": cmd_search_codes,
        "export": cmd_export,
    }
    try:
        return handlers[args.command](args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return CAP_EXIT
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush goes to devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_EXIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
