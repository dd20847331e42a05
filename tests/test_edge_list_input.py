"""`verify --input`: the file is checked line by line against the built graph.

The streaming check must give the verdict of reading the whole file with
`read_edge_list` and comparing it with the built graph, error text included.
"""

import io
import random
import tracemalloc

import pytest

from starperm import GeneratorFamily, Params, build_graph, positional_edge_coloring
from starperm.cli import main
from starperm.errors import CapExceeded
from starperm.export import edge_list_matches, read_edge_list, write_edge_list
from starperm.mstrings import DEFAULT_VERTEX_CAP, mstring

MISMATCH = "input file does not match the stated parameters"


def _text(g) -> str:
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()


def _oracle(path, k: int, ell: int, cap: int = DEFAULT_VERTEX_CAP) -> tuple[int, str]:
    """Exit code and stderr line of reading the whole file, then comparing
    vertices, edge-line count, distinct-edge count and merged labels with
    the built graph."""
    try:
        graph = build_graph(Params(k, ell), cap=cap)
        with open(path) as fh:
            loaded = read_edge_list(fh)
    except CapExceeded as exc:
        return 3, f"cap exceeded: {exc}"
    except (OSError, ValueError) as exc:
        return 2, f"error: {exc}"
    with open(path) as fh:
        edge_lines = int(fh.readline().split()[4])  # the header's m, which read_edge_list checked
    matches = (
        tuple(loaded.vertices) == tuple(graph.vertices)
        and edge_lines == loaded.m == graph.m
        and all(graph.label(graph.index(u), graph.index(v)) == labels for u, v, labels in loaded.edges())
    )
    return (0, "") if matches else (2, MISMATCH)


def _cli(capsys, path, k: int, ell: int, cap: int = DEFAULT_VERTEX_CAP) -> tuple[int, str]:
    code = main(["verify", "--suite", "coloring", "--k", str(k), "--l", str(ell), "--cap", str(cap), "--input", str(path)])
    err = capsys.readouterr().err.strip().splitlines()
    return code, err[-1] if err else ""


def _with_header(lines: list[str], dn: int = 0, dm: int = 0, family=None) -> list[str]:
    fam, k, ell, n, m = lines[0].split()
    return [f"{family or fam} {k} {ell} {int(n) + dn} {int(m) + dm}", *lines[1:]]


def _mutations(text: str) -> dict[str, str]:
    """Named edits of a written edge list; each keeps or adjusts the header."""
    lines = text.splitlines()
    head, body = lines[0], lines[1:]
    u, v, lab = body[1].split()
    other = next(j for j in range(1, 9) if str(j) != lab)
    stranger = "9" * len(u)  # parses as a vertex no star graph has
    out = {
        "unchanged": lines,
        "dropped-line": [head, *body[:-1]],
        "dropped-line-header-bumped": _with_header([head, *body[:-1]], dm=-1),
        "duplicated-line": [head, *body, body[1]],
        "dropped-and-duplicated": [head, *body[:-1], body[1]],
        "duplicated-line-header-bumped": _with_header([head, *body, body[1]], dm=1),
        "swapped-endpoints": [head, f"{v} {u} {lab}", *body[2:], body[0]],
        "comma-vertex-token": [head, body[0], f"{','.join(u)} {v} {lab}", *body[2:]],
        "blank-lines": [head, "", body[0], "   ", *body[1:], ""],
        "wrong-label": [head, body[0], f"{u} {v} {other}", *body[2:]],
        "doubled-label": [head, body[0], f"{u} {v} {lab},{lab}", *body[2:]],
        "extra-label": [head, body[0], f"{u} {v} {lab},{other}", *body[2:]],
        "no-label": [head, body[0], f"{u} {v}", *body[2:]],
        "no-label-beside-labelled": _with_header([head, *body, f"{v} {u}"], dm=1),
        "unknown-vertex": [head, body[0], f"{u} {stranger} {lab}", *body[2:]],
        "unknown-vertex-header-bumped": _with_header([head, body[0], f"{u} {stranger} {lab}", *body[2:]], dn=1),
        "renamed-vertex": [head, *(line.replace(u, stranger) for line in body)],
        "loop-line": _with_header([head, *body, f"{u} {u} {lab}"], dm=1),
        "loop-line-header-kept": [head, *body, f"{u} {u} {lab}"],
        "two-loops": _with_header([head, *body, f"{v} {v} 1", f"{u} {u} 1"], dm=2),
        "loop-then-malformed": _with_header([head, f"{u} {u} 1", *body, "a b c d"], dm=1),
        "vertex-line": [head, body[0], u, *body[1:]],
        "stranger-vertex-line": _with_header([head, *body, stranger], dn=1),
        "stranger-vertex-line-header-kept": [head, *body, stranger],
        "header-n-off": _with_header(lines, dn=1),
        "header-m-off": _with_header(lines, dm=-1),
        "header-k-l-ignored": [" ".join(head.split()[:1] + ["7", "7"] + head.split()[3:]), *body],
        "generic-family": _with_header(lines, family="generic"),
        "four-token-line": [head, body[0], f"{u} {v} {lab} 1", *body[2:]],
        "non-digit-token": [head, body[0], f"{u[:-1]}a {v} {lab}", *body[2:]],
        "non-digit-label": [head, body[0], f"{u} {v} x", *body[2:]],
        "mismatch-then-malformed": [head, f"{u} {v} {other}", *body[2:], "a b c d"],
        "short-header": [" ".join(head.split()[:4]), *body],
        "non-integer-header": [head.replace(head.split()[3], "n"), *body],
        "empty-file": [],
    }
    return {name: "\n".join(text_lines) + "\n" for name, text_lines in out.items()}


@pytest.mark.parametrize("k", [2, 3])
def test_streaming_input_check_agrees_with_reading_the_whole_file(k, tmp_path, capsys):
    g = build_graph(Params(k, 2))
    corpus = _mutations(_text(g))
    corpus["pancake-file"] = _text(build_graph(Params(k, 2), GeneratorFamily.pancake()))
    corpus["other-k-file"] = _text(build_graph(Params(5 - k, 2)))
    codes = set()
    for name, text in corpus.items():
        path = tmp_path / f"{name}.edges"
        path.write_text(text)
        want = _oracle(path, k, 2)
        assert _cli(capsys, path, k, 2) == want, name
        codes.add(want[0])
    assert codes == {0, 2}


def test_a_file_that_does_not_name_an_isolated_vertex_is_not_matched(tmp_path, capsys):
    # ST(1,2) is one vertex and no edge; a file that does not name it on a
    # line of its own, or names it in a loop, does not match
    for text in ("star 1 2 0 0\n", "star 1 2 1 0\n", "star 1 2 0 0\n00 00\n"):
        path = tmp_path / "st12.edges"
        path.write_text(text)
        assert _cli(capsys, path, 1, 2) == _oracle(path, 1, 2) != (0, ""), text


def test_an_isolated_vertex_is_a_line_of_its_own(tmp_path, capsys):
    g = build_graph(Params(1, 2))
    assert _text(g) == "star 1 2 1 0\n00\n"
    for text, verdict in (
        ("star 1 2 1 0\n00\n", (0, "")),
        ("star 1 2 2 0\n00\n11\n", (2, MISMATCH)),
        ("star 1 2 1 0\n11\n", (2, MISMATCH)),
        ("star 1 2 1 0\n00\n00\n", (0, "")),
    ):
        path = tmp_path / "st12.edges"
        path.write_text(text)
        assert _cli(capsys, path, 1, 2) == _oracle(path, 1, 2) == verdict, text
    loaded = read_edge_list(io.StringIO(_text(g)))
    assert tuple(loaded.vertices) == tuple(g.vertices) and loaded.m == 0


def test_corpus_covers_every_verdict(tmp_path):
    # the differential test above is only as good as the verdicts it reaches
    verdicts = {}
    text = _text(build_graph(Params(3, 2)))
    first_loop = mstring(text.splitlines()[2].split()[1])  # "two-loops" puts v's loop first
    for name, text in _mutations(text).items():
        path = tmp_path / f"{name}.edges"
        path.write_text(text)
        verdicts[name] = _oracle(path, 3, 2)[1]
    assert verdicts["unchanged"] == verdicts["swapped-endpoints"] == ""
    assert verdicts["doubled-label"] == verdicts["comma-vertex-token"] == ""
    # one edge line more than the graph has edges, the header saying so
    assert verdicts["duplicated-line-header-bumped"] == verdicts["no-label-beside-labelled"] == MISMATCH
    assert verdicts["vertex-line"] == "" and verdicts["stranger-vertex-line"] == MISMATCH
    assert verdicts["stranger-vertex-line-header-kept"].startswith("error: header says n=90 m=180, file has n=91 m=180")
    for name in ("dropped-line-header-bumped", "dropped-and-duplicated", "wrong-label", "extra-label", "no-label", "renamed-vertex", "generic-family"):
        assert verdicts[name] == MISMATCH, name
    assert verdicts["dropped-line"].startswith("error: header says n=90 m=180, file has n=90 m=179")
    assert verdicts["unknown-vertex"].startswith("error: header says n=90 m=180, file has n=91 m=180")
    assert verdicts["loop-line"] == "error: loop at (0, 0, 1, 1, 2, 2)"
    assert verdicts["two-loops"] == f"error: loop at {first_loop!r}"
    assert verdicts["loop-then-malformed"].startswith("error: malformed edge line")
    assert verdicts["mismatch-then-malformed"].startswith("error: malformed edge line")
    assert "invalid literal for int()" in verdicts["non-digit-token"]
    assert verdicts["empty-file"] == "error: malformed header ''"


def test_a_repeated_edge_line_the_header_counts_is_not_matched(tmp_path, capsys):
    # ST(2,2) has 6 vertices and 6 edges; the header states 7 edge lines
    # and the first one comes again at the end
    g = build_graph(Params(2, 2))
    head, *body = _text(g).splitlines()
    assert head == "star 2 2 6 6"
    text = "\n".join(["star 2 2 6 7", *body, body[0]]) + "\n"
    assert not edge_list_matches(io.StringIO(text), g)
    assert read_edge_list(io.StringIO(text)).m == 6
    path = tmp_path / "st22.edges"
    path.write_text(text)
    assert _cli(capsys, path, 2, 2) == _oracle(path, 2, 2) == (2, MISMATCH)


def test_cap_is_checked_before_the_file_is_read(tmp_path, capsys):
    # reading the file first gave exit 2 here; the graph is now built first
    path = tmp_path / "bad.edges"
    path.write_text("star 3 2 90\n")
    assert _cli(capsys, path, 3, 2, cap=10) == (3, "cap exceeded: instance too large: 90 vertices exceeds cap 10")
    assert _oracle(path, 3, 2, cap=10)[0] == 3
    assert _cli(capsys, path, 3, 2) == (2, "error: malformed header 'star 3 2 90'")


def test_shuffled_input_is_accepted(tmp_path, capsys):
    # the benchmark feeds the file in random line order with about half the
    # endpoint pairs swapped
    g = build_graph(Params(3, 2))
    head, *body = _text(g).splitlines()
    rng = random.Random(7)
    rng.shuffle(body)
    swapped = 0
    for i, line in enumerate(body):
        if rng.random() < 0.5:
            u, v, lab = line.split()
            body[i] = f"{v} {u} {lab}"
            swapped += 1
    assert 0.3 * g.m < swapped < 0.7 * g.m
    path = tmp_path / "shuffled.edges"
    path.write_text("\n".join([head, *body]) + "\n")
    code = main(["verify", "--suite", "coloring", "--k", "3", "--l", "2", "--input", str(path)])
    assert code == 0, capsys.readouterr().err


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_positional_coloring_allocates_no_copy(st42):
    assert st42.m == 7560
    colors = positional_edge_coloring(st42)
    view = _peak(lambda: positional_edge_coloring(st42))
    copy = _peak(lambda: {(u, v): labels[0] for u, v, labels in colors.graph.edges()})
    assert view < 0.05 * copy


def test_streaming_check_peaks_below_reading_the_file(st42, tmp_path):
    path = tmp_path / "st42.edges"
    path.write_text(_text(st42))

    def stream():
        with open(path) as fh:
            assert edge_list_matches(fh, st42)

    def whole():
        with open(path) as fh:
            assert read_edge_list(fh).m == st42.m

    assert _peak(stream) < 0.25 * _peak(whole)


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_writing_an_edge_list_keeps_no_per_vertex_table(st32, st42):
    # a table of every vertex's name grew about 28x from ST(3,2)'s 90 vertices to ST(4,2)'s 2,520
    small = _peak(lambda: write_edge_list(st32, _Discard()))
    assert _peak(lambda: write_edge_list(st42, _Discard())) <= 2 * small
