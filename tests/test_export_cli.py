import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import starperm.cli
import starperm.domination
from starperm import GeneratorFamily, Params, build_graph, mstring, positional_edge_coloring, render, sigma_total_coloring
from starperm.cli import main
from starperm.export import (
    read_edge_list,
    write_coloring,
    write_dot,
    write_edge_list,
)

ms = mstring


def test_edge_list_format_exact(st22):
    buf = io.StringIO()
    write_edge_list(st22, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "star 2 2 6 6"
    assert lines[1] == "0011 1001 2"
    assert len(lines) == 7


@pytest.mark.parametrize("family,k,ell", [("star", 4, 2), ("star", 3, 3), ("pancake", 3, 2)])
def test_edge_list_is_one_rendered_line_per_edge(family, k, ell):
    g = build_graph(Params(k, ell), getattr(GeneratorFamily, family)())
    lines = [f"{family} {k} {ell} {g.n} {g.m}"]
    lines += [f"{render(u)} {render(v)} {','.join(map(str, labels))}" for u, v, labels in g.edges()]
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == "\n".join(lines) + "\n"


def test_edge_list_roundtrip(st32):
    buf = io.StringIO()
    write_edge_list(st32, buf)
    loaded = read_edge_list(io.StringIO(buf.getvalue()))
    assert tuple(loaded.vertices) == tuple(st32.vertices)
    assert list(loaded.edges()) == list(st32.edges())


def test_edge_list_malformed_header():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("star 2 2\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("star 2 2 6 6\n0011 1001 2\n"))


def test_dot_export_palette_names(st22, tc22):
    buf = io.StringIO()
    write_dot(st22, buf, tc=tc22, name="st_2_2")
    text = buf.getvalue()
    assert text.startswith("graph st_2_2 {")
    assert '"0011" [color=red];' in text
    assert '"0110" [color=green];' in text
    assert '"0011" -- "1001" [color=blue];' in text


def test_dot_export_refuses_a_coloring_of_another_graph(st22):
    # a second build of the same parameters is another graph: its colours are not read by st22's ids
    other = sigma_total_coloring(build_graph(Params(2, 2)))
    with pytest.raises(ValueError, match="not a coloring of this graph"):
        write_dot(st22, io.StringIO(), tc=other)


def test_coloring_roundtrip(st22, tc22):
    buf = io.StringIO()
    write_coloring(tc22, buf)
    text = buf.getvalue()
    assert "V 0011 1" in text and "E 0011 1001 2" in text
    kinds = [line.split()[0] for line in text.splitlines()]
    assert (kinds.count("V"), kinds.count("E"), len(kinds)) == (st22.n, st22.m, st22.n + st22.m)


def test_cli_build_and_verify_roundtrip(tmp_path):
    out = tmp_path / "st22.txt"
    assert main(["build", "--family", "st", "--k", "2", "--l", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "star 2 2 6 6"
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--suite", "domination", "--k", "2", "--l", "2",
        "--input", str(out), "--json", str(rep),
    ])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["passed"] is True
    assert doc["schema_version"] == 1
    assert any(c["name"] == "sigma-1-e-set-distance-3" for c in doc["checks"])


def test_cli_verify_all_small():
    assert main(["verify", "--suite", "all", "--k", "2", "--l", "2"]) == 0


def test_cli_verify_all_k3_passes_quickly():
    import time

    t0 = time.perf_counter()
    assert main(["verify", "--suite", "all", "--k", "3", "--l", "2"]) == 0
    assert time.perf_counter() - t0 < 60


def test_cli_excluded_instance_is_precondition(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    code = main(["verify", "--suite", "domination", "--k", "2", "--l", "1", "--json", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["girth-precondition"] == "precondition"


def test_cli_chi_reports_component_count_mismatch_at_k4(tmp_path):
    # the split of the 7-color graph yields 24 copies per color, so the
    # published k*2^(k-1) count is reported as a failed check
    rep = tmp_path / "rep.json"
    code = main(["verify", "--suite", "chi", "--k", "4", "--l", "2", "--json", str(rep)])
    assert code == 1
    doc = json.loads(rep.read_text())
    failing = {c["name"] for c in doc["checks"] if c["status"] == "fail"}
    assert failing == {f"color-{i}-component-count-and-type" for i in range(1, 8)}
    for c in doc["checks"]:
        if c["status"] == "fail":
            assert "count=24 expected=32" in c["detail"]


def test_cli_k1_round_trip_reads_what_build_wrote(tmp_path, capsys):
    # ST(1,2) is one vertex and no edge: build names the vertex on a line of its own
    path = tmp_path / "st12.edges"
    assert main(["build", "--k", "1", "--l", "2", "--out", str(path)]) == 0
    assert path.read_text() == "star 1 2 1 0\n00\n"
    capsys.readouterr()
    for argv in (["verify", "--suite", "all"], ["search-codes", "--ell", "1"]):
        runs = []
        for extra in ([], ["--input", str(path)]):
            code = main([*argv, "--k", "1", "--l", "2", *extra])
            out, err = capsys.readouterr()
            runs.append((code, re.sub(r"\[\d+\.\d+s\]", "[s]", out), err))
        assert runs[0] == runs[1] and runs[0][0] == 0, argv


def test_cli_search_codes(capsys):
    assert main(["search-codes", "--k", "2", "--l", "2", "--ell", "1"]) == 0
    out = capsys.readouterr().out
    assert "found 3 efficient dominating-1 sets" in out
    assert "{0011, 1100}" in out


def test_cli_search_codes_from_file(tmp_path, capsys):
    path = tmp_path / "k23.txt"
    path.write_text(
        "generic 0 0 5 6\nw0 v0\nw0 v1\nw0 v2\nw1 v0\nw1 v1\nw1 v2\n"
    )
    assert main(["search-codes", "--input", str(path), "--ell", "1"]) == 0
    out = capsys.readouterr().out
    assert "found" in out


def test_cli_cap_exit_code():
    assert main(["build", "--family", "st", "--k", "3", "--l", "2", "--cap", "10", "--out", "/dev/null"]) == 3


@pytest.mark.parametrize(
    "k, budget, message",
    [
        (4, None, "code search capped at 1000 vertices, graph has 2520"),
        (3, 10, "code search exceeded node budget 10"),
    ],
    ids=["vertex-cap", "node-budget"],
)
def test_cli_code_search_bounds_exit_3(k, budget, message, monkeypatch, capsys):
    if budget is not None:
        monkeypatch.setattr(starperm.domination, "CODE_SEARCH_NODE_BUDGET", budget)
    assert main(["search-codes", "--k", str(k), "--l", "2", "--ell", "1"]) == 3
    assert message in capsys.readouterr().err


ST52_CAP_MESSAGE = "cap exceeded: code search capped at 1000 vertices, graph has 113400\n"


@pytest.mark.parametrize(
    "body",
    ["", "not an edge line at all\n"],
    ids=["header-only", "malformed-body"],
)
def test_cli_code_search_refuses_a_file_on_its_header(body, tmp_path, capsys):
    # ST(5,2)'s header: the cap is decided before the body is read, so a
    # missing or malformed body, which reading it would refuse with exit 2,
    # is never reached
    path = tmp_path / "st52.edges"
    path.write_text(f"star 5 2 113400 453600\n{body}")
    assert main(["search-codes", "--input", str(path), "--ell", "1"]) == 3
    assert capsys.readouterr() == ("", ST52_CAP_MESSAGE)


@pytest.mark.parametrize(
    "ell, code, message",
    [("1", 3, ST52_CAP_MESSAGE), ("0", 2, "error: need ell >= 1, got ell = 0\n")],
    ids=["over-the-cap", "ell-below-one"],
)
def test_cli_code_search_refuses_parameters_before_building(ell, code, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built a graph the search refuses")

    monkeypatch.setattr(starperm.cli, "build_graph", refuse)
    assert main(["search-codes", "--k", "5", "--l", "2", "--ell", ell]) == code
    assert capsys.readouterr() == ("", message)


def test_cli_closed_stdout_exits_141_silently():
    # the 183 KB listing overfills the pipe, so a write meets the closed end
    argv = ["search-codes", "--k", "2", "--l", "3", "--ell", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(starperm.__file__).parent.parent)}
    with subprocess.Popen([sys.executable, "-m", "starperm.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"found 1648 efficient dominating-2 sets\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_cli_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope", "--k", "2", "--l", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search-codes", "--k", "3", "--ell", "1"], "search-codes needs either --input or both --k and --l"),
        (["build", "--k", "2", "--l", "2", "--family", "custom", "--out", "/dev/null"], "--family custom requires --pi FILE"),
        (["verify", "--suite", "toroidal", "--k", "3", "--l", "2", "--quad", "1,2,3,4,4"], "need d1 and four further pairwise distinct colors"),
        (["verify", "--suite", "toroidal", "--k", "3", "--l", "2", "--quad", "1,2,3"], "need d1 and four further pairwise distinct colors"),
        (["search-codes", "--k", "2", "--l", "2", "--ell", "0"], "need ell >= 1, got ell = 0"),
        (["search-codes", "--k", "2", "--l", "2", "--ell", "-1"], "need ell >= 1, got ell = -1"),
    ],
)
def test_cli_usage_errors_exit_2(argv, message, capsys):
    # exit 1 is kept for a false claim
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_edge_coloring_writes_edge_lines_only(st23):
    buf = io.StringIO()
    write_coloring(positional_edge_coloring(st23), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == st23.m and all(line.startswith("E ") for line in lines)
    assert lines[0] == "E 000111 100011 3"


def test_cli_export_formats(tmp_path):
    dot = tmp_path / "g.dot"
    assert main(["export", "--format", "dot", "--family", "st", "--k", "2", "--l", "2", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("graph st_2_2 {")
    col = tmp_path / "g.col"
    assert main(["export", "--format", "coloring", "--family", "st", "--k", "2", "--l", "2", "--out", str(col)]) == 0
    assert "V 0011 1" in col.read_text()


@pytest.mark.parametrize("ell", [2, 3])
def test_cli_refused_coloring_export_leaves_the_file_as_it_was(tmp_path, capsys, ell):
    out = tmp_path / "pc.col"
    out.write_bytes(b"kept\n")
    assert main(["export", "--format", "coloring", "--family", "pc", "--k", "3", "--l", str(ell), "--out", str(out)]) == 2
    assert "positional edge coloring is defined for star-family graphs" in capsys.readouterr().err
    assert out.read_bytes() == b"kept\n"


def test_cli_custom_family_pi_file(tmp_path):
    pi = tmp_path / "pi.json"
    pi.write_text(json.dumps([[], [], [], [[1, 3]], []]))
    out = tmp_path / "custom.txt"
    assert main([
        "build", "--family", "custom", "--k", "3", "--l", "2",
        "--pi", str(pi), "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[0].startswith("custom 3 2 90")


@pytest.mark.parametrize("data,j", [([1, 2, 3], 1), ([[], [], [[1, None]]], 3)], ids=["int-entry", "null-in-pair"])
def test_cli_custom_family_refuses_a_pi_that_is_no_list_of_pairs(tmp_path, capsys, data, j):
    # an int where pi_1's list goes, a null where pi_3 has an integer
    pi = tmp_path / "pi.json"
    pi.write_text(json.dumps(data))
    argv = ["build", "--family", "custom", "--k", "2", "--l", "2", "--pi", str(pi), "--out", str(tmp_path / "custom.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: pi_{j} must be a list of [a, b] integer pairs\n"


def test_cli_pancake_suite():
    assert main(["verify", "--suite", "pancake", "--k", "2", "--l", "2"]) == 0


def test_cli_input_mismatch_rejected(tmp_path):
    out = tmp_path / "st22.txt"
    main(["build", "--family", "st", "--k", "2", "--l", "2", "--out", str(out)])
    code = main(["verify", "--suite", "domination", "--k", "3", "--l", "2", "--input", str(out)])
    assert code == 2


def test_cli_input_edge_label_mismatch_rejected(tmp_path):
    out = tmp_path / "st22.txt"
    main(["build", "--family", "st", "--k", "2", "--l", "2", "--out", str(out)])
    text = out.read_text()
    assert "0011 1001 2\n" in text
    out.write_text(text.replace("0011 1001 2\n", "0011 1001 3\n"))
    code = main(["verify", "--suite", "domination", "--k", "2", "--l", "2", "--input", str(out)])
    assert code == 2
