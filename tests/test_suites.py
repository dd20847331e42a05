import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import starperm.coloring
import starperm.graphs
import starperm.structure
import starperm.suites
from starperm import CapExceeded, Params, PermGraph
from starperm.cli import main
from starperm.suites import run_suite

from .faults import add_to_w1

GOLDEN = Path(__file__).parent / "golden"


def _normalised(path: Path) -> dict:
    """A JSON report with its timings zeroed, the only field that varies."""
    doc = json.loads(path.read_text())
    for check in doc["checks"]:
        check["seconds"] = 0
    return doc


@pytest.mark.parametrize("k,ell", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_verify_all_matches_golden_report(k, ell, tmp_path):
    out = tmp_path / "report.json"
    main(["verify", "--suite", "all", "--k", str(k), "--l", str(ell), "--json", str(out)])
    golden = json.loads((GOLDEN / f"all_k{k}_l{ell}.json").read_text())
    assert _normalised(out) == golden


def test_verify_all_k4_matches_golden_report(tmp_path):
    # pins the seven count=24 expected=32 chi FAILs, the 7-colour toroidal
    # census and the k = 4 chain blocks
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "all", "--k", "4", "--l", "2", "--d1", "7", "--quad", "1,2,3,4"]
    assert main([*argv, "--json", str(out)]) == 1
    golden = json.loads((GOLDEN / "all_k4_l2_d7_q1234.json").read_text())
    assert _normalised(out) == golden


def test_suite_all_builds_graph_and_coloring_once(monkeypatch):
    builds, colorings = [], []
    build, color = starperm.suites.build_graph, starperm.suites.sigma_total_coloring

    def counted_build(p, *args, **kwargs):
        builds.append(p)
        return build(p, *args, **kwargs)

    def counted_color(g):
        colorings.append(g.params)
        return color(g)

    monkeypatch.setattr(starperm.suites, "build_graph", counted_build)
    monkeypatch.setattr(starperm.suites, "sigma_total_coloring", counted_color)
    assert run_suite("all", 3, 2).passed
    assert builds.count(Params(3, 2)) == 1
    assert colorings == [Params(3, 2)]


def test_coloring_suite_makes_one_positional_coloring(monkeypatch):
    # catches a second positional coloring beside the one in the run's coloring
    calls = []
    make = starperm.coloring.positional_edge_coloring

    def counted(g):
        calls.append(g.params)
        return make(g)

    monkeypatch.setattr(starperm.suites, "positional_edge_coloring", counted)
    monkeypatch.setattr(starperm.coloring, "positional_edge_coloring", counted)
    assert run_suite("coloring", 3, 2).passed
    assert calls == [Params(3, 2)]


def test_suite_all_runs_each_part_through_run_suite(monkeypatch):
    # the benchmark tracer times a sub-suite only as a run_suite call
    calls = []

    def spy(suite, *args, **kwargs):
        calls.append(suite)
        return run_suite(suite, *args, **kwargs)

    monkeypatch.setattr(starperm.suites, "run_suite", spy)
    report = starperm.suites.run_suite("all", 2, 2)
    assert calls == ["all", *starperm.suites.SUITES[:-1]]
    assert {c.name.split("/")[0] for c in report.checks} == set(calls[1:])


def test_precondition_suite_builds_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no graph is needed")

    monkeypatch.setattr(starperm.suites, "build_graph", refuse)
    report = run_suite("chi", 4, 3)
    assert [c.status for c in report.checks] == ["precondition"]


def test_domination_check_seconds_cover_the_run(st42):
    # each check does its own work, so the checks account for the run
    t0 = time.perf_counter()
    report = run_suite("domination", 4, 2, st42)
    wall = time.perf_counter() - t0
    assert report.passed
    assert sum(c.seconds for c in report.checks) >= 0.6 * wall


def test_all_check_seconds_cover_the_run():
    # a check's seconds run from the end of the line before it, so the work
    # a suite does before its first check (its shared report, the first
    # build of the graph or coloring) is charged to that check
    t0 = time.perf_counter()
    report = run_suite("all", 4, 2)
    wall = time.perf_counter() - t0
    assert sum(c.seconds for c in report.checks) >= 0.9 * wall


def test_the_girth_check_times_its_triangle_scan_and_a_triangle_ends_the_suite(monkeypatch):
    def slow_scan(g, answer):
        time.sleep(0.05)
        return answer

    monkeypatch.setattr(starperm.graphs.Graph, "has_triangle", lambda g: slow_scan(g, False))
    first = run_suite("domination", 2, 2).checks[0]
    assert (first.name, first.status, first.detail) == ("girth-precondition", "pass", "triangle-free")
    assert first.seconds >= 0.05
    monkeypatch.setattr(starperm.graphs.Graph, "has_triangle", lambda g: slow_scan(g, True))
    (only,) = run_suite("domination", 2, 2).checks
    assert (only.name, only.status, only.detail) == ("girth-precondition", "precondition", "graph contains a triangle")
    assert only.seconds >= 0.05


def test_coloring_suite_makes_one_coloring_pass(monkeypatch):
    # one report on the total coloring feeds positional-edge-proper, sigma-total and sigma-efficient
    reports = []
    verify = starperm.suites.verify_coloring

    def counted(g, tc):
        reports.append(verify(g, tc))
        return reports[-1]

    monkeypatch.setattr(starperm.suites, "verify_coloring", counted)
    report = run_suite("coloring", 3, 2)
    assert report.passed and len(reports) == 1 and reports[0].efficient
    assert [c.name for c in report.checks] == ["positional-edge-proper", "sigma-total", "sigma-efficient", "sigma-palette-size"]


def test_an_all_run_verifies_the_total_coloring_once(monkeypatch):
    # chi's precondition reads the coloring suite's report; chi still
    # verifies its component copies, which are plain graphs
    graphs = []
    verify = starperm.coloring.verify_coloring

    def counted(g, tc):
        graphs.append(g)
        return verify(g, tc)

    monkeypatch.setattr(starperm.suites, "verify_coloring", counted)
    monkeypatch.setattr(starperm.structure, "verify_coloring", counted)
    assert run_suite("all", 3, 2).passed
    assert sum(isinstance(g, PermGraph) for g in graphs) == 1


def test_coloring_suite_skips_a_capped_obstruction_and_keeps_the_rest(monkeypatch, tmp_path):
    def capped(g):
        raise CapExceeded(f"2-ball of {g.vertices[0]} is over the cap")

    monkeypatch.setattr(starperm.suites, "efficiency_obstruction_witness", capped)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "coloring", "--k", "3", "--l", "3", "--json", str(out)]) == 0
    statuses = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert statuses == {
        "positional-edge-proper": "pass",
        "list-disjointness": "pass",
        "selector-min-proper": "pass",
        "selector-max-proper": "pass",
        "efficiency-obstruction": "skip",
    }


def test_coloring_check_seconds_cover_the_run(st42):
    # each coloring check does its own work, as the domination checks do
    t0 = time.perf_counter()
    report = run_suite("coloring", 4, 2, st42)
    wall = time.perf_counter() - t0
    assert report.passed
    assert sum(c.seconds for c in report.checks) >= 0.6 * wall


def test_a_check_shows_eight_witnesses_and_says_when_it_dropped_some(monkeypatch):
    # the (2,3) obstruction keeps 32 of its 1,024 selections' witnesses and shows 8
    (check,) = [c for c in run_suite("coloring", 2, 3).checks if c.name == "efficiency-obstruction"]
    assert check.status == "pass" and len(check.witnesses) == 8 and check.truncated
    # a failing domination check passes every violation kind it found
    violations = [SimpleNamespace(kind=f"kind-{i}") for i in range(9)]
    cert = SimpleNamespace(passed=False, violations=violations, min_internal_distance=1)
    monkeypatch.setattr(starperm.suites, "verify_efficient_domination", lambda g, s, ell: cert)
    checks = {c.name: c for c in run_suite("domination", 2, 2).checks}
    se0 = checks["se-set-0-efficient"]
    assert se0.status == "fail" and se0.witnesses == [f"kind-{i}" for i in range(8)] and se0.truncated



def test_a_six_cycle_cap_skips_cycles_and_toroidal_and_keeps_the_rest(monkeypatch):
    monkeypatch.setattr(starperm.graphs, "SIX_CYCLE_CAP", 10)
    report = run_suite("all", 3, 2)
    assert report.exit_code == 0
    checks = json.loads(report.to_json())["checks"]
    skipped = [c for c in checks if c["status"] == "skip"]
    assert [c["name"] for c in skipped] == ["cycles/cycle-classification", "toroidal/toroidal-audit"]
    assert all("capped at 10 vertices" in c["detail"] for c in skipped)
    golden = json.loads((GOLDEN / "all_k3_l2.json").read_text())["checks"]
    decided = [dict(c, seconds=0) for c in checks if c["status"] != "skip"]
    assert decided == [c for c in golden if c["name"].split("/")[0] not in ("cycles", "toroidal")]


def test_bad_toroidal_colors_are_a_usage_error_under_a_six_cycle_cap(monkeypatch):
    monkeypatch.setattr(starperm.graphs, "SIX_CYCLE_CAP", 10)
    with pytest.raises(ValueError, match="pairwise distinct"):
        run_suite("toroidal", 3, 2, d1=5, quad=(1, 2, 3, 5))


def test_a_chain_cap_skips_chains_and_keeps_the_rest():
    # ST(4,2), the chains' target at k = 3, has 2,520 strings
    report = run_suite("all", 3, 2, cap=1000)
    assert report.exit_code == 0
    checks = json.loads(report.to_json())["checks"]
    skipped = [c for c in checks if c["status"] == "skip"]
    assert [c["name"] for c in skipped] == ["chains/chain-embeddings"]
    assert "2520 vertices exceeds cap 1000" in skipped[0]["detail"]
    golden = json.loads((GOLDEN / "all_k3_l2.json").read_text())["checks"]
    decided = [dict(c, seconds=0) for c in checks if c["status"] != "skip"]
    assert decided == [c for c in golden if not c["name"].startswith("chains/")]


@pytest.mark.parametrize(
    "suite,head",
    [
        ("chi", "chi-preconditions"),
        ("cycles", "cycle-classification"),
        ("toroidal", "toroidal-audit"),
        ("chains", "chain-embeddings"),
        ("pancake", "pancake-obstructions"),
    ],
)
def test_a_cap_on_the_graph_skips_the_suite_head(suite, head):
    # the same SKIP line for every suite whose report the cap stops
    (only,) = run_suite(suite, 3, 2, cap=50).checks
    assert (only.name, only.status) == (head, "skip")
    assert "90 vertices exceeds cap 50" in only.detail


def test_list_disjointness_reads_each_list_once(monkeypatch):
    # catches a scan that looks both lists up again on every edge
    calls = []
    lists = starperm.suites.list_assignment
    monkeypatch.setattr(starperm.suites, "list_assignment", lambda v: calls.append(v) or lists(v))
    report = run_suite("coloring", 3, 3)
    assert {c.name: c.status for c in report.checks}["list-disjointness"] == "pass"
    assert len(calls) == len(set(calls)) == Params(3, 3).vertex_count() == 1680


def test_the_pancake_partition_line_decides_the_degrees(monkeypatch):
    # catches a line that prints the degrees left after the two deletions
    # but passes whatever they are
    def line():
        return {c.name: (c.status, c.detail) for c in run_suite("pancake", 3, 2).checks}["black-removal-neighborhood-partition"]

    assert line() == ("pass", "degree_after_vertices=3 after_edges=2")
    check = starperm.suites.pancake_chain_check

    def one_edge_kept(k, cap):
        rep = check(k, cap=cap)
        rep.remainder_regular_degree += 1
        return rep

    monkeypatch.setattr(starperm.suites, "pancake_chain_check", one_edge_kept)
    assert line() == ("fail", "degree_after_vertices=3 after_edges=3")


def test_an_all_run_enumerates_the_six_cycles_once(monkeypatch):
    calls = []
    six_cycles = starperm.structure.six_cycles
    monkeypatch.setattr(starperm.structure, "six_cycles", lambda g: calls.append(g) or six_cycles(g))
    report = run_suite("all", 3, 2)
    assert report.exit_code == 0
    assert len(calls) == 1


def test_chi_types_a_component_missing_a_vertex_as_false(monkeypatch):
    # one vertex outside W_1 is added to it, so one color-1 component loses it
    def statuses():
        return {c.name: (c.status, c.detail) for c in run_suite("chi", 3, 2).checks}

    before = statuses()
    add_to_w1(monkeypatch, lambda g, column: next(x for x, c in enumerate(column) if c != 1))
    after = statuses()
    name = "color-1-component-count-and-type"
    assert before[name] == ("pass", "count=12 expected=12") and after[name][0] == "fail"
    assert {n: s for n, s in after.items() if not n.startswith("color-1-")} == {
        n: s for n, s in before.items() if not n.startswith("color-1-")
    }
