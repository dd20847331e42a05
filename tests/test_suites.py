import json
from pathlib import Path

import pytest

import starperm.suites
from starperm import Params
from starperm.cli import main
from starperm.suites import run_suite

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
