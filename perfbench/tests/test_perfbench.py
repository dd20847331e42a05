"""Tests of the benchmark itself: span arithmetic, the tracer, the verdict
checker and the harness on a tiny k = 3 workload.

Run from the root of the checkout: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402
from workloads import Step  # noqa: E402

SPEC = run.load_spec()
RECORD = verdicts.load_record()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("b", 50, 90, 0, 0),
        ("a.inner", 15, 25, 1, 0),
    ]
    assert tracer.self_times(spans) == [100 - 30 - 40, 30 - 10, 40, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0, 100, -1, 0), ("x", 10, 60, 0, 0), ("y", 40, 80, 0, 0), ("z", 70, 120, 0, 0)]
    # children cover 10..100 inside the root: 90
    assert tracer.self_times(spans)[0] == 10


def test_self_times_sum_to_root_durations():
    spans = [("r1", 0, 50, -1, 0), ("c", 5, 45, 0, 0), ("r2", 60, 80, -1, 1), ("d", 61, 62, 2, 1)]
    assert sum(tracer.self_times(spans)) == 50 + 20


def test_covered_clips_to_the_parent():
    assert tracer.covered(10, 20, [(0, 12), (18, 30)]) == 4
    assert tracer.covered(10, 20, []) == 0


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


@pytest.fixture
def installed():
    t = tracer.Tracer(run_id=7)
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_rebinds_definer_importers_and_methods(installed):
    import starperm
    import starperm.graphs
    import starperm.suites
    from starperm.mstrings import Params

    g = starperm.graphs.build_graph(Params(2, 2))
    starperm.suites.build_graph(Params(2, 2))
    starperm.build_graph(Params(3, 1))
    g.has_triangle()
    starperm.domination.sigma_set(g, 1)

    counts = installed.counts
    assert counts["graphs.build_graph"] == 3
    assert counts["graphs.Graph.has_triangle"] == 1
    assert counts["mstrings.repeat_position"] == g.n  # counted, hot
    names = [s[0] for s in installed.spans]
    assert "mstrings.repeat_position" not in names
    assert names.count("graphs.build_graph") == 3
    assert all(s[4] == 7 for s in installed.spans)
    assert installed.dump()["unique"]["graphs.build_graph"] == 2


def test_uninstall_restores_the_originals():
    import starperm.graphs
    import starperm.suites

    before = (starperm.graphs.build_graph, starperm.suites.build_graph, starperm.graphs.Graph.__dict__["has_triangle"])
    t = tracer.Tracer()
    t.install()
    assert starperm.suites.build_graph is not before[1]
    t.uninstall()
    after = (starperm.graphs.build_graph, starperm.suites.build_graph, starperm.graphs.Graph.__dict__["has_triangle"])
    assert after == before


def test_cap_exceeded_is_counted_and_reraised(installed):
    import starperm.chains
    from starperm.errors import CapExceeded

    with pytest.raises(CapExceeded):
        starperm.chains.schreier_quotient_check(3, 3)
    assert installed.extras["chains.schreier_quotient_check.cap_exceeded"] == 1
    (span,) = [s for s in installed.spans if s[0] == "chains.schreier_quotient_check"]
    assert span[2] >= span[1]


# ---------------------------------------------------------------------------
# verdict checker
# ---------------------------------------------------------------------------


def _report(checks: dict, details: dict | None = None) -> str:
    details = details or {}
    lines = ["suite all  params {'k': 4, 'l': 2}"]
    for name, status in checks.items():
        line = f"  {status.upper():<12} {name}  [0.001s]"
        if name in details:
            line += f"  {details[name]}"
        lines.append(line)
    lines.append("result: FAIL")
    return "\n".join(lines)


K4 = RECORD["desk-k4-all"]["verify-all-k4"]


def test_recorded_report_passes():
    v = verdicts.check_step(K4, 1, _report(K4["checks"], K4["details"]), {"chi_component_vertices": [90]})
    assert v.failed == 0, v.problems
    assert v.ops == 1 + len(K4["checks"])
    assert v.decided == sum(s in ("pass", "fail") for s in K4["checks"].values())


def test_doctored_report_is_flagged():
    checks = dict(K4["checks"])
    checks["domination/sigma-3-e-set-distance-3"] = "fail"  # worse than recorded
    checks["pancake/last-sigma-is-e-set"] = "skip"  # undecided
    del checks["cycles/all-six-cycles-classified"]  # missing
    details = dict(K4["details"])
    details["chi/color-2-component-count-and-type"] = "count=25 expected=32"
    v = verdicts.check_step(K4, 1, _report(checks, details), {"chi_component_vertices": [90, 91]})
    assert v.failed == 4
    joined = "\n".join(v.problems)
    for fragment in ("sigma-3-e-set-distance-3: fail", "last-sigma-is-e-set: skip", "all-six-cycles-classified: missing",
                     "count=24", "chi_component_vertices"):
        assert fragment in joined


def test_crash_exit_is_a_failed_step():
    v = verdicts.check_step(K4, 70, _report(K4["checks"], K4["details"]))
    assert v.failed == 1 and "exit code 70" in v.problems[0]


def test_better_verdicts_are_not_failures():
    k3 = RECORD["desk-k4-all"]["verify-all-k3-l3"]
    checks = dict(k3["checks"], **{"schreier/schreier-quotient": "pass"})
    checks["chi/color-1-component-count-and-type"] = "pass"
    v = verdicts.check_step(k3, 0, _report(checks, k3["details"]))
    assert v.failed == 0
    assert v.decided == sum(s in ("pass", "fail") for s in k3["checks"].values()) + 2


def test_record_holds_the_known_red_chi_checks_and_census():
    fails = sorted(n for n, s in K4["checks"].items() if s == "fail")
    assert fails == [f"chi/color-{i}-component-count-and-type" for i in range(1, 8)]
    assert "'type1': 1260, 'type2': 5040" in K4["details"]["cycles/all-six-cycles-classified"]
    assert "found 65 efficient dominating-1 sets" in RECORD["desk-k4-all"]["search-codes-k3"]["lines"]
    assert "wrote 113400 vertices, 453600 edges" in RECORD["io-k5-coloring"]["build-k5"]["lines"]


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def test_toroidal_choice_is_seeded_and_valid():
    for seed in range(50):
        d1, quad = workloads.toroidal_choice(seed)
        assert workloads.toroidal_choice(seed) == (d1, quad)
        assert len({d1, *quad}) == 5 and {d1, *quad} <= set(range(1, 8))


def test_every_toroidal_choice_gives_the_recorded_verdicts():
    """All 105 (d1, quad) color choices at k = 4; takes about two minutes."""
    from starperm.graphs import build_graph
    from starperm.mstrings import Params
    from starperm.suites import run_suite

    g = build_graph(Params(4, 2))
    expected = {n.split("/", 1)[1]: s for n, s in K4["checks"].items() if n.startswith("toroidal/")}
    details = {n.split("/", 1)[1]: d for n, d in K4["details"].items() if n.startswith("toroidal/")}
    for d1 in range(1, 8):
        for quad in itertools.combinations([c for c in range(1, 8) if c != d1], 4):
            rep = run_suite("toroidal", 4, 2, graph=g, d1=d1, quad=quad)
            assert {c.name: c.status for c in rep.checks} == expected, (d1, quad)
            for c in rep.checks:
                assert details.get(c.name, "") in c.detail, (d1, quad, c.name)


def test_shuffled_edge_list_reads_back_as_the_same_graph(tmp_path):
    from starperm.export import read_edge_list, write_edge_list
    from starperm.graphs import build_graph
    from starperm.mstrings import Params

    g = build_graph(Params(3, 2))
    path = tmp_path / "g.edges"
    with open(path, "w") as fh:
        write_edge_list(g, fh)
    original = path.read_text()
    edges = {(u, v) for u, v, _ in g.edges()}
    for seed in (1, 2):
        path.write_text(original)
        workloads.shuffle_edge_list(path, seed)
        text = path.read_text()
        assert text != original and sorted(text.splitlines()[1:]) != sorted(original.splitlines()[1:])
        with open(path) as fh:
            loaded = read_edge_list(fh)
        assert {(u, v) for u, v, _ in loaded.edges()} == edges
    path.write_text(original)
    workloads.shuffle_edge_list(path, 1)
    again = path.read_text()
    path.write_text(original)
    workloads.shuffle_edge_list(path, 1)
    assert path.read_text() == again


# ---------------------------------------------------------------------------
# the harness on a tiny k = 3 workload
# ---------------------------------------------------------------------------

TINY_RECORD = {
    "tiny-k3": {
        "verify-all-k3": {
            "checks": {
                "domination/girth-precondition": "pass",
                "cycles/type1-cycle-2-3-4-found": "pass",
                "chains/cardinality-identity": "pass",
            },
            "details": {"cycles/all-six-cycles-classified": "'other': 0"},
        },
        "search-codes-k3": {"lines": ["found 65 efficient dominating-1 sets"]},
    }
}


def _tiny(seed, work):
    return [
        Step("verify-all-k3", ["verify", "--suite", "all", "--k", "3", "--l", "2", "--seed", str(seed)]),
        Step("search-codes-k3", ["search-codes", "--k", "3", "--l", "2", "--ell", "1"]),
    ]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-k3", _tiny)
    monkeypatch.setitem(run.WORKLOADS, "tiny-k3", _tiny)


def test_harness_end_to_end_metrics(tiny, capsys):
    result = run.run_workload("tiny-k3", 3, 0, False, SPEC, TINY_RECORD)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < m["setup_s"] < 1 and m["peak_rss_mb"] > 1
    assert m["ops"] == result["attempted"] > 2
    assert 0 < m["checks_decided"] < m["ops"]
    assert json.loads(json.dumps(result)) == result
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert printed == list(run.SERIES_UNITS) + ["ops_failed"]
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(run.SERIES_UNITS)
    assert not (ROOT / ".bench_work" / f"tiny-k3-{run.os.getpid()}").exists()


def test_harness_traced_metrics(tiny):
    result = run.run_workload("tiny-k3", 3, 0, True, SPEC, TINY_RECORD)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(m) == [x["name"] for x in SPEC["per_layer"]]
    for suite in ("domination", "coloring", "chi", "cycles", "toroidal", "chains", "schreier", "pancake"):
        assert m[f"suites.{suite}.s"] > 0, suite
    assert m["domination.code_search.s"] > 0
    assert m["graphs.build_graph.calls"] >= 2
    assert 0 < m["graphs.build_graph.unique_share"] <= 1


def test_doctored_record_fails_the_run(tiny):
    doctored = json.loads(json.dumps(TINY_RECORD))
    doctored["tiny-k3"]["search-codes-k3"]["lines"] = ["found 64 efficient dominating-1 sets"]
    result = run.run_workload("tiny-k3", 3, 0, False, SPEC, doctored)
    assert not result["correct"] and result["failed"] == 1


def test_call_counts_repeat_exactly(tiny, tmp_path):
    def counts():
        h = run.Harness(tmp_path, run.time.monotonic() + 120)
        it = run.run_iteration(h, _tiny(5, tmp_path), TINY_RECORD["tiny-k3"], trace=True)
        assert it.verdict.failed == 0
        return run.aggregate(it.dumps).counts

    first, second = counts(), counts()
    assert first == second
    assert first["mstrings.repeat_position"] > 0 and first["iso.isomorphic"] > 0


def test_missing_sources_exit_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-k4-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_resolve():
    agg = run.Layers(names={"x"})
    with pytest.raises(KeyError):
        run.layer_value("graphs.nope.s", agg, 1.0, 1.0, 0.0)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names and SPEC["command"] == ["python3", "perfbench/run.py"]
