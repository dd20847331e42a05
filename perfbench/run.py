"""Benchmark of the starperm CLI at desk scale.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, closed loop: the workload's steps run back to back, each as a
fresh child process that imports ``starperm`` from ``src/`` and calls
``starperm.cli.main`` with the step's arguments.  Whole iterations repeat
while another one fits in ``--seconds`` (at least one).  Every step's output is
checked against the expected-verdict record.

Every run prints ``wall_s``, ``setup_s``, ``peak_rss_mb``, ``ops``,
``ops_failed`` and ``checks_decided``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` in its result;
``--trace 1`` runs the same untraced iterations, then one traced iteration,
and prints the per-layer metrics.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402
from verdicts import Verdict, check_step, load_record  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402

CHILD = HERE / "child.py"
#: Extra children per run that only import starperm, for a steadier setup_s.
SETUP_PROBES = 5
#: Units of the series every run measures; BENCHMARK.json picks the gated ones.
SERIES_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops": "count", "checks_decided": "count"}
#: Children still running this long after the run started are killed.
RUN_DEADLINE_S = 170.0


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


@dataclass
class StepRun:
    wall_s: float
    rss_mb: float
    setup_s: float
    exit: int
    stdout: str
    stderr: str
    trace: Optional[dict] = None


class Harness:
    """Starts children in a private work directory and reaps each one."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.children = 0

    def child(self, argv: Optional[list[str]], trace: bool = False, run_id: int = 0) -> StepRun:
        self.children += 1
        tag = self.work / f"child-{self.children}"
        spec = {
            "result": f"{tag}.result.json",
            "argv": argv,
            "trace": f"{tag}.trace.json" if trace else None,
            "run_id": run_id,
        }
        with open(f"{tag}.out", "wb") as out, open(f"{tag}.err", "wb") as err:
            spec["t0_ns"] = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, "-I", str(CHILD), json.dumps(spec)], stdout=out, stderr=err, cwd=self.work
            )
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = (time.monotonic_ns() - spec["t0_ns"]) / 1e9
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        try:
            with open(spec["result"]) as fh:
                setup_s = json.load(fh)["setup_s"]
        except (OSError, ValueError, KeyError):
            setup_s = float("nan")
        dump = None
        if trace and code in (0, 1):
            with open(spec["trace"]) as fh:
                dump = json.load(fh)
        return StepRun(
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024,
            setup_s=setup_s,
            exit=code,
            stdout=Path(f"{tag}.out").read_text(errors="replace"),
            stderr=Path(f"{tag}.err").read_text(errors="replace"),
            trace=dump,
        )


@dataclass
class Iteration:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    verdict: Verdict = field(default_factory=Verdict)
    dumps: list[dict] = field(default_factory=list)


def run_iteration(harness: Harness, steps: list[Step], record: dict, trace: bool = False) -> Iteration:
    it = Iteration()
    for run_id, step in enumerate(steps):
        if step.prepare is not None:
            subprocess.run(step.prepare, check=True, timeout=max(1.0, harness.deadline - time.monotonic()))
        r = harness.child(step.argv, trace=trace, run_id=run_id)
        it.wall_s += r.wall_s
        it.peak_rss_mb = max(it.peak_rss_mb, r.rss_mb)
        it.setup_s.append(r.setup_s)
        v = check_step(record[step.key], r.exit, r.stdout, r.trace["facts"] if r.trace else None)
        if trace and r.trace is None:
            v.fail("no trace written")
        for problem in v.problems:
            print(f"[{step.key}] {problem}", file=sys.stderr)
        if v.failed and r.stderr.strip():
            print(r.stderr.strip()[-2000:], file=sys.stderr)
        it.verdict.ops += v.ops
        it.verdict.failed += v.failed
        it.verdict.decided += v.decided
        it.verdict.check_seconds += v.check_seconds
        if r.trace:
            it.dumps.append(r.trace)
    return it


# ---------------------------------------------------------------------------
# per-layer metrics from the traced iteration
# ---------------------------------------------------------------------------


@dataclass
class Layers:
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    incl_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    top_suite_s: float = 0.0
    root_s: float = 0.0
    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    extras: defaultdict = field(default_factory=lambda: defaultdict(float))
    unique: defaultdict = field(default_factory=lambda: defaultdict(int))
    names: set = field(default_factory=set)


def aggregate(dumps: list[dict]) -> Layers:
    """Sum self and inclusive time by span name over every traced step."""
    agg = Layers()
    for dump in dumps:
        spans = dump["spans"]
        for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
            agg.self_s[name] += own / 1e9
            agg.incl_s[name] += (end - start) / 1e9
            if parent < 0:
                agg.root_s += (end - start) / 1e9
            if name.startswith("suites.") and (parent < 0 or not spans[parent][0].startswith("suites.")):
                agg.top_suite_s += (end - start) / 1e9
        for table, target in (("counts", agg.counts), ("extras", agg.extras), ("unique", agg.unique)):
            for name, value in dump[table].items():
                target[name] += value
        agg.names.update(dump["names"])
    return agg


def layer_value(name: str, agg: Layers, traced_wall: float, untraced_wall: float, check_seconds: float) -> float:
    """The value of one per-layer metric of BENCHMARK.json.

    ``<module>.<function>.<kind>`` reads the traced function's self seconds
    (``s``), call count, distinct-argument share or an extra; a sub-suite's
    ``suites.<suite>.s`` is its span's whole duration, the ``trace.*``
    metrics describe the traced run itself.  ``trace.accounted_share`` is
    the share of the traced wall time the spans explain: the sub-suites
    whole plus the self time of every span outside them (CLI, export,
    report, and graphs the CLI builds itself), which sums to the root
    spans; the rest is interpreter start, import and exit.
    """
    if name == "trace.wall_s":
        return traced_wall
    if name == "trace.untraced_wall_s":
        return untraced_wall
    if name == "trace.overhead_s":
        return traced_wall - untraced_wall
    if name == "trace.accounted_share":
        return agg.root_s / traced_wall
    if name == "suites.check_s_share":
        return check_seconds / agg.top_suite_s if agg.top_suite_s else 0.0
    func, kind = name.rsplit(".", 1)
    if func.startswith("suites.") and kind == "s" and func != "suites.run_suite":
        return agg.incl_s.get(func, 0.0)
    if func not in agg.names:
        raise KeyError(f"per-layer metric {name!r}: {func} is not traced")
    if kind == "s":
        return agg.self_s.get(func, 0.0)
    if kind == "calls":
        return agg.counts.get(func, 0)
    if kind == "unique_share":
        calls = agg.counts.get(func, 0)
        return agg.unique.get(func, 0) / calls if calls else 0.0
    if kind in ("rss_delta_mb", "bytes", "cap_exceeded"):
        return agg.extras.get(name, 0)
    raise KeyError(f"per-layer metric {name!r}: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return f"median of {len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, record: dict) -> dict:
    """Run one benchmark run; return the result object it prints last."""
    start = time.monotonic()
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        harness = Harness(work, start + RUN_DEADLINE_S)
        steps = WORKLOADS[workload](seed, work)
        setups = [harness.child(None).setup_s for _ in range(SETUP_PROBES)]
        iterations: list[Iteration] = []
        # whole iterations, as many as fit in the window; always at least one
        while not iterations or time.monotonic() - start + iterations[-1].wall_s <= seconds:
            iterations.append(run_iteration(harness, steps, record[workload]))
        traced = run_iteration(harness, steps, record[workload], trace=True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    walls = [it.wall_s for it in iterations]
    # a child that died before its import finished has no setup time (NaN)
    setups = [s for s in setups + [s for it in iterations for s in it.setup_s] if s == s]
    series = {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": [it.peak_rss_mb for it in iterations],
        "ops": [it.verdict.ops for it in iterations],
        "checks_decided": [it.verdict.decided for it in iterations],
    }
    ran = iterations + ([traced] if traced else [])
    attempted = sum(it.verdict.ops for it in ran)
    failed = sum(it.verdict.failed for it in ran)

    print(f"workload {workload}  seed {seed}  iterations {len(iterations)}  closed loop, 1 client")
    medians = {name: statistics.median(values) for name, values in series.items()}
    for name, values in series.items():
        print(f"  {name:<16} {medians[name]:>12.4f} {SERIES_UNITS[name]:<6} ({summary(values)})")
    print(f"  {'ops_failed':<16} {failed:>12d} count  (of {attempted} attempted)")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {m["name"]: medians[m["name"]] for m in spec["end_to_end"]}
    if traced is not None:
        agg = aggregate(traced.dumps)
        metrics = {
            m["name"]: layer_value(m["name"], agg, traced.wall_s, medians["wall_s"], traced.verdict.check_seconds)
            for m in spec["per_layer"]
        }
        for name, value in metrics.items():
            print(f"  {name:<48} {value:>14.4f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "starperm" / "cli.py").is_file():
        print(f"no starperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), load_spec(), load_record())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
