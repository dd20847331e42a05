"""The expected-verdict record and the checker that compares a step with it.

``expected.json`` holds, per workload and step: the exit code, every
check's status, detail fragments the report must still print (the
structural numbers), lines the CLI must print, and facts only the traced
run can see.  The record does not depend on the workload seed, so every
seed is held to the same verdicts.

An operation is one CLI step or one reported check.  A step fails when it
crashes, exits outside {0, 1}, or no longer prints a recorded number; a
check fails when it is missing or its status is worse than recorded.
Decided beats undecided and, among decided statuses, PASS beats FAIL, so a
SKIP that becomes a decided check is not a failure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

RECORD_PATH = Path(__file__).resolve().parent / "expected.json"

RANK = {"pass": 2, "fail": 1, "skip": 0, "precondition": 0}
DECIDED = ("pass", "fail")

_CHECK_LINE = re.compile(r"^  (PASS|FAIL|SKIP|PRECONDITION) +(\S+) +\[(\d+\.\d+)s\](?:  (.*))?$")


@dataclass
class Check:
    status: str
    seconds: float
    detail: str


@dataclass
class Verdict:
    """The checker's outcome for one step."""

    ops: int = 0
    failed: int = 0
    decided: int = 0
    check_seconds: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def load_record(path: Path = RECORD_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def parse_checks(stdout: str) -> dict[str, Check]:
    """The checks a ``verify`` step printed, by name."""
    checks = {}
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(2)] = Check(m.group(1).lower(), float(m.group(3)), m.group(4) or "")
    return checks


def check_step(expected: dict, exit_code: int, stdout: str, facts: dict | None = None) -> Verdict:
    """Compare one step's exit code and output with its record.

    ``facts`` are the traced run's structural facts, or ``None`` in an
    untraced run, where the record's traced facts are not checked.
    """
    v = Verdict()
    checks = parse_checks(stdout)
    v.ops = 1 + len(set(checks) | set(expected.get("checks", {})))
    v.decided = sum(c.status in DECIDED for c in checks.values())
    v.check_seconds = sum(c.seconds for c in checks.values())

    step_problems = []
    if exit_code not in (0, 1):
        step_problems.append(f"exit code {exit_code}")
    for line in expected.get("lines", ()):
        if line not in stdout:
            step_problems.append(f"missing output {line!r}")
    for name, fragment in expected.get("details", {}).items():
        got = checks.get(name)
        if got is None or fragment not in got.detail:
            step_problems.append(f"{name}: detail lacks {fragment!r}")
    if facts is not None:
        for name, value in expected.get("traced_facts", {}).items():
            if facts.get(name) != value:
                step_problems.append(f"traced fact {name} = {facts.get(name)!r}, want {value!r}")
    if step_problems:
        v.fail("; ".join(step_problems))

    for name, status in expected.get("checks", {}).items():
        got = checks.get(name)
        if got is None:
            v.fail(f"{name}: missing, want {status}")
        elif RANK[got.status] < RANK[status]:
            v.fail(f"{name}: {got.status}, want {status}")
    return v
