"""Machine-readable suite reports.

A suite run is a list of named checks, each pass/fail/skip/precondition with
optional witnesses and timing.  Exit code 0 means no check failed; caps and
usage problems surface as distinct process exit codes in the CLI.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
PRECONDITION = "precondition"

#: Most witnesses any check, certificate or report keeps.
WITNESS_CAP = 32
#: Most witnesses a suite report shows per check; a check that had more is
#: marked truncated.
SHOWN_WITNESSES = 8


def keep_witnesses(kept: list, found: Iterable) -> None:
    """Extend `kept` from `found` until it holds WITNESS_CAP, reading no further."""
    kept.extend(islice(found, max(0, WITNESS_CAP - len(kept))))


class CheckResult:
    def __init__(
        self,
        name: str,
        status: str,
        detail: str = "",
        witnesses: Optional[list] = None,
        seconds: float = 0.0,
        truncated: bool = False,
    ) -> None:
        self.name, self.status, self.detail = name, status, detail
        self.witnesses = [] if witnesses is None else witnesses
        self.seconds, self.truncated = seconds, truncated


class SuiteReport:
    def __init__(
        self, suite: str, params: dict, tool_version: str, checks: Optional[list[CheckResult]] = None, seed: Optional[int] = None
    ) -> None:
        self.suite, self.params, self.tool_version = suite, params, tool_version
        self.checks = [] if checks is None else checks
        self.seed = seed

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> str:
        import json  # imported here, not at load: only `verify --json` writes it

        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "suite": self.suite,
            "params": self.params,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "detail": c.detail,
                    "witnesses": [_jsonable(w) for w in c.witnesses],
                    "seconds": round(c.seconds, 6),
                    "truncated": c.truncated,
                }
                for c in self.checks
            ],
        }
        return json.dumps(doc, indent=2)

    def format_lines(self) -> str:
        width = max((len(c.name) for c in self.checks), default=0)
        lines = [f"suite {self.suite}  params {self.params}"]
        for c in self.checks:
            line = f"  {c.status.upper():<12} {c.name:<{width}}  [{c.seconds:.3f}s]"
            if c.detail:
                line += f"  {c.detail}"
            lines.append(line)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _jsonable(x):
    from .mstrings import render

    if isinstance(x, tuple) and x and all(isinstance(s, int) for s in x):
        return render(x)
    if isinstance(x, (list, tuple, set, frozenset)):
        items = sorted(x, key=repr) if isinstance(x, (set, frozenset)) else x
        return [_jsonable(y) for y in items]
    if isinstance(x, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in x.items()}
    return x
