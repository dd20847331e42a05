"""Outside-in tracer for the traced benchmark run.

The tracer times calls into the public functions of every ``starperm``
module without touching the program's source: before ``cli.main`` runs it
rebinds each public function on its defining module, on every other
``starperm`` module (and the package itself) that imported it by name, and
the structural methods of ``Graph`` and ``SuiteReport``.  Each wrapped call
leaves a span ``(name, start_ns, end_ns, parent, run_id)`` in memory; the
spans are written out once, when the traced process ends.

Hot helpers called per vertex are counted, not spanned: a span each would
cost more than the call it measures.  O(1) ``Graph`` accessors (``index``,
``neighbors``, ``edges`` ...) are not traced at all; their time is part of
their caller's self time.  Functions reached through a default argument
bound at definition time (``selector=min_selector``) bypass the rebinding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import resource
import time
from collections import Counter, defaultdict

#: Counted per call, never spanned.
HOT = frozenset(
    {
        "mstrings.repeat_position",
        "mstrings.infer_params",
        "mstrings.validate",
        "mstrings.list_assignment",
        "graphs.Graph.bfs_distances",
        "mstrings.render",
        "mstrings.mstring",
        "mstrings.star_neighbors",
        "mstrings.prefix_reversal",
        "mstrings.rank",
        "mstrings.unrank",
        "coloring.min_selector",
        "coloring.max_selector",
        "chains.kappa_embed",
        "export.color_name",
    }
)

#: Class methods worth a span; the remaining methods are O(1) accessors.
METHODS = {
    "graphs.Graph": (
        "degree_census",
        "regularity",
        "bfs_distances",
        "distance",
        "is_connected",
        "components",
        "induced_subgraph",
        "subgraph",
        "has_triangle",
        "girth",
        "odd_closed_walk",
        "is_bipartite",
    ),
    "report.SuiteReport": ("format_lines", "to_json"),
}

#: Calls whose rise of the process's peak RSS is summed.
RSS_DELTA = frozenset({"graphs.build_graph", "domination.verify_efficient_domination"})

#: ``name -> (index of the file argument, count only what the call added)``.
BYTES = {"export.write_edge_list": (1, True), "export.read_edge_list": (0, False)}

#: Calls whose CapExceeded is counted as ``<name>.cap_exceeded``.
CAP_COUNTED = frozenset({"chains.verify_chain", "chains.schreier_quotient_check", "chains.pancake_chain_check"})


def _graph_key(g):
    return (getattr(g, "params", None), repr(getattr(g, "family", None)))


def _build_key(bound):
    return (bound.arguments["p"], repr(bound.arguments["family"]))


#: ``name -> key(bound arguments)``: distinct keys over calls is ``unique_share``.
KEYED = {
    "graphs.build_graph": _build_key,
    "coloring.sigma_total_coloring": lambda b: _graph_key(b.arguments["g"]),
}


def _file_bytes(fh) -> int:
    """Bytes written so far to, or held by, an open file."""
    try:
        fh.flush()
        return os.fstat(fh.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _component_sizes(rep) -> dict:
    return {"chi_component_vertices": sorted({c.n for case in rep.cases for c in case.components})}


#: ``name -> facts(result)``: structural numbers the CLI does not print.
FACTS = {"structure.color_class_decomposition": _component_sizes}


def _maxrss_kb() -> int:
    """This process's own peak RSS.  ``getrusage`` would also report the
    peak its parent had reached when it forked this process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans, counts and extras of one traced process."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.extras: defaultdict = defaultdict(float)
        self.keys: defaultdict = defaultdict(set)
        self.facts: dict = {}
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, name: str, fn):
        spans, stack, counts, extras = self.spans, self._stack, self.counts, self.extras
        run_id = self.run_id
        keyed = KEYED.get(name)
        sig = inspect.signature(fn) if keyed else None
        rss = name in RSS_DELTA
        caps = name in CAP_COUNTED
        facts = FACTS.get(name)
        file_arg, added_only = BYTES.get(name, (None, False))
        suite_span = name == "suites.run_suite"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            if keyed is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.keys[name].add(keyed(bound))
            label = f"suites.{args[0] if args else kwargs['suite']}" if suite_span else name
            before_rss = _maxrss_kb() if rss else 0
            before_bytes = _file_bytes(args[file_arg]) if added_only else 0
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # by name: the bench parent imports this module without starperm
                if caps and type(exc).__name__ == "CapExceeded":
                    extras[f"{name}.cap_exceeded"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (label, start, end, parent, run_id)
                if rss:
                    extras[f"{name}.rss_delta_mb"] += (_maxrss_kb() - before_rss) / 1024
                if file_arg is not None:
                    extras[f"{name}.bytes"] += _file_bytes(args[file_arg]) - before_bytes
            if facts is not None:
                self.facts.update(facts(result))
            return result

        return spanned

    def _wrap(self, name: str, fn):
        self.names.add(name)
        return self._counter(name, fn) if name in HOT else self._spanner(name, fn)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "starperm") -> None:
        """Rebind the public functions and traced methods of ``package``."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}") for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrapped: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for cls_path, methods in METHODS.items():
                mod_short, cls_name = cls_path.split(".")
                if mod_short != short:
                    continue
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self._wrap(f"{cls_path}.{meth}", cls.__dict__[meth]))
        # rebind on the defining module and every importer, matched by identity
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    self._set(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "extras": dict(self.extras),
            "unique": {name: len(keys) for name, keys in self.keys.items()},
            "facts": self.facts,
            "names": sorted(self.names),
        }


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its children cover.

    Spans are ``(name, start, end, parent, run_id)`` as one traced process
    recorded them: ``parent`` indexes the same list, ``-1`` marks a root.
    """
    children: defaultdict = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(start, end, children.get(i, ())) for i, (_, start, end, _, _) in enumerate(spans)]
