"""Named verification suites over one parameter pair.

Each suite turns the module-level operations into a deterministic list of
timed checks.  Precondition failures (triangles, excluded instances, caps)
are reported as status "precondition"/"skip", never as crashes; only a
false claim yields status "fail".  The sub-suites of one run share a
context, so the graph and its repeat-position coloring are built once.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from . import __version__
from .coloring import (
    EFFICIENCY_KINDS,
    ColoringReport,
    TotalColoring,
    choosability_suite,
    efficiency_obstruction_witness,
    positional_edge_coloring,
    sigma_total_coloring,
    verify_coloring,
)
from .domination import (
    require_girth_above_three,
    se_set,
    sigma_set,
    verify_efficient_domination,
    verify_ei_avoidance,
    verify_partition_and_edge_cover,
)
from .errors import CapExceeded, Precondition
from .graphs import Params, PermGraph, build_graph
from .mstrings import DEFAULT_VERTEX_CAP, list_assignment
from .report import FAIL, PASS, PRECONDITION, SHOWN_WITNESSES, SKIP, CheckResult, SuiteReport

# chains and structure (with iso) are imported by the parts that run them,
# so a domination or coloring run never loads them.
if TYPE_CHECKING:
    from .structure import CycleGroups


class _Runner:
    """Appends checks to a report on one running clock: a check's seconds run
    from the end of the line before it (or the start of the part), so they
    include the work the suite did first, such as a shared report or a build."""

    def __init__(self, report: SuiteReport) -> None:
        self.report, self.clock = report, time.perf_counter()

    def _append(self, name: str, status: str, detail: str, witnesses=()) -> None:
        witnesses, now = list(witnesses), time.perf_counter()
        shown, truncated = witnesses[:SHOWN_WITNESSES], len(witnesses) > SHOWN_WITNESSES
        self.report.checks.append(CheckResult(name, status, detail, shown, now - self.clock, truncated))
        self.clock = now

    def head(self, name: str, unmet: Optional[str], compute):
        """compute(), the report the suite's checks read, or None after one
        line under `name`: PRECONDITION when `unmet` says why the suite does
        not apply (compute is then not called) or compute stops at a
        precondition, SKIP when it hits a cap."""
        if unmet:
            self._append(name, PRECONDITION, unmet)
            return None
        try:
            return compute()
        except Precondition as exc:
            self._append(name, PRECONDITION, str(exc))
        except CapExceeded as exc:
            self._append(name, SKIP, str(exc))
        return None

    def add(self, name: str, fn) -> CheckResult:
        """A PASS or FAIL line for fn() -> (ok, detail, witnesses), or the line head adds."""
        outcome = self.head(name, None, fn)
        if outcome is not None:
            ok, detail, witnesses = outcome
            self._append(name, PASS if ok else FAIL, detail, witnesses)
        return self.report.checks[-1]


def _needs_l2(ell: int) -> Optional[str]:
    return None if ell == 2 else f"suite needs l = 2, got l = {ell}"


class _Context:
    """What the sub-suites of one run share: the parameters, the graph
    (passed in, or built on first use), its repeat-position coloring, that
    coloring's verify_coloring report and its 6-cycles classified under it
    (each computed on first use).  Nothing larger is kept, as whatever is
    cached lives through every later sub-suite.  At k = 4 the process's
    high-water mark rises by 0.4 MB in the cycles sub-suite, which groups
    the 6,300 cycles one root's batch at a time, and by 0.5 MB or less in
    each sub-suite after it.  The 6-cycle groups, a flat array of vertex ids per (kind, colors), stay
    cached: about 150 KB at k = 4."""

    def __init__(
        self, k: int, ell: int, graph: Optional[PermGraph], cap: int, d1: Optional[int], quad: Optional[tuple[int, ...]]
    ) -> None:
        self.k, self.ell, self.cap, self.d1, self.quad = k, ell, cap, d1, quad
        if graph is not None:
            self.graph = graph

    @cached_property
    def graph(self) -> PermGraph:
        return build_graph(Params(self.k, self.ell), cap=self.cap)

    @cached_property
    def coloring(self) -> TotalColoring:
        return sigma_total_coloring(self.graph)

    @cached_property
    def coloring_report(self) -> ColoringReport:
        return verify_coloring(self.coloring)

    @cached_property
    def classified_cycles(self) -> tuple[CycleGroups, dict[str, int]]:
        from .structure import classify_six_cycles

        return classify_six_cycles(self.coloring)


def _suite_domination(run: _Runner, ctx: _Context) -> None:
    k, ell = ctx.k, ctx.ell
    if (k, ell) == (2, 1):
        run.head("girth-precondition", "excluded instance: the 2-symbol 1-repetition graph (a single edge) has no girth above 3", None)
        return
    g = ctx.graph

    def girth():  # a triangle raises Precondition: a PRECONDITION line that ends the suite
        require_girth_above_three(g)
        return True, "triangle-free", []

    if run.add("girth-precondition", girth).status != PASS:
        return

    # Each check builds its certificate or report itself and drops it on
    # return, so one is alive at a time and its seconds are its own work.
    def se_efficient(i: int):
        cert = verify_efficient_domination(g, se_set(g, i), ell)
        return cert.passed, f"violations={len(cert.violations)}", [v.kind for v in cert.violations]

    def se_partition():
        prep = verify_partition_and_edge_cover(g)
        return prep.passed, "", prep.failures

    for i in range(k):
        run.add(f"se-set-{i}-efficient", lambda i=i: se_efficient(i))
    run.add("se-partition-and-edge-cover", se_partition)
    if ell != 2:
        return
    # Each Sigma_i is read off the graph's repeat-position column when a
    # check needs it, so one is alive at a time.
    def sigma_partition():
        column = g.repeat_positions()  # Sigma_i where it holds i: a partition iff the sizes sum to n
        sizes = [column.count(i) for i in range(1, 2 * k)]
        return sum(sizes) == g.n, f"sizes={sorted(sizes)}", []

    def sigma_e_set(i: int):
        cert = verify_efficient_domination(g, sigma_set(g, i), 1)
        return (
            cert.passed and cert.min_internal_distance == 3,
            f"min_distance={cert.min_internal_distance}",
            [v.kind for v in cert.violations],
        )

    def ei_avoidance():
        ei = verify_ei_avoidance(g)
        return not ei["witnesses"] and ei["last_position_rationale"], "", ei["witnesses"]

    run.add("sigma-partition", sigma_partition)
    for i in range(1, 2 * k):
        run.add(f"sigma-{i}-e-set-distance-3", lambda i=i: sigma_e_set(i))
    run.add("ei-avoidance", ei_avoidance)


def _suite_coloring(run: _Runner, ctx: _Context) -> None:
    k, ell, g = ctx.k, ctx.ell, ctx.graph
    # At l = 2 one pass over the total coloring, shared with chi through the
    # context, decides three checks, each reading its own witness kinds;
    # elsewhere only edge colors are checked.
    def positional():
        if ell == 2:
            rep = ctx.coloring_report
        else:
            rep = verify_coloring(positional_edge_coloring(g))
        return bool(rep.proper_edge), "", [w for w in rep.witnesses if w[0] == "adjacent-edges"]

    run.add("positional-edge-proper", positional)
    if ell == 2:
        eff, tc = ctx.coloring_report, ctx.coloring

        def palette_size():
            # the vertex column and the edge label sets, with no label unpacked
            used = set(tc.vertex_colors)
            used.update(labels[0] for labels in g.label_sets)
            return used == tc.palette and len(used) == 2 * k - 1, f"colors={sorted(used)}", []

        run.add("sigma-total", lambda: (bool(eff.total), "", [w for w in eff.witnesses if w[0] not in EFFICIENCY_KINDS]))
        run.add("sigma-efficient", lambda: (bool(eff.efficient), "", eff.witnesses))
        run.add("sigma-palette-size", palette_size)
    if ell >= 3:
        # every list check reads this one column of L(v) by vertex id
        lists = [list_assignment(v) for v in g.vertices]

        def disjoint():
            verts = g.vertices
            bad = [(verts[i], verts[j]) for i, j, _ in g.edge_ids() if lists[i] & lists[j]]
            return not bad, f"edges={g.m}", bad

        def obstruction():
            obs = efficiency_obstruction_witness(g)
            return obs.passed, f"selections={obs.selection_count} nodes={obs.nodes}", list((obs.counterexample or {}).items())

        run.add("list-disjointness", disjoint)
        run.add("selector-min-proper", lambda: (choosability_suite(g, [min(L) for L in lists]), "", []))
        run.add("selector-max-proper", lambda: (choosability_suite(g, [max(L) for L in lists]), "", []))
        run.add("efficiency-obstruction", obstruction)


def _suite_chi(run: _Runner, ctx: _Context) -> None:
    from .structure import color_class_decomposition

    rep = run.head(
        "chi-preconditions", _needs_l2(ctx.ell), lambda: color_class_decomposition(ctx.coloring, ctx.coloring_report)
    )
    if rep is None:
        return
    run.add("chi-preconditions", lambda: (True, f"h={rep.h}", []))
    expected_components = ctx.k * 2 ** (ctx.k - 1)
    for case in rep.cases:
        i = case.color
        run.add(
            f"color-{i}-minus-class-regular-connected",
            lambda case=case: (case.item1_ok(rep.h), f"degree={case.minus_class_regular_degree}", []),
        )
        run.add(
            f"color-{i}-components-regular-totally-colored",
            lambda case=case: (case.item2_ok(rep.h), f"components={len(case.components)}", []),
        )
        run.add(
            f"color-{i}-component-count-and-type",
            lambda case=case: (
                len(case.components) == expected_components
                and all(c.isomorphic_to_reference for c in case.components),
                f"count={len(case.components)} expected={expected_components}",
                [],
            ),
        )
        run.add(
            f"color-{i}-minus-edges-biregular-nonbipartite",
            lambda case=case: (case.item3_ok(rep.h), f"degrees={case.minus_edges_degrees}", []),
        )


def _suite_cycles(run: _Runner, ctx: _Context) -> None:
    classified = run.head("cycle-classification", _needs_l2(ctx.ell), lambda: ctx.classified_cycles)
    if classified is None:
        return
    groups, census = classified
    run.add(
        "all-six-cycles-classified",
        lambda: (census["other"] == 0 and sum(census.values()) > 0, f"census={census}", []),
    )
    if ctx.k == 3:
        run.add(
            "type1-cycle-2-3-4-found",
            lambda: (("type1", (2, 3, 4)) in groups, "", []),
        )


def _suite_toroidal(run: _Runner, ctx: _Context) -> None:
    k, ell = ctx.k, ctx.ell
    unmet = None if ell == 2 and k >= 3 else f"suite needs l = 2 and k >= 3, got k = {k}, l = {ell}"

    def assemble():
        from .structure import toroidal_assembly, toroidal_colors

        d1 = ctx.d1 if ctx.d1 is not None else 2 * k - 1
        # a usage error, raised before a capped 6-cycle enumeration can SKIP
        quad = toroidal_colors(ctx.coloring, d1, ctx.quad or (1, 2, 3, 4))
        return toroidal_assembly(ctx.coloring, ctx.classified_cycles[0], d1, quad)

    rep = run.head("toroidal-audit", unmet, assemble)
    if rep is None:
        return
    run.add(
        "type2-union-built",
        lambda: (rep.type2_cycle_count > 0, f"type2_cycles={rep.type2_cycle_count} n={rep.union_vertex_count}", []),
    )
    run.add("contained-type1-disjoint", lambda: (bool(rep.contained_type1) and rep.type1_disjoint, f"count={len(rep.contained_type1)}", []))
    run.add(
        "departure-sextuples-monochromatic",
        lambda: (rep.departures_ok, f"landing_census={rep.landing_class_census}", rep.departure_failures),
    )
    if len(ctx.coloring.palette) == 5:
        run.add("departures-land-in-d1-class", lambda: (rep.all_land_in_d1, f"d1={rep.d1}", []))
    run.add("class-vertices-pendant", lambda: (rep.sigma_pendant_ok, "", rep.departure_failures))
    run.add(
        "landing-vertices-min-distance-3",
        lambda: (rep.landing_min_distance_3, f"distances={rep.landing_distance_values}", []),
    )


def _suite_chains(run: _Runner, ctx: _Context) -> None:
    from .chains import verify_chain

    k = ctx.k
    rep = run.head("chain-embeddings", _needs_l2(ctx.ell), lambda: verify_chain(k, cap=ctx.cap))
    if rep is None:
        return
    run.add("images-disjoint-induced", lambda: (rep.images_disjoint and rep.images_induced_isomorphic, f"images={k + 1}", rep.failures))
    run.add("sigma-bijection", lambda: (rep.sigma_bijection_ok and rep.blocks_partition_sigma, f"blocks={rep.block_sizes}", []))
    run.add("cardinality-identity", lambda: (rep.cardinality_identity_ok, f"sigma={rep.sigma_size}", []))


def _suite_schreier(run: _Runner, ctx: _Context) -> None:
    from .chains import schreier_quotient_check

    rep = run.head("schreier-quotient", None, lambda: schreier_quotient_check(ctx.k, ctx.ell))
    if rep is None:
        return
    run.add("fibers-are-cosets", lambda: (rep.fibers_are_cosets and rep.fiber_sizes_ok, "", rep.failures))
    run.add("quotient-matches-graph", lambda: (rep.quotient_equals_graph, "", rep.failures))
    run.add("local-generator-sets", lambda: (rep.generator_sets_ok, "", rep.failures))


def _suite_pancake(run: _Runner, ctx: _Context) -> None:
    from .chains import pancake_chain_check

    rep = run.head("pancake-obstructions", _needs_l2(ctx.ell), lambda: pancake_chain_check(ctx.k, cap=ctx.cap))
    if rep is None:
        return
    run.add(
        "last-sigma-is-e-set",
        lambda: (rep.last_sigma_passes, f"min_distance={rep.last_sigma_min_distance}", []),
    )
    run.add(
        "lower-sigmas-fail-with-witness",
        lambda: (rep.all_lower_sigmas_fail, "", [(i, w[0]) for i, w in sorted(rep.failing_sigmas.items())]),
    )
    run.add(
        "black-removal-neighborhood-partition",
        lambda: (
            rep.last_sigma_passes and rep.degrees_drop,
            f"degree_after_vertices={rep.minus_sigma_regular_degree} after_edges={rep.remainder_regular_degree}",
            [],
        ),
    )


#: Each sub-suite in report order; "all" runs them in turn on one context.
_PARTS = {
    "domination": _suite_domination,
    "coloring": _suite_coloring,
    "chi": _suite_chi,
    "cycles": _suite_cycles,
    "toroidal": _suite_toroidal,
    "chains": _suite_chains,
    "schreier": _suite_schreier,
    "pancake": _suite_pancake,
}
SUITES = (*_PARTS, "all")


def run_suite(
    suite: str,
    k: int,
    ell: int,
    graph: Optional[PermGraph | _Context] = None,
    cap: int = DEFAULT_VERTEX_CAP,
    seed: Optional[int] = None,
    d1: Optional[int] = None,
    quad: Optional[tuple[int, ...]] = None,
) -> SuiteReport:
    """Run one suite.  `graph` is the graph to check (built on first use
    when omitted), or, for the parts of an "all" run, that run's context."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    report = SuiteReport(suite, {"k": k, "l": ell}, __version__, seed)
    ctx = graph if isinstance(graph, _Context) else _Context(k, ell, graph, cap, d1, quad)
    if suite != "all":
        if k == 1:  # ST(1, l) is a single vertex, below every claim
            _Runner(report).head("instance-precondition", "suite needs k > 1, got k = 1", None)
        else:
            _PARTS[suite](_Runner(report), ctx)
        return report
    for part in _PARTS:
        # One run_suite call per part, so that a wrapper around run_suite
        # (the benchmark tracer) times each part on its own.
        for check in run_suite(part, k, ell, ctx, cap, seed, d1, quad).checks:
            check.name = f"{part}/{check.name}"
            report.checks.append(check)
    return report
