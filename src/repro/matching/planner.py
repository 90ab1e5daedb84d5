"""The selection-operator access-method pipeline (Sections 4.1–4.4).

:class:`GraphMatcher` composes the four stages the paper evaluates:

1. retrieval of feasible mates (scan / label hashtable / attribute B-tree);
2. local pruning by profiles or neighborhood subgraphs (Section 4.2);
3. joint reduction of the search space by pseudo-subgraph-isomorphism
   refinement (Section 4.3);
4. search-order optimization and the backtracking search (Sections 4.4,
   4.1).

Every stage records its timing and the search-space size it produced in a
:class:`MatchReport`, which is exactly what the paper's figures plot
(reduction ratios, per-step times, total times).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..core.bindings import Mapping
from ..core.graph import Graph
from ..core.pattern import GraphPattern, GroundPattern
from ..index.attribute_index import AttributeIndexSet
from ..index.profile_index import ProfileIndex
from ..obs.trace import span as trace_span
from ..runtime import (
    ExecutionContext,
    ExecutionInterrupted,
    QueryOutcome,
    current_outcome,
)
from .basic import SearchCounters, find_matches, scan_feasible_mates
from .feasible_mates import RetrievalStats, retrieve_feasible_mates
from .refinement import RefinementStats, refine_search_space, space_size
from .search_order import CostModel, connected_order, greedy_order
from .statistics import GraphStatistics

logger = logging.getLogger(__name__)


@dataclass
class MatchOptions:
    """Strategy flags for one matching run.

    The paper's "Optimized" configuration is the default: retrieval by
    profiles, refinement at level = query size, greedy optimized order.
    The "Baseline" configuration is
    ``MatchOptions(local="none", refine=False, optimize_order=False)``.
    """

    local: str = "profile"            # "none" | "profile" | "subgraph"
    refine: bool = True               # run Algorithm 4.2
    refine_level: Optional[int] = None  # None => pattern size
    optimize_order: bool = True       # greedy cost-based order vs connected order
    gamma_mode: str = "frequency"     # "frequency" | "constant"
    gamma_const: float = 0.1
    radius: int = 1
    exhaustive: bool = True
    limit: Optional[int] = None
    label_attr: str = "label"
    use_attribute_index: bool = True
    # measure the unpruned space for reduction ratios (benchmark
    # instrumentation; skip it in latency-sensitive production paths)
    compute_baseline: bool = True


@dataclass
class MatchReport:
    """Search-space sizes, per-step timings and results of one run.

    ``outcome`` records how the run ended (COMPLETE / TRUNCATED /
    TIMED_OUT / CANCELLED, with steps and elapsed time); ``mappings``
    holds whatever was found up to that point, so interrupted runs still
    carry their partial results.  ``degradation`` lists every fallback
    the planner took (missing/broken index, failed refinement, …) — an
    empty list means the full pipeline ran as configured.
    """

    baseline_space: int = 0
    retrieved_space: int = 0
    refined_space: int = 0
    times: Dict[str, float] = field(default_factory=dict)
    retrieval: Optional[RetrievalStats] = None
    refinement: Optional[RefinementStats] = None
    search: Optional[SearchCounters] = None
    order: List[str] = field(default_factory=list)
    mappings: List[Mapping] = field(default_factory=list)
    degradation: List[str] = field(default_factory=list)
    outcome: QueryOutcome = field(default_factory=QueryOutcome)

    @property
    def total_time(self) -> float:
        """Sum of all step times (seconds)."""
        return sum(self.times.values())

    def reduction_ratio(self, stage: str = "refined") -> float:
        """Search-space reduction ratio against the baseline space."""
        if self.baseline_space == 0:
            return 0.0
        size = self.refined_space if stage == "refined" else self.retrieved_space
        return size / self.baseline_space

    def stats_dict(self) -> Dict[str, object]:
        """JSON-ready per-stage statistics (counts, timings, order).

        This is what ``repro-gql match --json`` embeds per graph so
        scripts get the stage breakdown without re-running verbose.
        """
        retrieval = self.retrieval
        refinement = self.refinement
        search = self.search
        return {
            "times": dict(self.times),
            "total_time": self.total_time,
            "spaces": {
                "baseline": self.baseline_space,
                "retrieved": self.retrieved_space,
                "refined": self.refined_space,
            },
            "order": list(self.order),
            "retrieval": ({
                "scanned": dict(retrieval.scanned),
                "feasible_mates": dict(retrieval.after_fu),
                "after_pruning": dict(retrieval.after_local),
                "method": dict(retrieval.method),
            } if retrieval is not None else None),
            "refinement": ({
                "levels_run": refinement.levels_run,
                "pairs_checked": refinement.pairs_checked,
                "pairs_removed": refinement.pairs_removed,
            } if refinement is not None else None),
            "search": ({
                "candidates_tried": search.candidates_tried,
                "check_calls": search.check_calls,
                "partial_states": search.partial_states,
                "results": search.results,
            } if search is not None else None),
        }


class GraphMatcher:
    """Matches ground patterns against one data graph with shared indexes.

    Build one matcher per data graph; indexes and statistics are computed
    once and reused across queries, as a database system would.
    """

    def __init__(
        self,
        graph: Graph,
        radius: int = 1,
        build_attribute_index: bool = True,
        build_profile_index: bool = True,
        label_attr: str = "label",
    ) -> None:
        self.graph = graph
        self.label_attr = label_attr
        self._radius = radius
        self._build_attribute_index = build_attribute_index
        self._build_profile_index = build_profile_index
        self._rebuild()

    def _rebuild(self) -> None:
        # each auxiliary structure is optional: a build failure degrades
        # the pipeline (recorded in build_errors and on later reports)
        # instead of making the graph unqueryable
        self.build_errors: List[str] = []
        try:
            self.stats: Optional[GraphStatistics] = GraphStatistics(self.graph)
        except Exception as exc:
            self.stats = None
            self._note_build_error("graph statistics", exc)
        self.attribute_index: Optional[AttributeIndexSet] = None
        if self._build_attribute_index:
            try:
                self.attribute_index = AttributeIndexSet(self.graph)
            except Exception as exc:
                self._note_build_error("attribute index", exc)
        self.profile_index: Optional[ProfileIndex] = None
        if self._build_profile_index:
            try:
                self.profile_index = ProfileIndex(self.graph,
                                                  radius=self._radius)
            except Exception as exc:
                self._note_build_error("profile index", exc)
        self._built_version = self.graph.version

    def _note_build_error(self, what: str, exc: Exception) -> None:
        message = f"{what} build failed ({exc}); continuing without it"
        self.build_errors.append(message)
        logger.warning("%r: %s", self.graph, message)

    def refresh(self) -> bool:
        """Rebuild indexes/statistics if the graph mutated; returns whether
        a rebuild happened.  ``match`` calls this automatically, so
        queries never run against stale index structures."""
        if self.graph.version != self._built_version:
            self._rebuild()
            return True
        return False

    # -- the full pipeline -------------------------------------------------------

    def match(
        self,
        pattern: GroundPattern,
        options: Optional[MatchOptions] = None,
        context: Optional[ExecutionContext] = None,
    ) -> MatchReport:
        """Run the full access-method pipeline on one ground pattern.

        With a *context*, every stage is governed: deadline expiry, step
        budget exhaustion or cancellation stop the run, the interruption
        is recorded on the context, and the report carries a structured
        :class:`~repro.runtime.QueryOutcome` plus whatever mappings the
        search had produced.  Failures of auxiliary structures (indexes,
        statistics, refinement) never abort the query: the planner walks
        a degradation ladder — indexed retrieval, then on-the-fly local
        pruning, then the basic scan matcher — and records each step
        taken in ``report.degradation``.
        """
        opts = options or MatchOptions()
        report = MatchReport()
        with trace_span("match.query", graph=self.graph.name or "<anon>") as sp:
            try:
                self.refresh()
            except Exception as exc:
                self._degrade(report, f"index refresh failed ({exc}); "
                                      "matching with stale structures")
            for message in getattr(self, "build_errors", ()):
                report.degradation.append(message)
            try:
                self._match_pipeline(pattern, opts, report, context)
            except ExecutionInterrupted as exc:
                if context is None:
                    raise
                context.mark_interrupted(exc)
            report.outcome = current_outcome(context)
            sp.annotate(status=report.outcome.status.value)
            sp.incr("mappings", len(report.mappings))
        return report

    def _degrade(self, report: MatchReport, message: str) -> None:
        report.degradation.append(message)
        logger.warning("%r: %s", self.graph, message)

    def _retrieve(
        self,
        pattern: GroundPattern,
        opts: MatchOptions,
        report: MatchReport,
        local: str,
        stats: Optional[RetrievalStats] = None,
    ) -> Dict[str, List[str]]:
        """One retrieval attempt, walking the degradation ladder on error.

        Rung 0: configured indexes.  Rung 1: no indexes — the exact F_u
        scan with local pruning computed on the fly.  Rung 2: the basic
        matcher's full scan (no pruning at all).  Interruptions from the
        governance context always propagate.
        """
        try:
            return retrieve_feasible_mates(
                pattern,
                self.graph,
                attribute_index=(
                    self.attribute_index if opts.use_attribute_index else None
                ),
                profile_index=self.profile_index,
                local=local,
                radius=opts.radius,
                label_attr=opts.label_attr,
                stats=stats,
            )
        except ExecutionInterrupted:
            raise
        except Exception as exc:
            self._degrade(
                report,
                f"indexed retrieval (local={local!r}) failed ({exc}); "
                "retrying without indexes",
            )
        try:
            return retrieve_feasible_mates(
                pattern,
                self.graph,
                attribute_index=None,
                profile_index=None,
                local=local,
                radius=opts.radius,
                label_attr=opts.label_attr,
                stats=stats,
            )
        except ExecutionInterrupted:
            raise
        except Exception as exc:
            self._degrade(
                report,
                f"unindexed retrieval failed ({exc}); "
                "falling back to the basic scan matcher",
            )
        return scan_feasible_mates(pattern, self.graph)

    def _match_pipeline(
        self,
        pattern: GroundPattern,
        opts: MatchOptions,
        report: MatchReport,
        context: Optional[ExecutionContext],
    ) -> None:
        graph = self.graph
        if context is not None:
            context.check()

        # Step 0: baseline space (retrieval by F_u only) for reduction ratios
        baseline: Optional[Dict[str, List[str]]] = None
        if opts.compute_baseline or opts.local == "none":
            started = time.perf_counter()
            with trace_span("match.retrieve_baseline") as sp:
                baseline = self._retrieve(pattern, opts, report, local="none")
                sp.incr("space", space_size(baseline))
            report.times["retrieve_baseline"] = time.perf_counter() - started
            report.baseline_space = space_size(baseline)

        # Step 1+2: retrieval with local pruning
        if opts.local == "none":
            assert baseline is not None
            space = baseline
            report.times["local_pruning"] = 0.0
        else:
            started = time.perf_counter()
            with trace_span("match.prune", local=opts.local) as sp:
                retrieval_stats = RetrievalStats()
                space = self._retrieve(pattern, opts, report, local=opts.local,
                                       stats=retrieval_stats)
                sp.incr("space", space_size(space))
            report.times["local_pruning"] = time.perf_counter() - started
            report.retrieval = retrieval_stats
        report.retrieved_space = space_size(space)

        # Step 3: joint reduction (Algorithm 4.2)
        if opts.refine:
            started = time.perf_counter()
            with trace_span("match.refine") as sp:
                refinement_stats = RefinementStats()
                try:
                    space = refine_search_space(
                        pattern.motif,
                        graph,
                        space,
                        level=opts.refine_level,
                        stats=refinement_stats,
                        context=context,
                    )
                except ExecutionInterrupted:
                    report.times["refine"] = time.perf_counter() - started
                    raise
                except Exception as exc:
                    self._degrade(report, f"refinement failed ({exc}); "
                                          "searching the unrefined space")
                sp.incr("pairs_removed", refinement_stats.pairs_removed)
            report.times["refine"] = time.perf_counter() - started
            report.refinement = refinement_stats
        report.refined_space = space_size(space)

        # Step 4: search order
        started = time.perf_counter()
        with trace_span("match.order") as sp:
            sizes = {name: len(candidates)
                     for name, candidates in space.items()}
            try:
                if opts.optimize_order:
                    model = CostModel(
                        pattern.motif,
                        stats=(self.stats if opts.gamma_mode == "frequency"
                               else None),
                        gamma_const=opts.gamma_const,
                        label_attr=opts.label_attr,
                        directed=graph.directed,
                    )
                    order, policy = (
                        greedy_order(pattern.motif, sizes, model), "greedy")
                else:
                    order, policy = (
                        connected_order(pattern.motif, sizes), "connected")
            except Exception as exc:
                self._degrade(
                    report,
                    f"search-order optimization failed ({exc}); "
                    "using declaration order")
                order, policy = pattern.node_names(), "declaration"
            sp.annotate(policy=policy)
        report.times["order"] = time.perf_counter() - started
        report.order = order
        self._search(pattern, opts, report, space, order, context)

    def _search(
        self,
        pattern: GroundPattern,
        opts: MatchOptions,
        report: MatchReport,
        space: Dict[str, List[str]],
        order: Sequence[str],
        context: Optional[ExecutionContext],
    ) -> None:
        # Step 5: the backtracking search (Algorithm 4.1)
        started = time.perf_counter()
        counters = SearchCounters()
        with trace_span("match.search") as sp:
            try:
                report.mappings = find_matches(
                    pattern,
                    self.graph,
                    candidates=space,
                    order=order,
                    exhaustive=opts.exhaustive,
                    limit=opts.limit,
                    counters=counters,
                    context=context,
                )
            finally:
                report.times["search"] = time.perf_counter() - started
                report.search = counters
                sp.incr("results", counters.results)
                sp.incr("candidates_tried", counters.candidates_tried)

    def explain(
        self,
        pattern: GroundPattern,
        options: Optional[MatchOptions] = None,
    ) -> str:
        """A readable access plan: stages, space sizes, order, cost.

        Runs retrieval/pruning/ordering (not the final search) and
        renders what the pipeline would do — the graph-database analogue
        of ``EXPLAIN``.
        """
        opts = options or MatchOptions()
        space = retrieve_feasible_mates(
            pattern, self.graph,
            attribute_index=self.attribute_index if opts.use_attribute_index
            else None,
            profile_index=self.profile_index,
            local=opts.local, radius=opts.radius,
            label_attr=opts.label_attr,
        )
        lines = [f"match {pattern!r} on {self.graph!r}"]
        lines.append(
            f"  1. retrieve + local pruning [{opts.local}]: "
            + ", ".join(f"{u}:{len(c)}" for u, c in space.items())
        )
        if opts.refine:
            refined = refine_search_space(
                pattern.motif, self.graph, space, level=opts.refine_level
            )
            lines.append(
                "  2. refine (Algorithm 4.2): "
                + ", ".join(f"{u}:{len(c)}" for u, c in refined.items())
            )
            space = refined
        else:
            lines.append("  2. refine: skipped")
        sizes = {u: len(c) for u, c in space.items()}
        model = CostModel(
            pattern.motif,
            stats=self.stats if opts.gamma_mode == "frequency" else None,
            gamma_const=opts.gamma_const,
            label_attr=opts.label_attr,
            directed=self.graph.directed,
        )
        if opts.optimize_order:
            order = greedy_order(pattern.motif, sizes, model)
            policy = "greedy cost-based"
        else:
            order = connected_order(pattern.motif, sizes)
            policy = "connected"
        from .search_order import order_cost

        cost, size = order_cost(order, sizes, model)
        lines.append(f"  3. search order [{policy}]: {' > '.join(order)}")
        lines.append(
            f"     estimated cost {cost:.3g}, estimated results {size:.3g}"
        )
        lines.append(
            f"  4. search (Algorithm 4.1), space size "
            f"{space_size(space)}"
        )
        return "\n".join(lines)

    def match_pattern(
        self,
        pattern: GraphPattern,
        options: Optional[MatchOptions] = None,
        grammar=None,
        max_depth: int = 8,
        context: Optional[ExecutionContext] = None,
    ) -> MatchReport:
        """Match a (possibly recursive) pattern: union over derivations.

        The answer cap (``options.limit``) applies to the union: each
        derivation's search only runs for the answers still missing, and
        matching stops entirely once the cap is met — no derivation ever
        over-produces results that would then be thrown away.
        """
        opts = options or MatchOptions()
        merged: Optional[MatchReport] = None
        for ground in pattern.ground(grammar, max_depth):
            remaining_opts = opts
            if opts.limit is not None and merged is not None:
                remaining = opts.limit - len(merged.mappings)
                if remaining <= 0:
                    break
                remaining_opts = replace(opts, limit=remaining)
            report = self.match(ground, remaining_opts, context=context)
            if merged is None:
                merged = report
            else:
                merged.mappings.extend(report.mappings)
                for key, value in report.times.items():
                    merged.times[key] = merged.times.get(key, 0.0) + value
                merged.baseline_space += report.baseline_space
                merged.retrieved_space += report.retrieved_space
                merged.refined_space += report.refined_space
                merged.degradation.extend(report.degradation)
                merged.outcome = report.outcome
            if context is not None and context.is_interrupted:
                break
        return merged if merged is not None else MatchReport()


def baseline_options(**overrides) -> MatchOptions:
    """The paper's "Baseline": attribute retrieval only, naive order."""
    defaults = dict(local="none", refine=False, optimize_order=False)
    defaults.update(overrides)
    return MatchOptions(**defaults)


def optimized_options(**overrides) -> MatchOptions:
    """The paper's "Optimized": profiles + refinement + greedy order."""
    defaults = dict(local="profile", refine=True, optimize_order=True)
    defaults.update(overrides)
    return MatchOptions(**defaults)
