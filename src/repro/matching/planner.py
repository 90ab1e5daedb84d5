"""The selection-operator access-method pipeline (Sections 4.1–4.4).

:class:`GraphMatcher` composes the four stages the paper evaluates:

1. retrieval of feasible mates (scan / label hashtable / attribute B-tree);
2. local pruning by profiles or neighborhood subgraphs (Section 4.2);
3. joint reduction of the search space by pseudo-subgraph-isomorphism
   refinement (Section 4.3);
4. search-order optimization and the backtracking search (Sections 4.4,
   4.1).

:meth:`GraphMatcher.plan` runs stages 1–3 and the ordering, the only
code that does; :meth:`GraphMatcher.match` is that plan followed by the
search, and EXPLAIN (:mod:`repro.obs.explain`) renders the same plan.
Every stage records its timing and the search-space size it produced in a
:class:`MatchReport`, which is exactly what the paper's figures plot
(reduction ratios, per-step times, total times).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..core.bindings import Mapping
from ..core.graph import Graph
from ..core.pattern import GraphPattern, GroundPattern
from ..index.attribute_index import AttributeIndexSet
from ..index.profile_index import ProfileIndex
from ..obs.trace import Span, span as trace_span
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

#: The pipeline's timed stages in run order: ``MatchReport.times`` key and
#: the trace span that covers it.  The retrieval is timed as
#: ``retrieve_baseline`` when no local pruning is configured.
STAGES = (
    ("retrieve_baseline", "match.retrieve_baseline"),
    ("local_pruning", "match.prune"),
    ("refine", "match.refine"),
    ("order", "match.order"),
    ("search", "match.search"),
)
_STAGE_SPANS = dict(STAGES)


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
    # report the unpruned space for reduction ratios (read off the
    # retrieval's F_u counts; no extra work)
    compute_baseline: bool = True


@dataclass
class AccessPlan:
    """What :meth:`GraphMatcher.plan` chose beyond the report's counts.

    ``sizes`` are the per-node candidate counts the order was chosen on
    (after refinement), ``policy`` names how the order was chosen
    (``greedy`` / ``connected`` / ``declaration``) and ``model`` is the
    cost model it is judged by (None only if building it failed).
    """

    sizes: Dict[str, int]
    policy: str
    model: Optional[CostModel]


class _Stage:
    """Times one pipeline stage: opens its trace span and records
    ``report.times[key]`` on exit, also when the stage raises."""

    __slots__ = ("times", "key", "span", "started")

    def __init__(self, report: "MatchReport", key: str, **tags) -> None:
        self.times = report.times
        self.key = key
        self.span = trace_span(_STAGE_SPANS[key], **tags)

    def __enter__(self) -> Span:
        self.started = time.perf_counter()
        return self.span.__enter__()

    def __exit__(self, *exc_info) -> bool:
        self.times[self.key] = time.perf_counter() - self.started
        return self.span.__exit__(*exc_info)


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
    plan: Optional[AccessPlan] = None

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

    def absorb(self, other: "MatchReport") -> None:
        """Fold another derivation's run into this one: mappings are
        appended; times, spaces and counters are summed."""
        self.mappings.extend(other.mappings)
        for key, value in other.times.items():
            self.times[key] = self.times.get(key, 0.0) + value
        self.baseline_space += other.baseline_space
        self.retrieved_space += other.retrieved_space
        self.refined_space += other.refined_space
        self.retrieval = _summed(self.retrieval, other.retrieval)
        self.refinement = _summed(self.refinement, other.refinement)
        self.search = _summed(self.search, other.search)
        self.degradation.extend(other.degradation)
        self.outcome = other.outcome

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


def _summed(mine, other):
    """*mine* with *other*'s counters added (either may be None)."""
    if mine is None or other is None:
        return mine if other is None else other
    mine.add(other)
    return mine


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
        """Run the full access-method pipeline on one ground pattern:
        :meth:`plan`, then the backtracking search.

        With a *context*, every stage is governed: deadline expiry, step
        budget exhaustion or cancellation stop the run, the interruption
        is recorded on the context, and the report carries a structured
        :class:`~repro.runtime.QueryOutcome` plus whatever mappings the
        search had produced.
        """
        opts = options or MatchOptions()
        report = MatchReport()
        with trace_span("match.query", graph=self.graph.name or "<anon>") as sp:
            try:
                space = self.plan(pattern, opts, report, context)
                self._search(pattern, opts, report, space, context)
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

    def plan(
        self,
        pattern: GroundPattern,
        opts: MatchOptions,
        report: MatchReport,
        context: Optional[ExecutionContext] = None,
    ) -> Dict[str, List[str]]:
        """Every stage but the search: the one access plan of a pattern.

        Refreshes stale indexes, retrieves the feasible mates with local
        pruning, refines the space and picks the search order, recording
        each stage's time, counts and the plan itself on *report*;
        returns the refined search space.  :meth:`match` searches it and
        EXPLAIN renders the report, so what is explained is what runs.

        Failures of auxiliary structures (indexes, statistics,
        refinement) never abort the query: retrieval walks a degradation
        ladder — indexed, then unindexed with local pruning computed on
        the fly, then the basic matcher's scan — and every fallback is
        noted in ``report.degradation``.  Interruptions from the
        governance *context* propagate, leaving on *report* whatever the
        finished stages recorded.
        """
        try:
            self.refresh()
        except Exception as exc:
            self._degrade(report, f"index refresh failed ({exc}); "
                                  "matching with stale structures")
        report.degradation.extend(self.build_errors)
        if context is not None:
            context.check()

        # Steps 1+2: F_u retrieval (Definition 4.8) and local pruning
        key = "retrieve_baseline" if opts.local == "none" else "local_pruning"
        with _Stage(report, key, local=opts.local) as sp:
            retrieval: Optional[RetrievalStats] = None
            for indexed in (True, False):
                stats = RetrievalStats()
                try:
                    space = retrieve_feasible_mates(
                        pattern,
                        self.graph,
                        attribute_index=(
                            self.attribute_index
                            if indexed and opts.use_attribute_index else None
                        ),
                        profile_index=self.profile_index if indexed else None,
                        local=opts.local,
                        radius=opts.radius,
                        label_attr=opts.label_attr,
                        stats=stats,
                    )
                    retrieval = stats
                    break
                except ExecutionInterrupted:
                    raise
                except Exception as exc:
                    self._degrade(report, (
                        f"indexed retrieval (local={opts.local!r}) failed "
                        f"({exc}); retrying without indexes" if indexed else
                        f"unindexed retrieval failed ({exc}); "
                        "falling back to the basic scan matcher"))
            else:
                space = scan_feasible_mates(pattern, self.graph)
            sp.incr("space", space_size(space))
        if opts.local == "none":
            report.times["local_pruning"] = 0.0
        report.retrieval = retrieval
        report.retrieved_space = space_size(space)
        if opts.compute_baseline or opts.local == "none":
            # retrieval counted F_u exactly before pruning; the scan
            # rung prunes nothing, so its space is the baseline
            report.baseline_space = (
                math.prod(retrieval.after_fu.values())
                if retrieval is not None else report.retrieved_space)

        # Step 3: joint reduction (Algorithm 4.2)
        if opts.refine:
            refinement = RefinementStats()
            with _Stage(report, "refine") as sp:
                try:
                    space = refine_search_space(
                        pattern.motif,
                        self.graph,
                        space,
                        level=opts.refine_level,
                        stats=refinement,
                        context=context,
                    )
                    report.refinement = refinement
                except ExecutionInterrupted:
                    raise
                except Exception as exc:
                    self._degrade(report, f"refinement failed ({exc}); "
                                          "searching the unrefined space")
                sp.incr("pairs_removed", refinement.pairs_removed)
        report.refined_space = space_size(space)

        # Step 4: search order (Section 4.4)
        with _Stage(report, "order") as sp:
            sizes = {name: len(candidates)
                     for name, candidates in space.items()}
            model: Optional[CostModel] = None
            try:
                model = CostModel(
                    pattern.motif,
                    stats=(self.stats if opts.gamma_mode == "frequency"
                           else None),
                    gamma_const=opts.gamma_const,
                    label_attr=opts.label_attr,
                    directed=self.graph.directed,
                )
                if opts.optimize_order:
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
        report.order = order
        report.plan = AccessPlan(sizes, policy, model)
        return space

    def _search(
        self,
        pattern: GroundPattern,
        opts: MatchOptions,
        report: MatchReport,
        space: Dict[str, List[str]],
        context: Optional[ExecutionContext],
    ) -> None:
        # Step 5: the backtracking search (Algorithm 4.1)
        counters = SearchCounters()
        with _Stage(report, "search") as sp:
            try:
                report.mappings = find_matches(
                    pattern,
                    self.graph,
                    candidates=space,
                    order=report.order,
                    exhaustive=opts.exhaustive,
                    limit=opts.limit,
                    counters=counters,
                    context=context,
                )
            finally:
                report.search = counters
                sp.incr("results", counters.results)
                sp.incr("candidates_tried", counters.candidates_tried)

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
        over-produces results that would then be thrown away.  The
        merged report sums every derivation's times, spaces and
        counters.
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
                merged.absorb(report)
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
