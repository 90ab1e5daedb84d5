"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figs. 4.20–4.23, Table 4.1) plus our ablations.  Data graphs and their
indexes are built once per process and cached here.

Scale: by default the workloads run at the paper's PPI scale (3112 nodes)
and a reduced synthetic scale so a full run finishes in minutes on a
laptop in pure Python.  Set ``REPRO_FULL_SCALE=1`` for the paper's full
synthetic sizes (10K–320K nodes).
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import Graph, GroundPattern
from repro.datasets import erdos_renyi_graph, ppi_network, top_labels
from repro.datasets.queries import (
    clique_query,
    extract_connected_query,
    seeded_clique_query,
)
from repro.matching import GraphMatcher, MatchOptions, baseline_options
from repro.matching.planner import STAGES
from repro.obs.trace import SpanCollector, tracer
from repro.runtime import ExecutionContext, Outcome
from repro.sqlbaseline import SQLGraphMatcher, WorkBudgetExceeded

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE") == "1"

#: The paper terminates queries with more than 1000 answers.
HIT_LIMIT = 1000
#: Queries with >= this many answers fall in the "high hits" group.
HIGH_HITS = 100
#: Row budget for the SQL arm (the stand-in for "terminated immediately").
SQL_ROW_BUDGET = 3_000_000 if FULL_SCALE else 600_000

_cache: Dict[str, object] = {}


def get_ppi() -> Graph:
    """The yeast-scale PPI network (cached)."""
    if "ppi" not in _cache:
        _cache["ppi"] = ppi_network()
    return _cache["ppi"]  # type: ignore[return-value]


def get_ppi_matcher() -> GraphMatcher:
    """GraphMatcher over the PPI network (cached; builds indexes once)."""
    if "ppi_matcher" not in _cache:
        _cache["ppi_matcher"] = GraphMatcher(get_ppi())
    return _cache["ppi_matcher"]  # type: ignore[return-value]


def get_ppi_sql(join_order: str = "greedy") -> SQLGraphMatcher:
    """SQL baseline over the PPI network (cached)."""
    key = f"ppi_sql_{join_order}"
    if key not in _cache:
        _cache[key] = SQLGraphMatcher(get_ppi(), join_order=join_order)
    return _cache[key]  # type: ignore[return-value]


def get_synthetic(n: int, seed: int = 0) -> Graph:
    """An Erdős–Rényi graph with m = 5n and 100 Zipf labels (cached)."""
    key = f"er_{n}_{seed}"
    if key not in _cache:
        _cache[key] = erdos_renyi_graph(n, 5 * n, num_labels=100, seed=seed)
    return _cache[key]  # type: ignore[return-value]


def get_synthetic_matcher(n: int, seed: int = 0) -> GraphMatcher:
    """GraphMatcher over a synthetic graph (cached)."""
    key = f"er_matcher_{n}_{seed}"
    if key not in _cache:
        _cache[key] = GraphMatcher(get_synthetic(n, seed))
    return _cache[key]  # type: ignore[return-value]


def synthetic_sizes() -> List[int]:
    """The Fig. 4.23(b) graph-size sweep (scaled by default)."""
    if FULL_SCALE:
        return [10_000, 20_000, 40_000, 80_000, 160_000, 320_000]
    return [2_000, 4_000, 8_000, 16_000]


def synthetic_base_size() -> int:
    """The fixed graph size of Figs. 4.22 / 4.23(a)."""
    return 10_000 if FULL_SCALE else 4_000


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def ppi_clique_workload(
    sizes: Sequence[int],
    per_size: int,
    seed: int = 0,
) -> Dict[int, List[GroundPattern]]:
    """Clique queries over the PPI network, per the paper's recipe.

    Half the batch is random-labeled from the top-40 most frequent labels
    (paper's generator; zero-answer queries are later discarded), half is
    seeded from actual cliques (guaranteeing non-empty groups at every
    size the network supports).
    """
    graph = get_ppi()
    pool = top_labels(graph, 40)
    # weight the pool by label frequency: queries about common GO terms
    # dominate real workloads and populate the paper's high-hits group
    from collections import Counter

    counts = Counter(node.label for node in graph.nodes())
    weighted_pool: List = []
    for label in pool:
        weighted_pool.extend([label] * max(1, counts[label] // 10))
    rng = random.Random(seed)
    out: Dict[int, List[GroundPattern]] = {}
    for size in sizes:
        queries: List[GroundPattern] = []
        for _ in range(max(1, per_size // 2)):
            queries.append(clique_query(size, weighted_pool, rng))
        for _ in range(max(1, per_size - per_size // 2)):
            seeded = seeded_clique_query(graph, size, rng)
            if seeded is not None:
                queries.append(seeded)
        out[size] = queries
    return out


def synthetic_query_workload(
    graph: Graph,
    sizes: Sequence[int],
    per_size: int,
    seed: int = 0,
) -> Dict[int, List[GroundPattern]]:
    """Random connected subgraph queries (Section 5.2 recipe)."""
    rng = random.Random(seed)
    out: Dict[int, List[GroundPattern]] = {}
    for size in sizes:
        queries = []
        for _ in range(per_size):
            try:
                queries.append(extract_connected_query(graph, size, rng))
            except ValueError:
                continue
        out[size] = queries
    return out


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


class QueryResult:
    """One query's measurements across configurations."""

    __slots__ = ("hits", "ratios", "times", "outcomes", "cache", "phases",
                 "sql_time", "sql_aborted")

    def __init__(self) -> None:
        self.hits = 0
        self.ratios: Dict[str, float] = {}
        self.times: Dict[str, float] = {}
        self.outcomes: Dict[str, Outcome] = {}
        #: serving-path cache verdicts ("hit"/"miss"/"bypass") per run
        self.cache: Dict[str, str] = {}
        #: per-configuration span totals (span name -> summed seconds),
        #: pulled from the tracer during :func:`measure_query`
        self.phases: Dict[str, Dict[str, float]] = {}
        self.sql_time: Optional[float] = None
        self.sql_aborted = False

    @property
    def timed_out(self) -> bool:
        """Whether any configuration hit its per-run deadline."""
        return any(o is Outcome.TIMED_OUT for o in self.outcomes.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form for BENCH result files.

        Outcome statuses are recorded by name so serving-path effects
        (timeouts, truncation, cache hits) are trackable over time.
        """
        return {
            "hits": self.hits,
            "ratios": dict(self.ratios),
            "times": dict(self.times),
            "outcomes": {name: status.value
                         for name, status in self.outcomes.items()},
            "cache": dict(self.cache),
            "phases": {name: dict(totals)
                       for name, totals in self.phases.items()},
            "sql_time": self.sql_time,
            "sql_aborted": self.sql_aborted,
        }


def measure_query(
    matcher: GraphMatcher,
    query: GroundPattern,
    sql_matcher: Optional[SQLGraphMatcher] = None,
    radius: int = 1,
    timeout: Optional[float] = None,
    service=None,
    query_text: Optional[str] = None,
) -> QueryResult:
    """Run one query through every configuration the figures need.

    *timeout* optionally bounds each configuration's run with its own
    fresh :class:`ExecutionContext` (a per-run wall-clock deadline, so a
    pathological query cannot stall the whole benchmark sweep); the
    per-configuration outcomes land in ``result.outcomes``.

    *service* (a :class:`repro.service.QueryService`) additionally sends
    the query through the serving path twice — cold then warm — so BENCH
    JSONs track cache hit/miss verdicts and serving outcomes over time.
    Pass *query_text* for the cacheable text form of *query*; without it
    the compiled pattern is sent and the caches report ``"bypass"``.
    """
    result = QueryResult()

    if service is not None:
        serving_query = query_text if query_text is not None else query
        for run_name in ("service_cold", "service_warm"):
            response = service.execute(serving_query, limit=HIT_LIMIT,
                                       timeout=timeout)
            result.outcomes[run_name] = response.outcome.status
            result.cache[run_name] = response.cache
            result.times[run_name] = response.elapsed

    def run(name: str, options: MatchOptions):
        context = (ExecutionContext(timeout=timeout)
                   if timeout is not None else None)
        collector = SpanCollector()
        with tracer().session(collector):
            report = matcher.match(query, options, context=context)
        result.outcomes[name] = report.outcome.status
        # per-phase timings come from the spans the matcher emitted; the
        # report's own stopwatch, under the same span names, is the
        # fallback if none were collected
        totals = collector.totals()
        spans = dict(STAGES)
        result.phases[name] = totals if totals else {
            spans[key]: seconds for key, seconds in report.times.items()
        }
        return report

    profile_report = run(
        "profiles", MatchOptions(local="profile", refine=False,
                                 optimize_order=True, limit=HIT_LIMIT,
                                 radius=radius),
    )
    result.hits = len(profile_report.mappings)
    result.ratios["profiles"] = profile_report.reduction_ratio("retrieved")
    result.times["retrieve_profiles"] = profile_report.times.get("local_pruning", 0.0)

    subgraph_report = run(
        "subgraphs", MatchOptions(local="subgraph", refine=False,
                                  optimize_order=True, limit=HIT_LIMIT,
                                  radius=radius),
    )
    result.ratios["subgraphs"] = subgraph_report.reduction_ratio("retrieved")
    result.times["retrieve_subgraphs"] = subgraph_report.times.get("local_pruning", 0.0)

    refined_report = run(
        "refined", MatchOptions(local="profile", refine=True,
                                optimize_order=True, limit=HIT_LIMIT,
                                radius=radius),
    )
    result.ratios["refined"] = refined_report.reduction_ratio("refined")
    result.times["refine"] = refined_report.times.get("refine", 0.0)
    result.times["optimized_total"] = refined_report.total_time
    # search over the refined space with the optimized order — compare
    # against search_no_opt below, which uses the same space
    result.times["search_opt"] = refined_report.times.get("search", 0.0)

    unordered_report = run(
        "no_opt", MatchOptions(local="profile", refine=True,
                               optimize_order=False, limit=HIT_LIMIT,
                               radius=radius),
    )
    result.times["search_no_opt"] = unordered_report.times.get("search", 0.0)

    baseline_report = run("baseline", baseline_options(limit=HIT_LIMIT))
    result.times["baseline_total"] = baseline_report.total_time

    if sql_matcher is not None:
        started = time.perf_counter()
        try:
            sql_matcher.match(query, limit=HIT_LIMIT,
                              max_rows_examined=SQL_ROW_BUDGET)
            result.sql_time = time.perf_counter() - started
        except WorkBudgetExceeded:
            result.sql_time = time.perf_counter() - started
            result.sql_aborted = True
    return result


def split_by_hits(results: List[QueryResult]) -> Tuple[List[QueryResult], List[QueryResult]]:
    """The paper's low-hits (<100, >0) and high-hits (>=100) groups."""
    answered = [r for r in results if r.hits > 0]
    low = [r for r in answered if r.hits < HIGH_HITS]
    high = [r for r in answered if r.hits >= HIGH_HITS]
    return low, high


def geometric_mean(values: Iterable[float], floor: float = 1e-30) -> float:
    """Geometric mean with a floor (ratios can hit exactly zero)."""
    values = [max(v, floor) for v in values]
    if not values:
        return float("nan")
    return statistics.geometric_mean(values)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean, NaN on empty."""
    values = list(values)
    if not values:
        return float("nan")
    return sum(values) / len(values)


# --------------------------------------------------------------------------
# Table printing
# --------------------------------------------------------------------------


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print one paper-style results table."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def fmt_ratio(value: float) -> str:
    """Scientific-notation reduction ratio (the figures' log axes)."""
    if value != value:  # NaN
        return "-"
    return f"{value:.2e}"


def fmt_ms(value: Optional[float]) -> str:
    """Milliseconds with one decimal."""
    if value is None or value != value:
        return "-"
    return f"{value * 1000:.1f}"
