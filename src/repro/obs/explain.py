"""EXPLAIN / EXPLAIN ANALYZE for the access-method pipeline.

Renders what the planner will do with a pattern — per-node retrieval
method (attribute index / label hashtable / scan), estimated vs. actual
feasible-mate, pruned and refined candidate counts, the chosen search
order and its cost-model estimates — and, with ``analyze=True``, runs
the query for real and attaches per-phase timings, search counters and
the structured outcome.

This module sits *above* the matcher (it imports ``repro.matching``), so
it is deliberately **not** re-exported from ``repro.obs.__init__`` —
importing the tracing/metrics core must never drag the matcher in.
Consumers (CLI, service) import it directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.pattern import GraphPattern, GroundPattern
from ..matching.feasible_mates import RetrievalStats, retrieve_feasible_mates
from ..matching.planner import GraphMatcher, MatchOptions
from ..matching.refinement import refine_search_space, space_size
from ..matching.search_order import (
    CostModel,
    connected_order,
    greedy_order,
    order_cost,
)
from ..runtime import ExecutionContext

__all__ = ["explain_ground", "explain_document", "render_text"]


def _estimated_mates(matcher: GraphMatcher, ground: GroundPattern,
                     name: str, label_attr: str) -> int:
    """The statistics-based candidate estimate for one pattern node.

    Labelled nodes estimate by label frequency (what the cost model
    uses); unlabelled nodes fall back to the whole node count.
    """
    label = ground.motif.node(name).attrs.get(label_attr)
    if label is not None and matcher.stats is not None:
        return matcher.stats.node_frequency(label)
    return matcher.graph.num_nodes()


def explain_ground(
    matcher: GraphMatcher,
    ground: GroundPattern,
    options: Optional[MatchOptions] = None,
    analyze: bool = False,
    context: Optional[ExecutionContext] = None,
) -> Dict[str, Any]:
    """The access plan of one ground pattern on one graph, as a dict.

    Always runs retrieval + pruning + refinement + ordering (cheap, no
    search) to report *actual* candidate counts next to the statistics
    *estimates*; with ``analyze=True`` additionally runs the full
    pipeline (search included) under *context* and attaches timings,
    search counters, degradation notes and the outcome.
    """
    opts = options or MatchOptions(compute_baseline=False)
    matcher.refresh()
    graph = matcher.graph
    retrieval = RetrievalStats()
    local = opts.local if opts.local != "none" else "none"
    space = retrieve_feasible_mates(
        ground, graph,
        attribute_index=(matcher.attribute_index
                         if opts.use_attribute_index else None),
        profile_index=matcher.profile_index,
        local=local, radius=opts.radius,
        label_attr=opts.label_attr, stats=retrieval,
    )
    retrieved_space = space_size(space)
    refine_error: Optional[str] = None
    refined = space
    if opts.refine:
        try:
            refined = refine_search_space(
                ground.motif, graph, space, level=opts.refine_level)
        except Exception as exc:
            refine_error = str(exc)
            refined = space

    sizes = {name: len(candidates) for name, candidates in refined.items()}
    model = CostModel(
        ground.motif,
        stats=matcher.stats if opts.gamma_mode == "frequency" else None,
        gamma_const=opts.gamma_const,
        label_attr=opts.label_attr,
        directed=graph.directed,
    )
    if opts.optimize_order:
        order, policy = greedy_order(ground.motif, sizes, model), "greedy"
    else:
        order, policy = connected_order(ground.motif, sizes), "connected"
    cost, estimated_results = order_cost(order, sizes, model)

    nodes: List[Dict[str, Any]] = []
    for name in ground.node_names():
        nodes.append({
            "node": name,
            "label": ground.motif.node(name).attrs.get(opts.label_attr),
            "retrieval": retrieval.method.get(name, "scan"),
            "estimated_mates": _estimated_mates(matcher, ground, name,
                                                opts.label_attr),
            "scanned": retrieval.scanned.get(name, 0),
            "feasible_mates": retrieval.after_fu.get(name, 0),
            "after_pruning": retrieval.after_local.get(name, 0),
            "refined": len(refined.get(name, ())),
        })

    report: Dict[str, Any] = {
        "graph": graph.name or "<anon>",
        "pattern_nodes": len(nodes),
        "local": opts.local,
        "refine": bool(opts.refine) and refine_error is None,
        "order": list(order),
        "order_policy": policy,
        "estimated_cost": cost,
        "estimated_results": estimated_results,
        "spaces": {
            "retrieved": retrieved_space,
            "refined": space_size(refined),
        },
        "nodes": nodes,
    }
    if refine_error is not None:
        report["refine_error"] = refine_error
    if analyze:
        run = matcher.match(ground, opts, context=context)
        search = run.search
        report["actual"] = {
            "mappings": len(run.mappings),
            "outcome": run.outcome.to_dict(),
            "times": dict(run.times),
            "total_time": run.total_time,
            "order": list(run.order),
            "spaces": {
                "retrieved": run.retrieved_space,
                "refined": run.refined_space,
            },
            "search": ({
                "candidates_tried": search.candidates_tried,
                "check_calls": search.check_calls,
                "partial_states": search.partial_states,
                "results": search.results,
            } if search is not None else None),
            "degradation": list(run.degradation),
        }
    return report


def explain_document(
    database,
    document: str,
    pattern,
    options: Optional[MatchOptions] = None,
    analyze: bool = False,
    context: Optional[ExecutionContext] = None,
    grammar=None,
    max_depth: int = 8,
) -> Dict[str, Any]:
    """EXPLAIN a (possibly non-ground) pattern over every graph of a
    registered document; returns one JSON-ready dict."""
    grounds: List[GroundPattern]
    if isinstance(pattern, GraphPattern):
        grounds = list(pattern.ground(grammar, max_depth))
    else:
        grounds = [pattern]
    graphs: List[Dict[str, Any]] = []
    for graph in database.doc(document):
        matcher = database.matcher_for(graph)
        for ground in grounds:
            graphs.append(explain_ground(matcher, ground, options,
                                         analyze=analyze, context=context))
    return {
        "document": document,
        "analyze": bool(analyze),
        "derivations": len(grounds),
        "graphs": graphs,
    }


def render_text(document: Dict[str, Any]) -> str:
    """A readable rendering of :func:`explain_document` output."""
    lines: List[str] = []
    for diagnostic in document.get("diagnostics", []):
        where = ""
        if diagnostic.get("line"):
            where = f" (line {diagnostic['line']}, " \
                    f"column {diagnostic.get('column', 0)})"
        lines.append(
            f"diagnostic: {diagnostic.get('severity', '?')} "
            f"{diagnostic.get('code', '?')} "
            f"{diagnostic.get('message', '')}{where}")
    for entry in document.get("graphs", []):
        lines.append(f"graph {entry['graph']}: "
                     f"{entry['pattern_nodes']} pattern node(s), "
                     f"local={entry['local']}, "
                     f"refine={'on' if entry['refine'] else 'off'}")
        lines.append("  node          retrieval        est.  feasible  "
                     "pruned  refined")
        for node in entry["nodes"]:
            label = f" <{node['label']}>" if node["label"] else ""
            lines.append(
                f"  {node['node'] + label:<13} {node['retrieval']:<15} "
                f"{node['estimated_mates']:>5} {node['feasible_mates']:>9} "
                f"{node['after_pruning']:>7} {node['refined']:>8}")
        lines.append(
            f"  search order [{entry['order_policy']}]: "
            + " > ".join(entry["order"]))
        lines.append(
            f"  estimated cost {entry['estimated_cost']:.3g}, "
            f"estimated results {entry['estimated_results']:.3g}, "
            f"search space {entry['spaces']['refined']}")
        if entry.get("refine_error"):
            lines.append(f"  refinement failed: {entry['refine_error']}")
        actual = entry.get("actual")
        if actual:
            lines.append(
                f"  actual: {actual['mappings']} mapping(s) in "
                f"{actual['total_time'] * 1000:.1f} ms "
                f"[{actual['outcome'].get('status', '?')}]")
            times = actual.get("times", {})
            if times:
                lines.append("  phase timings: " + ", ".join(
                    f"{phase}={seconds * 1000:.1f}ms"
                    for phase, seconds in times.items()))
            search = actual.get("search")
            if search:
                lines.append(
                    f"  search counters: "
                    f"tried={search['candidates_tried']} "
                    f"checks={search['check_calls']} "
                    f"states={search['partial_states']} "
                    f"results={search['results']}")
            for note in actual.get("degradation", ()):
                lines.append(f"  degraded: {note}")
    return "\n".join(lines)
