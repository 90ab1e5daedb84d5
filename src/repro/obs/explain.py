"""EXPLAIN / EXPLAIN ANALYZE for the access-method pipeline.

Renders the plan :meth:`GraphMatcher.plan` made for a pattern — per-node
retrieval method (attribute index / label hashtable / scan), estimated
vs. actual feasible-mate, pruned and refined candidate counts, the
chosen search order and its cost-model estimates, and any degradation
the planner took.  With ``analyze=True`` the report rendered is that of
one real ``matcher.match`` run instead, and per-phase timings, search
counters and the structured outcome are attached.  Either way the plan
shown is the plan that runs: nothing here retrieves, refines or orders
on its own.  Only the estimates (statistics and cost model) are
computed here, since matching never needs them.

This module sits *above* the matcher (it imports ``repro.matching``), so
it is deliberately **not** re-exported from ``repro.obs.__init__`` —
importing the tracing/metrics core must never drag the matcher in.
Consumers (CLI, service) import it directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.pattern import GroundPattern
from ..matching.feasible_mates import RetrievalStats
from ..matching.planner import GraphMatcher, MatchOptions, MatchReport
from ..matching.search_order import order_cost
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

    Without *analyze* only the plan is made (no search runs); with it,
    the query runs once under *context* and the ``actual`` block holds
    that run's :meth:`MatchReport.stats_dict`, mapping count and
    outcome.
    """
    opts = options or MatchOptions(compute_baseline=False)
    if analyze:
        report = matcher.match(ground, opts, context=context)
    else:
        report = MatchReport()
        matcher.plan(ground, opts, report)
    plan = report.plan
    sizes = plan.sizes if plan is not None else {}
    cost = estimated_results = None
    if plan is not None and plan.model is not None:
        cost, estimated_results = order_cost(report.order, sizes, plan.model)
    retrieval = report.retrieval or RetrievalStats()
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
            "refined": sizes.get(name, 0),
        })
    entry: Dict[str, Any] = {
        "graph": matcher.graph.name or "<anon>",
        "pattern_nodes": len(nodes),
        "local": opts.local,
        "refine": report.refinement is not None,
        "order": list(report.order),
        "order_policy": plan.policy if plan is not None else None,
        "estimated_cost": cost,
        "estimated_results": estimated_results,
        "spaces": {
            "retrieved": report.retrieved_space,
            "refined": report.refined_space,
        },
        "nodes": nodes,
        "degradation": list(report.degradation),
    }
    if analyze:
        entry["actual"] = dict(report.stats_dict(),
                               mappings=len(report.mappings),
                               outcome=report.outcome.to_dict())
    return entry


def explain_document(
    database,
    document: str,
    pattern,
    options: Optional[MatchOptions] = None,
    analyze: bool = False,
    context: Optional[ExecutionContext] = None,
) -> Dict[str, Any]:
    """EXPLAIN a (possibly non-ground) pattern over a registered
    document; returns one JSON-ready dict.

    Lists the graphs ``database.match`` would run the pipeline on — the
    ones the collection filter admits, out of ``collection`` — with one
    entry per graph and derivation.
    """
    opts = options or MatchOptions(compute_baseline=False)
    grounds: List[GroundPattern] = (
        [pattern] if isinstance(pattern, GroundPattern)
        else list(pattern.ground()))
    collection = database.doc(document)
    admitted = database._admitted(document, pattern, opts.label_attr)
    graphs: List[Dict[str, Any]] = []
    for position, graph in enumerate(collection):
        if context is not None and context.is_interrupted:
            break
        if admitted is not None and position not in admitted:
            continue
        matcher = database.matcher_for(graph)
        for ground in grounds:
            graphs.append(explain_ground(matcher, ground, opts,
                                         analyze=analyze, context=context))
    return {
        "document": document,
        "analyze": bool(analyze),
        "derivations": len(grounds),
        "collection": len(collection),
        "candidates": (len(collection) if admitted is None
                       else len(admitted)),
        "graphs": graphs,
    }


def _estimate(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.3g}"


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
    if "collection" in document:  # absent when the text is invalid
        lines.append(f"document {document['document']}: "
                     f"{document['candidates']} of "
                     f"{document['collection']} graph(s) admitted")
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
            f"  estimated cost {_estimate(entry['estimated_cost'])}, "
            f"estimated results {_estimate(entry['estimated_results'])}, "
            f"search space {entry['spaces']['refined']}")
        for note in entry.get("degradation", ()):
            lines.append(f"  degraded: {note}")
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
    return "\n".join(lines)
