"""Algorithm 4.1: basic graph pattern matching.

A depth-first search over the product of feasible mates
``Phi(u1) x .. x Phi(uk)``.  ``Search(i)`` iterates candidates for the
i-th pattern node; ``Check(u_i, v)`` verifies edges back to already-mapped
pattern nodes (using the graph's O(1) end-point-pair edge hashtable) and
evaluates edge predicates.  When all nodes are mapped the residual
graph-wide predicate is evaluated and the mapping reported.  The
``exhaustive`` option selects one-vs-all mappings (Section 3.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.bindings import Mapping
from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..runtime import ExecutionContext, ExecutionInterrupted, mapping_cost


class SearchCounters:
    """Instrumentation for the backtracking search (used by benchmarks)."""

    __slots__ = ("candidates_tried", "check_calls", "partial_states", "results")

    def __init__(self) -> None:
        self.candidates_tried = 0
        self.check_calls = 0
        self.partial_states = 0
        self.results = 0

    def __repr__(self) -> str:
        return (
            f"SearchCounters(tried={self.candidates_tried}, "
            f"checks={self.check_calls}, states={self.partial_states}, "
            f"results={self.results})"
        )

    def add(self, other: "SearchCounters") -> None:
        """Add *other*'s counts to these (one total over several runs)."""
        for slot in self.__slots__:
            setattr(self, slot, getattr(self, slot) + getattr(other, slot))


def scan_feasible_mates(pattern: GroundPattern, graph: Graph) -> Dict[str, List[str]]:
    """Feasible mates by full scan: Phi(u) = {v | F_u(v)} (Definition 4.8)."""
    space: Dict[str, List[str]] = {}
    for name in pattern.node_names():
        space[name] = [
            node.id for node in graph.nodes() if pattern.node_matches(name, node)
        ]
    return space


def find_matches(
    pattern: GroundPattern,
    graph: Graph,
    candidates: Optional[Dict[str, Sequence[str]]] = None,
    order: Optional[Sequence[str]] = None,
    exhaustive: bool = True,
    limit: Optional[int] = None,
    initial: Optional[Dict[str, str]] = None,
    counters: Optional[SearchCounters] = None,
    context: Optional[ExecutionContext] = None,
) -> List[Mapping]:
    """Run Algorithm 4.1 and return the feasible mappings.

    Parameters
    ----------
    candidates:
        The search space ``Phi`` (pattern node name -> candidate node ids).
        Computed by full scan when omitted.
    order:
        Search order over pattern node names (Section 4.4).  Defaults to
        declaration order.
    exhaustive:
        Return all mappings; when false, stop at the first.
    limit:
        Hard cap on the number of reported mappings (the paper terminates
        queries with more than 1000 answers); ``None`` means no cap.
    initial:
        Pre-pinned assignments (used by the neighborhood-subgraph pruning
        check, which requires ``u`` mapped to ``v``).
    counters:
        Optional :class:`SearchCounters` to fill with search statistics.
    context:
        Optional :class:`~repro.runtime.ExecutionContext`.  The search
        ticks it once per candidate extension; on deadline expiry, step
        budget exhaustion or cancellation the search unwinds and the
        mappings found so far are returned (the interruption is recorded
        on the context, so callers can report a structured outcome).
        The context's answer/memory caps also terminate the search
        early, inside the recursion.
    """
    if candidates is None:
        candidates = scan_feasible_mates(pattern, graph)
    node_names = pattern.node_names()
    if order is None:
        order = [n for n in node_names if not initial or n not in initial]
    else:
        order = [n for n in order if not initial or n not in initial]
    missing = set(node_names) - set(order) - set(initial or ())
    if missing:
        raise ValueError(f"search order misses pattern nodes: {sorted(missing)}")

    directed = graph.directed
    # Section 4.1: "to avoid repeated evaluation of edge predicates,
    # another hashtable can be used to store evaluated pairs of edges"
    edge_memo: Dict[tuple, bool] = {}
    if not exhaustive and limit is None:
        limit = 1

    mapping = Mapping()
    used: set[str] = set()
    results: List[Mapping] = []

    if initial:
        for pattern_name, node_id in initial.items():
            if not graph.has_node(node_id):
                return []
            if node_id in used:
                return []
            if not pattern.node_matches(pattern_name, graph.node(node_id)):
                return []
            mapping.nodes[pattern_name] = node_id
            used.add(node_id)
        # verify edges among the pinned nodes themselves (each pair is
        # checked twice, once from each side; harmless)
        for pattern_name, node_id in initial.items():
            if not _check(pattern, graph, mapping, pattern_name, node_id,
                          directed, counters, edge_memo):
                return []
            _record_edges(pattern, graph, mapping, pattern_name, node_id, directed)

    def search(i: int) -> bool:
        """Return True when the search should stop early."""
        if counters is not None:
            counters.partial_states += 1
        if i == len(order):
            if pattern.residual_holds(mapping, graph):
                results.append(mapping.copy())
                if counters is not None:
                    counters.results += 1
                if context is not None and context.note_result(
                    memory=mapping_cost(mapping)
                ):
                    return True
                if limit is not None and len(results) >= limit:
                    return True
            return False
        u = order[i]
        for v in candidates.get(u, ()):  # free candidates for u
            if v in used:
                continue
            if context is not None:
                context.tick()
            if counters is not None:
                counters.candidates_tried += 1
            if not _check(pattern, graph, mapping, u, v, directed, counters,
                          edge_memo):
                continue
            mapping.nodes[u] = v
            used.add(v)
            saved_edges = dict(mapping.edges)
            _record_edges(pattern, graph, mapping, u, v, directed)
            if search(i + 1):
                return True
            del mapping.nodes[u]
            used.discard(v)
            mapping.edges = saved_edges
        return False

    try:
        if context is not None:
            context.check()
        search(0)
    except ExecutionInterrupted as exc:
        if context is None:
            raise
        context.mark_interrupted(exc)
    return results


def _check(
    pattern: GroundPattern,
    graph: Graph,
    mapping: Mapping,
    u: str,
    v: str,
    directed: bool,
    counters: Optional[SearchCounters],
    edge_memo: Optional[Dict[tuple, bool]] = None,
) -> bool:
    """``Check(u_i, v)``: edges back to already-mapped pattern nodes."""
    if counters is not None:
        counters.check_calls += 1
    motif = pattern.motif
    for edge in motif.incident_edges(u):
        other = edge.target if edge.source == u else edge.source
        if other == u:
            # pattern self-loop: v must carry a matching self-loop
            data_edge = graph.edge_between(v, v)
            if data_edge is None or not _edge_ok(pattern, edge.name,
                                                 data_edge, edge_memo):
                return False
            continue
        if other not in mapping.nodes:
            continue
        w = mapping.nodes[other]
        if directed:
            if edge.source == u:
                data_edge = _directed_edge(graph, v, w)
            else:
                data_edge = _directed_edge(graph, w, v)
        else:
            data_edge = graph.edge_between(v, w)
        if data_edge is None:
            return False
        if not _edge_ok(pattern, edge.name, data_edge, edge_memo):
            return False
    return True


def _edge_ok(pattern, edge_name: str, data_edge, memo) -> bool:
    """Memoized edge-predicate evaluation (the Section 4.1 hashtable)."""
    if memo is None:
        return pattern.edge_matches(edge_name, data_edge)
    key = (edge_name, data_edge.id)
    cached = memo.get(key)
    if cached is None:
        cached = pattern.edge_matches(edge_name, data_edge)
        memo[key] = cached
    return cached


def _directed_edge(graph: Graph, source: str, target: str):
    """The directed data edge source->target, or None."""
    edge = graph.edge_between(source, target)
    if edge is not None and edge.source == source and edge.target == target:
        return edge
    return None


def _record_edges(
    pattern: GroundPattern,
    graph: Graph,
    mapping: Mapping,
    u: str,
    v: str,
    directed: bool,
) -> None:
    """Record data-edge assignments for pattern edges now fully mapped."""
    motif = pattern.motif
    for edge in motif.incident_edges(u):
        other = edge.target if edge.source == u else edge.source
        if other == u:
            data_edge = graph.edge_between(v, v)
        elif other in mapping.nodes:
            w = mapping.nodes[other]
            if directed:
                src = v if edge.source == u else w
                dst = w if edge.source == u else v
                data_edge = _directed_edge(graph, src, dst)
            else:
                data_edge = graph.edge_between(v, w)
        else:
            continue
        if data_edge is not None:
            mapping.edges[edge.name] = data_edge.id


def brute_force_matches(
    pattern: GroundPattern,
    graph: Graph,
    limit: Optional[int] = None,
) -> List[Mapping]:
    """Reference implementation: try every injective assignment.

    Exponential; only for testing the optimized search on small inputs.
    """
    import itertools

    names = pattern.node_names()
    node_ids = graph.node_ids()
    results: List[Mapping] = []
    for assignment in itertools.permutations(node_ids, len(names)):
        mapping = Mapping(dict(zip(names, assignment)))
        if _assignment_ok(pattern, graph, mapping):
            results.append(mapping)
            if limit is not None and len(results) >= limit:
                break
    return results


def _assignment_ok(pattern: GroundPattern, graph: Graph, mapping: Mapping) -> bool:
    for name in pattern.node_names():
        if not pattern.node_matches(name, graph.node(mapping.nodes[name])):
            return False
    for edge in pattern.motif.edges():
        v = mapping.nodes[edge.source]
        w = mapping.nodes[edge.target]
        data_edge = (
            _directed_edge(graph, v, w) if graph.directed else graph.edge_between(v, w)
        )
        if data_edge is None or not pattern.edge_matches(edge.name, data_edge):
            return False
        mapping.edges[edge.name] = data_edge.id
    return pattern.residual_holds(mapping, graph)
