"""The answer reference: an enumerator independent of the program.

The reference answers of every query are enumerated here by plain
backtracking over the data graph's adjacency, without the program's
indexes, pruning, refinement or search order, so a program change that
drops or invents answers cannot hide itself.  ``selftest.py`` checks
that the enumerator agrees with the library run with ``limit=None``.

A row is keyed as ``(graph, node map, edge map)`` with both maps as
sorted item tuples; any extra field of a row (a cluster's shard tag) is
ignored.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Row = Tuple[str, Tuple[Tuple[str, str], ...], Tuple[Tuple[str, str], ...]]


def row_key(graph: str, nodes: Mapping[str, str],
            edges: Mapping[str, str]) -> Row:
    return (graph, tuple(sorted(nodes.items())), tuple(sorted(edges.items())))


def wire_key(row: Mapping) -> Row:
    """The key of a service or cluster result row."""
    return row_key(row["graph"], row["nodes"], row["edges"])


class GraphView:
    """Label and adjacency lookups of one data graph, read once."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.name = graph.name
        self.label = {node.id: node.get("label") for node in graph.nodes()}
        self.adj = {node_id: set(graph.all_neighbors(node_id))
                    for node_id in self.label}
        self.by_label: Dict[str, List[str]] = {}
        for node_id, label in self.label.items():
            self.by_label.setdefault(label, []).append(node_id)

    def edge(self, a: str, b: str) -> str:
        return self.graph.edge_between(a, b).id


def clique_rows(view: GraphView, labels: Sequence[str]) -> List[Row]:
    """Every injective map of the clique pattern ``u0..`` into *view*."""
    k = len(labels)
    rows: List[Row] = []
    chosen: List[str] = []

    def extend() -> None:
        i = len(chosen)
        if i == k:
            nodes = {f"u{p}": chosen[p] for p in range(k)}
            edges = {f"e{p}_{q}": view.edge(chosen[p], chosen[q])
                     for p in range(k) for q in range(p + 1, k)}
            rows.append(row_key(view.name, nodes, edges))
            return
        if i == 0:
            candidates: Iterable[str] = view.by_label.get(labels[0], ())
        else:
            candidates = view.adj[chosen[-1]]
        for node in candidates:
            if (view.label[node] == labels[i] and node not in chosen
                    and all(node in view.adj[c] for c in chosen)):
                chosen.append(node)
                extend()
                chosen.pop()

    extend()
    return rows


def path_rows(view: GraphView, labels: Sequence[str]) -> List[Row]:
    """Every injective map of the path pattern ``x0-x1-..`` into *view*."""
    k = len(labels)
    rows: List[Row] = []
    chosen: List[str] = []

    def extend() -> None:
        i = len(chosen)
        if i == k:
            nodes = {f"x{p}": chosen[p] for p in range(k)}
            edges = {f"y{p}": view.edge(chosen[p], chosen[p + 1])
                     for p in range(k - 1)}
            rows.append(row_key(view.name, nodes, edges))
            return
        candidates: Iterable[str] = (view.by_label.get(labels[0], ())
                                     if i == 0 else view.adj[chosen[-1]])
        for node in candidates:
            if view.label[node] == labels[i] and node not in chosen:
                chosen.append(node)
                extend()
                chosen.pop()

    extend()
    return rows


def digest(rows: Iterable[Row]) -> array:
    """A multiset of rows, kept as the sorted hashes of its rows.

    Eight bytes a row keep the reference's memory small and the same
    from seed to seed; a 64-bit collision is out of reach here.
    """
    return array("q", sorted(hash(row) for row in rows))


def reference(views: Sequence[GraphView], shape: str,
              labels: Sequence[str]) -> array:
    """The reference answer multiset of one query over a collection."""
    enumerate_rows = clique_rows if shape == "clique" else path_rows
    return digest(row for view in views
                  for row in enumerate_rows(view, labels))


def check(rows: Sequence[Row], truncated: bool, limit: int,
          expected: array) -> bool:
    """Whether *rows* is a correct answer.

    A complete answer equals the reference multiset.  A truncated one
    holds at least *limit* rows, each in the reference, none more often
    than the reference holds it.
    """
    got = digest(rows)
    if not truncated:
        return got == expected
    return len(got) >= limit and all(
        bisect_right(expected, h) - bisect_left(expected, h) >= n
        for h, n in Counter(got).items())
