"""Path-feature index for collections of small graphs.

Section 4 splits graph databases into two categories.  This module covers
the first — *"a large collection of small graphs, e.g., chemical
compounds"* — where *"graph indexing plays a similar role for graph
databases as B-trees for relational databases: only a small number of
graphs need to be accessed"*.

The index follows the GraphGrep recipe the paper cites [34]: every label
path up to a fixed length is a feature; a collection graph can contain
the pattern only if it contains at least as many occurrences of every
pattern feature.  Selection then becomes **filter + verify**: the index
prunes the collection, the Section 4 matcher verifies the survivors.

The filter is sound (an embedding maps each pattern path to a distinct
data path with the same labels, so counts can only grow) and approximate
(survivors may still fail verification).
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..matching.neighborhood import LabelFn, default_label

PathFeature = Tuple[Any, ...]


def _seq_key(sequence: PathFeature) -> Tuple:
    return tuple((type(x).__name__, str(x)) for x in sequence)


def _canonical(sequence: PathFeature, directed: bool) -> PathFeature:
    """Undirected paths are read in either direction: pick one."""
    if directed:
        return sequence
    return min(sequence, tuple(reversed(sequence)), key=_seq_key)


def _enumerate_paths(
    node_ids,
    neighbors_fn,
    label_of,
    max_length: int,
    directed: bool,
) -> Counter:
    """Count simple label paths with up to *max_length* edges.

    Undirected paths are enumerated once: a traversal is counted only
    when its first node id is smaller than its last (each simple path of
    length >= 1 has two distinct end points, so exactly one of its two
    traversals qualifies).  Directed paths count every traversal.
    """
    features: Counter = Counter()

    def extend(path: List) -> None:
        if len(path) == 1:
            features[(label_of(path[0]),)] += 1
        elif directed or path[0] < path[-1]:
            sequence = tuple(label_of(n) for n in path)
            features[_canonical(sequence, directed)] += 1
        if len(path) > max_length:
            return
        for neighbor in neighbors_fn(path[-1]):
            if neighbor not in path:
                path.append(neighbor)
                extend(path)
                path.pop()

    for node_id in node_ids:
        extend([node_id])
    return features


def enumerate_label_paths(
    graph: Graph,
    max_length: int,
    label_fn: LabelFn = default_label,
) -> Counter:
    """Count the label paths of a data graph (the index features)."""
    labels = {node.id: label_fn(node) for node in graph.nodes()}
    return _enumerate_paths(
        graph.node_ids(),
        graph.neighbors,
        labels.__getitem__,
        max_length,
        graph.directed,
    )


def pattern_features(
    pattern: GroundPattern,
    max_length: int,
    label_attr: str = "label",
    directed: bool = False,
) -> Counter:
    """Label-path features a pattern *requires* of any containing graph.

    Only paths whose nodes all carry a declarative label constraint
    contribute (an unconstrained node matches anything and cannot prune).
    Against *directed* data a pattern edge ``(u, v)`` only matches a data
    edge ``u -> v``, so paths then follow the edges' declared direction,
    exactly as :func:`enumerate_label_paths` follows out-edges.
    """
    motif = pattern.motif
    constrained = {}
    for name in motif.node_names():
        label = motif.node(name).attrs.get(label_attr)
        if label is not None:
            constrained[name] = label
    adjacent: Dict[str, Dict[str, None]] = {name: {} for name in constrained}
    for edge in motif.edges():
        source, target = edge.source, edge.target
        if source != target and source in constrained and target in constrained:
            adjacent[source][target] = None
            if not directed:
                adjacent[target][source] = None

    return _enumerate_paths(
        list(constrained),
        adjacent.__getitem__,
        constrained.__getitem__,
        max_length,
        directed,
    )


def _needs(required: Counter, directed: bool) -> List[Tuple]:
    """A pattern's requirements as ``(feature, reverse, count)`` checks.

    An undirected path is stored under one orientation of its label
    sequence, chosen by type name and text, so equal labels of different
    types (``1``, ``1.0``, ``True``) may pick different orientations in
    the data and in the pattern.  Counting both orientations of a
    non-palindromic feature (``reverse`` is ``None`` otherwise) makes the
    test depend on label equality alone, which is what the matcher
    compares.  Longer paths are rarer, so they are checked first.
    """
    needs = []
    for feature, count in required.items():
        reverse = None if directed else feature[::-1]
        needs.append((feature, None if reverse == feature else reverse,
                      count))
    needs.sort(key=lambda need: -len(need[0]))
    return needs


def _covers(features: Counter, needs: List[Tuple]) -> bool:
    """Whether a graph's path counts meet every check of :func:`_needs`."""
    get = features.get
    for feature, reverse, count in needs:
        have = get(feature, 0)
        if reverse is not None:
            have += get(reverse, 0)
        if have < count:
            return False
    return True


class PathIndexStats:
    """Filter effectiveness counters."""

    def __init__(self) -> None:
        self.collection_size = 0
        self.candidates = 0
        self.verified = 0

    @property
    def filter_ratio(self) -> float:
        """Fraction of the collection surviving the filter."""
        if self.collection_size == 0:
            return 0.0
        return self.candidates / self.collection_size

    def __repr__(self) -> str:
        return (
            f"PathIndexStats({self.candidates}/{self.collection_size} "
            f"candidates, {self.verified} verified)"
        )


class _Snapshot(NamedTuple):
    """The graphs an index last saw, their versions and their features."""

    graphs: Tuple[Graph, ...]
    versions: Tuple[int, ...]
    features: Tuple[Counter, ...]


class PathIndex:
    """A GraphGrep-style filter index over a collection of small graphs.

    The index follows the collection: each query first re-enumerates the
    graphs whose :attr:`Graph.version` moved or that were appended since
    the last refresh, reusing every other graph's features.
    """

    def __init__(
        self,
        collection: GraphCollection,
        max_length: int = 3,
        label_fn: LabelFn = default_label,
    ) -> None:
        self.collection = collection
        self.max_length = max_length
        self.label_fn = label_fn
        self._snapshot = _Snapshot((), (), ())
        self.refresh()

    def refresh(self) -> bool:
        """Catch up with edits and appends; returns whether any were seen.

        Concurrent readers may race here: each builds a complete new
        snapshot and publishes it with one assignment, and no published
        snapshot or feature counter is ever mutated, so a reader sees
        either the old state or a new one, never a mix.
        """
        old = self._snapshot
        graphs = tuple(self.collection)
        # read each version before enumerating: an edit racing with the
        # enumeration leaves an older version behind, so the next refresh
        # enumerates that graph again
        versions = tuple([graph.version for graph in graphs])
        if (versions == old.versions
                and all(map(operator.is_, graphs, old.graphs))):
            return False
        features = tuple(
            old.features[position]
            if (position < len(old.graphs) and old.graphs[position] is graph
                and old.versions[position] == version)
            else enumerate_label_paths(graph, self.max_length, self.label_fn)
            for position, (graph, version) in enumerate(zip(graphs, versions))
        )
        self._snapshot = _Snapshot(graphs, versions, features)
        return True

    def candidate_positions(
        self,
        pattern: GroundPattern,
        label_attr: str = "label",
        stats: Optional[PathIndexStats] = None,
    ) -> List[int]:
        """Collection positions that may contain the pattern."""
        self.refresh()
        snapshot = self._snapshot
        needs = {
            directed: _needs(pattern_features(pattern, self.max_length,
                                              label_attr, directed), directed)
            for directed in {graph.directed for graph in snapshot.graphs}
        }
        candidates = [
            position
            for position, (graph, features) in enumerate(
                zip(snapshot.graphs, snapshot.features))
            if _covers(features, needs[graph.directed])
        ]
        if stats is not None:
            stats.collection_size = len(snapshot.graphs)
            stats.candidates = len(candidates)
        return candidates

    def select(
        self,
        pattern: GroundPattern,
        exhaustive: bool = True,
        label_attr: str = "label",
        stats: Optional[PathIndexStats] = None,
    ) -> GraphCollection:
        """Filter-and-verify selection over the collection."""
        from ..core.algebra import select as verify_select

        positions = self.candidate_positions(pattern, label_attr, stats)
        survivors = GraphCollection([self.collection[p] for p in positions])
        result = verify_select(survivors, pattern, exhaustive=exhaustive)
        if stats is not None:
            stats.verified = len(result)
        return result

    def __repr__(self) -> str:
        snapshot = self._snapshot
        return (
            f"PathIndex(graphs={len(snapshot.graphs)}, "
            f"max_length={self.max_length}, "
            f"features={len(set().union(*snapshot.features))})"
        )
