"""Seeded inputs for the benchmark workloads.

Everything a workload sends is generated here from seeds: query labels,
query text and the edits that writes apply.  Query text is rendered by
this module, not by the program's printer, and the data graphs are the
program's fixed stand-in datasets (the PPI network of the paper's
Section 5.1 and a molecule collection), so a change to the program
cannot change what the benchmark asks.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: the clique sizes of the paper's Fig. 4.21 workload
CLIQUE_SIZES = (3, 4, 5, 6)
#: every read asks for at most this many answers (the paper's cap)
LIMIT = 1000
#: molecule atoms a label-path query may ask for
PATH_LABELS = ("C", "N", "O", "S")
PATH_WEIGHTS = (0.4, 0.2, 0.25, 0.15)


@dataclass(frozen=True)
class Query:
    """One read: its shape, its labels and the text sent for it."""

    shape: str                      # "clique" or "path"
    labels: Tuple[str, ...]
    text: str


def clique_text(name: str, labels: Sequence[str]) -> str:
    """GraphQL text of a clique pattern: nodes u0.., edges e<i>_<j>."""
    nodes = " ".join(f'node u{i} <label="{label}">;'
                     for i, label in enumerate(labels))
    edges = " ".join(f"edge e{i}_{j} (u{i}, u{j});"
                     for i in range(len(labels))
                     for j in range(i + 1, len(labels)))
    return f"graph {name} {{ {nodes} {edges} }}"


def path_text(name: str, labels: Sequence[str]) -> str:
    """GraphQL text of a label path: nodes x0.., edges y<k> (x<k>, x<k+1>)."""
    nodes = " ".join(f'node x{i} <label="{label}">;'
                     for i, label in enumerate(labels))
    edges = " ".join(f"edge y{i} (x{i}, x{i + 1});"
                     for i in range(len(labels) - 1))
    return f"graph {name} {{ {nodes} {edges} }}"


def find_clique(graph, size: int, rng: random.Random,
                max_restarts: int = 200) -> Optional[List[str]]:
    """One clique of *size* nodes by randomized greedy extension."""
    node_ids = graph.node_ids()
    for _ in range(max_restarts):
        start = node_ids[rng.randrange(len(node_ids))]
        clique = [start]
        candidates = list(graph.all_neighbors(start))
        rng.shuffle(candidates)
        for candidate in candidates:
            if len(clique) == size:
                break
            if all(graph.has_edge(candidate, member) for member in clique):
                clique.append(candidate)
        if len(clique) == size:
            return clique
    return None


def ppi_clique_labels(graph, per_size: int,
                      rng: random.Random) -> List[Tuple[str, ...]]:
    """Clique label tuples by the paper's recipe, *per_size* per size.

    Half are drawn from the 40 most frequent labels, weighted by their
    frequency; half are copied from real cliques of the network, so
    every size has queries with answers.  Zero-answer queries are kept:
    they exercise pruning alone.
    """
    counts = Counter(node.get("label") for node in graph.nodes())
    weighted = [label for label, count in counts.most_common(40)
                for _ in range(max(1, count // 10))]
    out: List[Tuple[str, ...]] = []
    for size in CLIQUE_SIZES:
        for _ in range(per_size // 2):
            out.append(tuple(weighted[rng.randrange(len(weighted))]
                             for _ in range(size)))
        for _ in range(per_size - per_size // 2):
            members = find_clique(graph, size, rng)
            if members is not None:
                out.append(tuple(graph.node(m).get("label")
                                 for m in members))
    return out


def path_labels(rng: random.Random) -> Tuple[str, ...]:
    """One label path of 2 to 4 atoms."""
    return tuple(rng.choices(PATH_LABELS, PATH_WEIGHTS,
                             k=rng.randint(2, 4)))


def all_path_labels() -> List[Tuple[str, ...]]:
    """Every label path :func:`path_labels` can draw."""
    return [labels for k in (2, 3, 4)
            for labels in itertools.product(PATH_LABELS, repeat=k)]


@dataclass
class Edit:
    """One write: insert an edge between two nodes, or delete one."""

    graph: str
    insert: bool
    source: str = ""
    target: str = ""
    #: the id of the inserted edge, filled in when the insert ran; the
    #: matching delete removes it
    edge_id: Optional[str] = None
    undo_of: Optional["Edit"] = field(default=None, repr=False)

    def apply(self, graph) -> None:
        if self.insert:
            self.edge_id = graph.add_edge(self.source, self.target).id
        else:
            graph.remove_edge(self.undo_of.edge_id)


def edge_edits(graphs: Sequence, count: int, rng: random.Random,
               avoid_labels=frozenset()) -> List[Edit]:
    """*count* writes: inserts of new edges, each deleted by the next.

    Both endpoints carry labels in *avoid_labels*' complement, so when
    that set holds every label a query asks for, no answer changes.
    """
    edits: List[Edit] = []
    while len(edits) < count:
        graph = graphs[rng.randrange(len(graphs))]
        free = [node.id for node in graph.nodes()
                if node.get("label") not in avoid_labels]
        if len(free) < 2:
            continue
        source, target = rng.sample(free, 2)
        if graph.has_edge(source, target):
            continue
        insert = Edit(graph.name, True, source, target)
        edits.append(insert)
        edits.append(Edit(graph.name, False, undo_of=insert))
    return edits[:count]


def fingerprint(queries: Sequence[Query], edits: Sequence[Edit]) -> str:
    """A short digest of the generated inputs (changes with the seed)."""
    digest = hashlib.sha256()
    for query in queries:
        digest.update(f"{query.labels}{query.text}".encode())
    for edit in edits:
        digest.update(f"{edit.graph}:{edit.insert}:{edit.source}:"
                      f"{edit.target}".encode())
    return digest.hexdigest()[:16]


def labels_in(queries: Sequence[Query]) -> frozenset:
    return frozenset(label for query in queries for label in query.labels)


def clique_queries(graph, per_size: int, rng: random.Random,
                   prefix: str) -> List[Query]:
    return [Query("clique", labels, clique_text(f"{prefix}{i}", labels))
            for i, labels in enumerate(ppi_clique_labels(graph, per_size,
                                                         rng))]
