"""Differential properties of filter+verify over collections of small graphs.

``GraphDatabase.match`` and ``GraphDatabase.select`` run the path-index
filter on documents of at least ``COLLECTION_INDEX_THRESHOLD`` graphs.
Whatever the filter drops must be a graph without answers, so both must
return exactly what a per-graph scan returns: the rows of a fresh
``GraphMatcher`` per graph, in collection order, and the matched graphs
of ``core.algebra.select``.  The properties hold before and after
in-place edits and appends, which the index has to notice.
"""

import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Graph, GraphCollection, GroundPattern
from repro.core import select as scan_select
from repro.core.motif import SimpleMotif
from repro.datasets import molecule_collection
from repro.lang import compile_pattern_text
from repro.matching import GraphMatcher
from repro.storage import GraphDatabase

THRESHOLD = GraphDatabase.COLLECTION_INDEX_THRESHOLD

#: data labels: 1, 1.0 and True (and 0, False) compare equal across types;
#: None leaves the node unlabelled
DATA_LABELS = ("A", 0, 1, 1.0, True, False, None)
#: labels a pattern node may require, as GraphQL literals (None: no label)
TEXT_LABELS = (None, '"A"', "0", "1", "1.0")
#: labels a programmatic pattern may require (True has no literal)
MOTIF_LABELS = (None, "A", 0, 1, 1.0, True, False)


@st.composite
def small_graph(draw, name, directed):
    graph = Graph(name, directed=directed)
    size = draw(st.integers(1, 5))
    for i in range(size):
        label = draw(st.sampled_from(DATA_LABELS))
        if label is None:
            graph.add_node(f"n{i}")
        else:
            graph.add_node(f"n{i}", label=label)
    pairs = [(a, b) for a in range(size) for b in range(size) if a != b]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=8,
                              unique=True)) if pairs else []:
        if not graph.has_edge(f"n{a}", f"n{b}"):
            graph.add_edge(f"n{a}", f"n{b}")
    return graph


@st.composite
def collections(draw):
    directed = draw(st.booleans())
    count = draw(st.integers(THRESHOLD, THRESHOLD + 6))
    graphs = [draw(small_graph(f"g{i}", directed)) for i in range(count)]
    return GraphCollection(graphs)


def _node_decl(name, label, condition):
    tuple_text = f" <label={label}>" if label is not None else ""
    where = f" where {condition}" if condition else ""
    return f"node {name}{tuple_text}{where};"


@st.composite
def text_patterns(draw):
    """Pattern text: unlabelled nodes, label conditions, disjunctions."""
    size = draw(st.integers(1, 3))
    lines = []
    for i in range(size):
        label = draw(st.sampled_from(TEXT_LABELS))
        condition = draw(st.sampled_from(
            (None, None, 'label = "A"', "label != 0", "label = 1.0")))
        lines.append(_node_decl(f"u{i}", label, condition))
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    for k, (a, b) in enumerate(draw(st.lists(st.sampled_from(pairs),
                                             unique=True)) if pairs else []):
        if draw(st.booleans()):
            a, b = b, a
        lines.append(f"edge e{k} (u{a}, u{b});")
    if draw(st.booleans()):
        # two alternatives: more than one ground derivation
        alternatives = []
        for _ in range(2):
            label = draw(st.sampled_from(TEXT_LABELS))
            anchor = f"u{draw(st.integers(0, size - 1))}"
            ends = ("w", anchor) if draw(st.booleans()) else (anchor, "w")
            alternatives.append(
                "{ " + _node_decl("w", label, None)
                + f" edge f ({ends[0]}, {ends[1]}); }}")
        lines.append(" | ".join(alternatives) + ";")
    where = draw(st.sampled_from(("", "", " where u0.label != 1")))
    return compile_pattern_text(
        "graph P { " + " ".join(lines) + " }" + where + ";")


@st.composite
def motif_patterns(draw):
    """Ground patterns built directly, so a node may require ``True``."""
    motif = SimpleMotif()
    size = draw(st.integers(1, 3))
    for i in range(size):
        label = draw(st.sampled_from(MOTIF_LABELS))
        motif.add_node(f"u{i}", attrs={} if label is None
                       else {"label": label})
    for i in range(1, size):
        ends = (f"u{i - 1}", f"u{i}")
        motif.add_edge(*(ends if draw(st.booleans()) else ends[::-1]))
    return GroundPattern(motif)


patterns = st.one_of(text_patterns(), motif_patterns())


def _row(name, mapping):
    return (name, dict(mapping.nodes), dict(mapping.edges))


def scan_rows(collection, pattern):
    """The oracle: a fresh matcher per graph, rows concatenated in order."""
    rows = []
    for position, graph in enumerate(collection):
        matcher = GraphMatcher(graph)
        report = (matcher.match(pattern) if isinstance(pattern, GroundPattern)
                  else matcher.match_pattern(pattern))
        rows.extend(_row(graph.name or f"#{position}", m)
                    for m in report.mappings)
    return rows


def database_rows(db, document, pattern):
    return [_row(name, mapping)
            for name, report in db.match(document, pattern).items()
            for mapping in report.mappings]


def selected(result):
    return [(m.graph.name, dict(m.mapping.nodes), dict(m.mapping.edges))
            for m in result]


def bag(rows):
    return sorted((name, sorted(nodes.items()), sorted(edges.items()))
                  for name, nodes, edges in rows)


def assert_agrees(db, collection, pattern, exhaustive):
    assert db.collection_index_for("c") is not None
    rows = database_rows(db, "c", pattern)
    assert rows == scan_rows(collection, pattern)
    # the pipeline (indexes, pruning, refinement) finds exactly the
    # basic matcher's answers
    assert bag(rows) == bag(selected(scan_select(collection, pattern)))
    assert (selected(db.select("c", pattern, exhaustive=exhaustive))
            == selected(scan_select(collection, pattern,
                                    exhaustive=exhaustive)))


@st.composite
def edits(draw, collection):
    """In-place edge inserts/removals and appended graphs."""
    script = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("insert", "remove", "append")))
        position = draw(st.integers(0, len(collection) - 1))
        if kind == "append":
            graph = draw(small_graph(f"a{len(script)}",
                                     collection[0].directed))
            script.append((kind, graph, None))
        else:
            script.append((kind, position, draw(st.integers(0, 24))))
    return script


def apply_edits(collection, script):
    for kind, target, pick in script:
        if kind == "append":
            collection.add(target)
            continue
        graph = collection[target]
        if kind == "insert":
            ids = graph.node_ids()
            pairs = [(a, b) for a in ids for b in ids
                     if a != b and not graph.has_edge(a, b)]
            if pairs:
                graph.add_edge(*pairs[pick % len(pairs)])
        else:
            edge_ids = [edge.id for edge in graph.edges()]
            if edge_ids:
                graph.remove_edge(edge_ids[pick % len(edge_ids)])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_filter_and_verify_equals_scan(data):
    collection = data.draw(collections())
    db = GraphDatabase()
    db.register("c", collection)
    pattern = data.draw(patterns)
    exhaustive = data.draw(st.booleans())
    assert_agrees(db, collection, pattern, exhaustive)
    apply_edits(collection, data.draw(edits(collection)))
    assert_agrees(db, collection, pattern, exhaustive)
    # a second pattern against the refreshed index
    assert_agrees(db, collection, data.draw(patterns), exhaustive)


def test_concurrent_refresh_returns_scan_answers():
    """Threads racing to refresh a stale index all get the scan's rows."""
    collection = molecule_collection(num_molecules=60, seed=11)
    db = GraphDatabase()
    db.register("c", collection)
    pattern = compile_pattern_text(
        'graph P { node a <label="C">; node b <label="O">; '
        'node c <label="C">; edge e1 (a, b); edge e2 (b, c); }')
    assert db.collection_index_for("c") is not None
    database_rows(db, "c", pattern)  # index and matchers built, now warm
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rounds = 6
        for round_ in range(rounds):
            # give every sixth molecule a C-O-C fragment
            for graph in list(collection)[round_::rounds]:
                o = graph.add_node(label="O").id
                c = graph.add_node(label="C").id
                graph.add_edge(graph.node_ids()[0], o)
                graph.add_edge(o, c)
            expected = scan_rows(collection, pattern)
            barrier = threading.Barrier(8)
            results = [None] * 8

            def run(slot):
                barrier.wait(timeout=30)
                results[slot] = database_rows(db, "c", pattern)

            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert expected
            assert all(rows == expected for rows in results)
    finally:
        sys.setswitchinterval(switch)
