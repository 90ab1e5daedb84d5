"""Tests for database-level selection with automatic collection indexing."""

from repro.core import Graph, GraphCollection, select as scan_select
from repro.datasets import (
    benzene_ring_pattern,
    molecule_collection,
    ring_with_side_chain_pattern,
    tiny_dblp,
)
from repro.lang import compile_pattern_text
from repro.storage import GraphDatabase


class TestDatabaseSelect:
    def test_large_collection_gets_index(self):
        db = GraphDatabase()
        db.register("mols", molecule_collection(num_molecules=80, seed=2))
        index = db.collection_index_for("mols")
        assert index is not None
        # cached: the same object comes back
        assert db.collection_index_for("mols") is index

    def test_small_collection_scans(self):
        db = GraphDatabase()
        db.register("d", tiny_dblp())
        assert db.collection_index_for("d") is None
        result = db.select("d", "graph P { node v <author name=\"A\">; }")
        assert len(result) == 2  # A appears in both papers

    def test_indexed_select_equals_scan(self):
        db = GraphDatabase()
        collection = molecule_collection(num_molecules=80, seed=2)
        db.register("mols", collection)
        for pattern in (benzene_ring_pattern(),
                        ring_with_side_chain_pattern("S")):
            indexed = db.select("mols", pattern, exhaustive=False)
            scanned = scan_select(collection, pattern, exhaustive=False)
            assert len(indexed) == len(scanned)

    def test_reregister_rebuilds_index(self):
        db = GraphDatabase()
        db.register("mols", molecule_collection(num_molecules=80, seed=2))
        first = db.collection_index_for("mols")
        db.register("mols", molecule_collection(num_molecules=80, seed=3))
        second = db.collection_index_for("mols")
        assert first is not second


def two_atom_graph(name, directed=False, bonded=False):
    """A graph with an N atom and an O atom, bonded N -> O or not."""
    graph = Graph(name, directed=directed)
    graph.add_node("n", label="N")
    graph.add_node("o", label="O")
    if bonded:
        graph.add_edge("n", "o")
    return graph


NO_BOND = ('graph P { node x <label="N">; node y <label="O">; '
           'edge e (x, y); }')
ON_BOND = ('graph P { node y <label="O">; node x <label="N">; '
           'edge e (y, x); }')


def match_rows(db, document, pattern):
    return [(name, dict(mapping.nodes))
            for name, report in db.match(document, pattern).items()
            for mapping in report.mappings]


class TestCollectionIndexFollowsEdits:
    """The path index must see edits made after it was built."""

    def make_db(self):
        db = GraphDatabase()
        db.register("mols", GraphCollection(
            [two_atom_graph(f"g{i}") for i in range(40)]))
        assert len(db.select("mols", NO_BOND)) == 0  # builds the index
        assert match_rows(db, "mols", NO_BOND) == []
        return db

    def test_in_place_edge_insert_is_seen(self):
        db = self.make_db()
        db.doc("mols")[7].add_edge("n", "o")
        assert [m.graph.name for m in db.select("mols", NO_BOND)] == ["g7"]
        assert match_rows(db, "mols", NO_BOND) == [
            ("g7", {"x": "n", "y": "o"})]

    def test_appended_graph_is_seen(self):
        db = self.make_db()
        index = db.collection_index_for("mols")
        db.doc("mols")[7].add_edge("n", "o")
        db.doc("mols").add(two_atom_graph("g40", bonded=True))
        selected = db.select("mols", NO_BOND)
        assert [m.graph.name for m in selected] == ["g7", "g40"]
        assert [name for name, _ in match_rows(db, "mols", NO_BOND)] == [
            "g7", "g40"]
        # refreshed in place, not rebuilt
        assert db.collection_index_for("mols") is index


class TestDirectedCollections:
    def make_db(self):
        collection = GraphCollection(
            [two_atom_graph(f"d{i}", directed=True, bonded=True)
             for i in range(40)])
        db = GraphDatabase()
        db.register("dir", collection)
        return db, collection

    def test_edge_direction_is_followed(self):
        db, collection = self.make_db()
        assert db.collection_index_for("dir") is not None
        scanned = scan_select(collection, compile_pattern_text(NO_BOND))
        assert len(scanned) == 40
        assert len(db.select("dir", NO_BOND)) == 40
        assert len(match_rows(db, "dir", NO_BOND)) == 40

    def test_reversed_edge_matches_nothing(self):
        db, collection = self.make_db()
        assert len(scan_select(collection,
                               compile_pattern_text(ON_BOND))) == 0
        assert len(db.select("dir", ON_BOND)) == 0
        assert match_rows(db, "dir", ON_BOND) == []


class TestLabelsEqualAcrossTypes:
    def test_bool_and_int_labels_filter_like_the_matcher(self):
        # True == 1 and 1.0 == 1, but the index orders an undirected
        # path's labels by type name, so (True, 0) and (0, 1) are stored
        # in opposite orientations; the filter must still admit them
        collection = GraphCollection()
        for i in range(40):
            graph = Graph(f"t{i}")
            graph.add_node("t", label=True)
            graph.add_node("z", label=0)
            graph.add_edge("t", "z")
            collection.add(graph)
        db = GraphDatabase()
        db.register("typed", collection)
        assert db.collection_index_for("typed") is not None
        for one in ("1", "1.0"):
            text = (f"graph P {{ node a <label={one}>; node b <label=0>; "
                    "edge e (a, b); }")
            assert len(scan_select(collection,
                                   compile_pattern_text(text))) == 40
            assert len(db.select("typed", text)) == 40
            assert len(match_rows(db, "typed", text)) == 40


class TestDatabasePersistence:
    def test_save_all_and_open(self, tmp_path, paper_graph):
        db = GraphDatabase()
        db.register("dblp", tiny_dblp())
        db.register("net", paper_graph)
        db.save_all(tmp_path / "dbdir")
        reopened = GraphDatabase.open(tmp_path / "dbdir")
        assert sorted(reopened.names()) == ["dblp", "net"]
        assert len(reopened.doc("dblp")) == 2
        assert reopened.doc("net")[0].equals(paper_graph)

    def test_directedness_preserved(self, tmp_path):
        from repro.core import Graph

        g = Graph("d", directed=True)
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        db = GraphDatabase()
        db.register("dir", g)
        db.save_all(tmp_path / "dbdir")
        reopened = GraphDatabase.open(tmp_path / "dbdir")
        back = reopened.doc("dir")[0]
        assert back.directed
        assert back.has_edge("a", "b") and not back.has_edge("b", "a")

    def test_open_missing_manifest(self, tmp_path):
        import pytest

        with pytest.raises(FileNotFoundError):
            GraphDatabase.open(tmp_path)
