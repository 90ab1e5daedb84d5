"""Unit tests for hash, attribute and profile indexes."""


from repro.core import Graph
from repro.core.predicate import AttrRef, BinOp, Literal, conjunction
from repro.index import AttributeIndexSet, HashIndex, ProfileIndex


def ref(path):
    return AttrRef(tuple(path.split(".")))


class TestHashIndex:
    def test_insert_get(self):
        index = HashIndex()
        index.insert("A", "n1")
        index.insert("A", "n2")
        index.insert("B", "n3")
        assert index.get("A") == ["n1", "n2"]
        assert index.get("Z") == []
        assert len(index) == 3
        assert "A" in index and "Z" not in index

    def test_delete(self):
        index = HashIndex()
        index.insert("A", "n1")
        index.insert("A", "n2")
        assert index.delete("A", "n1")
        assert index.get("A") == ["n2"]
        assert index.delete("A")
        assert "A" not in index
        assert not index.delete("A")
        assert not index.delete("Z", "x")

    def test_items(self):
        index = HashIndex()
        index.insert("A", 1)
        assert dict(index.items()) == {"A": [1]}


class TestAttributeIndexSet:
    def graph(self):
        g = Graph()
        g.add_node("n1", label="A", year=2001)
        g.add_node("n2", label="B", year=2005)
        g.add_node("n3", label="A", year=2008)
        g.add_node("n4")  # attribute-free node
        return g

    def test_autodiscovers_attributes(self):
        index = AttributeIndexSet(self.graph())
        assert set(index.attributes()) == {"label", "year"}

    def test_eq_lookup(self):
        index = AttributeIndexSet(self.graph())
        assert sorted(index.lookup_eq("label", "A")) == ["n1", "n3"]
        assert index.lookup_eq("label", "Z") == []

    def test_range_lookup(self):
        index = AttributeIndexSet(self.graph())
        assert sorted(index.lookup_range("year", 2002, None)) == ["n2", "n3"]
        assert index.lookup_range("year", None, 2001) == ["n1"]
        assert sorted(
            index.lookup_range("year", 2001, 2005, include_low=False)
        ) == ["n2"]

    def test_candidates_from_required_attrs(self):
        index = AttributeIndexSet(self.graph())
        assert sorted(index.candidates_for({"label": "A"})) == ["n1", "n3"]

    def test_candidates_from_predicate(self):
        index = AttributeIndexSet(self.graph())
        pred = BinOp(">", ref("year"), Literal(2004))
        assert sorted(index.candidates_for({}, pred)) == ["n2", "n3"]
        # flipped orientation
        pred = BinOp("<", Literal(2004), ref("year"))
        assert sorted(index.candidates_for({}, pred)) == ["n2", "n3"]

    def test_candidates_picks_most_selective(self):
        index = AttributeIndexSet(self.graph())
        pred = conjunction([
            BinOp(">", ref("year"), Literal(1000)),  # matches 3
            BinOp("==", ref("label"), Literal("B")),  # matches 1
        ])
        assert index.candidates_for({}, pred) == ["n2"]

    def test_nothing_indexable(self):
        index = AttributeIndexSet(self.graph())
        pred = BinOp("==", ref("u1.label"), ref("u2.label"))
        assert index.candidates_for({}, pred) is None
        assert index.candidates_for({}) is None

    def test_explicit_attribute_list(self):
        index = AttributeIndexSet(self.graph(), attributes=["label"])
        assert index.has_index("label")
        assert not index.has_index("year")

    def test_mixed_type_keys_do_not_clash(self):
        g = Graph()
        g.add_node("a", code=1)
        g.add_node("b", code="1")
        index = AttributeIndexSet(g)
        assert index.lookup_eq("code", 1) == ["a"]
        assert index.lookup_eq("code", "1") == ["b"]

    def test_equal_numbers_share_a_key_across_types(self):
        # the matcher compares with ==, and True == 1 == 1.0
        g = Graph()
        g.add_node("t", code=True)
        g.add_node("f", code=0.0)
        g.add_node("s", code="1")
        index = AttributeIndexSet(g)
        assert index.lookup_eq("code", 1) == ["t"]
        assert index.lookup_eq("code", 1.0) == ["t"]
        assert index.lookup_eq("code", False) == ["f"]
        assert sorted(index.lookup_range("code", low=0, high=1)) == ["f", "t"]


class TestProfileIndex:
    def test_profiles_match_direct_computation(self, paper_graph):
        from repro.matching import profile

        index = ProfileIndex(paper_graph, radius=1)
        for node in paper_graph.nodes():
            assert index.profile_of(node.id) == profile(paper_graph, node.id, 1)

    def test_label_lookup(self, paper_graph):
        index = ProfileIndex(paper_graph, radius=1)
        assert sorted(index.nodes_with_label("A")) == ["A1", "A2"]

    def test_subgraph_cached(self, paper_graph):
        index = ProfileIndex(paper_graph, radius=1)
        first = index.subgraph_of("A1")
        again = index.subgraph_of("A1")
        assert first is again
        assert set(first.node_ids()) == {"A1", "B1", "C2"}

    def test_eager_subgraphs(self, paper_graph):
        index = ProfileIndex(paper_graph, radius=1, eager_subgraphs=True)
        assert index.subgraph_of("B1").num_nodes() == 4
