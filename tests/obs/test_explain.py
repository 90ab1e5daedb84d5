"""EXPLAIN / EXPLAIN ANALYZE over the paper's worked example."""

from __future__ import annotations

import pytest

import repro.matching.planner as planner
import repro.obs.explain as explain
from repro.core import GraphCollection, GraphPattern
from repro.core.motif import Disjunction, MotifBlock
from repro.datasets import molecule_collection
from repro.lang import compile_pattern_text
from repro.matching import GraphMatcher, MatchOptions, baseline_options
from repro.obs.explain import explain_document, explain_ground, render_text
from repro.runtime import ExecutionContext
from repro.storage import GraphDatabase


def test_explain_reports_per_node_retrieval_and_counts(paper_graph,
                                                       triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern)
    assert report["graph"] == "G"
    assert report["pattern_nodes"] == 3
    rows = {row["node"]: row for row in report["nodes"]}
    assert set(rows) == set(triangle_pattern.node_names())
    for row in rows.values():
        # two nodes per label in the paper graph; indexes must be used
        assert row["retrieval"] in ("attribute-index", "label-index")
        assert row["estimated_mates"] == 2
        assert row["feasible_mates"] == 2
        assert 0 <= row["refined"] <= row["after_pruning"] <= 2
    assert report["order_policy"] in ("greedy", "connected")
    assert set(report["order"]) == set(rows)
    assert report["estimated_cost"] >= 0
    assert report["spaces"]["refined"] <= report["spaces"]["retrieved"]
    assert "actual" not in report


def test_baseline_options_skip_pruning_and_refinement(paper_graph,
                                                      triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern,
                            baseline_options())
    assert report["local"] == "none"
    assert report["refine"] is False
    assert report["order_policy"] == "connected"
    for row in report["nodes"]:
        # no local pruning: the feasible mates survive untouched
        assert row["after_pruning"] == row["feasible_mates"]
        assert row["refined"] == row["feasible_mates"]


def test_analyze_attaches_actuals_matching_a_real_run(paper_graph,
                                                      triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern, analyze=True)
    actual = report["actual"]
    # the only A-B-C triangle in the paper graph is (A1, B1, C2)
    assert actual["mappings"] == 1
    assert actual["outcome"]["status"] == "COMPLETE"
    assert actual["search"]["results"] == 1
    assert actual["search"]["candidates_tried"] >= 1
    assert set(actual["times"]) >= {"search"}
    assert actual["total_time"] >= 0
    assert actual["order"] == report["order"]


def test_explain_document_covers_every_graph(paper_graph, triangle_pattern):
    database = GraphDatabase()
    database.register("data", paper_graph)
    document = explain_document(database, "data", triangle_pattern,
                                MatchOptions(), analyze=True)
    assert document["document"] == "data"
    assert document["analyze"] is True
    assert document["derivations"] == 1
    assert len(document["graphs"]) == 1

    text = render_text(document)
    assert "graph G" in text
    assert "search order" in text
    assert "estimated cost" in text
    assert "actual: 1 mapping(s)" in text
    assert "phase timings" in text


def test_unlabeled_nodes_fall_back_to_scans(paper_graph):
    from repro.core import GroundPattern, SimpleMotif

    motif = SimpleMotif()
    motif.add_node("x")
    motif.add_node("y")
    motif.add_edge("x", "y")
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, GroundPattern(motif))
    for row in report["nodes"]:
        assert row["retrieval"] == "scan"
        assert row["estimated_mates"] == paper_graph.num_nodes()


def test_plan_shows_the_fig_4_17_and_4_18_spaces(paper_graph,
                                                 triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern)
    rows = {row["node"]: row for row in report["nodes"]}
    # profiles leave u1:1, u2:2, u3:1 (Fig. 4.17); refinement 1, 1, 1
    assert {u: row["after_pruning"] for u, row in rows.items()} == {
        "u1": 1, "u2": 2, "u3": 1}
    assert {u: row["refined"] for u, row in rows.items()} == {
        "u1": 1, "u2": 1, "u3": 1}
    assert report["local"] == "profile" and report["refine"] is True
    assert report["order_policy"] == "greedy"
    assert report["spaces"]["refined"] == 1


def test_baseline_plan_searches_the_unpruned_space(paper_graph,
                                                   triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern, baseline_options())
    assert report["spaces"]["retrieved"] == 8  # 2 x 2 x 2
    assert report["spaces"]["refined"] == 8


def test_explain_without_analyze_runs_no_search(paper_graph,
                                                triangle_pattern,
                                                monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("EXPLAIN ran the search")

    monkeypatch.setattr(planner, "find_matches", no_search)
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern,
                            MatchOptions(local="profile", refine=True))
    assert "actual" not in report


def test_explain_after_an_edit_equals_the_refreshed_match(paper_graph,
                                                          triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    explain_ground(matcher, triangle_pattern)  # indexes of the old graph
    paper_graph.add_edge("A2", "C2")  # closes a second triangle A2-B2-C2
    report = explain_ground(matcher, triangle_pattern, analyze=True)
    run = matcher.match(triangle_pattern, MatchOptions(compute_baseline=False))
    assert len(run.mappings) == 2
    assert report["actual"]["mappings"] == 2
    assert report["spaces"] == {"retrieved": run.retrieved_space,
                                "refined": run.refined_space}
    assert {row["node"]: row["refined"] for row in report["nodes"]} == (
        run.plan.sizes)
    planned = explain_ground(matcher, triangle_pattern)
    assert planned["spaces"] == report["spaces"]
    assert planned["nodes"] == report["nodes"]


class _Broken:
    """Raises on any attribute access: a dead index."""

    def __getattr__(self, name):
        raise RuntimeError("index structure unavailable")


def test_a_raising_index_degrades_explain(paper_graph, triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    matcher.attribute_index = _Broken()
    for analyze in (False, True):
        report = explain_ground(matcher, triangle_pattern, analyze=analyze)
        assert any("retrying without indexes" in note
                   for note in report["degradation"])
        assert report["spaces"]["refined"] == 1
    assert report["actual"]["mappings"] == 1
    text = render_text({"document": "data", "graphs": [report]})
    assert "degraded: indexed retrieval" in text


def test_explain_lists_only_the_graphs_the_filter_admits():
    collection = molecule_collection(40, seed=31)
    assert len(collection) >= GraphDatabase.COLLECTION_INDEX_THRESHOLD
    database = GraphDatabase()
    database.register("mols", collection)
    text = 'graph P { node a <label="N">, b <label="O">; edge e (a, b); }'
    reports = database.match("mols", text)
    ran = {name: len(report.mappings)
           for name, report in reports.items() if report.times}
    assert 0 < len(ran) < len(collection)
    document = explain_document(database, "mols", compile_pattern_text(text),
                                analyze=True)
    assert document["collection"] == len(collection)
    assert document["candidates"] == len(ran)
    assert {entry["graph"]: entry["actual"]["mappings"]
            for entry in document["graphs"]} == ran
    assert "of 40 graph(s) admitted" in render_text(document)


def two_derivations() -> GraphPattern:
    a = MotifBlock()
    a.add_node("u", attrs={"label": "A"})
    c = MotifBlock()
    c.add_node("u", attrs={"label": "C"})
    return GraphPattern(Disjunction([a, c]), name="AorC")


@pytest.mark.parametrize("analyze", [False, True])
def test_one_retrieval_per_graph_and_derivation(paper_graph, monkeypatch,
                                                analyze):
    calls = []
    retrieve = planner.retrieve_feasible_mates

    def counting(*args, **kwargs):
        calls.append(args)
        return retrieve(*args, **kwargs)

    monkeypatch.setattr(planner, "retrieve_feasible_mates", counting)
    # EXPLAIN must not retrieve on its own, beside the matcher
    monkeypatch.setattr(explain, "retrieve_feasible_mates", counting,
                        raising=False)
    database = GraphDatabase()
    database.register("data", GraphCollection([paper_graph,
                                                paper_graph.copy("G2")]))
    if analyze:
        explain_document(database, "data", two_derivations(), analyze=True)
    else:
        database.match("data", two_derivations())
    assert len(calls) == 2 * 2  # graphs x derivations


def test_analyze_interrupted_before_the_order_still_renders(paper_graph,
                                                           triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    context = ExecutionContext(max_steps=1, check_every=1)
    report = explain_ground(matcher, triangle_pattern, analyze=True,
                            context=context)
    assert report["actual"]["outcome"]["status"] == "TRUNCATED"
    assert report["order_policy"] is None  # no plan was finished
    text = render_text({"document": "data", "graphs": [report]})
    assert "estimated cost n/a" in text
