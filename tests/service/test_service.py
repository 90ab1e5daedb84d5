"""QueryService facade: execution, caching, cancellation, governance."""

import json
import sys
import threading
import time

import pytest

from repro.datasets.random_graphs import erdos_renyi_graph
from repro.runtime import Outcome
from repro.service import QueryRequest, QueryService, ServiceConfig
from repro.service.metrics import assert_accounted


def make_service(**overrides) -> QueryService:
    defaults = dict(workers=2, default_timeout=10.0)
    defaults.update(overrides)
    service = QueryService(ServiceConfig(**defaults))
    service.register("data", erdos_renyi_graph(
        150, 450, num_labels=5, seed=7, name="g"))
    return service


EDGE_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')

#: texts admission must reject, with the code of the first finding: an
#: analyzer error, and two compile errors the analyzer cannot see
INVALID_QUERIES = (
    ("graph P { node v1; } where Q.x > 1", "GQL001"),
    ("graph P { node u1 <label=1+1>; }", "GQL000"),
    ("graph P { node u1; node u2; unify u1, u2 where u1.x > 1; }", "GQL000"),
    # an edge to an undeclared node only fails when grounded
    ("graph P { node u1; edge e (u1, u9); }", "GQL001"),
)


def library_rows(service: QueryService, text: str):
    """The rows a direct ``database.match`` gives, in a stable order."""
    reports = service.database.match("data", text)
    rows = [{"graph": name, "nodes": dict(m.nodes), "edges": dict(m.edges)}
            for name, report in reports.items() for m in report.mappings]
    return sorted_rows(rows)


def sorted_rows(rows):
    return sorted(rows, key=lambda row: json.dumps(row, sort_keys=True))


def dense_service(**overrides) -> QueryService:
    """A service over a dense one-label graph (slow exhaustive queries)."""
    from repro.core import Graph

    graph = Graph("dense")
    ids = [f"v{i}" for i in range(22)]
    for node_id in ids:
        graph.add_node(node_id, label="A")
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            graph.add_edge(a, b)
    defaults = dict(workers=2, default_timeout=30.0,
                    default_max_results=None)
    defaults.update(overrides)
    service = QueryService(ServiceConfig(**defaults))
    service.register("data", graph)
    return service


HEAVY_QUERY = ("graph P { "
               + " ".join(f'node u{i} <label="A">;' for i in range(7))
               + " ".join(f' edge e{i} (u{i}, u{i + 1});' for i in range(6))
               + " }")


class TestExecution:
    def test_execute_returns_rows_and_outcome(self):
        with make_service() as service:
            response = service.execute(EDGE_QUERY)
            assert response.outcome.status is Outcome.COMPLETE
            assert response.error is None
            for row in response.results:
                assert set(row) == {"graph", "nodes", "edges"}
                assert row["nodes"]  # pattern nodes are mapped

    def test_compiled_pattern_bypasses_caches(self):
        from repro.core import GroundPattern, clique_motif

        with make_service() as service:
            pattern = GroundPattern(clique_motif(["L001", "L002"]))
            response = service.execute(pattern)
            assert response.cache == "bypass"
            assert response.outcome.status is Outcome.COMPLETE

    def test_compile_error_is_a_rejection_not_an_exception(self):
        with make_service() as service:
            response = service.execute("graph P { this is not a pattern")
            assert response.outcome.status is Outcome.REJECTED
            assert response.outcome.reason == "invalid_query"
            assert response.outcome.detail["diagnostics"]
            assert response.results == []

    def test_unknown_document_is_an_error_response(self):
        with make_service() as service:
            response = service.execute(EDGE_QUERY, document="nope")
            assert response.error is not None


class TestResultCache:
    def test_repeat_query_hits_cache_and_matches_cold_results(self):
        with make_service() as service:
            cold = service.execute(EDGE_QUERY)
            warm = service.execute(EDGE_QUERY)
            assert cold.cache == "miss"
            assert warm.cache == "hit"
            assert warm.results == cold.results
            assert service.metrics.result_cache_hits == 1

    def test_mutation_invalidates_via_version(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)
            graph = service.database.doc("data")[0]
            graph.add_node("fresh", label="L001")
            response = service.execute(EDGE_QUERY)
            assert response.cache == "miss"

    def test_no_cache_request_bypasses(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)
            response = service.execute(EDGE_QUERY, use_cache=False)
            assert response.cache == "bypass"

    def test_different_limits_are_different_entries(self):
        with make_service() as service:
            a = service.execute(EDGE_QUERY, limit=1)
            b = service.execute(EDGE_QUERY, limit=2)
            assert a.cache == "miss" and b.cache == "miss"
            assert len(a.results) == 1
            assert len(b.results) == 2

    def test_budget_truncated_results_not_replayed_without_budget(self):
        """A tiny max_steps run must not poison the unbudgeted entry."""
        with make_service() as service:
            tight = service.execute(EDGE_QUERY, max_steps=10)
            assert tight.outcome.status is Outcome.TRUNCATED
            full = service.execute(EDGE_QUERY)
            assert full.cache == "miss"  # different budgets, different key
            assert full.outcome.status is Outcome.COMPLETE
            assert len(full.results) >= len(tight.results)
            # the truncated entry is still a valid hit for an identical ask
            again = service.execute(EDGE_QUERY, max_steps=10)
            assert again.cache == "hit"
            assert again.results == tight.results

    def test_timed_out_runs_are_not_cached(self):
        with dense_service() as service:
            first = service.execute(HEAVY_QUERY, timeout=0.1)
            assert first.outcome.status is Outcome.TIMED_OUT
            second = service.execute(HEAVY_QUERY, timeout=0.1)
            assert second.cache == "miss"  # never served from cache
            assert service.metrics.result_cache_hits == 0


class TestPreparedQuery:
    def test_write_between_two_requests_reuses_prepared(
            self, monkeypatch):
        from repro.analysis import analyzer
        from repro.lang import compiler, parser
        from repro.service import cache

        parsed = []
        # every module that can parse a pattern text counts into one list
        for module in (cache, compiler, analyzer):
            monkeypatch.setattr(
                module, "parse_graph_decl",
                lambda text: parsed.append(text) or parser.parse_graph_decl(
                    text))
        with make_service() as service:
            first = service.execute(EDGE_QUERY)
            before = service.stats()["plan_cache"]
            graph = service.database.doc("data")[0]
            anchor = next(node.id for node in graph.nodes()
                          if node.get("label") == "L001")
            graph.add_node("fresh", label="L002")
            graph.add_edge(anchor, "fresh")  # bumps Graph.version
            second = service.execute(EDGE_QUERY)
            after = service.stats()["plan_cache"]
            assert second.cache == "miss"  # the result cache missed...
            assert service.metrics.result_cache_hits == 0
            assert after["hits"] == before["hits"] + 1  # ...the text did not
            assert after["misses"] == before["misses"]
            assert parsed == [EDGE_QUERY]
            assert sorted_rows(second.results) == library_rows(
                service, EDGE_QUERY)
            assert len(second.results) > len(first.results)

    def test_concurrent_matches_share_one_compiled_pattern(self):
        text = ('graph P { node u1 <label="L001">; node u2; '
                'node u3 <label="L003">; edge e1 (u1, u2); '
                'edge e2 (u2, u3); }')
        with make_service(workers=4) as service:
            expected = library_rows(service, text)
            assert expected
            # one serial request prepares the text; the eight share it
            service.execute(text, use_cache=False)
            start = threading.Barrier(8)
            responses = [None] * 8

            def run(index: int) -> None:
                start.wait()
                responses[index] = service.execute(
                    text, use_cache=False, client=f"c{index}")

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # switch threads mid-match often
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            for response in responses:
                assert response.outcome.status is Outcome.COMPLETE
                assert sorted_rows(response.results) == expected
            assert service.stats()["plan_cache"]["hits"] == 8


class TestGovernance:
    def test_request_budgets_tighten_but_never_exceed_defaults(self):
        config = ServiceConfig(workers=1, default_timeout=5.0,
                               default_max_results=10)
        context = config.derive_context(timeout=60.0, max_results=50)
        assert context.timeout == 5.0
        assert context.max_results == 10
        tighter = config.derive_context(timeout=0.5)
        assert tighter.timeout == 0.5

    def test_per_request_timeout(self):
        with dense_service() as service:
            response = service.execute(HEAVY_QUERY, timeout=0.1)
            assert response.outcome.status is Outcome.TIMED_OUT
            assert response.outcome.steps > 0

    def test_cancel_in_flight_request(self):
        with dense_service() as service:
            request = QueryRequest(query=HEAVY_QUERY, use_cache=False)
            future = service.submit(request)
            time.sleep(0.15)
            assert service.cancel(request.request_id, "test cancel")
            response = future.result(timeout=30)
            assert response.outcome.status is Outcome.CANCELLED
            assert "test cancel" in response.outcome.reason

    def test_cancel_unknown_id_returns_false(self):
        with make_service() as service:
            assert not service.cancel("never-submitted")

    def test_duplicate_in_flight_id_is_rejected(self):
        """Reusing a running query's id must not orphan its cancel token."""
        with dense_service() as service:
            first = QueryRequest(query=HEAVY_QUERY, request_id="dup",
                                 use_cache=False)
            second = QueryRequest(query=HEAVY_QUERY, request_id="dup",
                                  use_cache=False)
            future = service.submit(first)
            response = service.submit(second).result(timeout=5)
            assert response.rejected
            assert "duplicate" in response.outcome.reason
            # the original request is still tracked and cancellable
            assert service.cancel("dup", "test cancel")
            assert future.result(timeout=30).outcome.status is (
                Outcome.CANCELLED)
            snap = service.stats()
            assert_accounted(snap)


class TestAdmission:
    def test_load_shedding_rejects_with_structured_outcome(self):
        with dense_service(workers=1, queue_depth=1,
                           default_timeout=1.0) as service:
            requests = [QueryRequest(query=HEAVY_QUERY, client=f"c{i}",
                                     use_cache=False)
                        for i in range(6)]
            futures = [service.submit(r) for r in requests]
            responses = [f.result(timeout=30) for f in futures]
            rejected = [r for r in responses if r.rejected]
            assert rejected, "expected load shedding with 1 worker + queue 1"
            for response in rejected:
                assert response.outcome.status is Outcome.REJECTED
                assert response.outcome.steps == 0  # never executed
            snap = service.stats()
            assert_accounted(snap)

    def test_invalid_query_never_reaches_the_pool(self):
        for text, code in INVALID_QUERIES:
            with make_service(breaker_threshold=1) as service:
                service.execute(EDGE_QUERY)  # warm baseline counters
                before = service.stats()
                response = service.execute(text)
                assert response.outcome.status is Outcome.REJECTED, text
                assert response.outcome.reason == "invalid_query"
                diags = response.outcome.detail["diagnostics"]
                assert diags and diags[0]["code"] == code, text
                assert diags[0]["severity"] == "error"
                assert diags[0]["line"] == 1  # the position is kept
                after = service.stats()
                assert after["invalid_queries"] == (
                    before["invalid_queries"] + 1)
                assert after["rejected"] == before["rejected"] + 1
                assert after["submitted"] == before["submitted"] + 1
                assert after["admitted"] == before["admitted"]
                assert after["executed"] == before["executed"]
                # a one-failure breaker would have opened on a worker error
                assert service.execute(EDGE_QUERY).outcome.status is (
                    Outcome.COMPLETE)
                assert_accounted(after)

    def test_accounting_reports_a_miscount(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)
            service.execute(EDGE_QUERY)  # a cache hit is admitted too
            service.execute("graph P { node v1; } where Q.x > 1")
            balanced = service.stats()
            assert balanced["accounting"] == {
                "submitted": 3, "admitted": 2, "rejected": 1, "shed": 0,
                "unaccounted": 0}
            assert_accounted(balanced)
            service.metrics.count("submitted")  # a submission no path counted
            broken = service.stats()
            assert broken["accounting"]["unaccounted"] == 1
            with pytest.raises(AssertionError, match="accounting broken"):
                assert_accounted(broken)

    def test_warnings_do_not_reject(self):
        # a disconnected pattern is a WARNING: admission only acts on
        # error-severity findings
        with make_service() as service:
            response = service.execute(
                'graph P { node u1 <label="L001">; node u2 <label="L002">; }')
            assert response.outcome.status is Outcome.COMPLETE

    def test_validation_verdicts_are_cached(self):
        with make_service() as service:
            bad = "graph P { node v1; } where Q.x > 1"
            service.execute(bad)
            service.execute(bad)
            snap = service.stats()
            assert snap["invalid_queries"] == 2
            assert snap["plan_cache"]["misses"] == 1
            assert snap["plan_cache"]["hits"] == 1

    def test_stats_snapshot_shape(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)
            snap = service.stats()
            assert snap["documents"] == ["data"]
            assert snap["result_cache"]["capacity"] > 0
            assert snap["latency"]["count"] >= 1
            assert snap["outcomes"]["COMPLETE"] >= 1

    def test_stats_request_counters_not_clobbered_by_lru_probes(self):
        """Per-probe LRU counters live under "lru"; the request-level
        hit/miss counters must survive the merge."""
        with make_service() as service:
            service.execute(EDGE_QUERY)  # miss (stored)
            service.execute(EDGE_QUERY)  # hit
            snap = service.stats()
            assert snap["result_cache"]["hits"] == (
                service.metrics.result_cache_hits) == 1
            assert snap["result_cache"]["misses"] == (
                service.metrics.result_cache_misses) == 1
            # the raw LRU probe counters are namespaced, not merged over
            assert set(snap["result_cache"]["lru"]) == {"hits", "misses"}
            assert set(snap["plan_cache"]["lru"]) == {"hits", "misses"}

    def test_unadmitted_results_do_not_count_as_cache_misses(self):
        with dense_service() as service:
            response = service.execute(HEAVY_QUERY, timeout=0.1)
            assert response.outcome.status is Outcome.TIMED_OUT
            # TIMED_OUT is never admitted, so no miss is recorded
            assert service.metrics.result_cache_misses == 0


class TestLifecycle:
    def test_shutdown_drains_and_rejects_new_work(self):
        service = make_service()
        service.execute(EDGE_QUERY)
        service.shutdown()
        response = service.execute(EDGE_QUERY)
        assert response.rejected

    def test_shutdown_cancels_stragglers_past_the_deadline(self):
        service = dense_service(drain_timeout=0.2)
        request = QueryRequest(query=HEAVY_QUERY, use_cache=False)
        future = service.submit(request)
        time.sleep(0.1)
        service.shutdown(timeout=0.2)
        response = future.result(timeout=30)
        assert response.outcome.status is Outcome.CANCELLED
