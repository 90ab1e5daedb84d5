"""QueryService facade: execution, caching, cancellation, governance."""

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


class TestPlanCache:
    def test_prepared_query_replays_the_search_order(self):
        with make_service() as service:
            cold = service.execute(EDGE_QUERY, use_cache=True)
            # drop only the result entries so execution happens again
            service.result_cache.invalidate()
            warm = service.execute(EDGE_QUERY)
            assert warm.cache == "miss"
            assert warm.results == cold.results
            assert service.metrics.plan_cache_hits == 1


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
        with make_service() as service:
            service.execute(EDGE_QUERY)  # warm baseline counters
            before = service.stats()
            response = service.execute(
                "graph P { node v1; } where Q.x > 1")
            assert response.outcome.status is Outcome.REJECTED
            assert response.outcome.reason == "invalid_query"
            diags = response.outcome.detail["diagnostics"]
            assert diags and diags[0]["code"] == "GQL001"
            assert diags[0]["severity"] == "error"
            after = service.stats()
            assert after["invalid_queries"] == before["invalid_queries"] + 1
            assert after["rejected"] == before["rejected"] + 1
            assert after["submitted"] == before["submitted"] + 1
            assert after["admitted"] == before["admitted"]  # never admitted
            assert after["executed"] == before["executed"]  # no worker burned
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

    def test_validation_can_be_disabled(self):
        with make_service(validate_queries=False) as service:
            response = service.execute(
                "graph P { node v1; } where Q.x > 1")
            # the query reaches a worker and fails there instead
            assert response.outcome.status is not Outcome.REJECTED
            assert response.error is not None
            assert service.stats()["invalid_queries"] == 0

    def test_validation_verdicts_are_cached(self):
        with make_service() as service:
            bad = "graph P { node v1; } where Q.x > 1"
            service.execute(bad)
            service.execute(bad)
            assert service.stats()["invalid_queries"] == 2
            assert service._validation_cache.hits >= 1

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
