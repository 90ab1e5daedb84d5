"""Observability through the service: traces, metrics, slow log, explain."""

import json

import pytest

from repro.datasets.random_graphs import erdos_renyi_graph
from repro.obs.metrics import parse_prometheus_text
from repro.obs.trace import SpanCollector, tracer
from repro.service import (
    QueryRequest,
    QueryServer,
    QueryService,
    ServiceConfig,
)

EDGE_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')


def make_service(**overrides) -> QueryService:
    defaults = dict(workers=2, default_timeout=10.0)
    defaults.update(overrides)
    service = QueryService(ServiceConfig(**defaults))
    service.register("data", erdos_renyi_graph(
        150, 450, num_labels=5, seed=7, name="g"))
    return service


def request_roots(collector: SpanCollector):
    return collector.by_name("service.request")


class TestRequestTracing:
    def test_one_request_yields_one_tree(self):
        service = make_service()
        collector = SpanCollector()
        try:
            with tracer().session(collector):
                response = service.submit(
                    QueryRequest(query=EDGE_QUERY, request_id="t1")).result()
            assert response.error is None
            roots = request_roots(collector)
            assert len(roots) == 1
            root = roots[0]
            assert root.tags["request_id"] == "t1"
            assert root.tags["status"] == "COMPLETE"
            assert root.tags["cache"] in ("miss", "bypass")
            names = {s.name for s in collector.spans
                     if s.trace_id == root.trace_id}
            assert {"service.admission", "service.cache_probe",
                    "service.execute", "match.query",
                    "match.search"} <= names
            top = root.top_spans()
            assert top["service.request"]["count"] == 1
            assert "match.query" in top
        finally:
            service.shutdown(timeout=0)

    def test_cache_hit_requests_skip_the_execute_span(self):
        service = make_service()
        collector = SpanCollector()
        try:
            with tracer().session(collector):
                service.submit(QueryRequest(query=EDGE_QUERY,
                                            request_id="cold")).result()
                warm = service.submit(QueryRequest(query=EDGE_QUERY,
                                                   request_id="warm")).result()
            assert warm.cache == "hit"
            warm_root = next(r for r in request_roots(collector)
                             if r.tags["request_id"] == "warm")
            warm_names = {s.name for s in collector.spans
                          if s.trace_id == warm_root.trace_id}
            assert "service.execute" not in warm_names
            probes = [s for s in collector.by_name("service.cache_probe")
                      if s.trace_id == warm_root.trace_id]
            assert probes[0].tags["hit"] is True
        finally:
            service.shutdown(timeout=0)

    def test_rejected_requests_finish_their_root(self):
        from repro.core import Graph

        # one worker, no queue: while the heavy blocker is in flight,
        # any further request is shed at admission — deterministically
        dense = Graph("dense")
        ids = [f"v{i}" for i in range(22)]
        for node_id in ids:
            dense.add_node(node_id, label="A")
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                dense.add_edge(a, b)
        heavy = ("graph P { "
                 + " ".join(f'node u{i} <label="A">;' for i in range(7))
                 + " ".join(f' edge e{i} (u{i}, u{i + 1});'
                            for i in range(6))
                 + " }")
        service = make_service(workers=1, queue_depth=0, per_client=8,
                               default_timeout=30.0)
        service.register("dense", dense)
        collector = SpanCollector()
        try:
            with tracer().session(collector):
                blocker = service.submit(QueryRequest(
                    query=heavy, document="dense", request_id="blocker",
                    use_cache=False))
                rejected = service.submit(QueryRequest(
                    query=EDGE_QUERY, request_id="shed")).result()
                service.cancel("blocker", reason="test over")
                blocker.result()
            assert rejected.outcome.status.value == "REJECTED"
            roots = {r.tags["request_id"]: r
                     for r in request_roots(collector)}
            assert roots["shed"].tags["status"] == "REJECTED"
            admissions = [s for s in collector.by_name("service.admission")
                          if s.trace_id == roots["shed"].trace_id]
            assert admissions[0].tags.get("rejected")
            # every root was finished — durations are set
            assert all(r.duration is not None for r in roots.values())
        finally:
            service.shutdown(timeout=0)

    def test_concurrent_requests_never_interleave_their_trees(self):
        service = make_service(workers=4, queue_depth=32, per_client=32)
        collector = SpanCollector()
        try:
            with tracer().session(collector):
                futures = [
                    service.submit(QueryRequest(
                        query=EDGE_QUERY, request_id=f"r{i}",
                        use_cache=False))
                    for i in range(8)
                ]
                for future in futures:
                    future.result()
            roots = request_roots(collector)
            assert len(roots) == 8
            by_trace = {root.trace_id: root.tags["request_id"]
                        for root in roots}
            assert len(by_trace) == 8  # distinct trace per request
            for finished in collector.spans:
                assert finished.trace_id in by_trace
            for root in roots:
                top = root.top_spans(limit=32)
                # exactly this request's phases, one of each
                assert top["service.execute"]["count"] == 1
                assert top["service.cache_probe"]["count"] == 1
                assert top["match.query"]["count"] == 1
        finally:
            service.shutdown(timeout=0)


class TestMetricsExposition:
    def test_prometheus_text_parses_and_counts_requests(self):
        service = make_service()
        try:
            service.submit(QueryRequest(query=EDGE_QUERY)).result()
            service.submit(QueryRequest(query=EDGE_QUERY)).result()
            parsed = parse_prometheus_text(service.metrics_text())
            assert parsed["repro_service_submitted_total"] == 2
            assert parsed["repro_service_admitted_total"] == 2
            assert parsed[
                'repro_service_outcomes_total{status="COMPLETE"}'] == 2
            assert parsed["repro_service_request_seconds_count"] == 2
            assert parsed["repro_service_in_flight"] == 0
            assert parsed["repro_service_documents"] == 1
            # back-compat plain-int counters still agree
            assert service.metrics.submitted == 2
            assert service.metrics.admitted == 2
        finally:
            service.shutdown(timeout=0)

    def test_wal_gauge_tracks_the_durable_store(self, tmp_path):
        store = str(tmp_path / "state.db")
        service = QueryService(ServiceConfig(workers=1, store_path=store))
        try:
            service.register("data", erdos_renyi_graph(
                40, 80, num_labels=3, seed=1, name="g"))
            parsed = parse_prometheus_text(service.metrics_text())
            assert parsed["repro_store_wal_bytes"] > 0
        finally:
            service.shutdown(timeout=0)


class TestSlowLog:
    def test_over_threshold_requests_land_slowest_first(self):
        service = make_service(slow_log_size=4, slow_log_threshold=0.0)
        collector = SpanCollector()
        try:
            with tracer().session(collector):
                service.submit(QueryRequest(query=EDGE_QUERY,
                                            request_id="s1",
                                            use_cache=False)).result()
            snap = service.stats()["slow_queries"]
            assert snap
            assert snap[0]["request_id"] == "s1"
            assert snap[0]["status"] == "COMPLETE"
            assert snap[0]["elapsed"] > 0
            # tracing was on: the entry carries span aggregates
            assert "service.request" in snap[0]["spans"]
        finally:
            service.shutdown(timeout=0)

    def test_threshold_and_capacity_zero_suppress_entries(self):
        quiet = make_service(slow_log_threshold=60.0)
        disabled = make_service(slow_log_size=0)
        try:
            quiet.submit(QueryRequest(query=EDGE_QUERY)).result()
            disabled.submit(QueryRequest(query=EDGE_QUERY)).result()
            assert quiet.stats()["slow_queries"] == []
            assert disabled.stats()["slow_queries"] == []
        finally:
            quiet.shutdown(timeout=0)
            disabled.shutdown(timeout=0)

    def test_config_rejects_negative_slow_log_values(self):
        with pytest.raises(ValueError):
            ServiceConfig(slow_log_size=-1)
        with pytest.raises(ValueError):
            ServiceConfig(slow_log_threshold=-0.5)


class TestWireOps:
    def make_server(self):
        service = make_service()
        server = QueryServer(service, ("127.0.0.1", 0))
        return service, server

    def call(self, server, message):
        return server.handle_message(json.dumps(message).encode("utf-8"))

    def test_explain_over_the_wire(self):
        service, server = self.make_server()
        try:
            reply = self.call(server, {
                "op": "explain", "id": "e1", "query": EDGE_QUERY,
                "analyze": True,
            })
            assert reply["ok"], reply
            document = reply["explain"]
            assert document["document"] == "data"
            entry = document["graphs"][0]
            assert entry["order"]
            assert entry["nodes"][0]["retrieval"]
            assert entry["actual"]["outcome"]["status"] == "COMPLETE"
        finally:
            server.server_close()
            service.shutdown(timeout=0)

    def test_stats_formats_over_the_wire(self):
        service, server = self.make_server()
        try:
            self.call(server, {"op": "query", "id": "q1",
                               "query": EDGE_QUERY})
            as_json = self.call(server, {"op": "stats", "id": "s1"})
            assert as_json["stats"]["submitted"] == 1
            assert "slow_queries" in as_json["stats"]
            as_text = self.call(server, {"op": "stats", "id": "s2",
                                         "format": "prometheus"})
            parsed = parse_prometheus_text(as_text["stats_text"])
            assert parsed["repro_service_submitted_total"] == 1
            bad = self.call(server, {"op": "stats", "format": "xml"})
            assert not bad["ok"]
            no_query = self.call(server, {"op": "explain"})
            assert not no_query["ok"]
        finally:
            server.server_close()
            service.shutdown(timeout=0)


class TestDurableWriteSpans:
    def test_registration_emits_wal_spans(self, tmp_path):
        store = str(tmp_path / "state.db")
        collector = SpanCollector()
        service = QueryService(ServiceConfig(workers=1, store_path=store))
        try:
            with tracer().session(collector):
                service.register("data", erdos_renyi_graph(
                    40, 80, num_labels=3, seed=1, name="g"))
            names = {s.name for s in collector.spans}
            assert "wal.append" in names
            assert "wal.commit" in names
            commit = collector.by_name("wal.commit")[0]
            assert commit.counters.get("pages", 0) >= 1
        finally:
            service.shutdown(timeout=0)
