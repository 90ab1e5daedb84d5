"""Wire-level integration: QueryServer + ServiceClient over loopback.

The server runs in a background thread of this process (no subprocess),
which keeps the tests fast while still exercising real TCP sockets,
the ndjson protocol, cross-connection cancellation and graceful drain.
"""

import threading
import time

import pytest

from repro.core import Graph
from repro.datasets.random_graphs import erdos_renyi_graph
from repro.runtime import Outcome
from repro.service import QueryServer, QueryService, ServiceClient, ServiceConfig
from repro.service.metrics import assert_accounted
from repro.service.protocol import ProtocolError
from repro.service.server import probe

FAST_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')
HEAVY_QUERY = ("graph P { "
               + " ".join(f'node u{i} <label="CORE">;' for i in range(7))
               + " ".join(f' edge e{i} (u{i}, u{i + 1});' for i in range(6))
               + " }")


def build_document() -> Graph:
    graph = erdos_renyi_graph(200, 600, num_labels=5, seed=3, name="wire")
    core = [f"core{i}" for i in range(20)]
    for node_id in core:
        graph.add_node(node_id, label="CORE")
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_edge(a, b)
    return graph


@pytest.fixture()
def server():
    service = QueryService(ServiceConfig(
        workers=2, queue_depth=16, per_client=16,
        default_timeout=10.0, default_max_results=None))
    service.register("data", build_document())
    srv = QueryServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=srv.serve_until_shutdown, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown_gracefully(drain_timeout=2.0)
        thread.join(timeout=10)


def connect(server, name="test"):
    host, port = server.address
    return ServiceClient(host, port, timeout=30.0, client_name=name)


class TestWireProtocol:
    def test_ping_reports_version_and_drain_state(self, server):
        with connect(server) as client:
            reply = client.ping()
            assert reply["version"] == 1
            assert reply["draining"] is False

    def test_query_round_trip_carries_outcome(self, server):
        with connect(server) as client:
            reply = client.query(FAST_QUERY, limit=20)
            assert reply.ok
            assert reply.error is None
            assert reply.outcome.status is Outcome.COMPLETE
            assert 0 < len(reply.results) <= 20
            for row in reply.results:
                assert set(row) == {"graph", "nodes", "edges"}

    def test_repeat_query_is_a_cache_hit_over_the_wire(self, server):
        with connect(server) as client:
            cold = client.query(FAST_QUERY, limit=20)
            warm = client.query(FAST_QUERY, limit=20)
            assert cold.cache == "miss"
            assert warm.cache == "hit"
            assert warm.results == cold.results

    def test_malformed_line_yields_error_not_disconnect(self, server):
        with connect(server) as client:
            client.connect()
            client._sock.sendall(b"this is not json\n")
            reply_line = client._reader.readline()
            assert b'"ok": false' in reply_line or b'"ok":false' in reply_line
            # the connection survives and still serves queries
            assert client.ping()["ok"]

    def test_unknown_op_is_rejected(self, server):
        with connect(server) as client:
            reply = client.call({"op": "explode"})
            assert reply["ok"] is False
            assert "op" in reply["error"]

    def test_bad_query_text_is_rejected_at_admission(self, server):
        # static analysis refuses the query before any worker runs; the
        # reply is structured (REJECTED + diagnostics), not an error
        with connect(server) as client:
            reply = client.query("graph P { node broken")
            assert reply.outcome.status is Outcome.REJECTED
            assert reply.outcome.reason == "invalid_query"
            diagnostics = reply.outcome.detail["diagnostics"]
            assert diagnostics and diagnostics[0]["severity"] == "error"

    def test_oversized_line_errors_and_closes_the_connection(self, server):
        """A line past the cap cannot be resynced: the tail must not be
        parsed as spurious requests, so the server replies and hangs up."""
        from repro.service.protocol import MAX_LINE_BYTES

        with connect(server) as client:
            client.connect()
            client._sock.sendall(b"x" * (MAX_LINE_BYTES + 10) + b"\n")
            reply_line = client._reader.readline()
            assert (b'"ok": false' in reply_line
                    or b'"ok":false' in reply_line)
            assert b"size limit" in reply_line
            # no second (spurious) response: the server closed the session
            assert client._reader.readline() == b""
        # the server itself survives for other connections
        with connect(server) as fresh:
            assert fresh.ping()["ok"]

    def test_stats_expose_service_counters(self, server):
        with connect(server) as client:
            client.query(FAST_QUERY, limit=5)
            stats = client.stats()
            assert stats["submitted"] >= 1
            assert_accounted(stats)
            assert "latency" in stats


class TestOversizedResponse:
    def test_degraded_envelope_keeps_the_outcome(self):
        """A response past the line limit loses its rows, not the session."""
        from repro.service.server import _without_results

        response = {"id": "q1", "op": "query", "request_id": "q1",
                    "client": "c", "outcome": {"status": "CANCELLED"},
                    "cache": "bypass", "elapsed": 1.0, "ok": True,
                    "results": [{"graph": "g"}] * 100}
        slim = _without_results(response, "exceeds the line limit")
        assert slim["ok"] is False
        assert slim["results"] == []
        assert slim["outcome"]["status"] == "CANCELLED"
        assert "exceeds the line limit" in slim["error"]


class TestCrossConnectionCancel:
    def test_cancel_from_a_second_connection(self, server):
        bucket = {}

        def run_heavy():
            with connect(server, "victim") as client:
                bucket["reply"] = client.query(
                    HEAVY_QUERY, request_id="heavy-1",
                    timeout=30.0, no_cache=True)

        worker = threading.Thread(target=run_heavy)
        worker.start()
        try:
            with connect(server, "controller") as control:
                cancelled = False
                deadline = time.time() + 5
                while time.time() < deadline and not cancelled:
                    time.sleep(0.1)
                    cancelled = control.cancel("heavy-1", "operator abort")
                assert cancelled, "cancel never found the in-flight query"
        finally:
            worker.join(timeout=30)
        reply = bucket["reply"]
        assert reply.outcome.status is Outcome.CANCELLED
        assert "operator abort" in reply.outcome.reason

    def test_cancel_unknown_target_returns_false(self, server):
        with connect(server) as client:
            assert client.cancel("no-such-request") is False


class TestGracefulDrain:
    def test_sigterm_style_drain_refuses_new_connections(self):
        service = QueryService(ServiceConfig(workers=2, default_timeout=5.0))
        service.register("data", build_document())
        srv = QueryServer(service, ("127.0.0.1", 0))
        thread = threading.Thread(target=srv.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = srv.address
        with ServiceClient(host, port) as client:
            assert client.query(FAST_QUERY, limit=5).ok
        assert probe(host, port)

        clean = srv.shutdown_gracefully(drain_timeout=2.0)
        thread.join(timeout=10)
        assert clean
        assert not probe(host, port), "socket still accepting after drain"
        with pytest.raises((ConnectionError, OSError)):
            ServiceClient(host, port, timeout=0.5).connect()

    def test_drain_cancels_queries_past_the_deadline(self):
        service = QueryService(ServiceConfig(
            workers=1, default_timeout=60.0, default_max_results=None))
        service.register("data", build_document())
        srv = QueryServer(service, ("127.0.0.1", 0))
        thread = threading.Thread(target=srv.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        host, port = srv.address
        bucket = {}

        def run_heavy():
            with ServiceClient(host, port, timeout=60.0) as client:
                try:
                    bucket["reply"] = client.query(
                        HEAVY_QUERY, timeout=60.0, no_cache=True)
                except (ConnectionError, ProtocolError, OSError) as exc:
                    bucket["error"] = exc

        worker = threading.Thread(target=run_heavy)
        worker.start()
        time.sleep(0.3)  # let the heavy query get in flight

        clean = srv.shutdown_gracefully(drain_timeout=0.3)
        thread.join(timeout=10)
        worker.join(timeout=30)
        assert not clean  # the straggler had to be cancelled
        reply = bucket.get("reply")
        if reply is not None:  # the response may race the socket teardown
            assert reply.outcome.status is Outcome.CANCELLED
