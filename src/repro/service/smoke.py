"""End-to-end service smoke test: ``python -m repro.service.smoke``.

Used by the CI ``service-smoke`` job (and runnable locally).  It:

1. writes a seeded synthetic graph (with a dense single-label core so
   heavy queries exist) to a temp file,
2. starts ``repro-gql serve`` as a real subprocess on an ephemeral port,
3. drives N concurrent clients: fast queries, repeated cached queries,
   queries with deadlines they cannot meet (``TIMED_OUT``, or ``SHED``
   once the queue-wait estimator has warmed up), and one heavy
   in-flight query cancelled from a second connection (``CANCELLED``),
4. sends SIGTERM and asserts the graceful-drain contract: the socket
   refuses new connections, the process exits 0, and the final stats
   balance their ``accounting`` block
   (``submitted == admitted + rejected + shed``),
5. runs a durability cycle: serves with ``--store``, queries, SIGKILLs
   the server (no drain, no checkpoint — the WAL still holds records),
   restarts it from the store alone, and asserts the recovery counters
   appear in ``stats`` and a repeated query answers identically (and is
   served from the result cache keyed on the recovered graph versions),
6. runs an observability cycle: serves a durable store with tracing
   (``--trace-out``), a Prometheus endpoint (``--metrics-port``) and a
   slow-query threshold, then asserts the scrape endpoint parses, the
   over-threshold query lands in the slow log, ``explain`` answers over
   the wire, and the JSONL trace reconstructs one request end to end
   (admission -> cache probe -> execute -> matcher) plus the WAL commit
   spans of the durable registration.

Exits 0 on success, 1 with a FAIL line on the first broken invariant.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

CLIENTS = 6
QUERIES_PER_CLIENT = 8

FAST_QUERY = 'graph P { node u1 <label="L001">; node u2 <label="L002">; edge e1 (u1, u2); }'
CACHED_QUERY = 'graph P { node u1 <label="L001">; node u2 <label="L001">; edge e1 (u1, u2); }'
#: a long path over the dense single-label core: combinatorially huge
HEAVY_QUERY = ("graph P { "
               + " ".join(f'node u{i} <label="CORE">;' for i in range(7))
               + " ".join(f' edge e{i} (u{i}, u{i + 1});' for i in range(6))
               + " }")


def fail(message: str) -> None:
    print(f"FAIL: {message}", flush=True)
    sys.exit(1)


def build_graph(path: Path) -> None:
    """A synthetic graph plus a 24-node dense single-label core."""
    from ..datasets.random_graphs import erdos_renyi_graph
    from ..storage.serializer import save_graph

    graph = erdos_renyi_graph(300, 900, num_labels=8, seed=11, name="smoke")
    core = [f"core{i}" for i in range(24)]
    for node_id in core:
        graph.add_node(node_id, label="CORE")
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_edge(a, b)
    save_graph(graph, path)


def read_banner(process, want_metrics: bool = False):
    """Read startup lines until the ``serving`` banner.

    Returns ``(host, port)`` — or ``(host, port, metrics_port)`` with
    ``want_metrics=True``, where ``metrics_port`` comes from the
    ``metrics on HOST:PORT`` line printed before the serving banner.
    """
    assert process.stdout is not None
    metrics_port = None
    for _ in range(12):
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith("metrics on "):
            # "metrics on 127.0.0.1:PORT (/metrics /stats ...)"
            address = line.split("metrics on ", 1)[1].split()[0]
            metrics_port = int(address.rsplit(":", 1)[1])
        if "serving" in line:
            # "serving 1 graph(s) on 127.0.0.1:PORT (...)"
            address = line.split(" on ", 1)[1].split(" ", 1)[0]
            host, port = address.rsplit(":", 1)
            if want_metrics:
                if metrics_port is None:
                    fail("no 'metrics on' line before the serving banner")
                return host, int(port), metrics_port
            return host, int(port)
    fail(f"server never printed its banner (last line: {line!r})")


def start_server(data: Path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(data),
         "--port", "0", "--workers", "3", "--queue-depth", "32",
         "--per-client", "16", "--timeout", "10", "--limit", "3000000",
         "--drain-timeout", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    host, port = read_banner(process)
    print(f"server up at {host}:{port}", flush=True)
    return process, host, port


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "smoke.gql"
        build_graph(data)
        process, host, port = start_server(data)
        try:
            code = drive(process, host, port)
        finally:
            if process.poll() is None:
                process.kill()
        if code != 0:
            return code
        code = durability_cycle()
        if code != 0:
            return code
        return observability_cycle()


def drive(process, host: str, port: int) -> int:
    from ..runtime import Outcome
    from .client import ServiceClient

    outcomes: list = []
    errors: list = []

    def client_worker(index: int) -> None:
        try:
            with ServiceClient(host, port, timeout=30,
                               client_name=f"c{index}") as client:
                for q in range(QUERIES_PER_CLIENT):
                    if q % 3 == 2:
                        # a deadline this query cannot meet
                        reply = client.query(HEAVY_QUERY, timeout=0.05,
                                             no_cache=True)
                    elif q % 3 == 1:
                        reply = client.query(CACHED_QUERY, limit=100)
                    else:
                        reply = client.query(FAST_QUERY, limit=100)
                    if not reply.ok:
                        errors.append(f"c{index}/q{q}: {reply.error}")
                    if not reply.outcome.status:
                        errors.append(f"c{index}/q{q}: missing outcome")
                    outcomes.append(reply.outcome.status)
        except Exception as exc:
            errors.append(f"c{index}: {exc!r}")

    threads = [threading.Thread(target=client_worker, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()

    # meanwhile: cancel one heavy in-flight query from another connection
    canceller = ServiceClient(host, port, timeout=30, client_name="boss")
    cancel_id = "boss-heavy-1"
    cancel_result: dict = {}

    def run_heavy() -> None:
        with ServiceClient(host, port, timeout=60,
                           client_name="boss-runner") as runner:
            cancel_result["reply"] = runner.query(
                HEAVY_QUERY, request_id=cancel_id, no_cache=True)

    heavy_thread = threading.Thread(target=run_heavy)
    heavy_thread.start()
    # retry until the query is in flight: under load the server's handler
    # threads contend with the matcher for the GIL, so admission of the
    # heavy query may lag the first cancel attempt
    cancelled = False
    cancel_deadline = time.time() + 8
    while (time.time() < cancel_deadline and not cancelled
           and "reply" not in cancel_result):
        time.sleep(0.2)
        cancelled = canceller.cancel(cancel_id, reason="smoke cancel")
    heavy_thread.join(timeout=60)
    for t in threads:
        t.join(timeout=120)

    if errors:
        fail("; ".join(errors[:5]))
    reply = cancel_result.get("reply")
    if reply is None:
        fail("heavy query never returned")
    if not cancelled:
        fail("cancel() did not find the in-flight heavy query")
    if reply.outcome.status is not Outcome.CANCELLED:
        fail(f"cancelled query ended {reply.outcome.status}, "
             f"expected CANCELLED")
    if Outcome.TIMED_OUT not in outcomes and Outcome.SHED not in outcomes:
        fail("50ms deadlines on heavy queries neither timed out nor "
             "were shed")
    if Outcome.COMPLETE not in outcomes:
        fail("no query completed")

    stats = canceller.stats()
    accounting = stats["accounting"]
    if accounting["unaccounted"] != 0:
        fail(f"accounting broken: {accounting}")
    if stats["result_cache"]["hits"] == 0:
        fail("repeated identical query was never served from the cache")
    print(f"stats ok: submitted={accounting['submitted']} "
          f"admitted={accounting['admitted']} "
          f"rejected={accounting['rejected']} shed={accounting['shed']} "
          f"cache_hits={stats['result_cache']['hits']} "
          f"outcomes={ {k: v for k, v in stats['outcomes'].items() if v} }",
          flush=True)
    canceller.close()

    # graceful drain: SIGTERM, socket must refuse, process must exit 0
    process.send_signal(signal.SIGTERM)
    deadline = time.time() + 20
    refused = False
    while time.time() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.3):
                time.sleep(0.05)
        except OSError:
            refused = True
            break
    if not refused:
        fail("socket still accepting connections after SIGTERM")
    code = process.wait(timeout=30)
    tail = process.stdout.read() if process.stdout else ""
    if "shutdown:" not in tail:
        fail(f"no shutdown summary in server output: {tail!r}")
    if code != 0:
        fail(f"server exited {code} after SIGTERM")
    print("smoke: PASS", flush=True)
    return 0


def durability_cycle() -> int:
    """Kill -9 a durable server, restart from the store, verify recovery."""
    from .client import ServiceClient

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "smoke.gql"
        build_graph(data)
        store = str(Path(tmp) / "state.db")
        base = [sys.executable, "-m", "repro", "serve",
                "--store", store, "--fsync", "commit",
                "--port", "0", "--workers", "2", "--timeout", "10",
                "--limit", "100000"]
        process = subprocess.Popen(base + [str(data)],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True)
        try:
            host, port = read_banner(process)
            with ServiceClient(host, port, timeout=30,
                               client_name="durable") as client:
                before = client.query(FAST_QUERY, limit=100)
                if not before.ok:
                    fail(f"durable query failed: {before.error}")
                stats = client.stats()
                durability = stats.get("durability")
                if durability is None:
                    fail("no durability section in stats with --store")
                if durability["wal_bytes"] == 0:
                    fail("WAL empty before the kill — nothing at stake")
            # SIGKILL: no drain, no checkpoint — like a power cut.  The
            # restart must repair from the WAL, not from a clean close.
            process.kill()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()

        process = subprocess.Popen(base, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True)
        try:
            host, port = read_banner(process)
            with ServiceClient(host, port, timeout=30,
                               client_name="durable") as client:
                stats = client.stats()
                durability = stats.get("durability")
                if durability is None:
                    fail("no durability section after restart")
                recovery = durability.get("recovery")
                if not recovery or not recovery.get("ran"):
                    fail(f"no recovery report after SIGKILL: {durability}")
                if recovery["wal_records"] == 0:
                    fail("recovery found an empty WAL after SIGKILL")
                after = client.query(FAST_QUERY, limit=100)
                if not after.ok:
                    fail(f"query after recovery failed: {after.error}")
                if _rows_key(after.results) != _rows_key(before.results):
                    fail(f"recovered answer differs: "
                         f"{len(after.results)} row(s) vs "
                         f"{len(before.results)} before the kill")
                again = client.query(FAST_QUERY, limit=100)
                if again.cache != "hit":
                    fail(f"repeat query after recovery was {again.cache!r}, "
                         f"expected a result-cache hit (version-keyed "
                         f"caching broken across recovery?)")
                if _rows_key(again.results) != _rows_key(before.results):
                    fail("cached answer differs from the pre-kill answer")
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
            if code != 0:
                fail(f"recovered server exited {code} after SIGTERM")
        finally:
            if process.poll() is None:
                process.kill()
    print(f"durability: PASS (recovered {recovery['wal_records']} WAL "
          f"record(s), {recovery['replayed_transactions']} txn(s) "
          f"replayed, cache hit after restart)", flush=True)
    return 0


def observability_cycle() -> int:
    """Tracing + metrics endpoint + slow log + explain, end to end."""
    import urllib.request

    from ..obs.metrics import parse_prometheus_text
    from ..obs.trace import find_spans, read_trace, span_tree
    from .client import ServiceClient

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "smoke.gql"
        build_graph(data)
        store = str(Path(tmp) / "state.db")
        trace_path = Path(tmp) / "trace.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(data),
             "--store", store, "--fsync", "commit",
             "--port", "0", "--workers", "2", "--timeout", "10",
             "--limit", "100000", "--metrics-port", "0",
             "--trace-out", str(trace_path),
             "--slow-log-size", "8", "--slow-log-threshold", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            host, port, metrics_port = read_banner(process,
                                                   want_metrics=True)
            with ServiceClient(host, port, timeout=30,
                               client_name="obs") as client:
                fast = client.query(FAST_QUERY, limit=100)
                if not fast.ok:
                    fail(f"obs fast query failed: {fast.error}")
                # a deadline the heavy query cannot meet: TIMED_OUT and
                # well over the 50ms slow-log threshold
                slow = client.query(HEAVY_QUERY, timeout=0.2,
                                    no_cache=True)
                if slow.outcome.status.value != "TIMED_OUT":
                    fail(f"heavy obs query ended {slow.outcome.status}, "
                         f"expected TIMED_OUT")

                explained = client.explain(FAST_QUERY, analyze=True)
                graphs = explained.get("graphs") or []
                if not graphs or not graphs[0].get("order"):
                    fail(f"wire explain returned no plan: {explained}")
                if graphs[0].get("actual") is None:
                    fail("explain analyze=True carried no actuals")

                text = client.stats(format="prometheus")
                wire_metrics = parse_prometheus_text(text)
                if "repro_service_submitted_total" not in wire_metrics:
                    fail(f"wire prometheus stats missing counters: "
                         f"{sorted(wire_metrics)[:5]}")

                url = f"http://{host}:{metrics_port}/metrics"
                with urllib.request.urlopen(url, timeout=10) as reply:
                    scraped = parse_prometheus_text(
                        reply.read().decode("utf-8"))
                if scraped.get("repro_service_submitted_total", 0) < 2:
                    fail(f"scrape endpoint disagrees: {scraped.get('repro_service_submitted_total')}")
                with urllib.request.urlopen(
                        f"http://{host}:{metrics_port}/stats",
                        timeout=10) as reply:
                    http_stats = json.loads(reply.read().decode("utf-8"))
                if "slow_queries" not in http_stats:
                    fail("HTTP /stats carries no slow_queries section")

                stats = client.stats()
                slow_entries = stats.get("slow_queries", [])
                if not slow_entries:
                    fail("over-threshold query never reached the slow log")
                slowest = slow_entries[0]
                if slowest["elapsed"] < 0.05:
                    fail(f"slow-log entry under threshold: {slowest}")
                if "CORE" not in slowest["query"]:
                    fail(f"slow log recorded the wrong query: "
                         f"{slowest['query'][:80]}")
                if not slowest.get("spans"):
                    fail("slow-log entry carries no span aggregates")
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
            if code != 0:
                fail(f"obs server exited {code} after SIGTERM")
            tail = process.stdout.read() if process.stdout else ""
            if "slow query:" not in tail:
                fail(f"no slow-query dump in the drain output: {tail!r}")
        finally:
            if process.poll() is None:
                process.kill()

        # offline reconstruction: one request, end to end, from the JSONL
        forest = span_tree(read_trace(trace_path))
        requests = find_spans(forest, "service.request")
        if not requests:
            fail("trace holds no service.request roots")
        slow_roots = [r for r in requests
                      if r["tags"].get("status") == "TIMED_OUT"]
        if not slow_roots:
            fail("the TIMED_OUT request left no trace root")
        inside = slow_roots[0]["children"]
        child_names = {c["name"] for c in inside}
        for expected in ("service.admission", "service.cache_probe",
                         "service.execute"):
            if expected not in child_names:
                fail(f"request trace missing {expected}: {child_names}")
        execute = next(c for c in inside if c["name"] == "service.execute")
        match_spans = find_spans([execute], "match.query")
        if not match_spans:
            fail("no matcher span under the request's execute span")
        if not find_spans(match_spans, "match.search"):
            fail("no search span under the matcher span")
        if not find_spans(forest, "wal.commit"):
            fail("durable registration left no wal.commit span")
    print(f"observability: PASS ({len(requests)} request trace(s), "
          f"slowest {slowest['elapsed'] * 1000:.0f}ms in the slow log, "
          f"{len(scraped)} scraped sample(s))", flush=True)
    return 0


def _rows_key(rows):
    """An order-insensitive identity for a result-row list."""
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


if __name__ == "__main__":
    sys.exit(main())
