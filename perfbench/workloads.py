"""The three benchmark workloads.

Each workload has a ``setup`` (everything before the first timed
request, ended by one untimed warm-up request), an untraced closed-loop
``measure`` that runs for the requested seconds, and a ``replay`` of a
fixed operation stream used for the per-layer numbers: once untraced,
once with benchmark-side spans around every call into a layer and each
read replayed one layer down (analysis, compilation, library match,
direct shard call).  Every read is checked against the reference of
``oracle.py``; every workload ends with durable writes and a
close-without-checkpoint / reopen check of the store.
"""

from __future__ import annotations

import itertools
import math
import random
import shutil
import statistics
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from inputs import (
    CLIQUE_SIZES, LIMIT, Edit, Query, clique_queries, clique_text, edge_edits,
    all_path_labels, fingerprint, labels_in, path_labels, path_text,
)
from oracle import GraphView, check, reference, row_key, wire_key
from spans import Spans

from repro.analysis import analyze_pattern_text
from repro.cluster import launch_cluster
from repro.core import GraphCollection
from repro.datasets import molecule_collection, ppi_network
from repro.lang import compile_pattern_text
from repro.matching import GraphMatcher, MatchOptions
from repro.runtime import Outcome
from repro.service import QueryRequest, QueryService, ServiceClient, ServiceConfig
from repro.storage import GraphDatabase

#: fixed replay lengths of the traced run (reads and writes)
REPLAY_OPS = {"ppi_cliques": 400, "service_rw": 300, "cluster_fanout": 80}
#: service_rw: client 0 makes every WRITE_EVERY-th replayed op a write;
#: the timed run spreads WRITES_PER_SECOND writes evenly over the run, so
#: the number of writes (and the store's size) never depends on speed
WRITE_EVERY = 25
WRITES_PER_SECOND = 0.25
GOOD = (Outcome.COMPLETE, Outcome.TRUNCATED)
#: the query pools are part of a workload's definition, like its data:
#: drawn by the recipe once, with this seed, so every run reads the same
#: multiset of queries and one seed's share of rare, very costly
#: queries cannot move the figures; ``--seed`` draws the request stream
#: (order, hot sets, interleaving) and the edits
POOL_SEED = 7


def ms(seconds: float) -> float:
    return seconds * 1000.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 without values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def store_bytes(path: Path) -> int:
    """On-disk bytes of a store: its page file plus its WAL."""
    return sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))


def open_store(path: Path) -> GraphDatabase:
    """A database backed by the durable store at *path* (recovering it)."""
    database = GraphDatabase()
    database.attach_durable(path, fsync="commit")
    return database


def fresh_store_bytes(collection, path: Path) -> int:
    """Bytes of a new, checkpointed store holding only *collection*."""
    database = open_store(path)
    database.register_durable("data", collection)
    database.close_store(checkpoint=True)
    return store_bytes(path)


def rss_mb(pids: Sequence[int]) -> float:
    """Summed resident memory of *pids*, from ``/proc``."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def passes(pool: Sequence, rng: random.Random):
    """Endless seeded shuffles of *pool*: every query is sent equally
    often, give or take one pass."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def same_documents(live: Sequence, recovered: Sequence) -> bool:
    by_name = {graph.name: graph for graph in recovered}
    return (len(live) == len(recovered)
            and all(graph.equals(by_name.get(graph.name)) for graph in live))


class Tally:
    """Read and write outcomes of one run, and the checks that failed."""

    def __init__(self) -> None:
        self.read_latency: List[float] = []
        self.write_latency: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.durable = True
        self.refreshes = 0
        self.lock = threading.Lock()

    def read(self, latency: float, ok: bool, correct: bool,
             what: str) -> None:
        with self.lock:
            self.attempted += 1
            if ok and correct:
                self.read_latency.append(latency)
                return
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(
                    f"{'wrong answer' if ok else 'failed'}: {what}")

    def write(self, latency: float) -> None:
        with self.lock:
            self.attempted += 1
            self.write_latency.append(latency)


class MatchTotals:
    """Stage times and exact counters summed over library match reports."""

    STAGES = (("retrieve_baseline", "retrieve_baseline"),
              ("prune", "local_pruning"), ("refine", "refine"),
              ("order", "order"), ("search", "search"))
    COUNTS = ("candidates_tried", "check_calls", "partial_states")

    def __init__(self) -> None:
        self.queries = 0
        self.seconds = Counter()
        self.counts = Counter()
        self.log_retrieved = 0.0
        self.log_refined = 0.0

    def add(self, reports) -> None:
        """Account one query's reports (one per data graph)."""
        self.queries += 1
        retrieved = refined = 0
        for report in reports:
            stats = report.stats_dict()
            for name, key in self.STAGES:
                self.seconds[name] += stats["times"].get(key, 0.0)
            retrieved += stats["spaces"]["retrieved"]
            refined += stats["spaces"]["refined"]
            if stats["search"] is not None:
                for key in self.COUNTS + ("results",):
                    self.counts[key] += stats["search"][key]
            if stats["refinement"] is not None:
                self.counts["refine_pairs_removed"] += \
                    stats["refinement"]["pairs_removed"]
            self.counts["degradations"] += len(report.degradation)
        self.log_retrieved += math.log10(1 + retrieved)
        self.log_refined += math.log10(1 + refined)

    def metrics(self) -> Dict[str, float]:
        n = max(1, self.queries)
        out = {f"matching.{name}_ms": ms(self.seconds[name]) / n
               for name, _ in self.STAGES}
        out["matching.retrieved_space_log10"] = self.log_retrieved / n
        out["matching.refined_space_log10"] = self.log_refined / n
        for key in self.COUNTS + ("refine_pairs_removed", "degradations"):
            out[f"matching.{key}"] = self.counts[key]
        out["matching.search_yield"] = (
            self.counts["results"] / self.counts["candidates_tried"]
            if self.counts["candidates_tried"] else 0.0)
        return out

    def shares(self) -> Dict[str, float]:
        total = sum(self.seconds.values()) or 1.0
        return {name: self.seconds[name] / total for name, _ in self.STAGES}


class Workload:
    """Shared workload code; subclasses supply the layer calls."""

    name = ""
    #: label tuples of every query, with their shape, for the reference
    queries: List[Query]

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.edits: List[Edit] = []
        self.stores = 0

    # -- inputs and reference ---------------------------------------------

    def fingerprint(self) -> str:
        return fingerprint(list(self.sample()), self.edits)

    def sample(self):
        """The first queries the run sends (for :meth:`fingerprint`)."""
        return self.stream(200)

    def build_reference(self, graphs) -> None:
        #: the data graphs the reference was enumerated over
        self.data = list(graphs)
        views = [GraphView(graph) for graph in self.data]
        self.expected: Dict[tuple, Any] = {}
        for query in self.queries:
            if query.labels not in self.expected:
                self.expected[query.labels] = reference(views, query.shape,
                                                        query.labels)

    def correct(self, query: Query, rows, truncated: bool) -> bool:
        return check(rows, truncated, LIMIT, self.expected[query.labels])

    def attempt(self, read, query: Query, tally: Tally, *args) -> None:
        """One timed-loop read; a read that raises counts as failed."""
        try:
            read(query, *args)
        except Exception as exc:
            tally.read(0.0, False, False, f"{query.text} raised {exc!r}")

    # -- store phase --------------------------------------------------------

    def store_path(self, tag: str) -> Path:
        """A new store location under the run's work directory."""
        self.stores += 1
        path = self.workdir / f"{tag}{self.stores}" / "store.db"
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def store_phase(self, collection, graphs: Dict[str, Any], tally: Tally,
                    spans: Spans, refresh=None) -> Dict[str, float]:
        """Durable writes of the workload's document through the library.

        The workloads without writes of their own end with
        ``STORE_WRITES`` edits, each followed by a durable register of
        the whole document, then close the store without a checkpoint
        and reopen it, checking that recovery restores the live graphs.
        """
        path = self.store_path("store")
        database = open_store(path)
        database.register_durable("data", collection)
        before = store_bytes(path)
        for edit in self.edits:
            with spans.span("bench.write", request=f"w{len(tally.write_latency)}"):
                started = time.perf_counter()
                with spans.span("storage.register"):
                    edit.apply(graphs[edit.graph])
                    database.register_durable("data", collection)
                tally.write(time.perf_counter() - started)
                if refresh is not None:
                    with spans.span("index.refresh"):
                        tally.refreshes += refresh(edit.graph)
        return self.close_and_recover(
            path, before, collection,
            lambda: database.close_store(checkpoint=False),
            lambda: open_store(path), spans, tally)

    def close_and_recover(self, path: Path, before: int, collection,
                          close, reopen, spans: Spans,
                          tally: Tally) -> Dict[str, float]:
        """Close the store without a checkpoint, time *reopen* (which
        replays the WAL) and compare what it recovered with the live
        graphs."""
        after = store_bytes(path)
        close()
        started = time.perf_counter()
        with spans.span("storage.recover"):
            database = reopen()
        recovery_s = time.perf_counter() - started
        recovered = list(database.doc("data"))
        if not same_documents(list(collection), recovered):
            tally.durable = False
            tally.problems.append("durability: recovered document differs "
                                  "from the live graphs")
        database.close_store(checkpoint=False)
        writes = max(1, len(tally.write_latency))
        return {
            "store_bytes_per_user_byte": after / fresh_store_bytes(
                collection, self.store_path("fresh")),
            "storage.wal_bytes_per_write": (after - before) / writes,
            "storage.recovery_s": recovery_s,
        }


# ---------------------------------------------------------------------------
# ppi_cliques: the library alone
# ---------------------------------------------------------------------------


class PpiCliques(Workload):
    """Fig. 4.21's workload: size-3..6 cliques over the PPI network."""

    name = "ppi_cliques"
    PER_SIZE = 100
    #: writes of the store phase; each re-registers the whole 1 MB graph
    STORE_WRITES = 10

    def __init__(self, seed, seconds, workdir) -> None:
        super().__init__(seed, seconds, workdir)
        graph = ppi_network()
        self.queries = clique_queries(graph, self.PER_SIZE,
                                      random.Random(POOL_SEED), "Q")
        self.edits = edge_edits([graph], self.STORE_WRITES, self.rng)
        self.build_reference([graph])
        self.patterns = {q.text: compile_pattern_text(q.text).ground()[0]
                         for q in self.queries}

    def stream(self, count: Optional[int] = None):
        """The query order: seeded shuffles of the pool, pass by pass."""
        queries = passes(self.queries, random.Random(self.seed * 31 + 1))
        return itertools.islice(queries, count)

    def setup(self) -> Dict[str, Any]:
        graph = ppi_network()
        matcher = GraphMatcher(graph)
        first = self.queries[0]
        matcher.match(self.patterns[first.text], MatchOptions(limit=LIMIT))
        return {"graph": graph, "matcher": matcher}

    def teardown(self, state) -> None:
        state.clear()

    def pids(self, state) -> List[int]:
        return []

    def read(self, state, query: Query, tally: Tally):
        started = time.perf_counter()
        report = state["matcher"].match(self.patterns[query.text],
                                        MatchOptions(limit=LIMIT))
        latency = time.perf_counter() - started
        rows = [row_key(state["graph"].name, m.nodes, m.edges)
                for m in report.mappings]
        ok = report.outcome.status in GOOD
        tally.read(latency, ok, ok and self.correct(
            query, rows, len(rows) >= LIMIT), query.text)
        return report, latency

    def measure(self, state) -> Dict[str, float]:
        tally = Tally()
        started = time.perf_counter()
        deadline = started + self.seconds
        for query in self.stream():
            if time.perf_counter() >= deadline:
                break
            self.attempt(lambda q: self.read(state, q, tally), query, tally)
        wall = time.perf_counter() - started
        graph = state["graph"]
        store = self.store_phase(GraphCollection([graph]),
                                 {graph.name: graph}, tally, Spans())
        return {"tally": tally, "wall": wall, "store": store}

    def replay(self, state, spans: Spans, traced: bool) -> Dict[str, Any]:
        tally, totals = Tally(), MatchTotals()
        main = 0.0
        for i, query in enumerate(self.stream(REPLAY_OPS[self.name])):
            with spans.span("bench.op", request=f"r{i}"):
                with spans.span("matching.match"):
                    report, latency = self.read(state, query, tally)
                main += latency
                totals.add([report])
                with spans.span("analysis.validate"):
                    analyze_pattern_text(query.text)
                with spans.span("lang.compile"):
                    compile_pattern_text(query.text)
        result = {"tally": tally, "main": main, "totals": totals}
        if not traced:
            return result
        graph, matcher = state["graph"], state["matcher"]
        with spans.span("index.build"):
            GraphMatcher(graph)
        result["store"] = self.store_phase(
            GraphCollection([graph]), {graph.name: graph}, tally, spans,
            refresh=lambda _: matcher.refresh())
        return result


# ---------------------------------------------------------------------------
# service_rw: the service with a durable store, reads beside writes
# ---------------------------------------------------------------------------


class Gate:
    """Readers share it; the writer's in-place edit excludes them.

    The edit mutates the live graph that worker threads read, so it
    waits for the other client's request in flight; the durable
    register that follows runs beside reads.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    def enter(self) -> None:
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1

    def leave(self) -> None:
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    def edit(self, apply) -> None:
        with self._cond:
            self._writing = True
            while self._readers:
                self._cond.wait()
        try:
            apply()
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class ServiceRw(Workload):
    """The PPI graph behind a 2-worker QueryService with a durable store."""

    name = "service_rw"
    HOT, COLD_PER_SIZE = 12, 100
    #: share of reads sent to the hot set; kept well below the hit share
    #: that would put the read median on the hit/miss boundary
    HOT_SHARE = 0.3
    CLIENTS = 2

    def __init__(self, seed, seconds, workdir) -> None:
        super().__init__(seed, seconds, workdir)
        graph = ppi_network()
        writes = max(REPLAY_OPS[self.name] // (2 * WRITE_EVERY),
                     round(WRITES_PER_SECOND * seconds))
        self.cold = clique_queries(graph, self.COLD_PER_SIZE,
                                   random.Random(POOL_SEED), "C")
        # a fresh hot set after every write: each stays cache hits until
        # the next write invalidates it, and the run's hot queries are
        # many draws of the recipe, not a dozen
        per_size = -(-self.HOT * (writes + 1) // len(CLIQUE_SIZES)) + 2
        hot = clique_queries(graph, per_size, random.Random(POOL_SEED + 1),
                             "H")
        self.rng.shuffle(hot)
        self.hot_sets = [hot[i * self.HOT:(i + 1) * self.HOT]
                         for i in range(writes + 1)]
        self.queries = hot + self.cold
        # edits touch only nodes whose labels no query asks for, so the
        # reference computed once stays right after every write
        self.edits = edge_edits([graph], writes, self.rng,
                                avoid_labels=labels_in(self.queries))
        self.build_reference([graph])

    def client_stream(self, client: int, tally: Tally):
        """Reads of one client: the current hot set, or the cold pool.

        A cold read's text is unique by its pattern name, so it misses
        the caches however fast the run goes; otherwise the hit share,
        and with it the read median, would follow the program's speed.
        """
        rng = random.Random(self.seed * 131 + client)
        cold = passes(self.cold, random.Random(self.seed * 137 + client))
        for sent in itertools.count():
            if rng.random() < self.HOT_SHARE:
                hot = self.hot_sets[len(tally.write_latency)]
                yield hot[rng.randrange(len(hot))]
            else:
                labels = next(cold).labels
                yield Query("clique", labels,
                            clique_text(f"C{client}x{sent}", labels))

    def sample(self):
        streams = [self.client_stream(c, Tally()) for c in range(self.CLIENTS)]
        for _ in range(100):
            for stream in streams:
                yield next(stream)

    def setup(self) -> Dict[str, Any]:
        graph = ppi_network()
        path = self.store_path("service")
        service = QueryService(ServiceConfig(
            workers=2, store_path=str(path), fsync="commit"))
        service.register("data", graph)
        warm = self.cold[0]
        service.execute(warm.text, client="warmup", limit=LIMIT,
                        use_cache=False)
        #: query text -> the row list object last checked for it
        self.verified: Dict[str, Any] = {}
        return {"graph": graph, "service": service, "path": path,
                "store_before": store_bytes(path), "closed": False}

    def teardown(self, state) -> None:
        if not state["closed"]:
            state["service"].shutdown()
            state["closed"] = True

    def pids(self, state) -> List[int]:
        return []

    def read(self, state, query: Query, client: int, tally: Tally):
        started = time.perf_counter()
        response = state["service"].submit(QueryRequest(
            query=query.text, client=f"c{client}", limit=LIMIT)).result()
        latency = time.perf_counter() - started
        ok = response.error is None and response.outcome.status in GOOD
        # a cache hit hands back the very row list an earlier reply of
        # this text carried; re-checking it would only spend the GIL the
        # other client's request needs
        correct = ok and (self.verified.get(query.text) is response.results
                          or self.correct(query, [wire_key(row) for row in
                                                  response.results],
                                          response.outcome.status
                                          is Outcome.TRUNCATED))
        if correct and response.cache == "hit":
            self.verified[query.text] = response.results
        tally.read(latency, ok, correct,
                   f"{query.text} -> {response.outcome.status.value} "
                   f"{response.error or ''}")
        return response, latency

    def write(self, state, edit: Edit, gate: Optional[Gate], tally: Tally,
              spans: Spans) -> None:
        graph = state["graph"]
        started = time.perf_counter()
        with spans.span("storage.register"):
            if gate is None:
                edit.apply(graph)
            else:
                gate.edit(lambda: edit.apply(graph))
            state["service"].register("data", graph)
        tally.write(time.perf_counter() - started)

    def finish(self, state, tally: Tally, spans: Spans) -> Dict[str, float]:
        """Close the store without a checkpoint; recover it afresh."""
        service = state["service"]

        def close() -> None:
            service.database.close_store(checkpoint=False)
            service.shutdown()
            state["closed"] = True

        def reopen():
            # a service that never ran a query has no pool to stop
            return QueryService(
                ServiceConfig(store_path=str(state["path"]))).database

        return self.close_and_recover(
            state["path"], state["store_before"],
            GraphCollection([state["graph"]]), close, reopen, spans, tally)

    def measure(self, state) -> Dict[str, float]:
        tally, gate = Tally(), Gate()
        # per client, so no two threads update one counter
        caches = [Counter() for _ in range(self.CLIENTS)]
        started = time.perf_counter()
        deadline = started + self.seconds
        slots = [started + (k + 0.5) * self.seconds / len(self.edits)
                 for k in range(len(self.edits))]
        pending = list(self.edits)
        errors: List[BaseException] = []

        def read(query: Query, client: int) -> None:
            gate.enter()
            try:
                response, _ = self.read(state, query, client, tally)
            finally:
                gate.leave()
            caches[client][response.cache] += 1

        def client(index: int) -> None:
            try:
                stream = self.client_stream(index, tally)
                while True:
                    now = time.perf_counter()
                    if index == 0 and pending and (now >= slots[0]
                                                   or now >= deadline):
                        slots.pop(0)
                        self.write(state, pending.pop(0), gate, tally,
                                   Spans())
                        continue
                    if now >= deadline:
                        return
                    self.attempt(lambda q: read(q, index), next(stream),
                                 tally)
            except BaseException as exc:  # reported after the join
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if errors:
            raise errors[0]
        store = self.finish(state, tally, Spans())
        replies = sum(caches, Counter())
        return {"tally": tally, "wall": wall, "store": store,
                "hit_share": replies["hit"] / max(1, sum(replies.values()))}

    def replay(self, state, spans: Spans, traced: bool) -> Dict[str, Any]:
        """Both clients' streams, interleaved op by op on one thread."""
        tally, totals = Tally(), MatchTotals()
        service, graph = state["service"], state["graph"]
        local = GraphDatabase()
        local.register("data", graph)
        with spans.span("index.build"):
            local.matcher_for(graph)
        stats_before = service.stats()
        streams = [self.client_stream(c, tally)
                   for c in range(self.CLIENTS)]
        edits = iter(self.edits)
        latency = {"hit": [], "miss": []}
        overhead: List[float] = []
        main = 0.0
        for i in range(REPLAY_OPS[self.name]):
            client = i % self.CLIENTS
            turn = i // self.CLIENTS + 1
            if client == 0 and turn % WRITE_EVERY == 0:
                edit = next(edits)
                with spans.span("bench.write", request=f"w{i}"):
                    self.write(state, edit, None, tally, spans)
                    with spans.span("index.refresh"):
                        tally.refreshes += local.matcher_for(graph).refresh()
                continue
            query = next(streams[client])
            with spans.span("bench.op", request=f"r{i}"):
                with spans.span("service.submit"):
                    response, took = self.read(state, query, client, tally)
                main += took
                latency.setdefault(response.cache, []).append(took)
                with spans.span("analysis.validate"):
                    analyze_pattern_text(query.text)
                with spans.span("lang.compile"):
                    pattern = compile_pattern_text(query.text)
                with spans.span("matching.match") as span:
                    reports = local.match("data", pattern, MatchOptions(
                        limit=LIMIT, compute_baseline=False))
                totals.add(reports.values())
                if response.cache == "miss" and span is not None:
                    overhead.append(took - span.seconds)
        result = {"tally": tally, "main": main, "totals": totals,
                  "latency": latency, "overhead": overhead,
                  "stats_before": stats_before, "stats": service.stats()}
        if traced:
            result["store"] = self.finish(state, tally, spans)
        return result


# ---------------------------------------------------------------------------
# cluster_fanout: a molecule collection over two shard processes
# ---------------------------------------------------------------------------


class ClusterFanout(Workload):
    """Label-path queries over a 2-shard, R=1 local cluster."""

    name = "cluster_fanout"
    MOLECULES, MOLECULE_SEED = 240, 31
    #: writes of the store phase: cheap ones, whose fsync-bound times
    #: need more samples for a steady median
    STORE_WRITES = 30
    HOT, HOT_SHARE = 8, 0.2

    def __init__(self, seed, seconds, workdir) -> None:
        super().__init__(seed, seconds, workdir)
        collection = molecule_collection(self.MOLECULES,
                                         seed=self.MOLECULE_SEED)
        self.hot = [Query("path", labels, path_text(f"H{i}", labels))
                    for i, labels in enumerate(
                        path_labels(self.rng) for _ in range(self.HOT))]
        # the reference covers every label path a fresh query can ask
        # for, so fresh queries are drawn independently op by op
        self.queries = self.hot + [Query("path", labels, "")
                                   for labels in all_path_labels()]
        self.edits = edge_edits(list(collection), self.STORE_WRITES,
                                self.rng)
        self.build_reference(collection)

    def stream(self, count: Optional[int] = None):
        """About 80% fresh texts (never sent before), 20% hot repeats.

        A fresh query's text is unique by its pattern name, so neither
        the coordinator's nor a shard's cache has seen it.
        """
        rng = random.Random(self.seed * 17 + 3)
        sent = 0
        while count is None or sent < count:
            if rng.random() < self.HOT_SHARE:
                yield self.hot[rng.randrange(self.HOT)]
            else:
                labels = path_labels(rng)
                yield Query("path", labels, path_text(f"F{sent}", labels))
            sent += 1

    def setup(self) -> Dict[str, Any]:
        collection = molecule_collection(self.MOLECULES,
                                         seed=self.MOLECULE_SEED)
        cluster = launch_cluster(collection, 2, replication_factor=1,
                                 workdir=self.store_path("cluster").parent)
        try:
            coordinator = cluster.coordinator()
            coordinator.query(path_text("Warmup", self.hot[0].labels),
                              limit=LIMIT)
        except BaseException:
            cluster.shutdown()
            raise
        return {"collection": collection, "cluster": cluster,
                "coordinator": coordinator, "closed": False}

    def teardown(self, state) -> None:
        if not state["closed"]:
            state["cluster"].shutdown()
            state["closed"] = True

    def pids(self, state) -> List[int]:
        return [shard.process.pid
                for shard in state["cluster"].shards.values()]

    def read(self, state, query: Query, tally: Tally):
        started = time.perf_counter()
        reply = state["coordinator"].query(query.text, limit=LIMIT)
        latency = time.perf_counter() - started
        ok = reply.error is None and reply.outcome.status in GOOD
        rows = [wire_key(row) for row in reply.results]
        tally.read(latency, ok, ok and self.correct(
            query, rows, reply.outcome.status is Outcome.TRUNCATED),
            f"{query.text} -> {reply.outcome.status.value}")
        return reply, latency

    def graphs(self, state) -> Dict[str, Any]:
        return {graph.name: graph for graph in state["collection"]}

    def measure(self, state) -> Dict[str, float]:
        tally = Tally()
        started = time.perf_counter()
        deadline = started + self.seconds
        for query in self.stream():
            if time.perf_counter() >= deadline:
                break
            self.attempt(lambda q: self.read(state, q, tally), query, tally)
        wall = time.perf_counter() - started
        store = self.store_phase(state["collection"], self.graphs(state),
                                 tally, Spans())
        return {"tally": tally, "wall": wall, "store": store}

    def replay(self, state, spans: Spans, traced: bool) -> Dict[str, Any]:
        tally, totals = Tally(), MatchTotals()
        collection = state["collection"]
        local = GraphDatabase()
        local.register("data", collection)
        with spans.span("index.build"):
            for graph in collection:
                local.matcher_for(graph)
        shard0 = state["cluster"].shards["shard0"]
        direct = ServiceClient(shard0.host, shard0.port,
                               client_name="bench-direct")
        legs: Dict[str, List[float]] = {"slowest": [], "overhead": [],
                                        "skew": [], "wire": []}
        rows = fanouts = hits = failovers = partial = 0
        main = 0.0
        try:
            for i, query in enumerate(self.stream(REPLAY_OPS[self.name])):
                with spans.span("bench.op", request=f"r{i}"):
                    with spans.span("cluster.query"):
                        reply, took = self.read(state, query, tally)
                    main += took
                    detail = reply.outcome.detail.get("shards", {})
                    if reply.cache == "hit":
                        hits += 1
                    elif detail:
                        fanouts += 1
                        rows += len(reply.results)
                        elapsed = [leg["elapsed"] for leg in detail.values()]
                        failovers += sum(leg.get("failovers", 0)
                                         for leg in detail.values())
                        legs["slowest"].append(max(elapsed))
                        legs["overhead"].append(took - max(elapsed))
                        legs["skew"].append(max(elapsed)
                                            / max(min(elapsed), 1e-9))
                    partial += reply.partial
                    with spans.span("analysis.validate"):
                        analyze_pattern_text(query.text)
                    with spans.span("lang.compile"):
                        pattern = compile_pattern_text(query.text)
                    if reply.cache != "hit":
                        with spans.span("matching.match"):
                            reports = local.match("data", pattern,
                                                  MatchOptions(
                                                      limit=LIMIT,
                                                      compute_baseline=False))
                        totals.add(reports.values())
                    with spans.span("service.client_query"):
                        sent = time.perf_counter()
                        answer = direct.query(query.text, limit=LIMIT)
                        round_trip = time.perf_counter() - sent
                    legs["wire"].append(round_trip
                                        - float(answer.raw["elapsed"]))
        finally:
            direct.close()
        result = {"tally": tally, "main": main, "totals": totals,
                  "legs": legs, "rows": rows, "fanouts": fanouts,
                  "hits": hits, "failovers": failovers, "partial": partial}
        if traced:
            graphs = self.graphs(state)
            result["store"] = self.store_phase(
                collection, graphs, tally, spans,
                refresh=lambda name: local.matcher_for(graphs[name]).refresh())
        return result


WORKLOADS = {cls.name: cls for cls in (PpiCliques, ServiceRw, ClusterFanout)}


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
