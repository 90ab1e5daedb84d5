"""The :class:`QueryService` facade: concurrent queries over registered graphs.

One service wraps one :class:`~repro.storage.database.GraphDatabase` and
adds everything the library-level matcher lacks for serving traffic:

* a bounded worker-thread pool,
* admission control (global + per-client bounds, structured rejection),
* a prepared-query/plan cache and a version-invalidated result cache,
* per-request :class:`~repro.runtime.ExecutionContext` governance with
  cancellation by request id,
* metrics for every decision the service takes.

The synchronous entry point is :meth:`QueryService.execute`; concurrent
callers use :meth:`QueryService.submit`, which never blocks — it returns
a future that resolves to a :class:`QueryResponse` (possibly an
already-resolved ``REJECTED`` one).
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.pattern import GraphPattern, GroundPattern
from ..lang.compiler import compile_pattern_text
from ..matching.planner import baseline_options, optimized_options
from ..obs.metrics import MetricsRegistry, render_prometheus
from ..obs.slowlog import SlowQueryEntry, SlowQueryLog
from ..obs.trace import span as trace_span, tracer
from ..runtime import (
    CancellationToken,
    Outcome,
    QueryOutcome,
    rejected_outcome,
    shed_outcome,
)
from ..storage.database import GraphDatabase
from .admission import (
    REASON_DRAINING,
    REASON_DUPLICATE_ID,
    REASON_INVALID_QUERY,
    AdmissionController,
)
from .cache import CachedPlan, LRUCache, PlanCache, ResultCache, make_key
from .config import ServiceConfig
from .metrics import ServiceMetrics
from .resilience import BreakerRegistry, QueueWaitEstimator

logger = logging.getLogger(__name__)

_request_ids = itertools.count(1)


def _next_request_id() -> str:
    return f"q{next(_request_ids)}"


PatternLike = Union[str, GraphPattern, GroundPattern]


@dataclass
class QueryRequest:
    """One query submission.

    ``query`` is GraphQL pattern text or an already compiled pattern;
    only text queries are cacheable (a compiled object has no stable
    cache identity).  The governance fields may tighten, never exceed,
    the service defaults.
    """

    query: PatternLike
    document: str = "data"
    client: str = "anon"
    request_id: str = field(default_factory=_next_request_id)
    limit: Optional[int] = None
    timeout: Optional[float] = None
    max_steps: Optional[int] = None
    max_memory: Optional[int] = None
    baseline: bool = False
    use_cache: bool = True
    #: remote trace context ``(trace_id, parent_span_id)`` received over
    #: the wire; the request's root span joins that distributed trace
    trace_parent: Optional[Tuple[int, int]] = None


@dataclass
class QueryResponse:
    """One query's answer: rows plus the structured outcome.

    ``results`` rows are JSON-ready dicts
    (``{"graph": name, "nodes": {...}, "edges": {...}}``), ``cache`` is
    ``"hit"`` / ``"miss"`` / ``"bypass"``, and ``error`` carries a
    compile/internal failure message (rows empty, outcome still present).
    """

    request_id: str
    client: str = "anon"
    results: List[Dict[str, Any]] = field(default_factory=list)
    outcome: QueryOutcome = field(default_factory=QueryOutcome)
    cache: str = "bypass"
    elapsed: float = 0.0
    error: Optional[str] = None
    #: planner fallback notes (one per degradation the matcher took)
    degradation: List[str] = field(default_factory=list)
    #: seconds after which a SHED request is worth retrying (the
    #: observed p95 queue wait, or the breaker's remaining cooldown)
    retry_after: Optional[float] = None

    @property
    def rejected(self) -> bool:
        """Whether admission control turned this request away."""
        return self.outcome.status is Outcome.REJECTED

    @property
    def shed(self) -> bool:
        """Whether load shedding / an open breaker turned this away."""
        return self.outcome.status is Outcome.SHED

    def to_dict(self) -> Dict[str, Any]:
        """The wire form of this response (protocol payload)."""
        payload = {
            "request_id": self.request_id,
            "client": self.client,
            "results": self.results,
            "outcome": self.outcome.to_dict(),
            "cache": self.cache,
            "elapsed": self.elapsed,
            "error": self.error,
            "degradation": list(self.degradation),
        }
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload


@dataclass
class _Inflight:
    """One admitted request's service-side state.

    ``hard_deadline`` (monotonic seconds) is the watchdog's wall: a
    request unfinished past it is considered stuck and abandoned.  It
    is anchored at submit but *re-anchored* when a worker actually
    starts the request, so time spent merely queued behind a backlog
    never counts as "stuck worker".  ``claimed`` flips when a worker
    thread actually starts the request, which is what lets a pool
    recycle resubmit still-queued work without double-running it.
    """

    request: QueryRequest
    token: CancellationToken
    future: "Future[QueryResponse]"
    submitted_at: float
    root: Any = None
    #: watchdog wall-clock budget (seconds) once a worker starts the
    #: request; None when the request has no effective timeout
    watchdog_budget: Optional[float] = None
    hard_deadline: Optional[float] = None
    claimed: bool = False


class QueryService:
    """Concurrent query execution with admission control and caching."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        database: Optional[GraphDatabase] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.database = database or GraphDatabase()
        self.registry = MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry)
        self.slow_log = SlowQueryLog(self.config.slow_log_size,
                                     self.config.slow_log_threshold)
        self.admission = AdmissionController(self.config)
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self.result_cache = ResultCache(self.config.result_cache_size)
        #: query text -> tuple of error-severity diagnostic dicts
        #: (empty tuple == valid); consulted at admission, microseconds
        self._validation_cache = LRUCache(self.config.validation_cache_size)
        self.breakers = BreakerRegistry(
            threshold=max(1, self.config.breaker_threshold),
            cooldown=self.config.breaker_cooldown)
        self.queue_wait = QueueWaitEstimator(
            window=self.config.shed_window,
            min_samples=self.config.shed_min_samples)
        self._register_gauges()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._in_flight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._watchdog: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()
        #: test seam: called on the worker thread right before a query
        #: executes (the recycling tests inject an uncooperative sleep)
        self.execute_hook: Optional[Callable[[QueryRequest], None]] = None
        #: what opening the durable store found/repaired (None without one)
        self.recovery = None
        if self.config.store_path:
            self.recovery = self.database.attach_durable(
                self.config.store_path, fsync=self.config.fsync)
            if not self.recovery.clean:
                logger.warning("store recovery ran: %s",
                               self.recovery.to_dict())

    def _register_gauges(self) -> None:
        """Live state exposed as callback gauges (read at scrape time)."""
        reg = self.registry
        reg.gauge("repro_service_in_flight",
                  "Requests admitted and not yet finished.",
                  fn=lambda: self.admission.in_flight)
        reg.gauge("repro_service_draining",
                  "1 while the service refuses new admissions.",
                  fn=lambda: int(self.admission.draining))
        reg.gauge("repro_service_documents",
                  "Registered document collections.",
                  fn=lambda: len(self.database.names()))
        reg.gauge("repro_service_result_cache_size",
                  "Entries in the result cache.",
                  fn=lambda: self.result_cache.stats()["size"])
        reg.gauge("repro_service_plan_cache_size",
                  "Entries in the plan cache.",
                  fn=lambda: self.plan_cache.stats()["size"])

        def _wal_bytes() -> int:
            store = self.database.durable_store
            if store is not None and store.wal:
                return store.wal.size
            return 0

        reg.gauge("repro_store_wal_bytes",
                  "Bytes in the write-ahead log (0 without a store).",
                  fn=_wal_bytes)
        reg.gauge("repro_service_slow_log_entries",
                  "Entries currently held by the slow-query log.",
                  fn=lambda: len(self.slow_log))
        from .resilience import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN

        for state in (STATE_CLOSED, STATE_OPEN, STATE_HALF_OPEN):
            reg.gauge("repro_service_breaker_clients",
                      "Client circuit breakers by state.",
                      labels={"state": state},
                      fn=lambda s=state: self.breakers.state_counts()
                      .get(s, 0))
        reg.gauge("repro_service_queue_wait_p95_seconds",
                  "Observed p95 admission-to-execution wait "
                  "(0 while the estimator is cold).",
                  fn=lambda: self.queue_wait.p95() or 0.0)

    # -- graph registration ---------------------------------------------------

    def register(self, name: str,
                 collection: Union[GraphCollection, Graph]) -> None:
        """Register a graph/collection.

        With a durable store attached, the document is WAL-committed
        *before* it becomes visible to queries: a registration that
        returned survives a crash."""
        if self.database.durable_store is not None:
            self.database.register_durable(name, collection)
        else:
            self.database.register(name, collection)

    def load(self, name: str, path, directed: bool = False) -> None:
        """Load and register a collection from a GraphQL file."""
        if self.database.durable_store is not None:
            from ..storage.serializer import load_collection

            self.database.register_durable(
                name, load_collection(path, directed=directed))
        else:
            self.database.load(name, path, directed=directed)

    def document_version(self, document: str) -> int:
        """The cache-invalidation counter of one document.

        The sum of the member graphs' mutation counters: bumped by any
        node/edge change, so every cache key derived from it goes stale
        the moment the data does.
        """
        return sum(graph.version for graph in self.database.doc(document))

    # -- the executor ---------------------------------------------------------

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            executor = self._executor
            if executor is None:
                executor = self._executor = ThreadPoolExecutor(
                    max_workers=self.config.workers,
                    thread_name_prefix="repro-query",
                )
            return executor

    # -- submission -----------------------------------------------------------

    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Admit and schedule one request; never blocks.

        The returned future resolves to a :class:`QueryResponse` in every
        case — rejection, shedding and internal errors included — so
        ``submitted == admitted + rejected + shed`` holds without
        exception handling (``stats()["accounting"]`` checks it).
        """
        self.metrics.count("submitted")
        root = tracer().start(
            "service.request", remote=request.trace_parent,
            request_id=request.request_id,
            client=request.client, document=request.document)
        with tracer().activate(root):
            # static analysis first: an invalid query is rejected before
            # admission, breakers or the pool ever see it — no worker,
            # no quota, no probe slot is spent on a request that can
            # only fail
            errors = self._validate(request)
            if errors:
                self.metrics.count("invalid_queries")
                return self._reject(
                    request, REASON_INVALID_QUERY, root=root,
                    detail={"diagnostics": list(errors)}, probe=False)
            with trace_span("service.admission") as sp:
                shed_reason, retry_after = self._shed_check(request)
                if shed_reason is not None:
                    sp.annotate(shed=shed_reason)
                else:
                    reason = self.admission.try_admit(request.client)
                    if reason is not None:
                        sp.annotate(rejected=reason)
            if shed_reason is not None:
                return self._shed(request, shed_reason, retry_after,
                                  root=root)
            if reason is not None:
                return self._reject(request, reason, root=root)
            self.metrics.count("admitted")
            submitted_at = time.perf_counter()

            # serve result-cache hits synchronously: no worker, microseconds
            with trace_span("service.cache_probe") as probe:
                cached = self._cache_lookup(request)
                probe.annotate(hit=cached is not None)
            if cached is not None:
                rows, outcome = cached
                self.metrics.count("result_cache_hits")
                response = QueryResponse(
                    request_id=request.request_id, client=request.client,
                    results=rows, outcome=outcome, cache="hit",
                    elapsed=time.perf_counter() - submitted_at,
                )
                self._finish(request, response, submitted_at, outer=None,
                             root=root, tracked=False)
                done: "Future[QueryResponse]" = Future()
                done.set_result(response)
                return done

            token = CancellationToken()
            outer: "Future[QueryResponse]" = Future()
            budget = self._watchdog_budget_for(request)
            entry = _Inflight(
                request=request, token=token, future=outer,
                submitted_at=submitted_at, root=root,
                watchdog_budget=budget,
                hard_deadline=(None if budget is None
                               else time.monotonic() + budget),
            )
            with self._lock:
                # the id is the cancellation handle, so it must be unique
                # among in-flight requests — a second insert would orphan
                # the first request's token and make cancel() unreachable
                if request.request_id in self._in_flight:
                    self.admission.release(request.client)
                    self.metrics.count("admitted", -1)
                    duplicate = True
                else:
                    self._in_flight[request.request_id] = entry
                    duplicate = False
            if duplicate:
                return self._reject(request, REASON_DUPLICATE_ID, root=root)
            try:
                executor = self._ensure_executor()
                self._ensure_watchdog()
                executor.submit(self._run_local, entry)
            except Exception as exc:  # pool shut down under us => shed load
                logger.warning("submit failed for %s: %s",
                               request.request_id, exc)
                self._release(request)
                self.metrics.count("admitted", -1)
                return self._reject(request, REASON_DRAINING, root=root)
        return outer

    def execute(self, query: PatternLike, **kwargs) -> QueryResponse:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(QueryRequest(query=query, **kwargs)).result()

    def _validate(self, request: QueryRequest) -> Tuple[Dict[str, Any], ...]:
        """Error-severity diagnostics for a textual query (cached).

        Compiled patterns pass through untouched (their text was already
        validated wherever it was compiled), as does everything when
        ``validate_queries`` is off.
        """
        if not self.config.validate_queries:
            return ()
        if not isinstance(request.query, str):
            return ()
        cached = self._validation_cache.get(request.query)
        if cached is not None:
            return cached
        from ..analysis import analyze_pattern_text, errors_only, to_wire

        errors = tuple(
            to_wire(errors_only(analyze_pattern_text(request.query))))
        self._validation_cache.put(request.query, errors)
        return errors

    def _reject(self, request: QueryRequest, reason: str,
                root=None, detail: Optional[Dict[str, Any]] = None,
                probe: bool = True) -> "Future[QueryResponse]":
        # most rejects happen after the breaker check admitted the
        # request, so a HALF_OPEN probe slot may be riding on it;
        # validation rejects (probe=False) precede the breaker check
        if probe:
            self._release_probe(request.client)
        self.metrics.count("rejected")
        self.metrics.record_outcome(Outcome.REJECTED)
        outcome = rejected_outcome(reason)
        if detail:
            outcome.detail.update(detail)
        response = QueryResponse(
            request_id=request.request_id, client=request.client,
            outcome=outcome, cache="bypass",
        )
        if root is not None:
            root.annotate(status=Outcome.REJECTED.value, reason=reason)
            root.finish()
        done: "Future[QueryResponse]" = Future()
        done.set_result(response)
        return done

    # -- resilience: shedding, breakers, the watchdog -------------------------

    def _shed_check(
            self, request: QueryRequest
    ) -> Tuple[Optional[str], Optional[float]]:
        """Whether to shed this request, plus a retry-after hint.

        Two reasons to shed: the client's circuit breaker is open, or
        the request's whole deadline is below the observed p95 queue
        wait — it would expire in the queue, so starting it only wastes
        a worker.
        """
        if self.config.breaker_threshold > 0:
            allowed, retry_after = self.breakers.allow(request.client)
            if not allowed:
                self.metrics.record_shed("breaker")
                return (f"circuit breaker open for client "
                        f"{request.client!r}", retry_after)
        if self.config.shed_enabled:
            effective = self.config.tighten(request.timeout,
                                            self.config.default_timeout)
            if effective is not None:
                p95 = self.queue_wait.p95()
                if p95 is not None and effective < p95:
                    self.metrics.record_shed("deadline")
                    # the breaker may have just spent its HALF_OPEN
                    # probe slot on this request: give it back
                    self._release_probe(request.client)
                    return (f"deadline {effective:g}s is below the "
                            f"observed p95 queue wait {p95:.3f}s",
                            round(p95, 3))
        return None, None

    def _release_probe(self, client: str) -> None:
        """Return a breaker probe slot taken by a request that was
        turned away before it could execute.

        Without this, a HALF_OPEN probe shed/rejected downstream would
        resolve to neither success nor failure and the slot would stay
        occupied until the lost-probe timeout."""
        if self.config.breaker_threshold > 0:
            self.breakers.release_probe(client)

    def _shed(self, request: QueryRequest, reason: str,
              retry_after: Optional[float],
              root=None) -> "Future[QueryResponse]":
        self.metrics.record_outcome(Outcome.SHED)
        response = QueryResponse(
            request_id=request.request_id, client=request.client,
            outcome=shed_outcome(reason), cache="bypass",
            retry_after=retry_after,
        )
        if root is not None:
            root.annotate(status=Outcome.SHED.value, reason=reason)
            root.finish()
        done: "Future[QueryResponse]" = Future()
        done.set_result(response)
        return done

    def _watchdog_budget_for(self, request: QueryRequest) -> Optional[float]:
        """The watchdog wall-clock budget of one request, or None.

        A worker that has not produced a result after
        ``watchdog_multiple`` times the request's *effective* timeout is
        wedged — the cooperative deadline inside the worker fired long
        ago and was ignored.  Requests with no effective timeout are
        never watched (there is no deadline to multiply).
        """
        if self.config.watchdog_multiple <= 0:
            return None
        effective = self.config.tighten(request.timeout,
                                        self.config.default_timeout)
        if effective is None:
            return None
        return self.config.watchdog_multiple * effective

    def _record_breaker(self, request: QueryRequest,
                        response: QueryResponse) -> None:
        """Feed one finished request to its client's circuit breaker."""
        if self.config.breaker_threshold <= 0:
            return
        status = response.outcome.status
        if response.error is not None or status is Outcome.TIMED_OUT:
            self.breakers.record(request.client, failed=True)
        elif status in (Outcome.COMPLETE, Outcome.TRUNCATED):
            self.breakers.record(request.client, failed=False)
        else:
            # CANCELLED / REJECTED / SHED are neutral: not the query's
            # fault — but if this request held the HALF_OPEN probe slot
            # it must give it back, or no probe ever resolves
            self.breakers.release_probe(request.client)

    def _ensure_watchdog(self) -> None:
        if self.config.watchdog_multiple <= 0:
            return
        with self._lock:
            if self._watchdog is None and not self._closed:
                self._watchdog = threading.Thread(
                    target=self._watchdog_loop,
                    name="repro-pool-watchdog", daemon=True)
                self._watchdog.start()

    def _watchdog_loop(self) -> None:
        while not self._watchdog_stop.wait(self.config.watchdog_interval):
            try:
                self._watchdog_scan()
            except Exception:  # the watchdog itself must never die
                logger.exception("pool watchdog scan failed")

    def _watchdog_scan(self) -> None:
        """Abandon stuck requests; recycle only when a worker is wedged.

        A request past its hard deadline that no worker ever *started*
        is a queue-backlog casualty, not a stuck worker: it is answered
        TIMED_OUT (its queued work item finds the entry gone and never
        runs), but the pool —
        whose workers are all making progress — is left alone.  Killing
        every worker over a backlog would fail all in-flight requests
        and start a service-wide reset loop exactly when the service is
        busiest.
        """
        now = time.monotonic()
        with self._lock:
            stuck = [entry for entry in self._in_flight.values()
                     if entry.hard_deadline is not None
                     and now > entry.hard_deadline]
        if not stuck:
            return
        wedged = 0
        for entry in stuck:
            if entry.claimed:
                wedged += 1
            self._abandon(entry, stuck_worker=entry.claimed)
        if wedged:
            self._recycle_pool(
                f"{wedged} request(s) stuck past their hard deadline")
        else:
            logger.warning(
                "watchdog: abandoned %d queued request(s) past their hard "
                "deadline; pool left alone (no worker had started them)",
                len(stuck))

    def _abandon(self, entry: _Inflight, stuck_worker: bool = True) -> None:
        """Answer a stuck request TIMED_OUT and free its slot.

        The wedged worker may still complete eventually; its late
        ``_finish`` finds the entry gone and drops the result instead of
        double-releasing admission.  ``stuck_worker`` is False for a
        request no worker ever started (abandoned over a queue backlog,
        or a failed resubmit after a recycle).
        """
        request = entry.request
        with self._lock:
            if self._in_flight.get(request.request_id) is not entry:
                return  # finished (or already abandoned) in the race
            del self._in_flight[request.request_id]
        self.admission.release(request.client)
        if stuck_worker:
            reason = (f"watchdog: no result after "
                      f"{self.config.watchdog_multiple:g}x the effective "
                      f"timeout; worker recycled")
        else:
            reason = (f"watchdog: still queued after "
                      f"{self.config.watchdog_multiple:g}x the effective "
                      f"timeout; abandoned without running")
        entry.token.cancel(reason)
        self.metrics.count("watchdog_recycles" if stuck_worker
                           else "watchdog_abandoned")
        latency = time.perf_counter() - entry.submitted_at
        response = QueryResponse(
            request_id=request.request_id, client=request.client,
            outcome=QueryOutcome(status=Outcome.TIMED_OUT, reason=reason,
                                 elapsed=latency),
            cache="bypass", elapsed=latency,
        )
        self.metrics.record_outcome(Outcome.TIMED_OUT, latency=latency)
        self._record_breaker(request, response)
        if entry.root is not None:
            entry.root.annotate(status=Outcome.TIMED_OUT.value,
                                watchdog="recycled")
            entry.root.finish()
        self._record_slow(request, response, latency, entry.root)
        if not entry.future.done():
            entry.future.set_result(response)

    def _recycle_pool(self, reason: str) -> None:
        """Replace the worker pool without waiting for wedged workers.

        The old executor is shut down without waiting (stuck threads
        finish on their own time and their late results are dropped);
        work that was still *queued* is resubmitted on the fresh
        executor, so only the stuck requests pay.
        """
        logger.warning("recycling the worker pool: %s", reason)
        with self._lock:
            executor, self._executor = self._executor, None
            queued = [entry for entry in self._in_flight.values()
                      if not entry.claimed]
        if executor is None:
            return
        executor.shutdown(wait=False, cancel_futures=True)
        if queued:
            fresh = self._ensure_executor()
            for entry in queued:
                try:
                    fresh.submit(self._run_local, entry)
                except Exception:
                    self._abandon(entry, stuck_worker=False)

    # -- execution ------------------------------------------------------------

    def _options_for(self, request: QueryRequest):
        limit = request.limit
        if self.config.default_max_results is not None:
            limit = (self.config.default_max_results if limit is None
                     else min(limit, self.config.default_max_results))
        build = baseline_options if request.baseline else optimized_options
        # serving path: skip the benchmark-only baseline-space measurement
        return build(limit=limit, compute_baseline=False)

    def _options_key(self, request: QueryRequest) -> Hashable:
        opts = self._options_for(request)
        # every knob that can change the rows a run produces must be part
        # of the key: the planner mode and answer cap, but also the
        # effective step/memory budgets — either can TRUNCATE a run, and
        # a budget-truncated partial answer must never be replayed to a
        # request with looser budgets
        return (
            "baseline" if request.baseline else "optimized",
            opts.limit,
            self.config.tighten(request.max_steps,
                                self.config.default_max_steps),
            self.config.tighten(request.max_memory,
                                self.config.default_max_memory),
        )

    def _cache_key(self, request: QueryRequest):
        """The cache key of a request, or None when uncacheable."""
        if not request.use_cache or not isinstance(request.query, str):
            return None
        try:
            version = self.document_version(request.document)
        except KeyError:
            return None
        return make_key(request.document, request.query,
                        self._options_key(request), version)

    def _cache_lookup(self, request: QueryRequest):
        key = self._cache_key(request)
        if key is None:
            return None
        return self.result_cache.get(key)

    def _compile(self, request: QueryRequest):
        """The compiled pattern, via the plan cache for text queries."""
        if not isinstance(request.query, str):
            return request.query, None
        key = self._cache_key(request)
        if key is None:
            return compile_pattern_text(request.query), None
        plan = self.plan_cache.get(key)
        if plan is not None:
            self.metrics.count("plan_cache_hits")
            return plan.pattern, plan
        self.metrics.count("plan_cache_misses")
        plan = CachedPlan(pattern=compile_pattern_text(request.query))
        self.plan_cache.put(key, plan)
        return plan.pattern, plan

    def _run_local(self, entry: _Inflight) -> None:
        """Worker-thread body: compile, match, serialize, cache.

        ``entry.root`` is the request's trace span started in
        :meth:`submit`; activating it here re-parents this worker
        thread's spans under the submitting request, so concurrent
        requests never interleave.  The claim check makes execution
        exactly-once across pool recycles: a queued work item that was
        both cancelled-and-resubmitted runs on whichever executor claims
        it first, and an entry the watchdog abandoned never starts.
        """
        request, token = entry.request, entry.token
        submitted_at, outer, root = (entry.submitted_at, entry.future,
                                     entry.root)
        with self._lock:
            if (self._in_flight.get(request.request_id) is not entry
                    or entry.claimed):
                return
            entry.claimed = True
            # re-anchor the watchdog wall now that a worker is actually
            # running this request: queue wait is the pool's fault, not
            # the worker's, and must not read as "stuck"
            if entry.watchdog_budget is not None:
                entry.hard_deadline = (time.monotonic()
                                       + entry.watchdog_budget)
        # the queue wait just ended: this sample is what deadline-aware
        # shedding compares incoming deadlines against
        self.queue_wait.observe(time.perf_counter() - submitted_at)
        if self.execute_hook is not None:
            self.execute_hook(request)
        with tracer().activate(root):
            with trace_span("service.execute"):
                context = self.config.derive_context(
                    timeout=request.timeout, max_steps=request.max_steps,
                    max_memory=request.max_memory, token=token,
                )
                # key the caches on the document version *before*
                # execution, so a mutation racing with this query can
                # never publish its results under the post-mutation
                # version
                key = self._cache_key(request)
                rows: List[Dict[str, Any]] = []
                notes: List[str] = []
                error: Optional[str] = None
                try:
                    pattern, plan = self._compile(request)
                    options = self._options_for(request)
                    if plan is not None and len(plan.orders) == 1:
                        options = replace(
                            options,
                            plan_order=next(iter(plan.orders.values())))
                    reports = self.database.match(request.document, pattern,
                                                  options, context=context)
                    for name, report in reports.items():
                        for mapping in report.mappings:
                            rows.append({
                                "graph": name,
                                "nodes": dict(mapping.nodes),
                                "edges": dict(mapping.edges),
                            })
                        for note in report.degradation:
                            notes.append(f"{name}: {note}")
                    if (plan is not None and not plan.orders
                            and isinstance(pattern, GroundPattern)
                            and len(reports) == 1):
                        name, report = next(iter(reports.items()))
                        if report.order:
                            plan.orders[name] = list(report.order)
                    self.metrics.count("executed")
                except Exception as exc:
                    logger.exception("query %s failed", request.request_id)
                    error = str(exc)
                outcome = context.outcome()
                if (error is None and key is not None
                        and self.result_cache.admit(key, rows, outcome)):
                    self.metrics.count("result_cache_misses")
                response = QueryResponse(
                    request_id=request.request_id, client=request.client,
                    results=rows, outcome=outcome,
                    cache="miss" if key is not None else "bypass",
                    elapsed=time.perf_counter() - submitted_at, error=error,
                    degradation=notes,
                )
            self._finish(request, response, submitted_at, outer, root=root)

    def _release(self, request: QueryRequest, tracked: bool = True) -> bool:
        """Free one request's admission slot (idempotent).

        Returns True when this call owned the completion.  ``tracked``
        requests release only if their in-flight entry was still
        present — the watchdog may have abandoned them (and released
        the slot) already.  Untracked requests (cache hits, which never
        enter the in-flight map) always release.
        """
        with self._lock:
            popped = self._in_flight.pop(request.request_id, None) is not None
        if popped or not tracked:
            self.admission.release(request.client)
            return True
        return False

    def _finish(self, request: QueryRequest, response: QueryResponse,
                submitted_at: float,
                outer: Optional["Future[QueryResponse]"],
                root=None, tracked: bool = True) -> None:
        if not self._release(request, tracked=tracked):
            # the watchdog abandoned this request: the client was
            # answered and accounted long ago — drop the late result
            return
        latency = time.perf_counter() - submitted_at
        self.metrics.record_outcome(response.outcome.status, latency=latency)
        self._record_breaker(request, response)
        if root is not None:
            root.annotate(status=response.outcome.status.value,
                          cache=response.cache)
            root.finish()
        self._record_slow(request, response, latency, root)
        if outer is not None and not outer.done():
            outer.set_result(response)

    def _record_slow(self, request: QueryRequest, response: QueryResponse,
                     latency: float, root=None) -> None:
        """Offer one finished request to the slow-query log."""
        if self.slow_log.capacity == 0:
            return
        spans = (root.top_spans() if root is not None and root.enabled
                 else {})
        self.slow_log.record(SlowQueryEntry(
            request_id=request.request_id,
            client=request.client,
            document=request.document,
            query=(request.query if isinstance(request.query, str)
                   else repr(request.query)),
            elapsed=latency,
            status=response.outcome.status.value,
            reason=response.outcome.reason or None,
            cache=response.cache,
            degradation=list(response.degradation),
            spans=spans,
        ))

    # -- lifecycle ------------------------------------------------------------

    def cancel(self, request_id: str,
               reason: str = "cancelled by client") -> bool:
        """Cancel one in-flight request by id (cooperative).

        Returns False when the id is unknown — already finished, never
        admitted, or mistyped.
        """
        with self._lock:
            entry = self._in_flight.get(request_id)
        if entry is None:
            return False
        entry.token.cancel(reason)
        self.metrics.count("cancelled_requests")
        return True

    def cancel_all(self, reason: str = "service shutdown") -> int:
        """Cancel every in-flight request; returns how many were signalled."""
        with self._lock:
            entries = list(self._in_flight.values())
        for entry in entries:
            entry.token.cancel(reason)
        return len(entries)

    def metrics_text(self) -> str:
        """The Prometheus text exposition of this service's registry."""
        return render_prometheus(self.registry)

    def explain(
        self,
        query_text: str,
        document: str = "data",
        analyze: bool = False,
        baseline: bool = False,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """EXPLAIN [ANALYZE] one query against a registered document.

        Bypasses admission/caching — this is an operator tool, not the
        serving path.  ``analyze=True`` runs the query for real under a
        governance context derived from the service defaults.
        """
        from ..analysis import analyze_pattern_text, to_wire
        from ..analysis.schema import schema_for_document
        from ..obs.explain import explain_document  # avoids an import cycle

        request = QueryRequest(query=query_text, document=document,
                               baseline=baseline, limit=limit)
        options = self._options_for(request)
        context = (self.config.derive_context(timeout=timeout)
                   if analyze else None)
        explained = explain_document(
            self.database, document, compile_pattern_text(query_text),
            options, analyze=analyze, context=context)
        # the analyzer's findings ride along (schema-aware: the document
        # is registered, so the observed schema is available for free)
        explained["diagnostics"] = to_wire(analyze_pattern_text(
            query_text, schema_for_document(self.database, document)))
        return explained

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` response: metrics + cache + admission state."""
        snapshot = self.metrics.snapshot()
        snapshot["in_flight"] = self.admission.in_flight
        snapshot["draining"] = self.admission.draining
        snapshot["documents"] = self.database.names()
        snapshot["slow_queries"] = self.slow_log.snapshot()
        # merge the LRU-internal counters without letting their
        # "hits"/"misses" (bumped by every key probe, including the
        # pre-execution lookups) clobber the request-level ones
        for section, cache in (("result_cache", self.result_cache),
                               ("plan_cache", self.plan_cache)):
            lru = cache.stats()
            snapshot[section]["size"] = lru["size"]
            snapshot[section]["capacity"] = lru["capacity"]
            snapshot[section]["evictions"] = lru["evictions"]
            snapshot[section]["lru"] = {"hits": lru["hits"],
                                        "misses": lru["misses"]}
        snapshot["resilience"] = {
            "breakers": self.breakers.snapshot(),
            "breaker_states": self.breakers.state_counts(),
            "queue_wait_p95": self.queue_wait.p95(),
            "queue_wait_samples": len(self.queue_wait),
        }
        snapshot["config"] = {
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "per_client": self.config.per_client,
            "default_timeout": self.config.default_timeout,
            "breaker_threshold": self.config.breaker_threshold,
            "watchdog_multiple": self.config.watchdog_multiple,
        }
        store = self.database.durable_store
        if store is not None:
            snapshot["durability"] = {
                "store_path": self.config.store_path,
                "fsync": self.config.fsync,
                "store_version": store.store_version,
                "wal_bytes": store.wal.size if store.wal else 0,
                "checkpoints": store.checkpoints,
                "recovery": (self.recovery.to_dict()
                             if self.recovery is not None else None),
            }
        return snapshot

    def note_retry(self, client: str) -> None:
        """Account one retried arrival (the wire layer calls this when a
        request carries ``attempt > 1``) — the server-visible view of
        client retry activity."""
        self.metrics.note_client_retry(client)

    def health(self) -> Dict[str, Any]:
        """The liveness view: drain state, recovery, breakers, watchdog.

        Always answerable (health is about *reporting* state, readiness
        is about *accepting* work — see :meth:`ready`).
        """
        draining = self.admission.draining or self._closed
        return {
            "status": "draining" if draining else "ok",
            "draining": draining,
            "in_flight": self.admission.in_flight,
            "documents": len(self.database.names()),
            "breakers": self.breakers.state_counts(),
            "watchdog_recycles": self.metrics.watchdog_recycles,
            "shed": self.metrics.shed_snapshot(),
            "recovery": (self.recovery.to_dict()
                         if self.recovery is not None else None),
        }

    def ready(self) -> Tuple[bool, str]:
        """Whether the service should receive new traffic, plus why not.

        Not ready while draining/closed or before any document is
        registered; a durable store that needed recovery is ready as
        soon as the (synchronous, startup-time) recovery finished.
        """
        if self._closed:
            return False, "service closed"
        if self.admission.draining:
            return False, "draining"
        if not self.database.names():
            return False, "no documents registered"
        return True, "ok"

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight work, cancel stragglers.

        Returns True when everything finished inside the deadline, False
        when stragglers had to be cancelled.
        """
        self.admission.start_draining()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.config.drain_timeout)
        clean = True
        while True:
            with self._lock:
                pending = [entry.future
                           for entry in self._in_flight.values()]
            if not pending:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                clean = False
                self.cancel_all("drain deadline expired")
                break
            try:
                pending[0].result(timeout=min(remaining, 0.1))
            except Exception:
                pass  # response futures never raise; timeout just loops
        return clean

    def shutdown(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Drain, stop the pool, and return the final stats snapshot."""
        with self._lock:
            if self._closed:
                return self.stats()
            self._closed = True
        self.drain(timeout)
        self._watchdog_stop.set()
        with self._lock:
            watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None:
            watchdog.join(timeout=2.0)
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        stats = self.stats()  # snapshot durability before the store closes
        try:
            self.database.close_store()
        except Exception:
            logger.exception("durable store close failed")
        logger.info("service shutdown: %s", self.metrics.summary())
        return stats

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
