"""Service tuning knobs, gathered in one place.

Every knob has a conservative default that works for the test-scale
graphs in this repository; ``docs/service.md`` discusses how to size
them for real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime import CancellationToken, ExecutionContext


@dataclass
class ServiceConfig:
    """Configuration of one :class:`~repro.service.QueryService`.

    Sizing rules of thumb:

    * ``workers`` bounds CPU use.  The matcher is pure Python, so worker
      threads only overlap during the interpreter's frequent GIL yields;
      for more than one core, shard the collection over a cluster
      (``repro-gql cluster serve``).
    * ``queue_depth`` is how many admitted requests may *wait* beyond the
      ones actively running.  Admission rejects (it never blocks) once
      ``workers + queue_depth`` requests are in flight — load shedding
      with a structured ``REJECTED`` outcome instead of unbounded queues.
    * ``per_client`` caps one client's in-flight share so a single noisy
      client cannot monopolise the pool.
    * the ``default_*`` budgets seed each admitted request's
      :class:`~repro.runtime.ExecutionContext`; a request may *tighten*
      them but never exceed ``default_timeout`` (the service-level SLO).
    """

    workers: int = 4
    queue_depth: int = 16
    per_client: int = 8

    # per-request governance defaults (None = unlimited)
    default_timeout: Optional[float] = 30.0
    default_max_steps: Optional[int] = None
    default_max_results: Optional[int] = 1000
    default_max_memory: Optional[int] = None

    # cache capacities (entries); 0 disables the cache
    plan_cache_size: int = 256
    result_cache_size: int = 256

    # seconds shutdown waits for in-flight queries before cancelling them
    drain_timeout: float = 5.0

    # slow-query log: keep the slow_log_size slowest requests whose
    # latency is >= slow_log_threshold seconds (0.0 = the slowest of all)
    slow_log_size: int = 32
    slow_log_threshold: float = 0.0

    # durable storage: when set, the service opens this WAL-backed
    # GraphStore on startup (running crash recovery), registers every
    # document it holds, and writes register/load mutations through it
    store_path: Optional[str] = None
    fsync: str = "commit"

    # deadline-aware load shedding: a request whose effective timeout is
    # below the observed p95 queue wait is shed with a SHED outcome and
    # a retry-after hint.  The estimator stays cold (never sheds) until
    # shed_min_samples waits have been observed.
    shed_enabled: bool = True
    shed_min_samples: int = 10
    shed_window: int = 256

    # per-client circuit breaker: breaker_threshold consecutive
    # failures/timeouts open the circuit for breaker_cooldown seconds
    # (then one HALF_OPEN probe decides).  0 disables the breaker.
    breaker_threshold: int = 8
    breaker_cooldown: float = 5.0

    # pool watchdog: a request still unfinished after
    # watchdog_multiple x its effective timeout is considered *stuck*
    # (the worker is wedged past any cooperative deadline), answered
    # TIMED_OUT, and its pool is recycled.  0 disables the watchdog;
    # requests without an effective timeout are never watched.
    watchdog_multiple: float = 4.0
    watchdog_interval: float = 0.25

    # duplicate-request table: completed responses remembered per
    # (client, request id / idempotency key) so client retries are
    # answered without re-executing.  0 disables the table.
    dup_table_size: int = 512

    # admission-time static analysis: textual queries with error-severity
    # diagnostics (unbound variables, syntax errors) are answered
    # REJECTED/invalid_query without ever reaching a worker.  The verdict
    # is cached per query text; 0 disables the cache, False disables the
    # check entirely.
    validate_queries: bool = True
    validation_cache_size: int = 256

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.per_client < 1:
            raise ValueError("per_client must be >= 1")
        if self.slow_log_size < 0:
            raise ValueError("slow_log_size must be >= 0")
        if self.slow_log_threshold < 0:
            raise ValueError("slow_log_threshold must be >= 0")
        if self.shed_min_samples < 1:
            raise ValueError("shed_min_samples must be >= 1")
        if self.shed_window < 1:
            raise ValueError("shed_window must be >= 1")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be > 0")
        if self.watchdog_multiple < 0:
            raise ValueError("watchdog_multiple must be >= 0")
        if self.watchdog_interval <= 0:
            raise ValueError("watchdog_interval must be > 0")
        if self.dup_table_size < 0:
            raise ValueError("dup_table_size must be >= 0")
        from ..storage.wal import check_fsync_policy

        check_fsync_policy(self.fsync)

    @property
    def max_in_flight(self) -> int:
        """Running plus queued requests the service will hold at once."""
        return self.workers + self.queue_depth

    @staticmethod
    def tighten(asked, configured):
        """The effective budget: the smaller of the request's ask and
        the configured default (an unlimited default accepts any ask)."""
        if asked is None:
            return configured
        if configured is None:
            return asked
        return min(asked, configured)

    def derive_context(
        self,
        timeout: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_results: Optional[int] = None,
        max_memory: Optional[int] = None,
        token: Optional[CancellationToken] = None,
    ) -> ExecutionContext:
        """A per-request context from the service defaults.

        Request overrides may only tighten the service budgets: the
        effective limit is the smaller of the request's ask and the
        configured default (an unlimited default accepts any ask).
        """
        return ExecutionContext(
            timeout=self.tighten(timeout, self.default_timeout),
            max_steps=self.tighten(max_steps, self.default_max_steps),
            max_results=self.tighten(max_results, self.default_max_results),
            max_memory=self.tighten(max_memory, self.default_max_memory),
            token=token,
        )
