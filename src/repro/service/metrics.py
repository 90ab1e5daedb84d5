"""Service observability: registry-backed counters and latency histogram.

The instruments now live in a :class:`repro.obs.metrics.MetricsRegistry`
(one per :class:`~repro.service.service.QueryService`), so the same
numbers that feed the ``stats`` wire response are scrapeable as
Prometheus text via ``repro-gql stats --format prometheus`` or the
``serve --metrics-port`` endpoint.  The public surface of
:class:`ServiceMetrics` is unchanged: ``count()``, ``record_outcome()``,
``snapshot()``, ``summary()``, and plain-integer attribute reads
(``metrics.result_cache_hits`` …) all keep working.

Every submission ends admitted, rejected or shed, so
``submitted == admitted + rejected + shed``.  That identity is defined
once, in the ``accounting`` block of :meth:`ServiceMetrics.snapshot`,
and checked everywhere through :func:`assert_accounted`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..obs.metrics import MetricsRegistry
from ..runtime import Outcome

__all__ = [
    "MetricsRegistry",
    "ServiceMetrics",
    "assert_accounted",
]

#: Integer counters the service bumps by name via ``count()``; each is
#: exported as ``repro_service_<name>_total``.
_COUNTER_NAMES = (
    "submitted",
    "admitted",
    "rejected",
    "invalid_queries",
    "executed",
    "cancelled_requests",
    "result_cache_hits",
    "result_cache_misses",
    "plan_cache_hits",
    "plan_cache_misses",
    "watchdog_recycles",
    "watchdog_abandoned",
    "duplicate_requests",
)

_COUNTER_HELP = {
    "submitted": "Requests received by the service.",
    "admitted": "Requests that passed admission control.",
    "rejected": "Requests turned away by admission control.",
    "invalid_queries": "Requests rejected because static analysis found errors.",
    "executed": "Requests that ran a matcher (cache misses).",
    "cancelled_requests": "Requests cancelled by an explicit cancel call.",
    "result_cache_hits": "Result-cache hits.",
    "result_cache_misses": "Result-cache misses.",
    "plan_cache_hits": "Plan-cache hits (replayed search orders).",
    "plan_cache_misses": "Plan-cache misses.",
    "watchdog_recycles": "Stuck workers the pool watchdog recycled.",
    "watchdog_abandoned": "Queued requests the watchdog abandoned as "
                          "TIMED_OUT without recycling the pool (no "
                          "worker had started them).",
    "duplicate_requests": "Retried requests answered from the "
                          "duplicate-request table.",
}


class ServiceMetrics:
    """Admission, cache and outcome counters plus the latency histogram.

    Everything on the request hot path is one counter bump or one
    histogram observe.  Pass a shared *registry* to co-locate the
    service's metrics with other subsystems' on one scrape endpoint; by
    default each instance gets its own registry (test isolation).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"repro_service_{name}_total", _COUNTER_HELP[name])
            for name in _COUNTER_NAMES
        }
        self._outcomes = {
            status.value: self.registry.counter(
                "repro_service_outcomes_total",
                "Finished requests by outcome status.",
                labels={"status": status.value})
            for status in Outcome
        }
        self.latency = self.registry.histogram(
            "repro_service_request_seconds",
            "End-to-end request latency in seconds.")
        #: shed requests by reason ("deadline" | "breaker"), lazily
        #: instantiated so only observed reasons appear in the scrape
        self._shed: Dict[str, object] = {}
        #: per-client retried-arrival counters (attempt > 1 on the wire)
        self._client_retries: Dict[str, object] = {}

    def __getattr__(self, name: str) -> int:
        # plain-attribute reads (metrics.result_cache_hits == int) keep
        # the pre-registry API working for callers and tests
        counters = self.__dict__.get("_counters")
        if counters and name in counters:
            return counters[name].value
        raise AttributeError(name)

    @property
    def outcomes(self) -> Dict[str, int]:
        """Finished-request counts by outcome status."""
        return {status: counter.value
                for status, counter in self._outcomes.items()}

    def count(self, name: str, n: int = 1) -> None:
        """Bump one of the named counters."""
        self._counters[name].inc(n)

    def record_shed(self, reason: str) -> None:
        """Account one shed request under its reason label."""
        counter = self._shed.get(reason)
        if counter is None:
            counter = self.registry.counter(
                "repro_service_shed_total",
                "Requests shed before admission, by reason.",
                labels={"reason": reason})
            self._shed[reason] = counter
        counter.inc()

    @property
    def shed(self) -> int:
        """Total shed requests across every reason."""
        return sum(counter.value for counter in self._shed.values())

    def shed_snapshot(self) -> Dict[str, int]:
        """Shed counts by reason plus the total."""
        by_reason = {reason: counter.value
                     for reason, counter in self._shed.items()}
        by_reason["total"] = sum(by_reason.values())
        return by_reason

    def note_client_retry(self, client: str) -> None:
        """Account one retried arrival (wire ``attempt`` > 1)."""
        counter = self._client_retries.get(client)
        if counter is None:
            counter = self.registry.counter(
                "repro_service_client_retries_total",
                "Retried request arrivals by client.",
                labels={"client": client})
            self._client_retries[client] = counter
        counter.inc()

    @property
    def client_retries(self) -> Dict[str, int]:
        """Retried-arrival counts per client."""
        return {client: counter.value
                for client, counter in self._client_retries.items()}

    def accounting(self) -> Dict[str, int]:
        """The request-accounting identity and its violation.

        Every submission is admitted, rejected (admission control or
        static analysis) or shed (deadline or breaker), so ``unaccounted``
        is 0 unless a path forgot to count.
        """
        submitted = self._counters["submitted"].value
        admitted = self._counters["admitted"].value
        rejected = self._counters["rejected"].value
        shed = self.shed
        return {
            "submitted": submitted,
            "admitted": admitted,
            "rejected": rejected,
            "shed": shed,
            "unaccounted": submitted - (admitted + rejected + shed),
        }

    def record_outcome(self, status: Outcome,
                       latency: Optional[float] = None) -> None:
        """Account one finished request: outcome plus optional latency."""
        counter = self._outcomes.get(status.value)
        if counter is None:
            counter = self.registry.counter(
                "repro_service_outcomes_total",
                "Finished requests by outcome status.",
                labels={"status": status.value})
            self._outcomes[status.value] = counter
        counter.inc()
        if latency is not None:
            self.latency.observe(latency)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready view of every counter (the ``stats`` response)."""
        return {
            "submitted": self._counters["submitted"].value,
            "admitted": self._counters["admitted"].value,
            "rejected": self._counters["rejected"].value,
            "invalid_queries": self._counters["invalid_queries"].value,
            "executed": self._counters["executed"].value,
            "cancelled_requests": self._counters["cancelled_requests"].value,
            "result_cache": {
                "hits": self._counters["result_cache_hits"].value,
                "misses": self._counters["result_cache_misses"].value,
            },
            "plan_cache": {
                "hits": self._counters["plan_cache_hits"].value,
                "misses": self._counters["plan_cache_misses"].value,
            },
            "shed": self.shed_snapshot(),
            "accounting": self.accounting(),
            "watchdog_recycles": self._counters["watchdog_recycles"].value,
            "watchdog_abandoned": self._counters["watchdog_abandoned"].value,
            "duplicate_requests": self._counters["duplicate_requests"].value,
            "client_retries": self.client_retries,
            "outcomes": self.outcomes,
            "latency": self.latency.snapshot(),
        }

    def summary(self) -> str:
        """One shutdown-log line."""
        snap = self.snapshot()
        latency = snap["latency"]
        outcomes = " ".join(
            f"{k}={v}" for k, v in snap["outcomes"].items() if v
        )
        return (
            f"served {snap['submitted']} request(s): "
            f"admitted={snap['admitted']} rejected={snap['rejected']} "
            f"cache_hits={snap['result_cache']['hits']} "
            f"plan_hits={snap['plan_cache']['hits']} "
            f"[{outcomes or 'no outcomes'}] "
            f"p50={latency['p50'] * 1000:.1f}ms "
            f"p95={latency['p95'] * 1000:.1f}ms"
        )


def assert_accounted(stats: Mapping[str, Any]) -> None:
    """Raise AssertionError unless a ``stats`` snapshot balances.

    The one check of ``submitted == admitted + rejected + shed`` that
    tests, drills and benchmarks share; it reads the ``accounting``
    block, so it works on a live snapshot and on one sent over the wire.
    """
    accounting = stats["accounting"]
    if accounting["unaccounted"] != 0:
        raise AssertionError(f"accounting broken: {accounting}")
