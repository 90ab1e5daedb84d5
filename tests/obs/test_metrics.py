"""Metrics registry, histogram bucketing and the Prometheus renderer."""

from __future__ import annotations

import math
import random
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    render_json,
    render_prometheus,
)


# -- histogram --------------------------------------------------------------


def _naive_bucket_index(bounds, value):
    """The old linear scan: first bound with value <= bound."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def test_bisect_bucketing_matches_the_linear_reference():
    rng = random.Random(42)
    bounds = list(DEFAULT_LATENCY_BUCKETS)
    hist = Histogram(buckets=bounds)
    reference = [0] * (len(bounds) + 1)
    values = [rng.uniform(0, 12) for _ in range(500)]
    values += list(bounds)  # exact boundary hits are the tricky case
    values += [0.0, 1e-9]
    for value in values:
        hist.observe(value)
        reference[_naive_bucket_index(bounds, value)] += 1
    assert hist.counts == reference
    assert hist.total == len(values)
    assert math.isclose(hist.sum, sum(values))


def test_cumulative_buckets_are_monotone_and_end_at_total():
    hist = Histogram(buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    pairs = hist.cumulative_buckets()
    assert pairs == [(0.1, 1), (1.0, 3), (float("inf"), 4)]
    snap = hist.snapshot()
    assert snap["count"] == 4
    assert snap["buckets"] == {"0.1": 1, "1": 3, "+Inf": 4}
    assert snap["max"] == 5.0
    assert snap["p50"] == 1.0


def test_histogram_under_concurrent_writers_loses_nothing():
    hist = Histogram(buckets=(0.5,))
    registry = MetricsRegistry()
    counter = registry.counter("c_total")
    writers, per_writer = 8, 2000

    def write():
        for i in range(per_writer):
            hist.observe(0.25 if i % 2 == 0 else 0.75)
            counter.inc()

    threads = [threading.Thread(target=write) for _ in range(writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = writers * per_writer
    assert hist.total == expected
    assert hist.counts == [expected // 2, expected // 2]
    assert counter.value == expected


# -- registry ---------------------------------------------------------------


def test_registry_get_or_create_and_label_sets():
    registry = MetricsRegistry()
    a = registry.counter("repro_requests_total", "Requests.")
    assert registry.counter("repro_requests_total") is a
    ok = registry.counter("repro_outcomes_total",
                          labels={"status": "COMPLETE"})
    bad = registry.counter("repro_outcomes_total",
                           labels={"status": "TIMED_OUT"})
    assert ok is not bad
    ok.inc(2)
    families = {f["name"]: f for f in registry.collect()}
    samples = families["repro_outcomes_total"]["samples"]
    assert {tuple(s["labels"].items()): s["value"] for s in samples} == {
        (("status", "COMPLETE"),): 2,
        (("status", "TIMED_OUT"),): 0,
    }


def test_registry_rejects_kind_mismatch_and_bad_names():
    registry = MetricsRegistry()
    registry.counter("repro_thing_total")
    with pytest.raises(ValueError):
        registry.gauge("repro_thing_total")
    with pytest.raises(ValueError):
        registry.counter("0bad-name")


def test_callback_gauge_reads_live_and_survives_failures():
    registry = MetricsRegistry()
    box = {"value": 3}
    gauge = registry.gauge("repro_box", fn=lambda: box["value"])
    assert gauge.value == 3
    box["value"] = 9
    assert gauge.value == 9
    broken = registry.gauge("repro_broken",
                            fn=lambda: 1 / 0)
    assert broken.value == 0  # a failing callback must not break scrapes


# -- renderers --------------------------------------------------------------


def test_prometheus_render_parse_roundtrip():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", "Requests.").inc(5)
    registry.gauge("repro_in_flight", "In flight.").set(2)
    registry.counter("repro_outcomes_total",
                     labels={"status": "COMPLETE"}).inc(4)
    hist = registry.histogram("repro_latency_seconds", "Latency.",
                              buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 3.0):
        hist.observe(value)

    text = render_prometheus(registry)
    assert "# TYPE repro_latency_seconds histogram" in text
    parsed = parse_prometheus_text(text)
    assert parsed["repro_requests_total"] == 5
    assert parsed["repro_in_flight"] == 2
    assert parsed['repro_outcomes_total{status="COMPLETE"}'] == 4
    assert parsed['repro_latency_seconds_bucket{le="0.1"}'] == 1
    assert parsed['repro_latency_seconds_bucket{le="1"}'] == 2
    assert parsed['repro_latency_seconds_bucket{le="+Inf"}'] == 3
    assert parsed["repro_latency_seconds_count"] == 3
    assert math.isclose(parsed["repro_latency_seconds_sum"], 3.55)

    document = render_json(registry)
    assert document["repro_requests_total"]["samples"][0]["value"] == 5
    snap = document["repro_latency_seconds"]["samples"][0]["value"]
    assert snap["buckets"]["+Inf"] == 3


def test_parser_rejects_malformed_exposition():
    with pytest.raises(ValueError):
        parse_prometheus_text("repro_total not-a-number\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("this is { garbage\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("# TYPE repro_total nonsense\n")
    with pytest.raises(ValueError):
        parse_prometheus_text('repro_total{bad labels} 1\n')
