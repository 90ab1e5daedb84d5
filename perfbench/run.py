"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ppi_cliques --seed 1 --seconds 20 --trace 0

Workloads: ``ppi_cliques`` (the library over the PPI network),
``service_rw`` (a durable 2-worker QueryService with reads beside
writes) and ``cluster_fanout`` (a 2-shard cluster over a molecule
collection).  ``--trace 0`` runs the untraced closed loop for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` replays
a fixed stream untraced and then traced, reports the per-layer metrics
and writes the spans under ``.perfbench/``.  Every answer is checked; a
wrong answer or a failed durability check exits nonzero.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: set-ups per untraced run; setup_s is their median
SETUPS = 3
#: string hashing is randomized per process, and with it the layout of
#: every dict and set the program builds; one fixed seed keeps that from
#: moving the timings from run to run (shard processes inherit it)
HASH_SEED = "0"


def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit nonzero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/repro")
    sys.path[:0] = [str(HERE), str(SRC)]


def end_to_end(workload) -> dict:
    """Untraced run: set up SETUPS times, measure the last set-up."""
    from workloads import median, ms, percentile, rss_mb

    setup_times = []
    for attempt in range(SETUPS):
        started = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - started)
        if attempt < SETUPS - 1:
            workload.teardown(state)
            gc.collect()
    gc.collect()
    try:
        rss = rss_mb([os.getpid()] + workload.pids(state))
        result = workload.measure(state)
    finally:
        workload.teardown(state)
    tally, store = result["tally"], result["store"]
    reads = tally.read_latency
    print(f"{workload.name}: end-to-end, {len(reads)} reads, "
          f"{len(tally.write_latency)} writes (p50 "
          f"{ms(median(tally.write_latency)):.1f} ms), "
          f"{result['wall']:.2f} s loop, "
          f"failed_ratio {tally.failed / max(1, tally.attempted):g}")
    if "hit_share" in result:
        print(f"  result cache hit share {result['hit_share']:.4f}")
    return tally, {
        "setup_s": statistics.median(setup_times),
        "read_p50_ms": ms(median(reads)),
        "read_p95_ms": ms(percentile(reads, 95)),
        "throughput_qps": len(reads) / result["wall"],
        "store_bytes_per_user_byte": store["store_bytes_per_user_byte"],
        "rss_mb": rss,
    }


def per_layer(workload) -> dict:
    """Traced run: replay the fixed stream untraced, then traced."""
    from spans import NoSpans, Spans
    from workloads import median, ms, percentile

    state = workload.setup()
    try:
        untraced = workload.replay(state, NoSpans(), traced=False)
    finally:
        workload.teardown(state)
    spans = Spans()
    state = workload.setup()
    try:
        traced = workload.replay(state, spans, traced=True)
    finally:
        workload.teardown(state)
    tally, totals, store = traced["tally"], traced["totals"], traced["store"]
    ops = max(1, tally.attempted)
    metrics = dict(totals.metrics())
    build = spans.named("index.build")
    refresh = spans.named("index.refresh")
    writes = max(1, len(tally.write_latency))
    metrics.update({
        "index.build_ms": ms(build[0].seconds) if build else 0.0,
        "index.refresh_ms": ms(median([s.seconds for s in refresh])),
        "index.rebuilds_per_write": tally.refreshes / writes,
        "write_p50_ms": ms(median(tally.write_latency)),
        "lang.compile_ms": ms(median(
            [s.seconds for s in spans.named("lang.compile")])),
        "analysis.validate_ms": ms(median(
            [s.seconds for s in spans.named("analysis.validate")])),
        "storage.wal_bytes_per_write": store["storage.wal_bytes_per_write"],
        "storage.recovery_s": store["storage.recovery_s"],
        "failed_ratio": tally.failed / ops,
        "trace.overhead_ratio": (traced["main"] - untraced["main"])
        / untraced["main"],
    })
    metrics.update(service_metrics(traced))
    metrics.update(cluster_metrics(traced))
    for layer, busy in sorted(spans.self_seconds().items()):
        metrics[f"selftime.{layer}_ms"] = ms(busy) / ops
    for layer in LAYERS:
        metrics.setdefault(f"selftime.{layer}_ms", 0.0)
    out = workload.workdir.parent / (
        f"spans-{workload.name}-seed{workload.seed}.jsonl")
    spans.dump(out)
    print(f"{workload.name}: per-layer, {tally.attempted} replayed ops "
          f"({len(tally.write_latency)} writes); spans in {out.relative_to(ROOT)}")
    print(f"  traced replay {ms(traced['main']):.1f} ms of calls vs untraced "
          f"{ms(untraced['main']):.1f} ms")
    shares = totals.shares()
    print("  stage shares: " + " ".join(
        f"{name} {100 * share:.1f}%" for name, share in shares.items())
        + "  (ROADMAP item 1 profile: prune 46 / search 31 / baseline 15)")
    if workload.name == "service_rw":
        hits = traced["latency"].get("hit", [])
        print(f"  service overhead p50 {metrics['service.overhead_ms']:.2f} ms"
              f" over a direct match; hit p50 "
              f"{metrics['service.hit_p50_ms']:.3f} ms, hit p99 "
              f"{ms(percentile(hits, 99)):.3f} ms  (ROADMAP item 2: "
              "+3 ms p50; warm hit p99 4.2 ms)")
    return tally, metrics


LAYERS = ("bench", "matching", "index", "lang", "analysis", "service",
          "storage", "cluster")


def service_metrics(traced: dict) -> dict:
    from workloads import median, ms

    out = {name: 0.0 for name in (
        "service.result_cache_hit_ratio", "service.plan_cache_hit_ratio",
        "service.result_cache_evictions", "service.hit_p50_ms",
        "service.miss_p50_ms", "service.overhead_ms",
        "service.queue_wait_p95_ms", "service.rejected", "service.shed",
        "service.invalid")}
    if "stats" not in traced or "stats_before" not in traced:
        return out
    before, after = traced["stats_before"], traced["stats"]

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    result_hits = delta("result_cache", "hits")
    result_misses = delta("result_cache", "misses")
    plan_hits = delta("plan_cache", "hits")
    plan_misses = delta("plan_cache", "misses")
    latency = traced["latency"]
    out.update({
        "service.result_cache_hit_ratio":
            result_hits / max(1, result_hits + result_misses),
        "service.plan_cache_hit_ratio":
            plan_hits / max(1, plan_hits + plan_misses),
        "service.result_cache_evictions": delta("result_cache", "evictions"),
        "service.hit_p50_ms": ms(median(latency.get("hit", []))),
        "service.miss_p50_ms": ms(median(latency.get("miss", []))),
        "service.overhead_ms": ms(median(traced["overhead"])),
        "service.queue_wait_p95_ms":
            ms(after["resilience"]["queue_wait_p95"] or 0.0),
        "service.rejected": delta("rejected"),
        "service.shed": delta("shed", "total"),
        "service.invalid": delta("invalid_queries"),
    })
    return out


def cluster_metrics(traced: dict) -> dict:
    from workloads import median, ms

    out = {name: 0.0 for name in (
        "cluster.slowest_shard_ms", "cluster.coordinator_overhead_ms",
        "cluster.wire_ms", "cluster.shard_skew",
        "cluster.coordinator_cache_hit_ratio", "cluster.rows_per_fanout",
        "cluster.failovers", "cluster.partial")}
    if "legs" not in traced:
        return out
    legs = traced["legs"]
    reads = traced["fanouts"] + traced["hits"]
    out.update({
        "cluster.slowest_shard_ms": ms(median(legs["slowest"])),
        "cluster.coordinator_overhead_ms": ms(median(legs["overhead"])),
        "cluster.wire_ms": ms(median(legs["wire"])),
        "cluster.shard_skew": median(legs["skew"]),
        "cluster.coordinator_cache_hit_ratio": traced["hits"] / max(1, reads),
        "cluster.rows_per_fanout": traced["rows"] / max(1, traced["fanouts"]),
        "cluster.failovers": traced["failovers"],
        "cluster.partial": traced["partial"],
    })
    return out


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ppi_cliques", "service_rw",
                                 "cluster_fanout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS, cleanup

    # the metric names and units are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        print(f"{args.workload}: seed {args.seed}, inputs "
              f"{workload.fingerprint()}")
        tally, values = (per_layer if args.trace else end_to_end)(workload)
    finally:
        cleanup(workdir)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    for problem in tally.problems:
        print(f"  PROBLEM {problem}")
    correct = tally.failed == 0 and tally.durable
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
