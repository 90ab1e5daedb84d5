"""Ablation — graph indexing for collections of small graphs.

Section 4: for a *"large collection of small graphs, e.g., chemical
compounds ... graph indexing plays a similar role for graph databases as
B-trees for relational databases: only a small number of graphs need to
be accessed. Scanning of the whole collection of graphs is not
necessary."*  This benchmark quantifies the claim on a synthetic compound
collection with a GraphGrep-style path index: filter ratio and end-to-end
speedup of filter+verify over a full scan.  A second arm measures the
same on the serving path: ``GraphDatabase.match`` (which filters with the
document's path index) against the full access-method pipeline run on
every compound, asserting identical rows.
"""

import random
import time
from typing import List


from harness import fmt_ms, mean, print_table
from repro.core import GroundPattern, SimpleMotif, select
from repro.datasets import molecule_collection
from repro.index import PathIndex, PathIndexStats
from repro.matching import MatchOptions
from repro.storage import GraphDatabase

NUM_MOLECULES = 400
QUERY_SIZES = (2, 3, 4)
PER_SIZE = 6


def extract_compound_queries(collection, size, count, rng):
    queries: List[GroundPattern] = []
    attempts = 0
    while len(queries) < count and attempts < count * 20:
        attempts += 1
        source = collection[rng.randrange(len(collection))]
        if source.num_nodes() < size:
            continue
        start = rng.choice(source.node_ids())
        chosen = [start]
        frontier = list(source.neighbors(start))
        while len(chosen) < size and frontier:
            nxt = frontier.pop(rng.randrange(len(frontier)))
            if nxt in chosen:
                continue
            chosen.append(nxt)
            frontier.extend(source.neighbors(nxt))
        if len(chosen) == size:
            motif = SimpleMotif.from_graph(source.induced_subgraph(chosen))
            queries.append(GroundPattern(motif))
    return queries


def match_rows(reports):
    return [(name, dict(m.nodes), dict(m.edges))
            for name, report in reports.items() for m in report.mappings]


def run_experiment():
    collection = molecule_collection(num_molecules=NUM_MOLECULES, seed=41)
    started = time.perf_counter()
    index = PathIndex(collection, max_length=3)
    build_time = time.perf_counter() - started
    database = GraphDatabase()
    database.register("mols", collection)
    # warm the per-graph matchers and the document's path index
    for graph in collection:
        database.matcher_for(graph)
    assert database.collection_index_for("mols") is not None
    options = MatchOptions(compute_baseline=False)
    rng = random.Random(12)
    rows = []
    for size in QUERY_SIZES:
        queries = extract_compound_queries(collection, size, PER_SIZE, rng)
        scan_times, indexed_times, ratios = [], [], []
        pipeline_times, database_times = [], []
        for query in queries:
            started = time.perf_counter()
            scanned = select(collection, query, exhaustive=False)
            scan_times.append(time.perf_counter() - started)
            stats = PathIndexStats()
            started = time.perf_counter()
            filtered = index.select(query, exhaustive=False, stats=stats)
            indexed_times.append(time.perf_counter() - started)
            ratios.append(stats.filter_ratio)
            assert len(filtered) == len(scanned)

            started = time.perf_counter()
            everywhere = {
                graph.name: database.matcher_for(graph).match(query, options)
                for graph in collection
            }
            pipeline_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            served = database.match("mols", query, options)
            database_times.append(time.perf_counter() - started)
            assert list(served) == list(everywhere)
            assert match_rows(served) == match_rows(everywhere)
        rows.append((
            size,
            len(queries),
            fmt_ms(mean(scan_times)),
            fmt_ms(mean(indexed_times)),
            f"{mean(ratios):.2f}",
            fmt_ms(mean(pipeline_times)),
            fmt_ms(mean(database_times)),
        ))
    return rows, build_time


def report(rows, build_time):
    print_table(
        f"Ablation: collection path index "
        f"({NUM_MOLECULES} compounds, build {build_time * 1000:.0f} ms)",
        ("query size", "#queries", "full scan ms", "filter+verify ms",
         "filter ratio", "match all ms", "database.match ms"),
        rows,
    )


def test_collection_index_ablation(benchmark):
    rows, build_time = run_experiment()
    report(rows, build_time)
    assert rows
    for row in rows:
        # the filter keeps a strict subset of the collection on average
        assert float(row[4]) < 1.0
    # indexed selection is faster than a full scan at the largest size
    last = rows[-1]
    assert float(last[3]) <= float(last[2]) * 1.2
    # and so is database.match against the pipeline on every compound
    assert float(last[6]) <= float(last[5]) * 1.2

    collection = molecule_collection(num_molecules=NUM_MOLECULES, seed=41)
    index = PathIndex(collection, max_length=3)
    rng = random.Random(5)
    query = extract_compound_queries(collection, 3, 1, rng)[0]
    benchmark(lambda: index.select(query, exhaustive=False))


if __name__ == "__main__":
    rows, build_time = run_experiment()
    report(rows, build_time)
