"""Self-test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Checks, per workload:

1. the reference enumerator of ``oracle.py`` agrees with the library run
   with ``limit=None`` on the workload's queries;
2. two short runs on one seed give identical exact counts (the
   ``matching.*`` counters, ``cluster.rows_per_fanout``,
   ``storage.wal_bytes_per_write`` and ``store_bytes_per_user_byte``);
3. another seed changes the generated inputs.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT = ("matching.candidates_tried", "matching.check_calls",
         "matching.partial_states", "matching.refine_pairs_removed",
         "matching.retrieved_space_log10", "matching.refined_space_log10",
         "matching.degradations", "cluster.rows_per_fanout",
         "storage.wal_bytes_per_write")
SHORT_SECONDS = "3"
#: label paths checked against the library (all of them take a minute)
CLUSTER_SAMPLE = 40


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SHORT_SECONDS,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{out.stdout}{out.stderr}")
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def library_agrees(workload) -> int:
    """Compare the enumerator's references with library answers."""
    from inputs import clique_text, path_text
    from oracle import digest, row_key

    from repro.core import GraphCollection
    from repro.lang import compile_pattern_text
    from repro.matching import MatchOptions
    from repro.storage import GraphDatabase

    database = GraphDatabase()
    database.register("data", GraphCollection(workload.data))
    labels = list(workload.expected)
    if workload.name == "cluster_fanout":
        labels = labels[::max(1, len(labels) // CLUSTER_SAMPLE)]
    for entry in labels:
        text = (path_text("S", entry) if workload.name == "cluster_fanout"
                else clique_text("S", entry))
        reports = database.match("data", compile_pattern_text(text),
                                 MatchOptions(limit=None))
        rows = [row_key(name, m.nodes, m.edges)
                for name, report in reports.items()
                for m in report.mappings]
        if digest(rows) != workload.expected[entry]:
            raise SystemExit(f"{workload.name}: reference and library "
                             f"disagree on {text}")
    return len(labels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS, cleanup

    names = args.workload or list(WORKLOADS)
    workdir = ROOT / ".perfbench" / "selftest"
    try:
        for name in names:
            workload = WORKLOADS[name](args.seed, 3.0, workdir)
            other = WORKLOADS[name](args.seed + 1, 3.0, workdir)
            if workload.fingerprint() == other.fingerprint():
                raise SystemExit(f"{name}: seeds {args.seed} and "
                                 f"{args.seed + 1} gave the same inputs")
            checked = library_agrees(workload)
            print(f"{name}: reference agrees with the library on "
                  f"{checked} queries")
            for trace, keys in ((1, EXACT), (0, ("store_bytes_per_user_byte",))):
                first = run(name, args.seed, trace)
                second = run(name, args.seed, trace)
                for key in keys:
                    if key in first and first[key] != second[key]:
                        raise SystemExit(f"{name}: {key} differs between "
                                         f"two runs: {first[key]} vs "
                                         f"{second[key]}")
                print(f"{name}: trace {trace} counts repeat exactly: "
                      + ", ".join(f"{k}={first[k]:g}" for k in keys
                                  if k in first))
    finally:
        cleanup(workdir)
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
