"""BENCH-RULES — goal-directed mining cost and point-query latency.

Two halves, matching the two halves of ``repro.rules``:

1. **Goal-directed vs. full mine** on the Figure-9 credit table: a
   ``target=`` run must count strictly fewer candidates (Apriori_Goal
   pruning) and finish faster than the full mine, while emitting
   exactly the full run's rules filtered to the target consequent —
   asserted here, so the speedup cannot come from mining something
   different.

2. **Match/predict serving latency** over the mined ruleset: per
   served-ruleset size, a columnar :class:`~repro.rules.RuleIndex`
   (per-rule ``lo``/``hi`` arrays, one numpy comparison per query) and
   a separately built linear-scan reference (``use_index=False``)
   answer the same stream of raw-record point queries.  Both must
   return identical ranked matches for every query; the benchmark
   reports each index's build time, p50/p99 per-query latency and
   queries/sec for each size — the latency curve — plus the
   columnar-over-linear speedup.

Results land in ``benchmarks/results/rule_serving.json`` via the
shared reporter, and the headline numbers snapshot to
``BENCH_rules.json`` at the repository root (same machine-readable
shape as ``BENCH_counting.json``).
"""

import itertools
import json
import time
from pathlib import Path

from repro.core import MinerConfig, QuantitativeMiner
from repro.rules import RuleIndex, filter_rules_to_target

NUM_RECORDS = 50_000  # the Figure-9 sweep's first scale point
TARGET = "employee_category"
NUM_QUERIES = 500
RULESET_SIZES = (1_000, 4_000, None)  # None = every mined rule
REPS = 3
SNAPSHOT_PATH = Path(__file__).parent.parent / "BENCH_rules.json"

CONFIG = dict(
    min_support=0.1,
    min_confidence=0.4,
    max_support=0.45,
    num_partitions=8,
    interest_level=1.1,
    cache={"enabled": False},  # time the mining, not the artifact cache
)


def _mine(table, **overrides):
    miner = QuantitativeMiner(table, MinerConfig(**CONFIG, **overrides))
    start = time.perf_counter()
    result = miner.mine()
    return time.perf_counter() - start, result


def _query_records(table, num_queries):
    """Raw record dicts cycling over the table's first rows."""
    names = [attr.name for attr in table.schema]
    sample = [
        dict(zip(names, values))
        for values in itertools.islice(table.iter_records(), 1_000)
    ]
    return [sample[i % len(sample)] for i in range(num_queries)]


def _build(rules, mappings, *, use_index):
    """A RuleIndex and its build time (seconds)."""
    start = time.perf_counter()
    index = RuleIndex(rules, mappings, use_index=use_index)
    return index, time.perf_counter() - start


def _time_queries(index, records):
    """Per-query latencies (seconds) plus each query's match list."""
    latencies = []
    matches = []
    for record in records:
        start = time.perf_counter()
        fired = index.match(record)
        latencies.append(time.perf_counter() - start)
        matches.append(fired)
    return latencies, matches


def _percentile(latencies, q):
    ordered = sorted(latencies)
    position = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[position]


def test_rule_serving(credit_table_cache, reporter):
    table = credit_table_cache(NUM_RECORDS)

    # -- Half 1: goal-directed mining vs. the full mine ----------------
    full_seconds = goal_seconds = float("inf")
    full = goal = None
    for _ in range(REPS):
        elapsed, full = _mine(table)
        full_seconds = min(full_seconds, elapsed)
        elapsed, goal = _mine(table, target=TARGET)
        goal_seconds = min(goal_seconds, elapsed)

    target_idx = table.schema.index_of(TARGET)
    assert goal.rules == filter_rules_to_target(full.rules, target_idx)
    assert goal.interesting_rules == filter_rules_to_target(
        full.interesting_rules, target_idx
    )
    full_candidates = full.stats.total_candidates
    goal_candidates = goal.stats.total_candidates
    assert goal_candidates < full_candidates
    mine_speedup = full_seconds / goal_seconds

    reporter.line(
        f"\nGoal-directed mining: {NUM_RECORDS} credit records, "
        f"target={TARGET}, best of {REPS}"
    )
    reporter.row("mode", "seconds", "candidates", "rules")
    reporter.row(
        "full", f"{full_seconds:.2f}", full_candidates, len(full.rules)
    )
    reporter.row(
        "goal", f"{goal_seconds:.2f}", goal_candidates, len(goal.rules)
    )
    reporter.line(
        f"speedup {mine_speedup:.2f}x, candidate ratio "
        f"{goal_candidates / full_candidates:.2f}"
    )
    reporter.record(
        phase="goal_directed",
        target=TARGET,
        num_records=NUM_RECORDS,
        full_seconds=full_seconds,
        goal_seconds=goal_seconds,
        speedup=mine_speedup,
        full_candidates=full_candidates,
        goal_candidates=goal_candidates,
        full_rules=len(full.rules),
        goal_rules=len(goal.rules),
    )

    # -- Half 2: point-query latency curve, columnar vs. linear -------
    records = _query_records(table, NUM_QUERIES)
    reporter.line(
        f"\nPoint-query latency curve: {NUM_QUERIES} records per "
        "ruleset size"
    )
    reporter.row(
        "rules", "path", "build_ms", "p50_us", "p99_us", "queries/s"
    )
    latency_curve = []
    for size in RULESET_SIZES:
        rules = full.rules if size is None else full.rules[:size]
        point = {"num_rules": len(rules)}
        answers = []
        for path, use_index in (("columnar", True), ("linear", False)):
            index, build = _build(
                rules, full.mapper.mappings, use_index=use_index
            )
            assert index.indexed == use_index
            latencies, matches = _time_queries(index, records)
            answers.append(matches)
            p50 = _percentile(latencies, 0.50)
            p99 = _percentile(latencies, 0.99)
            qps = len(latencies) / sum(latencies)
            reporter.row(
                index.num_rules,
                path,
                f"{build * 1e3:.1f}",
                f"{p50 * 1e6:.0f}",
                f"{p99 * 1e6:.0f}",
                f"{qps:.0f}",
            )
            reporter.record(
                phase="point_queries",
                path=path,
                num_queries=NUM_QUERIES,
                num_rules=index.num_rules,
                build_seconds=build,
                p50_seconds=p50,
                p99_seconds=p99,
                queries_per_second=qps,
            )
            point[path] = {
                "build_seconds": build,
                "p50_seconds": p50,
                "p99_seconds": p99,
                "queries_per_second": qps,
            }
        columnar_matches, linear_matches = answers
        assert columnar_matches == linear_matches  # same rules, same order
        assert any(
            columnar_matches
        ), "degenerate workload: nothing ever fires"
        point["columnar_speedup"] = (
            point["columnar"]["queries_per_second"]
            / point["linear"]["queries_per_second"]
        )
        reporter.line(
            f"columnar speedup {point['columnar_speedup']:.2f}x over "
            f"linear scan at {point['num_rules']} rules"
        )
        latency_curve.append(point)

    SNAPSHOT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "rule_serving",
                "source": "benchmarks/bench_rule_serving.py",
                "num_records": NUM_RECORDS,
                "num_queries": NUM_QUERIES,
                "reps": REPS,
                "latency_curve": latency_curve,
                "goal_directed": {
                    "target": TARGET,
                    "full_seconds": full_seconds,
                    "goal_seconds": goal_seconds,
                    "speedup": mine_speedup,
                    "full_candidates": full_candidates,
                    "goal_candidates": goal_candidates,
                    "candidate_ratio": goal_candidates / full_candidates,
                },
            },
            indent=2,
        )
        + "\n"
    )
