"""ABL-COUNT — the Section 5.2 counting-structure trade-off.

The paper counts a super-candidate's quantitative part either with a
multi-dimensional array (cheap CPU, memory proportional to the product of
attribute cardinalities) or an R*-tree (memory proportional to the number
of candidates, higher CPU), choosing by expected memory.  This ablation
times all backends (plus the heuristic ``auto``) on an identical pass-3
workload and verifies each against the ``direct`` oracle.

Expected shape: array fastest at small scale, direct slowest per
candidate, R*-tree in between on CPU while using candidate-proportional
memory — and ``bitmap`` (packed per-interval bitsets, two word-level ops
per range) overtaking ``auto`` as record counts grow, which the
Figure-9-scale sweep below asserts at every paper scale point.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core import MinerConfig
from repro.core.apriori_quant import find_frequent_itemsets
from repro.core.candidates import generate_candidates
from repro.core.counting import count_itemsets
from repro.core.mapper import TableMapper
from repro.engine import TableShard, shard_view
from repro.experiments import DEFAULT_SIZES

NUM_RECORDS = 4_000
BACKENDS = ("array", "rtree", "direct", "bitmap", "auto")

# Figure-9-scale sweep: bitmap vs. the auto heuristic at the paper's
# record counts, on a fixed candidate workload.
SCALE_REPS = 3
SCALE_CANDIDATES = 300
SNAPSHOT_PATH = Path(__file__).parent.parent / "BENCH_counting.json"


def _pass3_workload(table, max_candidates):
    """A realistic pass-3 candidate set over a credit table."""
    config = MinerConfig(
        min_support=0.15,
        max_support=0.45,
        partial_completeness=3.0,
        num_partitions=12,
        max_itemset_size=2,
    )
    mapper = TableMapper(table, config)
    support_counts, _ = find_frequent_itemsets(mapper, config)
    l2 = sorted(s for s in support_counts if len(s) == 2)
    candidates = generate_candidates(l2, 3)
    # Keep the slow reference backends honest but affordable.
    candidates = candidates[:max_candidates]
    assert len(candidates) >= 100, (
        f"workload too thin ({len(candidates)} candidates); "
        "the backend comparison would be noise"
    )
    quantitative = {
        a
        for a in range(mapper.num_attributes)
        if mapper.mapping(a).is_quantitative
    }
    return mapper, candidates, quantitative


@pytest.fixture(scope="module")
def workload(request):
    from repro.data import generate_credit_table

    table = generate_credit_table(NUM_RECORDS, seed=42)
    return _pass3_workload(table, max_candidates=600)


@pytest.mark.parametrize("backend", BACKENDS)
def test_counting_backend(benchmark, workload, reporter, backend):
    mapper, candidates, quantitative = workload
    counts = benchmark(
        count_itemsets, candidates, mapper, quantitative, backend
    )
    reporter.line(
        f"backend={backend}: counted {len(candidates)} candidates "
        f"over {NUM_RECORDS} records"
    )
    if benchmark.stats is not None:  # None under --benchmark-disable
        reporter.record(
            phase="backend_comparison",
            backend=backend,
            seconds=benchmark.stats.stats.min,
            candidates=len(candidates),
            num_records=NUM_RECORDS,
        )
    # Cross-validate against the direct backend: one column scan per
    # candidate, the oracle no shared structure can skew.
    reference = count_itemsets(candidates, mapper, quantitative, "direct")
    assert counts == reference


def _best_seconds(fn, reps=SCALE_REPS):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_bitmap_beats_auto_at_figure9_scale(credit_table_cache, reporter):
    """Acceptance: bitmap < auto wall-clock at every Figure-9 size.

    One credit table at the largest paper size, one fixed pass-3
    candidate workload; each scale point counts over a prefix view of
    the same mapper so every size shares identical interval codes.
    Timings are warm (best of :data:`SCALE_REPS` after a verifying
    warm-up call), matching how the engine amortizes the bitmap index
    across level-wise passes.
    """
    table = credit_table_cache(DEFAULT_SIZES[-1])
    mapper, candidates, quantitative = _pass3_workload(
        table, max_candidates=SCALE_CANDIDATES
    )

    reporter.line(
        f"\nFigure-9-scale counting sweep: {len(candidates)} candidates, "
        f"best of {SCALE_REPS}"
    )
    reporter.row("records", "auto_s", "bitmap_s", "speedup")
    snapshot_rows = []
    for n in DEFAULT_SIZES:
        if n == mapper.num_records:
            view = mapper
        else:
            view = shard_view(mapper, TableShard(0, n))
        seconds = {}
        reference = None
        for backend in ("auto", "bitmap"):
            # Warm-up builds any per-view structures and checks output.
            counts = count_itemsets(
                candidates, view, quantitative, backend
            )
            if reference is None:
                reference = counts
            else:
                assert counts == reference, (
                    f"{backend} diverged from auto at {n} records"
                )
            seconds[backend] = _best_seconds(
                lambda b=backend: count_itemsets(
                    candidates, view, quantitative, b
                )
            )
        speedup = seconds["auto"] / seconds["bitmap"]
        reporter.row(
            n,
            f"{seconds['auto']:.4f}",
            f"{seconds['bitmap']:.4f}",
            f"{speedup:.2f}x",
        )
        for backend in ("auto", "bitmap"):
            reporter.record(
                phase="fig9_scaleup",
                backend=backend,
                num_records=n,
                seconds=seconds[backend],
                candidates=len(candidates),
            )
        snapshot_rows.append(
            {
                "num_records": n,
                "auto_seconds": seconds["auto"],
                "bitmap_seconds": seconds["bitmap"],
                "speedup": speedup,
            }
        )
        assert seconds["bitmap"] < seconds["auto"], (
            f"bitmap slower than auto at {n} records: "
            f"{seconds['bitmap']:.4f}s vs {seconds['auto']:.4f}s"
        )

    SNAPSHOT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "counting_structures",
                "source": "benchmarks/bench_counting_structures.py",
                "candidates": len(candidates),
                "reps": SCALE_REPS,
                "scale_points": snapshot_rows,
            },
            indent=2,
        )
        + "\n"
    )
