"""Targeted tests for smaller public surfaces not covered elsewhere."""

import numpy as np
import pytest

from repro.core import (
    Item,
    MinerConfig,
    QuantitativeMiner,
    TableMapper,
    make_itemset,
)
from repro.core.counting import choose_backend, group_candidates
from repro.core.items import specializations_within
from repro.data import age_partition_edges, people_table
from repro.table import RelationalTable, TableSchema, quantitative


class TestSpecializationsWithin:
    def test_reference_helper(self):
        x = make_itemset([Item(0, 0, 9)])
        pool = {
            make_itemset([Item(0, 1, 8)]): 0.2,
            make_itemset([Item(0, 0, 9)]): 0.3,  # itself: excluded
            make_itemset([Item(1, 1, 8)]): 0.2,  # other attribute
        }
        got = specializations_within(x, pool)
        assert got == [make_itemset([Item(0, 1, 8)])]


class TestDescribeValue:
    def setup_method(self):
        self.mapper = TableMapper(
            people_table(),
            MinerConfig(
                min_support=0.4,
                max_support=0.6,
                num_partitions={"Age": age_partition_edges()},
            ),
        )

    def test_categorical_value(self):
        assert self.mapper.mapping("Married").describe_value(1) == "No"

    def test_partitioned_interval(self):
        assert self.mapper.mapping("Age").describe_value(0) == "[20, 25)"

    def test_unpartitioned_value(self):
        assert self.mapper.mapping("NumCars").describe_value(2) == "2"


class TestRealizedCompleteness:
    def test_equation1_on_known_partitioning(self):
        # 1000 uniform values, 10 equi-depth intervals, minsup 0.2,
        # 1 quantitative attribute: s ~= 0.1 -> K ~= 1 + 2*0.1/0.2 = 2.
        rng = np.random.default_rng(0)
        schema = TableSchema([quantitative("x")])
        table = RelationalTable.from_columns(
            schema, [rng.uniform(0, 1, 1000)]
        )
        config = MinerConfig(
            min_support=0.2, max_support=0.5, num_partitions={"x": 10}
        )
        miner = QuantitativeMiner(table, config)
        assert miner.realized_completeness(0.2) == pytest.approx(2.0, abs=0.1)

    def test_no_partitioning_means_no_loss(self):
        schema = TableSchema([quantitative("x")])
        table = RelationalTable.from_columns(
            schema, [np.array([1.0, 2.0, 3.0] * 10)]
        )
        miner = QuantitativeMiner(
            table, MinerConfig(min_support=0.2, max_support=0.5)
        )
        assert miner.realized_completeness(0.2) == 1.0


class TestAutoBackendHeuristic:
    def test_huge_array_falls_back_to_rtree(self):
        # Five 60-valued dimensions -> 60^5 cells; far beyond any budget
        # a small candidate set justifies.
        rng = np.random.default_rng(1)
        schema = TableSchema(
            [quantitative(f"q{i}") for i in range(5)]
        )
        table = RelationalTable.from_columns(
            schema, [rng.integers(0, 60, 500).astype(float) for _ in range(5)]
        )
        mapper = TableMapper(
            table, MinerConfig(min_support=0.1, num_partitions=60)
        )
        candidates = [
            make_itemset([Item(a, 0, 5) for a in range(5)]),
        ]
        (group,) = group_candidates(candidates, set(range(5)))
        resolved = choose_backend(
            group, mapper, "auto", memory_budget_bytes=64 * 1024 * 1024
        )
        assert resolved == "rtree"

    def test_small_array_preferred(self):
        mapper = TableMapper(
            people_table(),
            MinerConfig(
                min_support=0.4,
                max_support=0.6,
                num_partitions={"Age": age_partition_edges()},
            ),
        )
        candidates = [make_itemset([Item(0, 0, 1), Item(2, 0, 1)])]
        (group,) = group_candidates(candidates, {0, 2})
        assert (
            choose_backend(group, mapper, "auto", 1 << 30) == "array"
        )


class TestInterestCounterFallback:
    def test_large_signature_uses_mask_scan(self, monkeypatch):
        """When the joint table would exceed the cell limit, on-demand
        supports fall back to record scans — results must agree."""
        from repro.core import InterestEvaluator
        from repro.core.apriori_quant import find_frequent_itemsets
        import repro.core.counting as counting_module

        rng = np.random.default_rng(2)
        schema = TableSchema([quantitative("x"), quantitative("y")])
        table = RelationalTable.from_columns(
            schema,
            [
                rng.integers(0, 30, 400).astype(float),
                rng.integers(0, 30, 400).astype(float),
            ],
        )
        config = MinerConfig(
            min_support=0.2, max_support=0.6, num_partitions=30,
            interest_level=1.2,
        )
        mapper = TableMapper(table, config)
        counts, freq = find_frequent_itemsets(mapper, config)
        evaluator = InterestEvaluator(counts, freq, mapper, config)
        probe = make_itemset([Item(0, 0, 3), Item(1, 0, 3)])
        fast = evaluator.itemset_support(probe)

        assert evaluator._counters.get((0, 1)) is not None
        monkeypatch.setattr(counting_module, "JOINT_CELL_LIMIT", 1)
        slow_eval = InterestEvaluator(counts, freq, mapper, config)
        slow = slow_eval.itemset_support(probe)
        assert slow_eval._counters.get((0, 1)) is None  # the mask path
        assert fast == pytest.approx(slow)
