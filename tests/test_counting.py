"""Unit tests for repro.core.counting (super-candidates, Section 5.2)."""

import numpy as np
import pytest

from repro.core import Item, MinerConfig, TableMapper, make_itemset
from repro.core import counting
from repro.core.counting import (
    BitmapIndex,
    _popcount_rows,
    CountingStats,
    PrefixSumCounter,
    categorical_mask,
    choose_backend,
    count_frequent_pairs,
    count_groups,
    count_itemsets,
    group_candidates,
    resolve_group_backends,
)
from repro.engine.executor import SerialExecutor
from repro.engine.shards import plan_shards
from repro.table import RelationalTable, TableSchema, categorical, quantitative


@pytest.fixture
def mapper():
    rng = np.random.default_rng(12)
    schema = TableSchema(
        [
            quantitative("x"),
            quantitative("y"),
            categorical("c", ("p", "q")),
        ]
    )
    n = 600
    x = rng.integers(0, 8, n).astype(float)
    y = np.clip(x + rng.integers(-2, 3, n), 0, 7).astype(float)
    c = (x + rng.integers(0, 4, n) > 5).astype(np.int64)
    table = RelationalTable.from_columns(schema, [x, y, c])
    return TableMapper(
        table,
        MinerConfig(min_support=0.05, num_partitions={"x": 8, "y": 8}),
    )


def brute_support(mapper, itemset):
    mask = np.ones(mapper.num_records, dtype=bool)
    for item in itemset:
        col = mapper.column(item.attribute)
        mask &= (col >= item.lo) & (col <= item.hi)
    return int(mask.sum())


def sample_candidates(mapper):
    out = []
    for lo, hi in [(0, 2), (1, 4), (3, 7), (2, 2)]:
        out.append(make_itemset([Item(0, lo, hi), Item(1, 0, 3)]))
        out.append(make_itemset([Item(0, lo, hi), Item(2, 1, 1)]))
        out.append(
            make_itemset([Item(0, lo, hi), Item(1, 2, 6), Item(2, 0, 0)])
        )
    out.append(make_itemset([Item(2, 0, 0)]))
    return out


class TestGrouping:
    def test_groups_share_categorical_values_and_attrs(self, mapper):
        candidates = sample_candidates(mapper)
        groups = group_candidates(candidates, {0, 1})
        for group in groups:
            for itemset in group.candidates:
                cat = tuple(
                    it for it in itemset if it.attribute == 2
                )
                assert cat == group.categorical_items
        total = sum(len(g.candidates) for g in groups)
        assert total == len(candidates)

    def test_rectangles_align_with_quant_attrs(self, mapper):
        groups = group_candidates(
            [make_itemset([Item(0, 1, 4), Item(1, 0, 3)])], {0, 1}
        )
        lo, hi = groups[0].rectangles()
        np.testing.assert_array_equal(lo, [[1, 0]])
        np.testing.assert_array_equal(hi, [[4, 3]])


class TestPrefixSumCounter:
    def test_matches_brute_force_1d(self, mapper):
        counter = PrefixSumCounter(mapper, (0,))
        lo = np.array([[0], [2], [5]])
        hi = np.array([[7], [4], [5]])
        counts = counter.count_rects(lo, hi)
        for i in range(3):
            expected = brute_support(
                mapper, (Item(0, int(lo[i, 0]), int(hi[i, 0])),)
            )
            assert counts[i] == expected

    def test_matches_brute_force_2d_with_mask(self, mapper):
        mask = mapper.column(2) == 1
        counter = PrefixSumCounter(mapper, (0, 1), mask)
        lo = np.array([[1, 0], [0, 0]])
        hi = np.array([[4, 3], [7, 7]])
        counts = counter.count_rects(lo, hi)
        expected0 = brute_support(
            mapper, (Item(0, 1, 4), Item(1, 0, 3), Item(2, 1, 1))
        )
        assert counts[0] == expected0
        assert counts[1] == int(mask.sum())

    def test_count_cross_matches_individual(self, mapper):
        counter = PrefixSumCounter(mapper, (0, 1))
        ranges_x = [(0, 3), (2, 5)]
        ranges_y = [(0, 7), (4, 6)]
        cross = counter.count_cross([ranges_x, ranges_y])
        assert cross.shape == (2, 2)
        for i, rx in enumerate(ranges_x):
            for j, ry in enumerate(ranges_y):
                expected = brute_support(
                    mapper, (Item(0, *rx), Item(1, *ry))
                )
                assert cross[i, j] == expected


class TestBitmapIndex:
    def test_range_words_match_brute_force(self, mapper):
        index = BitmapIndex.for_view(mapper)
        for attr, lo, hi in [(0, 0, 7), (0, 2, 5), (1, 3, 3), (2, 1, 1)]:
            words = index.range_words(attr, lo, hi)
            count = int(_popcount_rows(words))
            expected = brute_support(mapper, (Item(attr, lo, hi),))
            assert count == expected
            # Padding bits past num_records must stay zero, or
            # complements would leak phantom records into counts.
            tail = mapper.num_records % 64
            if tail:
                assert int(words[-1]) >> tail == 0

    def test_index_cached_on_view(self, mapper):
        assert BitmapIndex.for_view(mapper) is BitmapIndex.for_view(mapper)

    def test_empty_view(self):
        from repro.engine.shards import ShardView

        empty = ShardView([np.empty(0, np.int64)] * 2, [8, 8], 0)
        index = BitmapIndex.for_view(empty)
        assert index.range_words(0, 0, 7).size == 0

    def test_word_boundary_record_counts(self):
        # 64 and 65 records exercise the exact-word and spill-over cases.
        for n in (63, 64, 65, 128):
            values = np.arange(n, dtype=float) % 4
            schema = TableSchema([quantitative("v")])
            table = RelationalTable.from_columns(schema, [values])
            view = TableMapper(
                table,
                MinerConfig(min_support=0.1, num_partitions={"v": 4}),
            )
            index = BitmapIndex.for_view(view)
            for lo, hi in [(0, 3), (1, 2), (3, 3)]:
                count = int(
                    _popcount_rows(index.range_words(0, lo, hi))
                )
                assert count == brute_support(view, (Item(0, lo, hi),))


class TestCountItemsets:
    @pytest.mark.parametrize(
        "backend", ["array", "rtree", "direct", "bitmap"]
    )
    def test_backends_match_brute_force(self, mapper, backend):
        candidates = sample_candidates(mapper)
        counts = count_itemsets(candidates, mapper, {0, 1}, backend)
        assert set(counts) == set(candidates)
        for itemset, count in counts.items():
            assert count == brute_support(mapper, itemset)

    def test_backends_agree_with_each_other(self, mapper):
        candidates = sample_candidates(mapper)
        results = [
            count_itemsets(candidates, mapper, {0, 1}, b)
            for b in ("array", "rtree", "direct", "bitmap", "auto")
        ]
        for other in results[1:]:
            assert other == results[0]

    def test_stats_record_backends(self, mapper):
        stats = CountingStats()
        count_itemsets(
            sample_candidates(mapper), mapper, {0, 1}, "array", stats=stats
        )
        assert stats.groups_by_backend.get("array", 0) > 0
        # The pure-categorical candidate is counted via the mask.
        assert stats.groups_by_backend.get("mask", 0) == 1


class TestChooseBackend:
    def test_explicit_choice_respected(self, mapper):
        groups = group_candidates(
            [make_itemset([Item(0, 0, 1), Item(1, 0, 1)])], {0, 1}
        )
        assert choose_backend(groups[0], mapper, "rtree", 1 << 30) == "rtree"

    def test_auto_prefers_array_when_cheap(self, mapper):
        groups = group_candidates(
            [make_itemset([Item(0, 0, 1), Item(1, 0, 1)])], {0, 1}
        )
        assert choose_backend(groups[0], mapper, "auto", 1 << 30) == "array"

    def test_auto_falls_back_when_over_budget(self, mapper):
        groups = group_candidates(
            [make_itemset([Item(0, 0, 1), Item(1, 0, 1)])], {0, 1}
        )
        assert choose_backend(groups[0], mapper, "auto", 16) == "rtree"

    def test_bitmap_respected_within_budget(self, mapper):
        groups = group_candidates(
            [make_itemset([Item(0, 0, 1), Item(1, 0, 1)])], {0, 1}
        )
        assert (
            choose_backend(groups[0], mapper, "bitmap", 1 << 30) == "bitmap"
        )

    def test_bitmap_falls_back_when_over_budget(self, mapper):
        # Prefix tables for two 8-value attributes over 600 records need
        # a few KiB; a 16-byte budget must reject them.
        groups = group_candidates(
            [make_itemset([Item(0, 0, 1), Item(1, 0, 1)])], {0, 1}
        )
        assert choose_backend(groups[0], mapper, "bitmap", 16) == "rtree"

    def test_bitmap_fallback_stays_exact(self, mapper):
        candidates = sample_candidates(mapper)
        tight = count_itemsets(
            candidates, mapper, {0, 1}, "bitmap", memory_budget_bytes=16
        )
        roomy = count_itemsets(candidates, mapper, {0, 1}, "bitmap")
        assert tight == roomy

    def test_bitmap_recorded_in_stats(self, mapper):
        stats = CountingStats()
        count_itemsets(
            sample_candidates(mapper), mapper, {0, 1}, "bitmap", stats=stats
        )
        assert stats.groups_by_backend.get("bitmap", 0) > 0
        assert stats.groups_by_backend.get("mask", 0) == 1


class TestCountFrequentPairs:
    def _frequent_items(self, mapper):
        from repro.core import find_frequent_items

        return find_frequent_items(mapper, 0.05, 0.5)

    def test_matches_explicit_enumeration(self, mapper):
        from repro.core.candidates import pairs_by_attribute

        freq = self._frequent_items(mapper)
        buckets = pairs_by_attribute(freq.supports)
        min_count = 0.05 * mapper.num_records
        fast, num_candidates = count_frequent_pairs(
            buckets, mapper, {0, 1}, min_count
        )
        # Reference: enumerate and count every cross-attribute pair.
        slow = {}
        attrs = sorted(buckets)
        expected_candidates = 0
        for i, a in enumerate(attrs):
            for b in attrs[i + 1:]:
                for ia in buckets[a]:
                    for ib in buckets[b]:
                        expected_candidates += 1
                        pair = make_itemset([ia, ib])
                        count = brute_support(mapper, pair)
                        if count >= min_count:
                            slow[pair] = count
        assert num_candidates == expected_candidates
        assert fast == slow

    @pytest.mark.parametrize("backend", ["rtree", "direct", "bitmap"])
    def test_explicit_backends_agree(self, mapper, backend):
        # The Section 5.2 structures are the pair plan's oracles: count
        # every materialized pass-2 candidate through the backend's own
        # per-group path, threshold, and demand the same frequent pairs.
        from repro.core.candidates import pairs_by_attribute

        freq = self._frequent_items(mapper)
        buckets = pairs_by_attribute(freq.supports)
        min_count = 0.1 * mapper.num_records
        fast, num_candidates = count_frequent_pairs(
            buckets, mapper, {0, 1}, min_count
        )
        attrs = sorted(buckets)
        candidates = [
            make_itemset([ia, ib])
            for i, a in enumerate(attrs)
            for b in attrs[i + 1:]
            for ia in buckets[a]
            for ib in buckets[b]
        ]
        stats = CountingStats()
        counts = count_itemsets(
            candidates, mapper, {0, 1}, backend, stats=stats
        )
        oracle = {
            itemset: count
            for itemset, count in counts.items()
            if count >= min_count
        }
        assert stats.groups_by_backend.get(backend, 0) > 0
        assert num_candidates == len(candidates)
        assert fast == oracle

    def test_categorical_mask_none_for_empty(self, mapper):
        assert categorical_mask(mapper, ()) is None

    def test_categorical_mask_selects_records(self, mapper):
        mask = categorical_mask(mapper, (Item(2, 1, 1),))
        np.testing.assert_array_equal(mask, mapper.column(2) == 1)


class TestPassTwoSinglePath:
    """Pass 2 counts through the pair plans under every backend."""

    @pytest.fixture(scope="class")
    def fine_table(self):
        from repro.data import generate_credit_table

        # 67 base intervals per quantitative attribute at the default
        # K=1.5: ~717k pass-2 candidates.
        return generate_credit_table(600, seed=11)

    @pytest.mark.parametrize("backend", ["rtree", "direct", "bitmap"])
    def test_backend_mines_pass_two_like_array(self, fine_table, backend):
        from repro.core import QuantitativeMiner

        base = {
            "min_support": 0.3,
            "min_confidence": 0.5,
            "max_itemset_size": 2,
        }
        reference = QuantitativeMiner(
            fine_table, MinerConfig(**base, counting="array")
        ).mine()
        result = QuantitativeMiner(
            fine_table, MinerConfig(**base, counting=backend)
        ).mine()
        assert list(result.support_counts.items()) == list(
            reference.support_counts.items()
        )
        tally = result.stats.counting_groups_by_backend
        assert set(tally) == {"array"}
        assert tally == reference.stats.counting_groups_by_backend


# ----------------------------------------------------------------------
# Pass >= 3: one joint prefix-sum table per attribute set
# ----------------------------------------------------------------------
@pytest.fixture
def mixed_mapper():
    """Two categorical and three quantitative attributes."""
    rng = np.random.default_rng(31)
    schema = TableSchema(
        [
            quantitative("a"),
            categorical("c1", ("p", "q", "r")),
            quantitative("b"),
            categorical("c2", ("u", "v")),
            quantitative("d"),
        ]
    )
    n = 900
    a = rng.integers(0, 6, n).astype(float)
    c1 = rng.integers(0, 3, n).astype(np.int64)
    b = np.clip(a + rng.integers(-2, 3, n), 0, 5).astype(float)
    c2 = (a + rng.integers(0, 3, n) > 4).astype(np.int64)
    d = rng.integers(0, 5, n).astype(float)
    table = RelationalTable.from_columns(schema, [a, c1, b, c2, d])
    return TableMapper(
        table,
        MinerConfig(min_support=0.05, num_partitions=6),
    )


QUANT = {0, 2, 4}


def mixed_candidates(mapper, seed=5, per_set=6):
    """Pass-3 and pass-4 itemsets with at least one quantitative item.

    Several attribute sets, several categorical value combinations per
    set (so groups share attribute sets), several ranges per group.
    """
    rng = np.random.default_rng(seed)
    attribute_sets = [(0, 1, 2), (0, 2, 3), (1, 3, 4), (0, 1, 3, 4), (0, 2, 4)]
    out = []
    for attrs in attribute_sets:
        for _ in range(per_set):
            items = []
            for a in attrs:
                card = mapper.cardinality(a)
                if a in QUANT:
                    lo = int(rng.integers(0, card))
                    hi = int(rng.integers(lo, card))
                else:
                    lo = hi = int(rng.integers(0, card))
                items.append(Item(a, lo, hi))
            itemset = make_itemset(items)
            if itemset not in out:
                out.append(itemset)
    return out


class _CountingBuilds:
    """Records every :class:`PrefixSumCounter` build's attrs and mask."""

    def __init__(self, monkeypatch):
        self.builds = []
        builds = self.builds

        class Spy(PrefixSumCounter):
            def __init__(self, mapper, attrs, mask=None):
                builds.append((tuple(attrs), mask is not None))
                super().__init__(mapper, attrs, mask)

        monkeypatch.setattr(counting, "PrefixSumCounter", Spy)


class TestJointCounting:
    def test_one_counter_per_attribute_set(self, mixed_mapper, monkeypatch):
        candidates = mixed_candidates(mixed_mapper)
        groups = group_candidates(candidates, QUANT)
        backends = resolve_group_backends(
            groups, mixed_mapper, "array", 1 << 30
        )
        assert set(backends) == {"array"}
        spy = _CountingBuilds(monkeypatch)
        masks = []
        real_mask = counting.categorical_mask
        monkeypatch.setattr(
            counting,
            "categorical_mask",
            lambda view, items: masks.append(items) or real_mask(view, items),
        )
        per_group = count_groups(groups, backends, mixed_mapper)

        attribute_sets = {tuple(it.attribute for it in c) for c in candidates}
        assert len(groups) > len(attribute_sets)  # sets are shared
        assert sorted(attrs for attrs, _ in spy.builds) == sorted(
            attribute_sets
        )
        assert not any(masked for _, masked in spy.builds)
        assert masks == []
        for group, counts in zip(groups, per_group):
            assert counts == [
                brute_support(mixed_mapper, c) for c in group.candidates
            ]

    def test_counters_are_per_call(self, mixed_mapper, monkeypatch):
        candidates = mixed_candidates(mixed_mapper)
        groups = group_candidates(candidates, QUANT)
        backends = ["array"] * len(groups)
        spy = _CountingBuilds(monkeypatch)
        state = set(vars(mixed_mapper))
        count_groups(groups, backends, mixed_mapper)
        first = len(spy.builds)
        count_groups(groups, backends, mixed_mapper)
        # Nothing is cached on the view: the second call rebuilds.
        assert len(spy.builds) == 2 * first
        assert set(vars(mixed_mapper)) == state

    @pytest.mark.parametrize("path", ["joint", "fallback"])
    @pytest.mark.parametrize("shard_size", [None, 97, 400])
    def test_matches_direct(self, mixed_mapper, monkeypatch, path, shard_size):
        candidates = mixed_candidates(mixed_mapper, seed=9, per_set=10)
        candidates.append(make_itemset([Item(1, 2, 2), Item(3, 0, 0)]))

        def run(backend):
            if shard_size is None:
                return count_itemsets(candidates, mixed_mapper, QUANT, backend)
            return count_itemsets(
                candidates,
                mixed_mapper,
                QUANT,
                backend,
                executor=SerialExecutor(),
                shards=plan_shards(
                    mixed_mapper.num_records, shard_size=shard_size
                ),
            )

        expected = run("direct")
        if path == "fallback":
            monkeypatch.setattr(counting, "JOINT_CELL_LIMIT", 0)
        spy = _CountingBuilds(monkeypatch)
        got = run("array")
        assert got == expected
        assert list(got) == list(expected)
        for itemset, count in got.items():
            assert count == brute_support(mixed_mapper, itemset)
        # Every categorical conjunct joined the table on the joint path;
        # the fallback masks records per group instead.
        has_categorical = any(
            set(attrs) - QUANT for attrs, _ in spy.builds
        )
        assert has_categorical == (path == "joint")

    def test_memory_budget_caps_the_joint_table(self, mixed_mapper):
        assert counting.joint_cell_limit(1 << 40) == counting.JOINT_CELL_LIMIT
        assert counting.joint_cell_limit(800) == 100
        assert counting.joint_cells(mixed_mapper, (0, 1, 2)) == 6 * 3 * 6
