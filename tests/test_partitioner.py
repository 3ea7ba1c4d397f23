"""Unit tests for repro.core.partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Partitioning, equi_depth, equi_width, partition_column


class TestEquiDepth:
    def test_balanced_counts_on_uniform_data(self):
        column = np.arange(1000, dtype=float)
        part = equi_depth(column, 4)
        assert part.partitioned
        assert part.num_intervals == 4
        supports = part.interval_supports(column)
        np.testing.assert_allclose(supports, 0.25, atol=0.01)

    def test_few_distinct_values_stay_unpartitioned(self):
        column = np.array([1.0, 2.0, 2.0, 3.0])
        part = equi_depth(column, 10)
        assert not part.partitioned
        assert part.num_intervals == 3
        np.testing.assert_array_equal(part.assign(column), [0, 1, 1, 2])

    def test_unpartitioned_rejects_unseen_value(self):
        part = equi_depth(np.array([1.0, 2.0, 3.0]), 10)
        with pytest.raises(ValueError, match="not present"):
            part.assign(np.array([2.5]))

    def test_codes_cover_all_intervals(self):
        rng = np.random.default_rng(0)
        column = rng.normal(size=5000)
        part = equi_depth(column, 8)
        codes = part.assign(column)
        assert set(codes) == set(range(part.num_intervals))

    def test_heavy_ties_collapse_intervals(self):
        # ~80% of mass on one value: quantile edges dedupe, so the
        # realized interval count drops below the request.
        column = np.array([5.0] * 90 + list(range(20)), dtype=float)
        part = equi_depth(column, 10)
        assert part.partitioned
        assert part.num_intervals < 10

    def test_single_interval_when_one_distinct_value_forced(self):
        column = np.array([3.0, 3.0, 3.0])
        part = equi_depth(column, 2)
        assert not part.partitioned
        assert part.num_intervals == 1

    def test_interval_bounds_monotone(self):
        column = np.arange(100, dtype=float)
        part = equi_depth(column, 5)
        bounds = [part.interval_bounds(i) for i in range(5)]
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert lo < hi
            assert hi == lo2


class TestEquiWidth:
    def test_equal_width_edges(self):
        column = np.array([0.0, 100.0, 37.0, 62.0, 5.0])
        part = equi_width(column, 4)
        np.testing.assert_allclose(
            part.edges, [0.0, 25.0, 50.0, 75.0, 100.0]
        )

    def test_assignment(self):
        column = np.array([0.0, 100.0, 37.0, 62.0, 5.0])
        part = equi_width(column, 4)
        np.testing.assert_array_equal(
            part.assign(column), [0, 3, 1, 2, 0]
        )

    def test_max_value_lands_in_last_interval(self):
        column = np.linspace(0, 10, 50)
        part = equi_width(column, 5)
        assert part.assign(np.array([10.0]))[0] == 4

    def test_skewed_data_leaves_empty_intervals(self):
        # Mass at 0..10 plus one far outlier: equi-width wastes most
        # intervals on the empty middle of the range.
        column = np.array(
            list(np.linspace(0, 10, 99)) + [1000.0]
        )
        part = equi_width(column, 10)
        supports = part.interval_supports(column)
        assert (supports == 0).sum() >= 8  # middle intervals empty


class TestValidation:
    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            equi_depth(np.array([]), 2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            equi_depth(np.array([1.0, np.nan]), 2)

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            equi_depth(np.zeros((2, 2)), 2)

    def test_zero_intervals_rejected(self):
        with pytest.raises(ValueError, match="num_intervals"):
            equi_depth(np.array([1.0, 2.0]), 0)

    def test_dispatch(self):
        column = np.arange(100, dtype=float)
        assert partition_column(column, 4, "equidepth").partitioned
        assert partition_column(column, 4, "equiwidth").partitioned
        with pytest.raises(ValueError, match="unknown"):
            partition_column(column, 4, "magic")


class TestMaxMultiValueSupport:
    def test_unpartitioned_is_zero(self):
        part = equi_depth(np.array([1.0, 2.0, 3.0]), 10)
        assert part.max_multi_value_support(np.array([1.0, 2.0, 3.0])) == 0.0

    def test_partitioned_matches_hand_count(self):
        column = np.array(
            [1, 1, 2, 2, 3, 3, 4, 4, 5, 5], dtype=float
        )
        part = equi_width(column, 2)  # [1, 3) and [3, 5]
        # Second interval holds {3,3,4,4,5,5}: support 0.6, multi-valued.
        assert part.max_multi_value_support(column) == pytest.approx(0.6)

    def test_single_value_intervals_excluded(self):
        # Interval [0, 5) holds only value 0 (90 copies) -> excluded from s
        # per the footnote in Section 3.2.
        column = np.array([0.0] * 90 + [5.0, 6.0] * 5)
        from repro.core import Partitioning

        part = Partitioning(edges=(0.0, 5.0, 6.5), partitioned=True)
        s = part.max_multi_value_support(column)
        assert s == pytest.approx(0.1)


def reference_multi_value_support(part, column) -> float:
    """Equation 1's ``s`` by one ``np.unique`` per interval."""
    if not part.partitioned:
        return 0.0
    codes = part.assign(column)
    supports = np.bincount(codes, minlength=part.num_intervals)
    s = 0.0
    for code in range(part.num_intervals):
        if supports[code] == 0:
            continue
        if np.unique(column[codes == code]).size > 1:
            s = max(s, supports[code] / len(column))
    return s


# Heavy repeats (a handful of values, one of them dominant) and wide
# columns of mostly distinct values; negative zero rides along.
_values = st.one_of(
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0]), min_size=1, max_size=80
    ),
    st.lists(
        st.integers(-1000, 1000).map(float), min_size=1, max_size=80
    ),
    st.tuples(
        st.integers(1, 60), st.lists(st.floats(-5, 5), max_size=20)
    ).map(lambda t: [3.0] * t[0] + t[1]),
)


class TestMaxMultiValueSupportProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        values=_values,
        intervals=st.integers(1, 12),
        method=st.sampled_from(["equidepth", "equiwidth", "equicardinality"]),
    )
    def test_matches_per_interval_unique(self, values, intervals, method):
        column = np.array(values, dtype=float)
        part = partition_column(column, intervals, method)
        expected = reference_multi_value_support(part, column)
        assert part.max_multi_value_support(column) == expected
        codes = part.assign(column)
        assert part.max_multi_value_support(column, codes) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(0, 9).map(float), min_size=1, max_size=60),
        cuts=st.lists(st.integers(1, 9), min_size=0, max_size=6, unique=True),
    )
    def test_explicit_edges_with_single_value_intervals(self, values, cuts):
        # Unit-width intervals over integer data hold one value each;
        # random cut points mix them with multi-value intervals.
        edges = tuple(float(e) for e in sorted({0, 10, *cuts}))
        part = Partitioning(edges=edges, partitioned=True)
        column = np.array(values, dtype=float)
        expected = reference_multi_value_support(part, column)
        assert part.max_multi_value_support(column) == expected
