"""Partitioning of quantitative attributes into base intervals.

Step 1 of the problem decomposition (Section 2.1): decide, per quantitative
attribute, whether to partition and into how many intervals.  Equi-depth
partitioning is the paper's choice (Lemma 4 proves it minimizes the partial
completeness level for a given interval count); equi-width is provided for
the skewed-data ablation the paper's future-work section motivates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Partitioning:
    """The result of partitioning one quantitative attribute.

    Attributes
    ----------
    edges:
        Monotone array of ``num_intervals + 1`` boundary values in raw
        space.  Interval ``i`` covers ``[edges[i], edges[i+1])``, except
        the last, which also includes its upper edge.
    partitioned:
        ``False`` when the attribute's distinct values were few enough to
        map 1:1 (Section 2.1, "quantitative attributes that are not
        partitioned"); ``edges`` then hold the distinct values themselves
        and :meth:`assign` maps each value to its rank.
    values:
        The distinct raw values, ascending (only kept when
        ``partitioned`` is ``False``).
    """

    edges: tuple
    partitioned: bool
    values: tuple = ()

    @property
    def num_intervals(self) -> int:
        if self.partitioned:
            return len(self.edges) - 1
        return len(self.values)

    def assign(self, column) -> np.ndarray:
        """Map raw values to base-interval indices (or value ranks)."""
        column = np.asarray(column, dtype=np.float64)
        if self.partitioned:
            inner = np.asarray(self.edges[1:-1])
            codes = np.searchsorted(inner, column, side="right")
        else:
            values = np.asarray(self.values)
            codes = np.searchsorted(values, column)
            codes = np.clip(codes, 0, len(values) - 1)
            mismatched = values[codes] != column
            if np.any(mismatched):
                bad = column[mismatched][0]
                raise ValueError(
                    f"value {bad!r} was not present when the value mapping "
                    "was built (unpartitioned attribute)"
                )
        return codes.astype(np.int64)

    def interval_bounds(self, code: int) -> tuple:
        """Raw (lo, hi) bounds of mapped value ``code``.

        For an unpartitioned attribute both bounds equal the raw value.
        The upper bound is exclusive for all but the last interval of a
        partitioned attribute; rendering code decides how to display it.
        """
        if not self.partitioned:
            v = self.values[code]
            return (v, v)
        return (self.edges[code], self.edges[code + 1])

    def interval_supports(self, column) -> np.ndarray:
        """Fractional support of each base interval on ``column``."""
        column = np.asarray(column, dtype=np.float64)
        counts = np.bincount(self.assign(column), minlength=self.num_intervals)
        if len(column) == 0:
            return counts.astype(np.float64)
        return counts / len(column)

    def max_multi_value_support(self, column, codes=None) -> float:
        """Highest support among intervals spanning more than one value.

        This is the ``s`` of Equation 1.  Single-value intervals are
        excluded per the footnote in Section 3.2; for an unpartitioned
        attribute every "interval" is one value, so s = 0.  ``codes``,
        when given, must equal ``assign(column)`` (a mapper's coded
        column) and saves re-assigning.  One pass takes each interval's
        min and max value: an interval spans several values iff its min
        is below its max.
        """
        if not self.partitioned:
            return 0.0
        column = np.asarray(column, dtype=np.float64)
        if len(column) == 0:
            return 0.0
        if codes is None:
            codes = self.assign(column)
        lowest = np.full(self.num_intervals, np.inf)
        highest = np.full(self.num_intervals, -np.inf)
        np.minimum.at(lowest, codes, column)
        np.maximum.at(highest, codes, column)
        multi = lowest < highest
        if not multi.any():
            return 0.0
        supports = np.bincount(codes, minlength=self.num_intervals)
        return float(supports[multi].max() / len(column))


def equi_depth(column, num_intervals: int) -> Partitioning:
    """Partition so each interval holds (approximately) equal record counts.

    Boundaries are quantiles of the observed values.  Heavily repeated
    values can collapse adjacent quantiles; duplicates are removed, so the
    realized interval count may be lower than requested (the paper's
    future-work section notes equi-depth degrades on highly skewed data —
    the equi-width alternative and the ablation benchmark explore this).
    """
    column = _validated_column(column)
    if num_intervals < 1:
        raise ValueError(f"num_intervals must be >= 1, got {num_intervals}")
    distinct = np.unique(column)
    if len(distinct) <= num_intervals:
        return Partitioning(edges=(), partitioned=False, values=tuple(distinct))
    quantiles = np.quantile(
        column, np.linspace(0.0, 1.0, num_intervals + 1)
    )
    edges = np.unique(quantiles)
    if len(edges) < 2:
        # All values identical after deduplication: single interval.
        edges = np.array([distinct[0], distinct[-1]])
    return Partitioning(edges=tuple(float(e) for e in edges), partitioned=True)


def equi_width(column, num_intervals: int) -> Partitioning:
    """Partition the value *range* into equal-width intervals."""
    column = _validated_column(column)
    if num_intervals < 1:
        raise ValueError(f"num_intervals must be >= 1, got {num_intervals}")
    distinct = np.unique(column)
    if len(distinct) <= num_intervals:
        return Partitioning(edges=(), partitioned=False, values=tuple(distinct))
    lo, hi = float(distinct[0]), float(distinct[-1])
    edges = np.linspace(lo, hi, num_intervals + 1)
    return Partitioning(edges=tuple(float(e) for e in edges), partitioned=True)


def equi_cardinality(column, num_intervals: int) -> Partitioning:
    """Partition so each interval holds (about) equally many *distinct*
    values.

    This is the optimal partitioning for the range-based partial
    completeness measure of the paper's future-work section (see
    :func:`repro.core.partial_completeness.range_completeness_level`):
    minimizing the maximum number of distinct values per interval
    minimizes the guaranteed range-expansion factor, just as equi-depth
    minimizes the support-based level (Lemma 4).
    """
    column = _validated_column(column)
    if num_intervals < 1:
        raise ValueError(f"num_intervals must be >= 1, got {num_intervals}")
    distinct = np.unique(column)
    if len(distinct) <= num_intervals:
        return Partitioning(edges=(), partitioned=False, values=tuple(distinct))
    cut_positions = np.linspace(0, len(distinct), num_intervals + 1)
    cut_indices = np.unique(np.round(cut_positions).astype(int))
    edges = [float(distinct[0])]
    edges.extend(float(distinct[i]) for i in cut_indices[1:-1])
    gap = float(np.min(np.diff(distinct)))
    edges.append(float(distinct[-1]) + gap)
    return Partitioning(edges=tuple(edges), partitioned=True)


def partition_column(column, num_intervals: int, method: str = "equidepth") -> Partitioning:
    """Dispatch to a partitioning method by name.

    ``"equidepth"`` (default), ``"equiwidth"``, ``"equicardinality"``
    (optimal for the range-based completeness measure), or ``"cluster"``
    (the 1-D k-means exploration of the paper's future-work section; see
    :mod:`repro.core.clustering`).
    """
    methods = {
        "equidepth": equi_depth,
        "equiwidth": equi_width,
        "equicardinality": equi_cardinality,
    }
    if method == "cluster":
        from .clustering import cluster_partition

        return cluster_partition(column, num_intervals)
    try:
        fn = methods[method]
    except KeyError:
        raise ValueError(
            f"unknown partition method {method!r}; "
            f"available: {sorted(methods) + ['cluster']}"
        ) from None
    return fn(column, num_intervals)


def _validated_column(column) -> np.ndarray:
    column = np.asarray(column, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"column must be 1-D, got shape {column.shape}")
    if column.size == 0:
        raise ValueError("cannot partition an empty column")
    if not np.all(np.isfinite(column)):
        raise ValueError("column contains NaN or infinite values")
    return column
