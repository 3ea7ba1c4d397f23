"""Support counting via super-candidates (Section 5.2).

Candidates sharing the same attributes and the same categorical values are
grouped into a *super-candidate*: its categorical part is a fixed
conjunction of <attribute, value> pairs, and its quantitative part is a set
of n-dimensional rectangles (one per candidate).  A record whose
categorical attributes match contributes the point formed by its
quantitative values; the candidate's support is the number of such points
its rectangle contains.

Counting is *record-shardable*: every primitive here runs identically on
the full table or on one :class:`~repro.engine.shards.TableShard`'s
:class:`~repro.engine.shards.ShardView`, and per-shard counts are plain
integers that sum to the exact global counts.  Backend resolution
(``choose_backend``) happens once, against full-table cardinalities,
before any fan-out, so the shard layout can never change which structure
answers a group.

Pass 2 has one counting path for every backend: each attribute pair's
full cross product of frequent items is answered by one 2-D prefix-sum
plan (:func:`count_frequent_pairs`).  The backends below, and the memory
budget ``choose_backend`` charges them against, decide pass >= 3
super-candidate counting (:func:`count_itemsets`) only.

Interchangeable backends answer "how many points fall in each
rectangle":

``array``
    The paper's multi-dimensional array: a joint histogram over the
    mapped values, turned into an inclusive prefix-sum table so each
    rectangle is answered with a 2^n-corner inclusion–exclusion in O(1).
    Cheap CPU, memory proportional to the product of attribute
    cardinalities.  Where the paper builds one array per super-candidate
    over its quantitative attributes (after selecting the records that
    match its categorical part), :func:`count_groups` builds one *joint*
    table per attribute set, with every attribute of the itemset as a
    dimension: a categorical item is the rectangle side ``[v, v]``, so
    every super-candidate over the same attributes reads the same table
    and no record mask is computed.  A joint table larger than
    :func:`joint_cell_limit` falls back to the paper's masked
    per-super-candidate array.
``rtree``
    The paper's R*-tree: rectangles are indexed, each record issues one
    point-containment query.  Memory proportional to the number of
    candidates, CPU higher.
``direct``
    Reference backend: one vectorized column scan per candidate.  Used for
    cross-validation; asymptotically the worst of the three.
``bitmap``
    Packed-bitset backend: per attribute, a prefix-aggregated family of
    per-interval bitmaps (``np.uint64`` words via little-endian
    ``np.packbits``) makes any ``<attr, lo, hi>`` range two word-level
    operations (``prefix[hi + 1] & ~prefix[lo]``), so a super-candidate
    is answered by ANDing a few bitmap rows and popcounting — no
    per-group record scan once the index is built.  Estimated index
    memory is charged against the budget; a group whose index would not
    fit falls back to the R*-tree.
``auto``
    The paper's heuristic: per super-candidate, use the array when its
    estimated memory stays within budget and is not vastly larger than the
    R*-tree's, else fall back to the R*-tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..engine.shard_cache import sharded_map_cached
from ..engine.shards import plan_shards
from ..rtree import Rect, bulk_load
from .mapper import TableMapper

#: Prefer the array while its memory is within this factor of the
#: R*-tree's estimate (Section 5.2's "ratio of the expected memory use").
_ARRAY_OVER_RTREE_RATIO = 8.0

#: Largest joint prefix-sum table (in cells) any counting call builds —
#: pass >= 3 super-candidates and the interest filter's on-demand
#: supports alike.  :func:`joint_cell_limit` also charges it against the
#: run's memory budget.
JOINT_CELL_LIMIT = 4_000_000


@dataclass
class SuperCandidate:
    """A group of candidates differing only in their quantitative ranges."""

    categorical_items: tuple  # items fixing the categorical attributes
    quant_attrs: tuple  # quantitative attribute indices, sorted
    candidates: list  # full itemsets (each a canonical item tuple)

    @property
    def ndim(self) -> int:
        return len(self.quant_attrs)

    def rectangles(self) -> tuple:
        """(lo, hi) integer arrays of shape (num_candidates, ndim)."""
        lo = np.empty((len(self.candidates), self.ndim), dtype=np.int64)
        hi = np.empty_like(lo)
        for row, itemset in enumerate(self.candidates):
            quant = [
                item for item in itemset if item.attribute in self.quant_attrs
            ]
            for col, item in enumerate(quant):
                lo[row, col] = item.lo
                hi[row, col] = item.hi
        return lo, hi


def group_candidates(candidates, quantitative: set) -> list:
    """Partition candidates into super-candidates.

    ``quantitative`` is the set of quantitative attribute indices; items on
    other attributes form the fixed categorical part of the key.
    """
    groups: dict = {}
    for itemset in candidates:
        cat = tuple(
            item for item in itemset if item.attribute not in quantitative
        )
        quant_attrs = tuple(
            item.attribute for item in itemset if item.attribute in quantitative
        )
        groups.setdefault((cat, quant_attrs), []).append(itemset)
    return [
        SuperCandidate(cat, quant_attrs, members)
        for (cat, quant_attrs), members in groups.items()
    ]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def categorical_mask(mapper: TableMapper, items) -> np.ndarray | None:
    """Boolean record mask for a conjunction of categorical items.

    Returns ``None`` for an empty conjunction (every record matches),
    letting callers skip the masking cost entirely.
    """
    mask = None
    for item in items:
        column_match = mapper.column(item.attribute) == item.lo
        mask = column_match if mask is None else mask & column_match
    return mask


class PrefixSumCounter:
    """The multi-dimensional array of Section 5.2, with prefix sums.

    Builds the joint histogram of the given attributes over the records
    selected by ``mask`` and pre-computes an inclusive prefix-sum table,
    after which any axis-aligned integer rectangle is counted in
    O(2^ndim).
    """

    def __init__(self, mapper: TableMapper, attrs, mask=None) -> None:
        self._shape = tuple(mapper.cardinality(a) for a in attrs)
        columns = [mapper.column(a) for a in attrs]
        if mask is not None:
            columns = [c[mask] for c in columns]
        # Row-major flat cell index by Horner's rule, in place in one
        # buffer (codes are in range by construction, so the bounds
        # checks and temporaries of ``np.ravel_multi_index`` are waste).
        flat = columns[0]
        if len(columns) > 1:
            flat = flat.astype(np.int64)
            for column, size in zip(columns[1:], self._shape[1:]):
                flat *= size
                flat += column
        hist = np.bincount(flat, minlength=self.num_cells)
        # Zero-padded cumulative table: P[i1..in] counts points with
        # coordinate_d < i_d in every dimension d.  The histogram is
        # accumulated in place inside the padding.
        table = np.zeros(tuple(n + 1 for n in self._shape), dtype=np.int64)
        inner = table[(slice(1, None),) * len(self._shape)]
        inner[...] = hist.reshape(self._shape)
        for axis in range(len(self._shape)):
            np.cumsum(inner, axis=axis, out=inner)
        self._table = table

    @property
    def num_cells(self) -> int:
        return int(np.prod(self._shape))

    def count_rects(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Counts for rectangles given as (m, ndim) integer bound arrays."""
        ndim = len(self._shape)
        counts = np.zeros(len(lo), dtype=np.int64)
        # Inclusion–exclusion over the 2^ndim corners: pick hi_d + 1
        # (inside) or lo_d (outside) per dimension; sign flips per
        # "outside" choice.
        for corner in product((0, 1), repeat=ndim):
            idx = tuple(
                hi[:, d] + 1 if corner[d] else lo[:, d] for d in range(ndim)
            )
            sign = 1 if (ndim - sum(corner)) % 2 == 0 else -1
            counts += sign * self._table[idx]
        return counts

    def count_cross(self, ranges_per_dim) -> np.ndarray:
        """Counts for the full cross product of per-dimension range lists.

        ``ranges_per_dim[d]`` is a list of (lo, hi) pairs; the result has
        shape ``(len(ranges_per_dim[0]), ..., len(ranges_per_dim[-1]))``.
        This is the pass-2 fast path: outer indexing answers every
        combination without materializing candidate objects.
        """
        ndim = len(self._shape)
        los = [np.array([r[0] for r in dim], dtype=np.int64) for dim in ranges_per_dim]
        his = [np.array([r[1] for r in dim], dtype=np.int64) for dim in ranges_per_dim]
        shape = tuple(len(dim) for dim in ranges_per_dim)
        counts = np.zeros(shape, dtype=np.int64)
        for corner in product((0, 1), repeat=ndim):
            idx = np.ix_(
                *(
                    his[d] + 1 if corner[d] else los[d]
                    for d in range(ndim)
                )
            )
            sign = 1 if (ndim - sum(corner)) % 2 == 0 else -1
            counts += sign * self._table[idx]
        return counts


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        """Population count along the last axis of packed uint64 words."""
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)

else:  # pragma: no cover - numpy < 2 fallback
    _POPCOUNT_LUT = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.int64
    )

    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        """Population count along the last axis of packed uint64 words."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.int64)


class BitmapIndex:
    """Prefix-aggregated per-interval bitsets over a view's coded columns.

    For attribute ``a`` with cardinality ``c``, ``prefix(a)`` is a
    ``(c + 1, num_words)`` uint64 matrix whose row ``v`` is the packed
    bitmap of records with ``column(a) < v`` — so the bitmap of any
    value range ``[lo, hi]`` is ``prefix[hi + 1] & ~prefix[lo]``, two
    word-level operations regardless of the range width.  All rows carry
    zero padding bits past ``num_records``, which keeps the complement's
    set padding bits from ever surviving an AND with a real row.

    Attribute tables build lazily on first use and the whole index is
    cached on the view object (``view._bitmap_index``) when the view
    accepts attributes, so a mapper reused across passes — or a shard
    view reused across groups — pays each attribute's build cost once.
    """

    def __init__(self, view) -> None:
        self._view = view
        self._num_records = view.num_records
        self._num_words = (self._num_records + 63) // 64
        self._prefix: dict = {}

    @classmethod
    def for_view(cls, view) -> "BitmapIndex":
        """The view's cached index, building (and caching) it if absent."""
        index = getattr(view, "_bitmap_index", None)
        if index is None:
            index = cls(view)
            try:
                view._bitmap_index = index
            except AttributeError:  # slots-only view: per-call index
                pass
        return index

    @property
    def num_records(self) -> int:
        return self._num_records

    def nbytes(self) -> int:
        """Bytes held by the attribute tables built so far."""
        return sum(table.nbytes for table in self._prefix.values())

    def prefix(self, attribute: int) -> np.ndarray:
        """The prefix-bitmap table for one attribute (built lazily)."""
        table = self._prefix.get(attribute)
        if table is None:
            table = self._build_prefix(attribute)
            self._prefix[attribute] = table
        return table

    def _build_prefix(self, attribute: int) -> np.ndarray:
        column = self._view.column(attribute)
        cardinality = self._view.cardinality(attribute)
        # One-hot rows -> little-endian packed bytes -> OR-accumulate
        # down the value axis; a zero row on top gives prefix[0] = {}.
        onehot = column == np.arange(cardinality, dtype=np.int64)[:, None]
        packed = np.packbits(onehot, axis=1, bitorder="little")
        rows = np.zeros(
            (cardinality + 1, self._num_words * 8), dtype=np.uint8
        )
        if packed.size:
            np.bitwise_or.accumulate(
                packed, axis=0, out=rows[1:, : packed.shape[1]]
            )
        return rows.view(np.uint64)

    def range_words(self, attribute: int, lo: int, hi: int) -> np.ndarray:
        """Packed bitmap of records with ``lo <= column(attribute) <= hi``."""
        table = self.prefix(attribute)
        return table[hi + 1] & ~table[lo]

    def conjunction_words(self, items) -> np.ndarray | None:
        """AND of the items' bitmaps; ``None`` for an empty conjunction."""
        words = None
        for item in items:
            row = self.range_words(item.attribute, item.lo, item.hi)
            words = row if words is None else words & row
        return words


def _bitmap_memory_estimate(group, mapper) -> int:
    """Estimated bytes of the bitmap index the group would touch.

    Counts the persistent prefix tables of every attribute the group
    reads — quantitative dimensions and categorical conjuncts alike:
    ``(cardinality + 1)`` rows of ``ceil(records / 64)`` uint64 words.
    """
    num_words = (mapper.num_records + 63) // 64
    attributes = set(group.quant_attrs)
    attributes.update(item.attribute for item in group.categorical_items)
    return sum(
        (mapper.cardinality(a) + 1) * num_words * 8 for a in attributes
    )


def _count_group_bitmap(group, index: BitmapIndex) -> list:
    """Counts for one group via the bitmap index: AND rows, popcount.

    Gathers each dimension's ``(m, num_words)`` range bitmaps with one
    fancy index per quantitative attribute, ANDs them together with the
    categorical conjunction's bitmap, and popcounts each candidate's
    row — a handful of vectorized word-level passes however many
    candidates the group holds.
    """
    base = index.conjunction_words(group.categorical_items)
    lo, hi = group.rectangles()
    acc = None
    for dim, attribute in enumerate(group.quant_attrs):
        table = index.prefix(attribute)
        rows = table[hi[:, dim] + 1] & ~table[lo[:, dim]]
        if acc is None:
            acc = rows if base is None else rows & base
        else:
            acc &= rows
    if acc is None:  # pure-categorical group (normally mask-counted)
        if base is None:
            return [index.num_records] * len(group.candidates)
        return [int(_popcount_rows(base))] * len(group.candidates)
    return _popcount_rows(acc).tolist()


# ----------------------------------------------------------------------
# Joint prefix-sum tables
# ----------------------------------------------------------------------
def joint_cell_limit(memory_budget_bytes: int) -> int:
    """The one cell-count rule for joint prefix-sum tables.

    :data:`JOINT_CELL_LIMIT` cells, and never more 8-byte cells than the
    memory budget holds.
    """
    return min(JOINT_CELL_LIMIT, memory_budget_bytes // 8)


def joint_cells(view, attrs) -> int:
    """Cells of the joint table over ``attrs``.

    Reads full-table cardinalities only, so every shard of one table
    makes the same choice against the limit.
    """
    cells = 1
    for a in attrs:
        cells *= view.cardinality(a)
    return cells


class JointCounters:
    """Joint counters keyed by attribute tuple, built on first use.

    The owner decides the lifetime: the interest evaluator keeps one per
    run for its on-demand supports.  ``get`` returns ``None`` for a tuple
    over the cell limit; callers then scan records instead.
    """

    def __init__(self, view, cell_limit: int) -> None:
        self._view = view
        self._cell_limit = cell_limit
        self._counters: dict = {}

    def get(self, attrs: tuple):
        if attrs not in self._counters:
            fits = joint_cells(self._view, attrs) <= self._cell_limit
            self._counters[attrs] = (
                PrefixSumCounter(self._view, attrs) if fits else None
            )
        return self._counters[attrs]


def _count_joint(groups, counter) -> list:
    """Counts for groups over one attribute set, from one joint table.

    Every candidate's items, categorical ones included, become the sides
    of one rectangle, so the whole set is a single ``count_rects``.
    """
    bounds = np.array(
        [
            [(item.lo, item.hi) for item in itemset]
            for group in groups
            for itemset in group.candidates
        ],
        dtype=np.int64,
    )
    counts = counter.count_rects(bounds[:, :, 0], bounds[:, :, 1]).tolist()
    out = []
    start = 0
    for group in groups:
        stop = start + len(group.candidates)
        out.append(counts[start:stop])
        start = stop
    return out


# ----------------------------------------------------------------------
# Per-group backends
# ----------------------------------------------------------------------
def _count_group_array(group, mapper, mask) -> list:
    counter = PrefixSumCounter(mapper, group.quant_attrs, mask)
    lo, hi = group.rectangles()
    return counter.count_rects(lo, hi).tolist()


def _count_group_rtree(group, mapper, mask) -> list:
    lo, hi = group.rectangles()
    # STR bulk loading: the rectangle set is fully known up front, so
    # packing beats incremental R* insertion and yields a tighter tree.
    tree = bulk_load(
        (
            (Rect(lo[i], hi[i]), i)
            for i in range(len(group.candidates))
        ),
        max_entries=16,
    )
    columns = [mapper.column(a) for a in group.quant_attrs]
    if mask is not None:
        columns = [c[mask] for c in columns]
    counts = [0] * len(group.candidates)
    for point in zip(*columns):
        for candidate_index in tree.containing_point(point):
            counts[candidate_index] += 1
    return counts


def _count_group_direct(group, mapper, mask) -> list:
    counts = []
    for itemset in group.candidates:
        m = mask.copy() if mask is not None else None
        for item in itemset:
            if item.attribute not in group.quant_attrs:
                continue
            col = mapper.column(item.attribute)
            cond = (col >= item.lo) & (col <= item.hi)
            m = cond if m is None else m & cond
        if m is None:
            counts.append(mapper.num_records)
        else:
            counts.append(int(m.sum()))
    return counts


def _rtree_memory_estimate(num_candidates: int, ndim: int) -> int:
    return num_candidates * (2 * ndim * 16 + 64) + 64


def choose_backend(
    group: SuperCandidate,
    mapper: TableMapper,
    requested: str,
    memory_budget_bytes: int,
) -> str:
    """Resolve the backend for one super-candidate group.

    ``auto`` applies the paper's heuristic: the array wins on CPU, so use
    it unless its cell memory blows past the budget or dwarfs the
    R*-tree's estimated footprint.  A requested ``bitmap`` is likewise
    charged for its index memory — a group whose prefix tables would
    blow the budget (e.g. an unpartitioned attribute whose cardinality
    approaches the record count) falls back to the R*-tree, which is
    bounded by the candidate count instead.
    """
    if requested == "bitmap":
        if _bitmap_memory_estimate(group, mapper) > memory_budget_bytes:
            return "rtree"
        return "bitmap"
    if requested != "auto":
        return requested
    if group.ndim == 0:
        return "array"  # degenerate; no structure needed either way
    cells = 1
    for a in group.quant_attrs:
        cells *= mapper.cardinality(a)
    array_bytes = cells * 8
    rtree_bytes = _rtree_memory_estimate(len(group.candidates), group.ndim)
    if array_bytes > memory_budget_bytes:
        return "rtree"
    if array_bytes > _ARRAY_OVER_RTREE_RATIO * max(rtree_bytes, 4096):
        return "rtree"
    return "array"


_GROUP_BACKENDS = {
    "array": _count_group_array,
    "rtree": _count_group_rtree,
    "direct": _count_group_direct,
}

#: Pseudo-backend for pure-categorical groups: the support is the
#: categorical mask's population count, no spatial structure involved.
MASK_BACKEND = "mask"


def resolve_group_backends(
    groups, view, backend: str, memory_budget_bytes: int
) -> list:
    """Pin one backend per super-candidate group, up front.

    Resolution reads full-table cardinalities only, so it is computed
    once before any shard fan-out and shipped to workers — the shard
    layout can never flip the ``auto`` heuristic's choice.
    """
    return [
        MASK_BACKEND
        if group.ndim == 0
        else choose_backend(group, view, backend, memory_budget_bytes)
        for group in groups
    ]


def count_groups(groups, backends, view, cell_limit=JOINT_CELL_LIMIT) -> list:
    """Per-candidate counts for each group on ``view``.

    ``view`` is the full table or one shard; the result is a list (per
    group) of lists (per candidate) of integer counts, merge-ready by
    elementwise addition.

    ``array`` groups over the same attribute set share one joint
    prefix-sum table with every attribute as a dimension, so they
    compute no categorical mask.  The tables are built one attribute
    set at a time and dropped before the next, so at most one is alive
    and none outlives the call.  An attribute set whose table would
    exceed ``cell_limit`` cells (:func:`joint_cells`) falls back to the
    masked per-group array.  ``bitmap`` groups share one
    :class:`BitmapIndex` per call (cached on the view when possible) and
    express their categorical conjunction as bitmap ANDs, so they skip
    the per-group boolean mask entirely.
    """
    out: list = [None] * len(groups)
    joint: dict = {}
    bitmap_index = None
    for position, (group, resolved) in enumerate(zip(groups, backends)):
        if resolved == "array":
            attrs = tuple(item.attribute for item in group.candidates[0])
            if joint_cells(view, attrs) <= cell_limit:
                joint.setdefault(attrs, []).append(position)
                continue
        if resolved == "bitmap":
            if bitmap_index is None:
                bitmap_index = BitmapIndex.for_view(view)
            counts = _count_group_bitmap(group, bitmap_index)
            out[position] = [int(c) for c in counts]
            continue
        mask = categorical_mask(view, group.categorical_items)
        if resolved == MASK_BACKEND:
            population = (
                int(mask.sum()) if mask is not None else view.num_records
            )
            out[position] = [population] * len(group.candidates)
        else:
            counts = _GROUP_BACKENDS[resolved](group, view, mask)
            out[position] = [int(c) for c in counts]
    for attrs, positions in joint.items():
        counter = PrefixSumCounter(view, attrs)
        members = [groups[position] for position in positions]
        for position, counts in zip(positions, _count_joint(members, counter)):
            out[position] = counts
        del counter
    return out


def _count_groups_shard(view, payload):
    """Shard worker: count every group's candidates on one shard."""
    groups, backends, cell_limit = payload
    return count_groups(groups, backends, view, cell_limit)


def _merge_group_counts(per_shard: list) -> list:
    """Sum per-shard ``count_groups`` results elementwise (exact)."""
    merged = per_shard[0]
    for shard_counts in per_shard[1:]:
        merged = [
            [a + b for a, b in zip(left, right)]
            for left, right in zip(merged, shard_counts)
        ]
    return merged


@dataclass
class CountingStats:
    """Backend usage tally across super-candidate groups.

    Keys are resolved backend names — ``"array"``, ``"rtree"``,
    ``"direct"``, ``"bitmap"`` or the pure-categorical ``"mask"``
    pseudo-backend — so an explicit request that partially fell back
    (e.g. ``bitmap`` groups over budget landing on ``rtree``) is visible
    in the tally.  Each pass-2 attribute-pair plan counts as one
    ``"array"`` group.
    """

    groups_by_backend: dict = field(default_factory=dict)

    def record(self, backend: str) -> None:
        self.groups_by_backend[backend] = (
            self.groups_by_backend.get(backend, 0) + 1
        )


def count_itemsets(
    candidates,
    mapper: TableMapper,
    quantitative: set,
    backend: str = "array",
    memory_budget_bytes: int = 256 * 1024 * 1024,
    stats: CountingStats | None = None,
    *,
    executor=None,
    shards=None,
    execution_stats=None,
    tracer=None,
    span_parent=None,
    metrics=None,
    shard_cache=None,
) -> dict:
    """Support counts for explicit candidate itemsets.

    Groups the candidates into super-candidates, resolves a backend per
    group and returns ``{itemset: absolute support count}``.  With an
    ``executor``/``shards`` pair the counting fans out per record shard
    and the per-shard counts are summed — bit-identical to the direct
    path for any shard layout.  ``tracer``/``span_parent``/``metrics``
    ride through to :func:`~repro.engine.sharded.sharded_map` so the
    fan-out shows up as ``shard_task`` spans under the calling stage.
    """
    counts: dict = {}
    groups = group_candidates(candidates, quantitative)
    if not groups:
        return counts
    backends = resolve_group_backends(
        groups, mapper, backend, memory_budget_bytes
    )
    cell_limit = joint_cell_limit(memory_budget_bytes)
    if executor is None and shards is None:
        per_group = count_groups(groups, backends, mapper, cell_limit)
    else:
        if shards is None:
            shards = plan_shards(mapper.num_records)
        per_shard = sharded_map_cached(
            shard_cache,
            executor,
            mapper,
            shards,
            _count_groups_shard,
            (groups, backends, cell_limit),
            stats=execution_stats,
            stage="count_itemsets",
            tracer=tracer,
            parent=span_parent,
            metrics=metrics,
        )
        per_group = _merge_group_counts(per_shard)
    for group, resolved, group_counts in zip(groups, backends, per_group):
        if stats is not None:
            stats.record(resolved)
        for itemset, count in zip(group.candidates, group_counts):
            counts[itemset] = int(count)
    return counts


# ----------------------------------------------------------------------
# Pass-2 pair plans
# ----------------------------------------------------------------------
# Each attribute pair becomes one *plan*: a picklable description of the
# counting work whose ``shard_counts`` runs on any view (full table or
# shard) and whose ``emit`` thresholds the merged counts into the
# frequent-pair dictionary.  Splitting count from emit is what makes
# pass 2 record-shardable: raw counts merge associatively, thresholding
# happens exactly once on the global sums.


@dataclass
class _PairPlan:
    """One attribute pair's cross product, answered by one 2-D prefix sum.

    A categorical item is a range with ``lo == hi``, so quantitative,
    categorical and mixed pairs alike build one joint histogram over the
    pair and answer every item combination with one outer-indexed
    inclusion–exclusion (:meth:`PrefixSumCounter.count_cross`).
    """

    attrs: tuple
    items_a: list
    items_b: list

    def shard_counts(self, view) -> np.ndarray:
        counter = PrefixSumCounter(view, self.attrs)
        return counter.count_cross(
            [
                [(it.lo, it.hi) for it in self.items_a],
                [(it.lo, it.hi) for it in self.items_b],
            ]
        )

    def emit(self, counts, min_count, out, stats) -> None:
        if stats is not None:
            stats.record("array")
        for ia, ib in np.argwhere(counts >= min_count):
            out[(self.items_a[ia], self.items_b[ib])] = int(counts[ia, ib])


def build_pair_plans(item_buckets: dict, pair_filter=None):
    """One :class:`_PairPlan` per attribute pair, plus the candidate tally.

    Pass 2 has a single counting path: every pair is answered by its
    prefix-sum plan whatever ``counting`` backend the run requested —
    backends and the memory budget only decide pass >= 3 super-candidate
    counting (:func:`count_itemsets`).

    ``pair_filter``, when given, is a predicate over an attribute pair
    ``(a, b)`` with ``a < b``; pairs it rejects contribute no plan and no
    candidates (goal-directed mining uses this to count only the waves
    it needs).
    """
    plans: list = []
    num_candidates = 0
    attrs = sorted(item_buckets)
    for i, a in enumerate(attrs):
        for b in attrs[i + 1:]:
            if pair_filter is not None and not pair_filter(a, b):
                continue
            items_a, items_b = item_buckets[a], item_buckets[b]
            num_candidates += len(items_a) * len(items_b)
            plans.append(_PairPlan((a, b), list(items_a), list(items_b)))
    return plans, num_candidates


def _count_pairs_shard(view, plans):
    """Shard worker: raw counts for every pair plan on one shard."""
    return [plan.shard_counts(view) for plan in plans]


def count_frequent_pairs(
    item_buckets: dict,
    mapper: TableMapper,
    quantitative: set,
    min_count: float,
    backend: str = "array",
    memory_budget_bytes: int = 256 * 1024 * 1024,
    stats: CountingStats | None = None,
    *,
    executor=None,
    shards=None,
    execution_stats=None,
    tracer=None,
    span_parent=None,
    metrics=None,
    shard_cache=None,
    pair_filter=None,
):
    """Pass 2, specialized: return frequent 2-itemsets and the candidate tally.

    The pass-2 candidate set is the cross product of frequent items over
    every attribute pair, which can be orders of magnitude larger than the
    surviving L_2.  Each pair is answered by one :class:`_PairPlan`: a
    2-D prefix-sum table and one outer-indexed inclusion–exclusion over
    the whole cross product, materializing only the frequent pairs.

    Pass 2 counts the same way under every backend: ``quantitative``,
    ``backend`` and ``memory_budget_bytes`` stay in the signature for
    existing callers but are not read here — the backend choice and the
    memory budget apply to pass >= 3 super-candidates only.

    With an ``executor``/``shards`` pair, each shard computes raw counts
    for every plan, the per-shard counts are summed, and the minimum-count
    threshold is applied once to the exact global sums.

    Returns ``(frequent: dict, num_candidates: int)``.
    """
    plans, num_candidates = build_pair_plans(
        item_buckets, pair_filter=pair_filter
    )
    frequent: dict = {}
    if not plans:
        return frequent, num_candidates
    if executor is None and shards is None:
        merged = _count_pairs_shard(mapper, plans)
    else:
        if shards is None:
            shards = plan_shards(mapper.num_records)
        per_shard = sharded_map_cached(
            shard_cache,
            executor,
            mapper,
            shards,
            _count_pairs_shard,
            plans,
            stats=execution_stats,
            stage="count_pairs",
            tracer=tracer,
            parent=span_parent,
            metrics=metrics,
        )
        merged = per_shard[0]
        for shard_result in per_shard[1:]:
            merged = [m + s for m, s in zip(merged, shard_result)]
    for plan, counts in zip(plans, merged):
        plan.emit(counts, min_count, frequent, stats)
    return frequent, num_candidates

