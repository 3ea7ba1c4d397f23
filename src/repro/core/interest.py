"""The greater-than-expected-value interest measure (Section 4).

Combining adjacent intervals makes most mined rules small variations of
one another (the "ManyRules" problem).  The interest measure keeps a rule
only when it deviates from what its more general relatives already imply:

* The **expected** support of an itemset Z, given a generalization Ẑ, is
  ``Pr(Ẑ) * Π_i Pr(z_i) / Pr(ẑ_i)`` — i.e. assume Z's share of Ẑ follows
  the independent per-attribute value distribution.  Expected confidence
  projects the consequent the same way.
* A rule is R-interesting w.r.t. an ancestor when its support or
  confidence (or both, in ``support_and_confidence`` mode) reaches R
  times the expectation, **and** the specialization condition on its
  itemset holds: every frequent specialization whose region difference is
  itself an itemset must leave an R-interesting remainder.  The latter is
  the final measure's fix for Figure 6's "Decoy" ranges.

  (The paper words the final rule measure as "(sup OR conf deviates) AND
  itemset X∪Y is R-interesting", but the itemset measure repeats the
  support test, which would collapse the OR onto support alone; we read
  the itemset conjunct as contributing its specialization condition,
  keeping the OR meaningful.  DESIGN.md records this interpretation.)
* A rule is interesting *in a rule set S* when it has no ancestors in S,
  or it is R-interesting w.r.t. every close ancestor among its
  interesting ancestors.  Rules are evaluated most-general-first so every
  ancestor's verdict precedes its descendants'; because the maximal
  ancestors of any rule have no ancestors themselves (ancestry is
  transitive) and are therefore interesting, "has ancestors" and "has
  interesting ancestors" coincide, letting the scan consult only the
  (small) interesting set.

Rule sets here run to the hundreds of thousands (that is the point of the
measure), so the group scan is vectorized: rules sharing an attribute
signature become numpy bound/probability matrices, processed in batches
of equal generality (equal total range width — rules of equal generality
cannot be each other's ancestors).

Groups are mutually independent — ancestry never crosses an attribute
signature — so the filter also fans out by *blocks of signature groups*
through :func:`~repro.engine.sharded.partitioned_map`.  Workers receive a
picklable full-table view of the mapper; blocks merge in block order and
the final canonical sort keeps the output bit-identical to serial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.sharded import executor_table_view, partitioned_map, plan_blocks
from ..engine.stage import PipelineStage
from .config import (
    INTEREST_CONFIG_KEYS,
    SUPPORT_AND_CONFIDENCE,
    MinerConfig,
)
from .counting import JointCounters, joint_cell_limit
from .frequent_items import FrequentItems
from .items import Item
from .mapper import TableMapper
from .rules import QuantitativeRule

#: Fan the interest filter out only past this many signature groups —
#: each task ships the full support dictionary and frequent-item
#: distributions, which a few small groups cannot amortize.
_MIN_GROUPS_TO_FAN_OUT = 8


class InterestFilterStage(PipelineStage):
    """Step 5 as a pipeline stage: keep the interesting rules.

    Cacheable — the fingerprint covers the interest level, mode and
    specialization toggle, so an interest-only sweep re-runs exactly
    this stage against cached rules.
    """

    name = "interest"
    inputs = ("rules", "support_counts", "frequent_items", "mapper", "config")
    outputs = ("interesting_rules",)
    cacheable = True
    config_keys = INTEREST_CONFIG_KEYS

    def run(self, context) -> dict:
        a = context.artifacts
        config = a["config"]
        evaluator = InterestEvaluator(
            a["support_counts"], a["frequent_items"], a["mapper"], config
        )
        interesting = evaluator.filter_rules(
            a["rules"],
            executor=context.executor,
            block_size=config.execution.rule_block_size,
            execution_stats=context.execution_stats,
            tracer=context.tracer,
            span_parent=context.current_span,
            metrics=context.metrics,
        )
        if context.stats is not None:
            context.stats.num_interesting_rules = len(interesting)
        context.annotate(
            rules_in=len(a["rules"]),
            rules_out=len(interesting),
            pruned_by_interest=len(a["rules"]) - len(interesting),
        )
        return {"interesting_rules": interesting}

_EPS = 1e-9


@dataclass
class InterestStats:
    """Bookkeeping for reporting and tests."""

    rules_total: int = 0
    rules_interesting: int = 0
    deviation_tests: int = 0
    specialization_checks: int = 0
    on_demand_supports: int = 0

    @property
    def fraction_interesting(self) -> float:
        if self.rules_total == 0:
            return 0.0
        return self.rules_interesting / self.rules_total


class InterestEvaluator:
    """Evaluates R-interest for itemsets and rules against one dataset.

    Parameters
    ----------
    support_counts:
        All frequent itemsets with absolute support counts.
    frequent_items:
        Stage-3a output; its per-attribute distributions give the exact
        probability of any single item in O(1).
    mapper:
        The encoded table, needed to count difference itemsets on demand
        (they are usually not frequent, hence absent from
        ``support_counts`` — "the difference need not have minimum
        support").
    config:
        Supplies R, the support/confidence mode and whether the
        specialization check is applied.
    """

    def __init__(
        self,
        support_counts: dict,
        frequent_items: FrequentItems,
        mapper: TableMapper,
        config: MinerConfig,
    ) -> None:
        self._supports = support_counts
        self._freq = frequent_items
        self._mapper = mapper
        self._config = config
        self._n = mapper.num_records
        self.stats = InterestStats()
        # Frequent itemsets bucketed by attribute signature: only same-
        # signature itemsets can be specializations of one another.
        self._buckets: dict = {}
        for itemset in support_counts:
            sig = tuple(item.attribute for item in itemset)
            self._buckets.setdefault(sig, []).append(itemset)
        self._bucket_arrays: dict = {}
        # Signatures over the joint cell limit get ``None`` and fall
        # back to per-itemset record scans.
        self._counters = JointCounters(
            mapper, joint_cell_limit(config.memory_budget_bytes)
        )
        self._support_cache: dict = {}
        self._spec_cache: dict = {}
        self._diff_cache: dict = {}
        self._corange_indexes: dict = {}

    # ------------------------------------------------------------------
    # Probabilities and expectations
    # ------------------------------------------------------------------
    def item_probability(self, item) -> float:
        """Pr of a single item, exact for any range over the attribute."""
        return self._freq.support(item)

    def itemset_support(self, itemset) -> float:
        """Fractional support, from the frequent set or counted on demand."""
        count = self._supports.get(itemset)
        if count is not None:
            return count / self._n
        cached = self._support_cache.get(itemset)
        if cached is not None:
            return cached
        support = self._count_itemset(itemset)
        self._support_cache[itemset] = support
        self.stats.on_demand_supports += 1
        return support

    def _count_itemset(self, itemset) -> float:
        if self._n == 0:
            return 0.0
        counter = self._counters.get(
            tuple(item.attribute for item in itemset)
        )
        if counter is not None:
            lo = np.array([[item.lo for item in itemset]], dtype=np.int64)
            hi = np.array([[item.hi for item in itemset]], dtype=np.int64)
            return int(counter.count_rects(lo, hi)[0]) / self._n
        mask = None
        for item in itemset:
            col = self._mapper.column(item.attribute)
            cond = (col >= item.lo) & (col <= item.hi)
            mask = cond if mask is None else mask & cond
        return float(np.count_nonzero(mask)) / self._n

    def _projection(self, itemset, generalization) -> float:
        """``Π_i Pr(z_i) / Pr(ẑ_i)`` over corresponding items."""
        ratio = 1.0
        for z, z_hat in zip(itemset, generalization):
            p_hat = self.item_probability(z_hat)
            if p_hat == 0.0:
                return 0.0  # degenerate generalization; nothing expected
            ratio *= self.item_probability(z) / p_hat
        return ratio

    def expected_support(self, itemset, generalization) -> float:
        """E_{Pr(Ẑ)}[Pr(Z)] of Section 4."""
        return self._projection(itemset, generalization) * self.itemset_support(
            generalization
        )

    def expected_confidence(self, rule, ancestor) -> float:
        """E[Pr(Y | X)] based on the ancestor rule (consequents aligned)."""
        return (
            self._projection(rule.consequent, ancestor.consequent)
            * ancestor.confidence
        )

    # ------------------------------------------------------------------
    # Itemset-level interest
    # ------------------------------------------------------------------
    def itemset_r_interesting(self, itemset, generalization) -> bool:
        """The final itemset measure of Section 4.

        Support must be at least R times expectation, and every frequent
        specialization whose difference from ``itemset`` is expressible as
        an itemset must leave an R-interesting remainder.
        """
        r = self._config.effective_interest_level
        if not self._support_exceeds(itemset, generalization, r):
            return False
        if not self._config.apply_specialization_check:
            return True
        return self.specialization_condition(itemset, generalization)

    def specialization_condition(self, itemset, generalization) -> bool:
        """The final measure's specialization-difference requirement.

        For every frequent specialization X' of ``itemset`` such that
        ``itemset - X'`` is itself an itemset, the difference must be
        R-interesting (on support) w.r.t. ``generalization``.

        The set of expressible differences depends only on ``itemset``, so
        it is computed once and reused across every ancestor the itemset
        is tested against.
        """
        key = (itemset, generalization)
        verdict = self._spec_cache.get(key)
        if verdict is not None:
            return verdict
        r = self._config.effective_interest_level
        verdict = True
        for difference in self._expressible_differences(itemset):
            self.stats.specialization_checks += 1
            if not self._support_exceeds(difference, generalization, r):
                verdict = False
                break
        self._spec_cache[key] = verdict
        return verdict

    def _expressible_differences(self, itemset) -> tuple:
        """``X - X'`` for every frequent specialization X' with an
        expressible (single-box) difference, deduplicated, cached per X.

        A specialization has an expressible difference only when it
        matches X exactly on all attributes but one and shares an endpoint
        on the remaining one, so instead of scanning the whole bucket for
        contained boxes, the co-range index (frequent itemsets keyed by
        "everything except position j") jumps straight to the candidates.
        """
        cached = self._diff_cache.get(itemset)
        if cached is not None:
            return cached
        sig = tuple(item.attribute for item in itemset)
        index = self._corange_index(sig)
        differences = []
        seen = set()
        for j, item in enumerate(itemset):
            rest = itemset[:j] + itemset[j + 1:]
            for lo, hi in index[j].get(rest, ()):
                if lo < item.lo or hi > item.hi:
                    continue  # not a specialization on this position
                if lo == item.lo and hi == item.hi:
                    continue  # X itself
                if lo == item.lo:
                    remainder = Item(item.attribute, hi + 1, item.hi)
                elif hi == item.hi:
                    remainder = Item(item.attribute, item.lo, lo - 1)
                else:
                    continue  # interior: X - X' is two boxes
                difference = itemset[:j] + (remainder,) + itemset[j + 1:]
                if difference not in seen:
                    seen.add(difference)
                    differences.append(difference)
        cached = tuple(differences)
        self._diff_cache[itemset] = cached
        return cached

    def _corange_index(self, sig: tuple) -> list:
        """Per-position co-range index of one signature's frequent itemsets.

        ``index[j]`` maps "the itemset minus position j" to the (lo, hi)
        ranges appearing at position j alongside exactly those items.
        """
        index = self._corange_indexes.get(sig)
        if index is not None:
            return index
        index = [dict() for _ in sig]
        for member in self._buckets.get(sig, ()):
            for j, item in enumerate(member):
                rest = member[:j] + member[j + 1:]
                index[j].setdefault(rest, []).append((item.lo, item.hi))
        self._corange_indexes[sig] = index
        return index

    def _specializations_of(self, itemset):
        """Strict frequent specializations of ``itemset`` (vectorized)."""
        sig = tuple(item.attribute for item in itemset)
        arrays = self._bucket_arrays.get(sig)
        if arrays is None:
            bucket = self._buckets.get(sig, [])
            if not bucket:
                self._bucket_arrays[sig] = ((), None, None)
            else:
                lo = np.array(
                    [[it.lo for it in member] for member in bucket],
                    dtype=np.int64,
                )
                hi = np.array(
                    [[it.hi for it in member] for member in bucket],
                    dtype=np.int64,
                )
                self._bucket_arrays[sig] = (tuple(bucket), lo, hi)
            arrays = self._bucket_arrays[sig]
        bucket, lo, hi = arrays
        if not bucket:
            return []
        own_lo = np.array([it.lo for it in itemset], dtype=np.int64)
        own_hi = np.array([it.hi for it in itemset], dtype=np.int64)
        contained = np.all(lo >= own_lo, axis=1) & np.all(
            hi <= own_hi, axis=1
        )
        out = []
        for idx in np.nonzero(contained)[0]:
            member = bucket[idx]
            if member != itemset:
                out.append(member)
        return out

    def _support_exceeds(self, itemset, generalization, r) -> bool:
        expected = self.expected_support(itemset, generalization)
        return self.itemset_support(itemset) + _EPS >= r * expected

    # ------------------------------------------------------------------
    # Rule-level interest
    # ------------------------------------------------------------------
    def rule_r_interesting(
        self, rule: QuantitativeRule, ancestor: QuantitativeRule
    ) -> bool:
        """R-interest of one rule w.r.t. one ancestor rule."""
        r = self._config.effective_interest_level
        self.stats.deviation_tests += 1
        expected_sup = self.expected_support(rule.itemset, ancestor.itemset)
        sup_ok = rule.support + _EPS >= r * expected_sup
        expected_conf = self.expected_confidence(rule, ancestor)
        conf_ok = rule.confidence + _EPS >= r * expected_conf
        if self._config.interest_mode == SUPPORT_AND_CONFIDENCE:
            deviation_ok = sup_ok and conf_ok
        else:
            deviation_ok = sup_ok or conf_ok
        if not deviation_ok:
            return False
        if not self._config.apply_specialization_check:
            return True
        return self.specialization_condition(rule.itemset, ancestor.itemset)

    def filter_rules(
        self,
        rules,
        *,
        executor=None,
        block_size: int | None = None,
        execution_stats=None,
        tracer=None,
        span_parent=None,
        metrics=None,
    ) -> list:
        """Return the rules that are interesting within ``rules``.

        Each attribute-signature group is processed most-general-first in
        batches of equal generality; ancestor containment, close-ancestor
        minimality and the deviation tests run as numpy matrix operations
        against the group's accumulated interesting set, and only
        deviation survivors reach the (cached) specialization check.

        Groups are independent of one another, so with a multi-worker
        ``executor`` (or an explicit ``block_size``) blocks of groups run
        under the executor via :func:`~repro.engine.sharded.partitioned_map`;
        the merged, canonically sorted output is bit-identical to the
        serial path.
        """
        self.stats.rules_total = len(rules)
        if not self._config.interest_enabled:
            self.stats.rules_interesting = len(rules)
            return list(rules)

        groups: dict = {}
        for rule in rules:
            groups.setdefault(rule.attribute_signature(), []).append(rule)
        group_list = list(groups.values())

        # Mirror the rule-generation fan-out policy: an explicit block
        # size always takes the block path, the derived layout only once
        # there are enough groups to amortize the per-task payload.
        if block_size is not None:
            min_work = 1
        else:
            min_work = _MIN_GROUPS_TO_FAN_OUT
        fan_out = (
            executor is not None
            and (
                getattr(executor, "num_workers", 1) > 1
                or block_size is not None
            )
            and len(group_list) >= min_work
        )

        interesting: list = []
        if fan_out:
            # A full-table view is mapper-compatible and picklable, which
            # is all the worker-side evaluator needs for on-demand
            # (difference itemset) support counting; under a parallel
            # executor it is a zero-copy shared-memory descriptor rather
            # than a per-payload copy of every column.
            view = executor_table_view(executor, self._mapper)
            blocks = plan_blocks(
                group_list, getattr(executor, "num_workers", 1), block_size
            )
            payloads = [
                (block, self._supports, self._freq, view, self._config)
                for block in blocks
            ]
            for kept, worker_stats in partitioned_map(
                executor,
                _interest_block,
                payloads,
                stats=execution_stats,
                stage="interest",
                tracer=tracer,
                parent=span_parent,
                metrics=metrics,
            ):
                interesting.extend(kept)
                self.stats.deviation_tests += worker_stats.deviation_tests
                self.stats.specialization_checks += (
                    worker_stats.specialization_checks
                )
                self.stats.on_demand_supports += (
                    worker_stats.on_demand_supports
                )
        else:
            for group in group_list:
                interesting.extend(self._filter_group(group))
        interesting.sort(key=QuantitativeRule.sort_key)
        self.stats.rules_interesting = len(interesting)
        return interesting

    # ------------------------------------------------------------------
    # Group machinery
    # ------------------------------------------------------------------
    def _filter_group(self, group: list) -> list:
        arrays = _build_group_arrays(group, self._freq)
        return _GroupFilter(self, arrays).run()


@dataclass
class _GroupArrays:
    """Numpy view of one attribute-signature group of rules."""

    rules: list  # ordered by descending generality
    lo: np.ndarray  # (G, k) all item lower bounds (antecedent + consequent)
    hi: np.ndarray  # (G, k)
    probs: np.ndarray  # (G, k) per-item probabilities
    sup: np.ndarray  # (G,)
    conf: np.ndarray  # (G,)
    generality: np.ndarray  # (G,) descending
    num_antecedent: int


def _build_group_arrays(group: list, freq) -> _GroupArrays:
    k1 = len(group[0].antecedent)
    k2 = len(group[0].consequent)
    n = max(1, freq.num_records)
    lo = np.array(
        [
            [it.lo for it in rule.antecedent + rule.consequent]
            for rule in group
        ],
        dtype=np.int64,
    )
    hi = np.array(
        [
            [it.hi for it in rule.antecedent + rule.consequent]
            for rule in group
        ],
        dtype=np.int64,
    )
    sup = np.fromiter((r.support for r in group), np.float64, len(group))
    conf = np.fromiter((r.confidence for r in group), np.float64, len(group))
    # Per-item probabilities straight from the cumulative distributions:
    # column j always holds the same attribute within a signature group.
    probs = np.empty(lo.shape, dtype=np.float64)
    first = group[0].antecedent + group[0].consequent
    for j, item in enumerate(first):
        cum = freq.attribute_counts[item.attribute].cumulative
        probs[:, j] = (cum[hi[:, j] + 1] - cum[lo[:, j]]) / n
    generality = (hi - lo + 1).sum(axis=1)
    # Most-general-first; stable, so the caller's deterministic rule order
    # breaks ties.
    order = np.argsort(-generality, kind="stable")
    return _GroupArrays(
        [group[i] for i in order],
        lo[order],
        hi[order],
        probs[order],
        sup[order],
        conf[order],
        generality[order],
        k1,
    )


class _GroupFilter:
    """Runs the interesting-rule recursion over one group."""

    def __init__(self, evaluator: InterestEvaluator, arrays: _GroupArrays):
        self._ev = evaluator
        self._a = arrays
        self._interesting: list = []  # row indices, generality descending

    def run(self) -> list:
        a = self._a
        start = 0
        g = len(a.rules)
        while start < g:
            stop = start
            while stop < g and a.generality[stop] == a.generality[start]:
                stop += 1
            self._process_batch(start, stop)
            start = stop
        return [a.rules[i] for i in self._interesting]

    def _process_batch(self, start: int, stop: int) -> None:
        if not self._interesting:
            self._interesting.extend(range(start, stop))
            return
        a = self._a
        # Rules within a batch share one generality, so none is another's
        # ancestor: the interesting set can be frozen for the whole batch
        # and its bound matrices hoisted out of the chunk loop.
        idx = np.array(self._interesting, dtype=np.int64)
        interesting_lo = a.lo[idx]
        interesting_hi = a.hi[idx]
        # Chunk so the (chunk x I) working matrices stay modest.
        chunk = max(1, 8_000_000 // max(1, len(idx)))
        newly_interesting: list = []
        for lo in range(start, stop, chunk):
            self._process_chunk(
                lo,
                min(lo + chunk, stop),
                idx,
                interesting_lo,
                interesting_hi,
                newly_interesting,
            )
        self._interesting.extend(newly_interesting)

    def _process_chunk(
        self, start, stop, idx, interesting_lo, interesting_hi, out
    ) -> None:
        a = self._a
        batch = np.arange(start, stop)
        # anc[b, i]: interesting rule idx[i] is an ancestor of batch rule
        # b.  Built dimension by dimension to keep intermediates 2-D.
        # Equal bounds cannot occur: the interesting set has strictly
        # greater generality than the batch.
        k = a.lo.shape[1]
        anc = interesting_lo[:, 0][None, :] <= a.lo[batch, 0][:, None]
        anc &= interesting_hi[:, 0][None, :] >= a.hi[batch, 0][:, None]
        for d in range(1, k):
            anc &= interesting_lo[:, d][None, :] <= a.lo[batch, d][:, None]
            anc &= interesting_hi[:, d][None, :] >= a.hi[batch, d][:, None]

        no_ancestors = ~anc.any(axis=1)
        out.extend(int(b) for b in batch[no_ancestors])

        # Collect the (rule, close ancestor) pairs of the whole chunk, then
        # run every deviation test in one vectorized shot; only survivors
        # reach the (cached) Python-level specialization check.
        pair_rules: list = []
        pair_ancestors: list = []
        pair_slices: list = []  # (rule_row, start, stop) into the pair list
        for offset in np.nonzero(~no_ancestors)[0]:
            b = int(batch[offset])
            ancestor_rows = idx[np.nonzero(anc[offset])[0]]
            close = self._close_among(ancestor_rows)
            pair_slices.append(
                (b, len(pair_rules), len(pair_rules) + len(close))
            )
            pair_rules.extend([b] * len(close))
            pair_ancestors.extend(int(row) for row in close)
        if not pair_slices:
            return
        deviation_ok = self._deviation_ok(
            np.array(pair_rules, dtype=np.int64),
            np.array(pair_ancestors, dtype=np.int64),
        )
        for b, lo, hi in pair_slices:
            if not deviation_ok[lo:hi].all():
                continue
            if self._ev._config.apply_specialization_check:
                rule_itemset = self._a.rules[b].itemset
                if not all(
                    self._ev.specialization_condition(
                        rule_itemset, self._a.rules[anc_row].itemset
                    )
                    for anc_row in pair_ancestors[lo:hi]
                ):
                    continue
            out.append(b)

    def _deviation_ok(self, rule_rows, ancestor_rows) -> np.ndarray:
        """Vectorized deviation test for (rule, ancestor) row pairs."""
        a = self._a
        ev = self._ev
        ev.stats.deviation_tests += len(rule_rows)
        r = ev._config.effective_interest_level
        ratio = a.probs[rule_rows] / a.probs[ancestor_rows]
        expected_sup = a.sup[ancestor_rows] * ratio.prod(axis=1)
        sup_ok = a.sup[rule_rows] + _EPS >= r * expected_sup
        conf_ratio = ratio[:, a.num_antecedent:].prod(axis=1)
        expected_conf = a.conf[ancestor_rows] * conf_ratio
        conf_ok = a.conf[rule_rows] + _EPS >= r * expected_conf
        if ev._config.interest_mode == SUPPORT_AND_CONFIDENCE:
            return sup_ok & conf_ok
        return sup_ok | conf_ok

    def _close_among(self, ancestor_rows: np.ndarray) -> np.ndarray:
        """Close (minimal) members of an ancestor set.

        An ancestor is close when it is not an ancestor of any *other*
        member of the set — i.e. nothing in the set sits strictly between
        it and the rule.  Ancestor sets are small, so the pairwise
        containment test is computed on the subset only.
        """
        if len(ancestor_rows) == 1:
            return ancestor_rows
        a = self._a
        lo = a.lo[ancestor_rows]
        hi = a.hi[ancestor_rows]
        # among[i, j]: member i is an ancestor of member j.
        among = np.all(lo[:, None, :] <= lo[None, :, :], axis=2) & np.all(
            hi[:, None, :] >= hi[None, :, :], axis=2
        )
        np.fill_diagonal(among, False)
        return ancestor_rows[~among.any(axis=1)]

def _interest_block(payload) -> tuple:
    """Worker: filter one block of attribute-signature groups.

    Builds a private evaluator over the shipped full-table view and runs
    the group machinery on its block only; returns the kept rules (in
    group order) plus the worker's counters for merging.
    """
    groups, support_counts, frequent_items, view, config = payload
    evaluator = InterestEvaluator(support_counts, frequent_items, view, config)
    kept: list = []
    for group in groups:
        kept.extend(evaluator._filter_group(group))
    return kept, evaluator.stats


def filter_interesting_rules(
    rules,
    support_counts,
    frequent_items,
    mapper,
    config,
    *,
    executor=None,
    block_size: int | None = None,
    execution_stats=None,
):
    """Convenience wrapper: build an evaluator and filter in one call."""
    evaluator = InterestEvaluator(
        support_counts, frequent_items, mapper, config
    )
    kept = evaluator.filter_rules(
        rules,
        executor=executor,
        block_size=block_size,
        execution_stats=execution_stats,
    )
    return kept, evaluator.stats
