"""The mining pipeline as a chain of public layer calls, and output checks.

:func:`compose_mine` makes, one by one, the calls that
``QuantitativeMiner.mine()`` makes through its execution engine:
encode, frequent items, pass 2, the join passes, rule generation and
the interest filter.  The traced run wraps each call in a span named
after its layer, and :func:`check_identical` holds the composed output
to ``mine()`` bit for bit, so the per-layer times describe the same
work the end-to-end time measures.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import generate_candidates, pairs_by_attribute
from repro.core.config import SUPPORT_AND_CONFIDENCE
from repro.core.counting import (
    CountingStats,
    count_frequent_pairs,
    count_itemsets,
)
from repro.core.frequent_items import find_frequent_items
from repro.core.interest import InterestEvaluator
from repro.core.mapper import TableMapper
from repro.core.rulegen import generate_rules


class CheckFailed(AssertionError):
    """The program's output differs from what the benchmark expects."""


def compose_frequent_itemsets(table, config, rec):
    """Steps 2-3: encode and find every frequent itemset.

    Returns ``(mapper, frequent_items, support_counts)``; the insertion
    order of ``support_counts`` is the engine's: items, then each pass.
    """
    with rec.span("mapper.encode"):
        mapper = TableMapper(table, config)
    rangeable = {
        a
        for a in range(mapper.num_attributes)
        if mapper.mapping(a).is_rangeable
    }
    min_count = config.min_support * mapper.num_records
    counting_stats = CountingStats()
    prune = (
        config.interest_enabled
        and config.interest_mode == SUPPORT_AND_CONFIDENCE
    )
    with rec.span("frequent_items") as span:
        frequent = find_frequent_items(
            mapper,
            config.min_support,
            config.max_support,
            interest_level=config.effective_interest_level,
            prune_by_interest=prune,
        )
        span.counts["items"] = len(frequent.supports)
    support_counts = {
        (item,): count for item, count in frequent.supports.items()
    }
    if config.max_itemset_size == 1 or not support_counts:
        return mapper, frequent, support_counts

    with rec.span("candidates"):
        buckets = pairs_by_attribute(frequent.supports)
    with rec.span("counting.pairs") as span:
        current, num_candidates = count_frequent_pairs(
            buckets,
            mapper,
            rangeable,
            min_count,
            backend=config.counting,
            memory_budget_bytes=config.memory_budget_bytes,
            stats=counting_stats,
        )
        span.counts["candidates"] = num_candidates
        span.counts["frequent"] = len(current)
    support_counts.update(current)
    k = 3
    while current and (
        config.max_itemset_size is None or k <= config.max_itemset_size
    ):
        with rec.span("candidates") as span:
            candidates = generate_candidates(sorted(current), k)
            span.counts["generated"] = len(candidates)
        if not candidates:
            break
        with rec.span("counting.itemsets") as span:
            counted = count_itemsets(
                candidates,
                mapper,
                rangeable,
                backend=config.counting,
                memory_budget_bytes=config.memory_budget_bytes,
                stats=counting_stats,
            )
            current = {
                itemset: count
                for itemset, count in counted.items()
                if count >= min_count
            }
            span.counts["candidates"] = len(candidates)
            span.counts["frequent"] = len(current)
        support_counts.update(current)
        k += 1
    return mapper, frequent, support_counts


def compose_mine(table, config, rec):
    """Steps 2-5; returns ``(support_counts, rules, interesting_rules)``."""
    mapper, frequent, support_counts = compose_frequent_itemsets(
        table, config, rec
    )
    with rec.span("rulegen") as span:
        rules = generate_rules(
            support_counts,
            mapper.num_records,
            config.effective_min_confidence,
        )
        span.counts["rules"] = len(rules)
    with rec.span("interest") as span:
        evaluator = InterestEvaluator(
            support_counts, frequent, mapper, config
        )
        interesting = evaluator.filter_rules(rules)
        span.counts["rules_in"] = len(rules)
        span.counts["kept"] = len(interesting)
    return support_counts, rules, interesting


def check_identical(composed, result) -> None:
    """The composed calls must reproduce ``mine()`` bit for bit."""
    support_counts, rules, interesting = composed
    if list(support_counts.items()) != list(result.support_counts.items()):
        raise CheckFailed("composed support_counts differ from mine()")
    if rules != result.rules:
        raise CheckFailed("composed rules differ from mine()")
    if interesting != result.interesting_rules:
        raise CheckFailed("composed interesting_rules differ from mine()")


def check_mining_result(result, config, samples: int = 40) -> None:
    """Spot-check a mining result against the encoded table.

    Recounts a spread of frequent itemsets straight from the coded
    columns, and checks every rule's support and confidence against the
    itemset counts and the configured thresholds.
    """
    mapper = result.mapper
    n = mapper.num_records
    counts = result.support_counts
    min_count = config.min_support * n
    if not counts:
        raise CheckFailed("no frequent itemsets")
    itemsets = list(counts)
    step = max(1, len(itemsets) // samples)
    for itemset in itemsets[::step]:
        mask = np.ones(n, dtype=bool)
        for item in itemset:
            column = mapper.column(item.attribute)
            mask &= (column >= item.lo) & (column <= item.hi)
        if int(mask.sum()) != counts[itemset]:
            raise CheckFailed(f"support count of {itemset} is wrong")
        if counts[itemset] < min_count:
            raise CheckFailed(f"{itemset} is below minimum support")
    min_conf = config.effective_min_confidence
    for rule in result.rules:
        whole = tuple(sorted(rule.antecedent + rule.consequent))
        if rule.support != counts[whole] / n:
            raise CheckFailed(f"support of rule {rule} is wrong")
        if rule.confidence != counts[whole] / counts[rule.antecedent]:
            raise CheckFailed(f"confidence of rule {rule} is wrong")
        if rule.confidence < min_conf:
            raise CheckFailed(f"rule {rule} is below minimum confidence")
    kept = set(result.interesting_rules)
    if not kept <= set(result.rules):
        raise CheckFailed("an interesting rule is not among the rules")
