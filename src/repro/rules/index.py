"""Columnar point queries over a mined ruleset (fit/predict serving).

A mined rule fires for a record when the record satisfies every item of
the rule's antecedent — i.e. when the record's mapped integer codes fall
inside the antecedent's per-attribute ranges.  Each antecedent is an
axis-aligned box over the full attribute space (antecedent-free
dimensions span everything), so "which rules fire" is a point-containment
test against every box at once.

:class:`RuleIndex` stores the boxes as two ``int64`` arrays ``lo`` and
``hi`` of shape rules x attributes, with rows pre-sorted by rank, and
answers a query with one numpy comparison — no tree to build and no
per-query sort.  It ingests a :class:`~repro.core.miner.MiningResult`
or an exported rule document (the ``"attributes"`` section added by
:mod:`repro.core.export` makes documents self-sufficient), encodes raw
records with the same partitionings the miner used, and answers

* :meth:`~RuleIndex.match` — every fired rule, ranked by
  confidence x lift (the greater-than-expected flavor of "interest"
  that is computable per rule), ties broken by the canonical rule
  order so output is deterministic;
* :meth:`~RuleIndex.predict` — fired rules concluding on a target
  attribute, plus the top rule's consequent interval as the
  prediction.

An index built with ``use_index=False`` answers the same queries by a
per-rule antecedent scan instead; it is the reference the columnar path
is property-tested against, and ``benchmarks/bench_rule_serving.py``
prices the gap.  Indexes pickle cleanly and persist content-addressed
through any :class:`~repro.engine.cache.ArtifactCache`
(:meth:`~RuleIndex.save` / :meth:`~RuleIndex.load`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.export import mappings_from_document, rule_from_dict
from ..core.rules import QuantitativeRule
from ..engine.fingerprint import fingerprint

#: Mapped code standing in for "value missing / not encodable".  Real
#: codes are >= 0 and antecedent ranges only cover real codes, so a
#: missing value never satisfies a constrained dimension — while the
#: unconstrained dimensions of every rule box are widened to include it.
MISSING_CODE = -1

#: Cache-key prefix for persisted indexes (content-addressed).  The
#: version tag changes with the pickled layout, so an index persisted in
#: an older layout is rebuilt, never served.
INDEX_CACHE_PREFIX = "ruleset-index-v2:"


@dataclass(frozen=True)
class RuleMatch:
    """One fired rule with its ranking score.

    ``score`` is ``confidence * lift``; rules whose lift is unknown
    (document without lift annotations, zero-support consequent) rank
    by confidence alone (lift treated as 1.0).
    """

    rule: QuantitativeRule
    score: float
    lift: float | None


@dataclass(frozen=True)
class Prediction:
    """What :meth:`RuleIndex.predict` returns.

    ``matches`` are the fired rules concluding on the target (ranked);
    ``interval`` is the top rule's consequent code range over the
    target attribute (``None`` when nothing fired) and ``display`` its
    raw-value rendering.
    """

    target: str
    matches: tuple
    interval: tuple | None = None
    display: str | None = None
    confidence: float | None = None
    score: float | None = None


class RuleIndex:
    """Range-containment evaluator over a ruleset's antecedents.

    Parameters
    ----------
    rules:
        The :class:`~repro.core.rules.QuantitativeRule` list to serve.
    mappings:
        Per-attribute :class:`~repro.core.mapper.AttributeMapping`
        objects, in schema order — either a live mapper's ``mappings``
        or the rebuilt ones of
        :func:`~repro.core.export.mappings_from_document`.
    lifts:
        Optional per-rule lift values aligned with ``rules`` (``None``
        entries allowed); missing lifts rank as 1.0.
    use_index:
        ``False`` skips building the ``lo``/``hi`` arrays and answers
        every query by a per-rule antecedent scan — the reference
        semantics the columnar path is tested against.
    """

    def __init__(
        self, rules, mappings, *, lifts=None, use_index: bool = True
    ) -> None:
        self._mappings = tuple(mappings)
        self._attr_index = {
            m.name: i for i, m in enumerate(self._mappings)
        }
        self._label_codes = [
            {label: code for code, label in enumerate(m.labels)}
            for m in self._mappings
        ]
        self._rules = list(rules)
        self._lifts = (
            [None] * len(self._rules) if lifts is None else list(lifts)
        )
        if len(self._lifts) != len(self._rules):
            raise ValueError(
                f"{len(self._rules)} rules but {len(self._lifts)} "
                "lift values"
            )
        matches = [
            RuleMatch(
                rule=rule,
                score=rule.confidence * (1.0 if lift is None else lift),
                lift=lift,
            )
            for rule, lift in zip(self._rules, self._lifts)
        ]
        # Ranking is fixed at build time: score descending, canonical
        # rule order as the deterministic tie-break.  Both query paths
        # walk the rules in rank order, so a matched subset is already
        # ranked.
        matches.sort(key=lambda m: (-m.score, m.rule.sort_key()))
        self._ranked = np.empty(len(matches), dtype=object)
        self._ranked[:] = matches
        self._lo = self._hi = self._concludes = None
        if use_index:
            self._lo, self._hi, self._concludes = self._build_columns()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls, result, *, interesting_only: bool = True, use_index: bool = True
    ) -> "RuleIndex":
        """Index a live :class:`~repro.core.miner.MiningResult`.

        ``interesting_only`` serves the interest-filtered subset (equal
        to all rules when no interest level was configured).  Lifts
        come from the result's own support counts.
        """
        rules = (
            result.interesting_rules if interesting_only else result.rules
        )
        n = result.num_records

        def support_of(itemset):
            count = result.support_counts.get(itemset)
            if count is not None:
                return count / n if n else 0.0
            if len(itemset) == 1:
                return result.frequent_items.support(itemset[0])
            return None

        lifts = []
        for rule in rules:
            consequent_support = support_of(rule.consequent)
            lifts.append(
                rule.confidence / consequent_support
                if consequent_support
                else None
            )
        return cls(
            rules, result.mapper.mappings, lifts=lifts, use_index=use_index
        )

    @classmethod
    def from_document(
        cls,
        document: dict,
        *,
        interesting_only: bool = True,
        use_index: bool = True,
    ) -> "RuleIndex":
        """Index an exported document, no original table needed.

        Accepts both full mining-result documents
        (:func:`~repro.core.export.result_to_document`) and rule
        documents (:func:`~repro.core.export.rules_to_json`); either
        must carry an ``"attributes"`` section.  Result documents are
        filtered to their interesting subset when ``interesting_only``
        (rule documents carry no annotation and serve every rule).
        """
        attributes = document.get("attributes")
        if not attributes:
            raise ValueError(
                "document carries no 'attributes' section; re-export it "
                "with a mapper to serve rules from it"
            )
        mappings = mappings_from_document(attributes)
        rules = []
        lifts = []
        is_result = document.get("format") == "repro.mining_result"
        for data in document.get("rules", []):
            if is_result and interesting_only and not data.get("interesting"):
                continue
            rules.append(rule_from_dict(data))
            lift = data.get("lift")
            lifts.append(None if lift is None else float(lift))
        return cls(rules, mappings, lifts=lifts, use_index=use_index)

    def _build_columns(self) -> tuple:
        """The ranked rules as ``(lo, hi, concludes)`` arrays.

        ``lo``/``hi`` (int64) hold each antecedent's box.  Every
        dimension starts as ``[MISSING_CODE, cardinality]``, one wider
        than the real code range on both sides, so an unconstrained
        dimension matches any code *and* the missing sentinel;
        antecedent items then narrow their dimensions.  ``concludes``
        (bool) marks the attributes each consequent covers.
        """
        shape = (len(self._ranked), len(self._mappings))
        lo = np.full(shape, MISSING_CODE, dtype=np.int64)
        hi = np.empty(shape, dtype=np.int64)
        hi[:] = [m.cardinality for m in self._mappings]
        concludes = np.zeros(shape, dtype=bool)
        for row, match in enumerate(self._ranked):
            for item in match.rule.antecedent:
                lo[row, item.attribute] = item.lo
                hi[row, item.attribute] = item.hi
            for item in match.rule.consequent:
                concludes[row, item.attribute] = True
        return lo, hi, concludes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rules(self) -> int:
        return len(self._rules)

    @property
    def num_attributes(self) -> int:
        return len(self._mappings)

    @property
    def attribute_names(self) -> tuple:
        return tuple(m.name for m in self._mappings)

    @property
    def indexed(self) -> bool:
        """Whether the columnar ``lo``/``hi`` path is available."""
        return self._lo is not None

    @property
    def mappings(self) -> tuple:
        return self._mappings

    def rules(self) -> list:
        """The served rules, in ingestion order."""
        return list(self._rules)

    def fingerprint(self) -> str:
        """Content address of this index (rules + encoding + lifts)."""
        return fingerprint(
            "RuleIndexV1",
            self._rules,
            self._lifts,
            [
                (
                    m.name,
                    m.kind.value,
                    m.cardinality,
                    tuple(m.labels),
                    m.partitioning,
                )
                for m in self._mappings
            ],
        )

    def describe_item(self, item) -> dict:
        """JSON-ready rendering of one item via the index's mappings."""
        mapping = self._mappings[item.attribute]
        return {
            "attribute": item.attribute,
            "attribute_name": mapping.name,
            "lo": item.lo,
            "hi": item.hi,
            "display": mapping.describe_range(item.lo, item.hi),
        }

    # ------------------------------------------------------------------
    # Record encoding
    # ------------------------------------------------------------------
    def encode_record(self, record: dict) -> list:
        """Mapped integer codes of a raw record, in attribute order.

        Unknown attribute names raise ``ValueError`` (a mistyped field
        must fail loudly); absent attributes and values the encoding
        cannot place (unseen label, unseen unpartitioned value,
        non-numeric quantitative) encode to ``None`` — rules
        constraining those attributes simply do not fire.
        """
        if not isinstance(record, dict):
            raise ValueError("record must be a mapping of attribute: value")
        unknown = set(record) - set(self._attr_index)
        if unknown:
            raise ValueError(
                f"unknown attribute(s) {sorted(unknown)}; "
                f"this ruleset covers {list(self.attribute_names)}"
            )
        codes: list = []
        for i, mapping in enumerate(self._mappings):
            name = mapping.name
            if name not in record:
                codes.append(None)
                continue
            codes.append(self._encode_value(i, mapping, record[name]))
        return codes

    def _encode_value(self, i: int, mapping, value):
        if mapping.kind.value == "categorical":
            return self._label_codes[i].get(value)
        partitioning = mapping.partitioning
        if partitioning is None:
            return None
        try:
            return int(partitioning.assign([value])[0])
        except (TypeError, ValueError):
            # Unseen unpartitioned value / non-numeric input: no code.
            # (Partitioned attributes clamp out-of-range values to their
            # edge intervals inside ``assign``, matching the miner.)
            return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def match(self, record: dict) -> list:
        """Every rule fired by ``record``, as ranked :class:`RuleMatch`."""
        return self._match_codes(self.encode_record(record))

    def _match_codes(self, codes, target: int | None = None) -> list:
        """Ranked matches, only those concluding on ``target`` if given."""
        if self._lo is None:
            return [
                m
                for m in self._ranked
                if self._fires(m.rule, codes)
                and (target is None or self._concludes_on(m.rule, target))
            ]
        point = np.array(
            [MISSING_CODE if c is None else c for c in codes],
            dtype=np.int64,
        )
        fired = ((self._lo <= point) & (point <= self._hi)).all(axis=1)
        if target is not None:
            fired &= self._concludes[:, target]
        return self._ranked[fired].tolist()

    @staticmethod
    def _fires(rule: QuantitativeRule, codes) -> bool:
        for item in rule.antecedent:
            code = codes[item.attribute]
            if code is None or not item.lo <= code <= item.hi:
                return False
        return True

    @staticmethod
    def _concludes_on(rule: QuantitativeRule, target: int) -> bool:
        return any(it.attribute == target for it in rule.consequent)

    def predict(
        self,
        record: dict,
        target: str,
        *,
        top: int | None = None,
    ) -> Prediction:
        """Fired rules concluding on ``target``, plus the top prediction.

        A rule "concludes on" the target when its consequent contains
        an item over that attribute; the best-ranked such rule's
        consequent interval is the prediction.  ``top`` truncates the
        reported match list (the prediction always comes from the
        overall best match).
        """
        if target not in self._attr_index:
            raise ValueError(
                f"unknown target attribute {target!r}; "
                f"this ruleset covers {list(self.attribute_names)}"
            )
        target_idx = self._attr_index[target]
        matches = self._match_codes(self.encode_record(record), target_idx)
        interval = display = confidence = score = None
        if matches:
            best = matches[0]
            item = next(
                it
                for it in best.rule.consequent
                if it.attribute == target_idx
            )
            interval = (item.lo, item.hi)
            display = self._mappings[target_idx].describe_range(
                item.lo, item.hi
            )
            confidence = best.rule.confidence
            score = best.score
        if top is not None:
            matches = matches[:top]
        return Prediction(
            target=target,
            matches=tuple(matches),
            interval=interval,
            display=display,
            confidence=confidence,
            score=score,
        )

    # ------------------------------------------------------------------
    # Persistence (content-addressed through any ArtifactCache)
    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        return INDEX_CACHE_PREFIX + self.fingerprint()

    def save(self, cache) -> str:
        """Persist this index into ``cache``; returns its cache key."""
        key = self.cache_key()
        cache.put(key, self)
        return key

    @classmethod
    def load(cls, cache, key: str) -> "RuleIndex | None":
        """Fetch a persisted index, or ``None`` on a cache miss."""
        from ..engine.cache import MISSING

        value = cache.get(key)
        if value is MISSING or not isinstance(value, cls):
            return None
        return value


def filter_rules_to_target(rules, target_attribute: int) -> list:
    """The subsequence of ``rules`` concluding on one attribute.

    Reference semantics of goal-directed mining: a full run filtered
    with this equals a ``target=`` run exactly (property-tested in
    ``tests/test_goal_directed.py``).
    """
    return [
        rule
        for rule in rules
        if len(rule.consequent) == 1
        and rule.consequent[0].attribute == target_attribute
    ]
