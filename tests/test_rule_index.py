"""RuleIndex: columnar point queries equal the linear-scan reference.

The columnar ``lo``/``hi`` path exists only for speed; its one
correctness obligation is returning exactly what a separately built
linear-scan index (``use_index=False``) returns, for any record —
values present, missing, out of range, or unseen.  The rest of the
suite covers construction (live result, exported document, pickle
through an artifact cache — all three must answer identically), the
prediction contract, encoding errors, and the registry: id hygiene,
one document fingerprint per stored document, and stale persisted
indexes.
"""

import json

import pytest

from repro.core import mine_quantitative_rules
from repro.core.export import result_to_document, rules_to_json
from repro.data import generate_credit_table
from repro.engine.cache import MemoryCache
from repro.obs import Observability
from repro.rules import (
    INDEX_CACHE_PREFIX,
    Prediction,
    RuleIndex,
    RulesetRegistry,
    document_fingerprint,
    validate_ruleset_id,
)

CONFIG = dict(
    min_support=0.15,
    min_confidence=0.5,
    max_support=0.45,
    num_partitions=6,
    interest_level=1.1,
    max_itemset_size=2,
)


@pytest.fixture(scope="module")
def result():
    return mine_quantitative_rules(
        generate_credit_table(500, seed=21), **CONFIG
    )


@pytest.fixture(scope="module")
def index(result):
    return RuleIndex.from_result(result)


@pytest.fixture(scope="module")
def linear(result):
    """The reference: the same rules answered by per-rule scan."""
    return RuleIndex.from_result(result, use_index=False)


@pytest.fixture(scope="module")
def records(index):
    """A spread of records: full, partial, missing, out-of-range, unseen."""
    import random

    rng = random.Random(4)
    out = [
        {},  # all attributes missing
        {"monthly_income": 1e12},  # clamps to the top interval
        {"monthly_income": -1e12},  # clamps to the bottom interval
        {"employee_category": "never-seen-label"},
    ]
    for _ in range(150):
        record = {}
        for i, mapping in enumerate(index.mappings):
            if rng.random() < 0.2:
                continue
            if mapping.kind.value == "categorical":
                record[mapping.name] = rng.choice(
                    list(mapping.labels) + ["bogus"]
                )
            else:
                record[mapping.name] = rng.uniform(-5e4, 2e5)
        out.append(record)
    return out


class TestIndexEqualsLinearScan:
    def test_columnar_and_scan_agree_on_every_record(
        self, index, linear, records
    ):
        assert index.indexed and not linear.indexed
        fired = 0
        for record in records:
            via_columns = index.match(record)
            assert via_columns == linear.match(record)
            fired += len(via_columns)
        assert fired > 0, "degenerate fixture: nothing ever fired"

    def test_linear_only_index_answers_identically(self, result, records):
        document = json.loads(json.dumps(result_to_document(result)))
        linear = RuleIndex.from_document(document, use_index=False)
        columnar = RuleIndex.from_document(document)
        assert not linear.indexed and columnar.indexed
        predicted = 0
        for record in records:
            expected = linear.predict(record, "employee_category")
            assert columnar.predict(record, "employee_category") == expected
            predicted += expected.interval is not None
        assert predicted > 0, "degenerate fixture: nothing predicted"

    def test_matches_rank_by_score_then_canonical_order(
        self, index, records
    ):
        for record in records:
            matches = index.match(record)
            keys = [
                (-m.score, m.rule.sort_key()) for m in matches
            ]
            assert keys == sorted(keys)


class TestConstructionRoundTrips:
    def test_result_document_rebuilds_identical_index(
        self, result, index, records
    ):
        document = json.loads(json.dumps(result_to_document(result)))
        rebuilt = RuleIndex.from_document(document)
        assert rebuilt.fingerprint() == index.fingerprint()
        for record in records[:40]:
            assert rebuilt.match(record) == index.match(record)

    def test_rules_document_round_trips(self, result, records):
        document = json.loads(
            rules_to_json(result.interesting_rules, result.mapper)
        )
        rebuilt = RuleIndex.from_document(document)
        assert rebuilt.num_rules == len(result.interesting_rules)
        # Rule documents carry no lift, so ranking is by confidence;
        # the *set* of fired rules must still match the live index.
        live = RuleIndex.from_result(result)
        for record in records[:20]:
            assert {m.rule for m in rebuilt.match(record)} == {
                m.rule for m in live.match(record)
            }

    def test_document_without_attributes_is_rejected(self, result):
        document = json.loads(rules_to_json(result.interesting_rules))
        with pytest.raises(ValueError, match="attributes"):
            RuleIndex.from_document(document)

    def test_cache_round_trip_preserves_answers(self, index, records):
        cache = MemoryCache()
        key = index.save(cache)
        assert key == index.cache_key()
        loaded = RuleIndex.load(cache, key)
        assert loaded is not None
        assert loaded.fingerprint() == index.fingerprint()
        for record in records[:40]:
            assert loaded.match(record) == index.match(record)

    def test_load_miss_returns_none(self):
        assert RuleIndex.load(MemoryCache(), "ruleset-index:nope") is None


class TestPredict:
    def test_prediction_comes_from_best_target_match(self, index, records):
        for record in records:
            prediction = index.predict(record, "employee_category")
            assert isinstance(prediction, Prediction)
            target_idx = index.attribute_names.index("employee_category")
            for match in prediction.matches:
                assert any(
                    it.attribute == target_idx
                    for it in match.rule.consequent
                )
            if prediction.matches:
                best = prediction.matches[0]
                item = next(
                    it
                    for it in best.rule.consequent
                    if it.attribute == target_idx
                )
                assert prediction.interval == (item.lo, item.hi)
                assert prediction.confidence == best.rule.confidence
            else:
                assert prediction.interval is None

    def test_top_truncates_matches_not_prediction(self, index, records):
        record = next(
            r
            for r in records
            if len(index.predict(r, "employee_category").matches) > 1
        )
        untruncated = index.predict(record, "employee_category")
        top1 = index.predict(record, "employee_category", top=1)
        assert len(top1.matches) == 1
        assert top1.interval == untruncated.interval

    def test_unknown_target_raises(self, index):
        with pytest.raises(ValueError, match="unknown target"):
            index.predict({}, "nope")


class TestRecordEncoding:
    def test_unknown_attribute_raises(self, index):
        with pytest.raises(ValueError, match="unknown attribute"):
            index.match({"no_such_column": 1})

    def test_non_dict_record_raises(self, index):
        with pytest.raises(ValueError, match="mapping"):
            index.match([1, 2, 3])

    def test_unseen_label_and_non_numeric_encode_to_none(self, index):
        codes = index.encode_record(
            {
                "employee_category": "never-seen",
                "monthly_income": "not-a-number",
            }
        )
        assert set(codes) == {None}


class TestRulesetRegistry:
    def test_put_describe_match_predict(self, result):
        registry = RulesetRegistry(observability=Observability())
        document = result_to_document(result)
        metadata = registry.put("credit", document)
        assert metadata["ruleset_id"] == "credit"
        assert metadata["num_rules"] == len(result.interesting_rules)
        assert metadata["fingerprint"] == document_fingerprint(document)
        assert registry.ids() == ["credit"]
        reference = RuleIndex.from_result(result)
        record = {"monthly_income": 3000.0}
        assert registry.match("credit", record) == reference.match(record)
        assert registry.predict(
            "credit", record, "employee_category"
        ) == reference.predict(record, "employee_category")

    def test_identical_documents_share_one_cached_index(self, result):
        cache = MemoryCache()
        registry = RulesetRegistry(cache=cache)
        document = result_to_document(result)
        registry.put("a", document)
        registry.put("b", json.loads(json.dumps(document)))
        assert registry.index("a") is registry.index("b")
        assert cache.puts == 1

    def test_persistence_survives_restart(self, result, tmp_path):
        document = result_to_document(result)
        RulesetRegistry(tmp_path).put("persisted", document)
        reloaded = RulesetRegistry(tmp_path)
        assert reloaded.ids() == ["persisted"]
        record = {"monthly_income": 3000.0}
        assert reloaded.match("persisted", record) == RuleIndex.from_result(
            result
        ).match(record)
        assert reloaded.delete("persisted")
        assert RulesetRegistry(tmp_path).ids() == []

    def test_invalid_document_fails_the_upload(self):
        registry = RulesetRegistry()
        with pytest.raises(ValueError):
            registry.put("bad", {"rules": []})  # no attributes section
        assert registry.ids() == []

    @pytest.mark.parametrize(
        "bad", ["", "../up", ".hidden", "a/b", "a" * 101, "-lead", None, 7]
    )
    def test_hostile_ids_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_ruleset_id(bad)

    def test_unknown_ruleset_raises_keyerror(self):
        with pytest.raises(KeyError):
            RulesetRegistry().document("missing")

    def test_legacy_persisted_index_is_ignored(self, result):
        # A cache written before the columnar layout holds tree-shaped
        # RuleIndex pickles under the unversioned key; serving one
        # would break every query, so the registry must not read it.
        cache = MemoryCache()
        document = result_to_document(result)
        fp = document_fingerprint(document)
        assert INDEX_CACHE_PREFIX != "ruleset-index:"
        cache.put("ruleset-index:" + fp, RuleIndex([], []))
        registry = RulesetRegistry(cache=cache)
        registry.put("credit", document)
        index = registry.index("credit")
        assert index.num_rules == len(result.interesting_rules)
        persisted = RuleIndex.load(cache, INDEX_CACHE_PREFIX + fp)
        assert persisted is not None
        assert persisted.fingerprint() == index.fingerprint()


class TestFingerprintOncePerDocument:
    def test_put_fingerprints_once_and_queries_never(
        self, result, fingerprint_calls
    ):
        registry = RulesetRegistry(observability=Observability())
        registry.put("credit", result_to_document(result))
        assert len(fingerprint_calls) == 1
        record = {"monthly_income": 3000.0}
        registry.index("credit")
        registry.match("credit", record)
        registry.predict("credit", record, "employee_category")
        registry.describe("credit")
        assert len(fingerprint_calls) == 1

    def test_reput_under_same_id_serves_new_content(
        self, result, records, fingerprint_calls
    ):
        registry = RulesetRegistry()
        document = result_to_document(result)
        first = registry.put("credit", document)
        interesting = [r for r in document["rules"] if r["interesting"]]
        smaller = dict(document, rules=interesting[:3])
        metadata = registry.put("credit", smaller)
        assert len(fingerprint_calls) == 2
        assert metadata["num_rules"] == 3
        assert metadata["fingerprint"] != first["fingerprint"]
        assert registry.describe("credit") == metadata
        reference = RuleIndex.from_document(smaller, use_index=False)
        for record in records[:40]:
            assert registry.match("credit", record) == reference.match(
                record
            )
        assert len(fingerprint_calls) == 2

    def test_persisted_documents_fingerprint_once_at_startup(
        self, result, tmp_path, fingerprint_calls
    ):
        document = result_to_document(result)
        writer = RulesetRegistry(tmp_path)
        writer.put("a", document)
        writer.put("b", document)
        del fingerprint_calls[:]
        reloaded = RulesetRegistry(tmp_path)
        assert len(fingerprint_calls) == 2
        for ruleset_id in ("a", "b"):
            reloaded.match(ruleset_id, {"monthly_income": 3000.0})
            reloaded.describe(ruleset_id)
        assert len(fingerprint_calls) == 2
