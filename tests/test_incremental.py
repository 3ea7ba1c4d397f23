"""Incremental shard-level dataflow tests.

Covers the append-aware table (code-preserving appends, fingerprint
memo invalidation), per-shard count artifacts (reuse limited to the
clean prefix, bit-identical merges), online partition maintenance
(kept partitions vs. forced re-partition, artifact GC), the bounded
disk cache, and the serve-layer append surface — including a
property-based equivalence: mine -> append -> mine must equal a cold
mine of the concatenated table, across counting backends, executors
and cache backends.
"""

import json
import math
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AppendReport,
    IncrementalConfig,
    MinerConfig,
    QuantitativeMiner,
)
from repro.engine.cache import MISSING, DiskCache
from repro.engine.shards import plan_shards
from repro.table import (
    RelationalTable,
    TableSchema,
    categorical,
    quantitative,
)

SCHEMA = TableSchema(
    [
        quantitative("x"),
        quantitative("y"),
        categorical("c", ("a", "b")),
    ]
)


def build_rows(n, seed, values=6):
    rng = np.random.default_rng(seed)
    return [
        (float(x), float(y), "a" if m else "b")
        for x, y, m in zip(
            rng.integers(0, values, n),
            rng.integers(0, values, n),
            rng.integers(0, 2, n),
        )
    ]


def incremental_config(shard_size=32, **overrides):
    base = dict(
        min_support=0.2,
        min_confidence=0.3,
        max_support=0.6,
        partial_completeness=3.0,
        incremental=IncrementalConfig(enabled=True, shard_size=shard_size),
    )
    base.update(overrides)
    return MinerConfig(**base)


# ----------------------------------------------------------------------
# Append-aware table
# ----------------------------------------------------------------------
class TestTableAppend:
    def test_fingerprint_memo_invalidated_by_append(self):
        """Regression: a memoized fingerprint must not survive growth."""
        rows = build_rows(50, seed=1)
        extra = build_rows(10, seed=2)
        table = RelationalTable.from_records(SCHEMA, rows)
        before = table.fingerprint()  # memoize pre-append
        table.append(extra)
        after = table.fingerprint()
        assert after != before
        cold = RelationalTable.from_records(SCHEMA, rows + extra)
        assert after == cold.fingerprint()
        # And the memo itself is consistent: re-asking returns the same.
        assert table.fingerprint() == after

    def test_append_preserves_codes_and_extends_domains(self):
        rows = [(1.0, 2.0, "a"), (3.0, 4.0, "b")]
        table = RelationalTable.from_records(SCHEMA, rows)
        codes_before = table.column("c").copy()
        table.append([(5.0, 6.0, "zz")])
        attr = table.schema.attribute("c")
        assert attr.values == ("a", "b", "zz")
        np.testing.assert_array_equal(
            table.column("c")[:2], codes_before
        )
        assert table.decode("c", int(table.column("c")[2])) == "zz"

    def test_prefix_shard_fingerprints_survive_append(self):
        rows = build_rows(100, seed=3)
        table = RelationalTable.from_records(SCHEMA, rows)
        shards = plan_shards(100, shard_size=32)
        before = table.shard_fingerprints(shards)
        table.append(build_rows(20, seed=4))
        grown = plan_shards(120, shard_size=32)
        after = table.shard_fingerprints(grown)
        # Shards fully inside the old prefix keep their fingerprints;
        # the shard spanning the old tail changes.
        for old_fp, new_fp, shard in zip(before, after, grown):
            if shard.stop <= 100:
                assert new_fp == old_fp
            else:
                assert new_fp != old_fp
        # Content-addressed: a cold table over the same records agrees.
        cold = RelationalTable.from_records(
            SCHEMA, rows + build_rows(20, seed=4)
        )
        assert cold.shard_fingerprints(grown) == after

    def test_iter_records_roundtrip_and_reorder(self):
        rows = build_rows(25, seed=5)
        table = RelationalTable.from_records(SCHEMA, rows)
        assert list(table.iter_records()) == rows
        reordered = list(table.iter_records(["c", "x", "y"]))
        assert reordered == [(c, x, y) for x, y, c in rows]


# ----------------------------------------------------------------------
# Bounded disk cache
# ----------------------------------------------------------------------
class TestDiskCacheBudget:
    def test_lru_eviction_under_max_bytes(self, tmp_path):
        import time

        cache = DiskCache(tmp_path, max_bytes=10_000)
        payload = b"x" * 4096  # ~4.1 KiB pickled: two fit, three don't
        cache.put("k1", payload)
        time.sleep(0.01)  # keep mtime-based recency unambiguous
        cache.put("k2", payload)
        time.sleep(0.01)
        assert cache.get("k1") == payload  # refresh k1's recency
        time.sleep(0.01)
        cache.put("k3", payload)  # over budget: k2 is the LRU victim
        assert cache.get("k2") is MISSING
        assert cache.get("k1") == payload
        assert cache.get("k3") == payload
        assert cache.evictions >= 1
        assert cache.total_bytes() <= 10_000

    def test_just_written_entry_is_never_the_victim(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1)
        cache.put("only", [1, 2, 3])
        # The budget is smaller than any entry, but the entry just
        # written must survive its own enforcement pass.
        assert cache.get("only") == [1, 2, 3]

    def test_delete(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", "v")
        assert cache.delete("k") is True
        assert cache.get("k") is MISSING
        assert cache.delete("k") is False


# ----------------------------------------------------------------------
# Online maintenance through the miner
# ----------------------------------------------------------------------
class TestMinerAppend:
    def test_within_budget_append_recounts_only_dirty_shards(self):
        rows = build_rows(200, seed=7)
        # A full duplicate preserves every support *fraction*, so the
        # frequent items — and with them the pass-2+ candidate payloads
        # — are identical, and every stage's reuse is governed purely
        # by which shards the append dirtied.
        extra = list(rows)
        config = incremental_config(shard_size=32)
        miner = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows), config
        )
        miner.mine()
        report = miner.append(extra)
        assert isinstance(report, AppendReport)
        assert not report.repartitioned
        assert report.records_appended == 200
        result = miner.mine()
        total = math.ceil(400 / 32)
        dirty = sum(
            1 for s in plan_shards(400, shard_size=32) if s.stop > 200
        )
        for stage, (hits, misses) in (
            result.stats.execution.stage_shard_cache.items()
        ):
            assert misses == dirty, stage
            assert hits == total - dirty, stage
        cold = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows + extra), config
        ).mine()
        assert result.support_counts == cold.support_counts
        assert result.rules == cold.rules

    def test_unabsorbable_append_repartitions_and_gcs_artifacts(self):
        rows = build_rows(200, seed=8)
        config = incremental_config(shard_size=32)
        miner = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows), config
        )
        miner.mine()
        # 9.0 was never seen: the value-mapped encoding cannot absorb
        # it, so the miner must fall back to a cold re-partition and
        # garbage-collect the now-orphaned shard artifacts.
        extra = [(9.0, 9.0, "a")] * 10
        report = miner.append(extra)
        assert report.repartitioned
        assert report.reason
        assert report.artifacts_gc > 0
        result = miner.mine()
        cold = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows + extra), config
        ).mine()
        assert result.support_counts == cold.support_counts
        assert result.rules == cold.rules

    def test_append_report_is_json_friendly(self):
        rows = build_rows(80, seed=9)
        miner = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows),
            incremental_config(shard_size=16),
        )
        miner.mine()
        report = miner.append(rows[:8])
        assert type(report.realized_completeness) is float
        assert type(report.completeness_budget) is float
        json.dumps(report.__dict__)  # must not smuggle numpy scalars


# ----------------------------------------------------------------------
# Realized K (Equation 1), measured once per mapper
# ----------------------------------------------------------------------
WIDE = TableSchema([quantitative("x"), quantitative("y")])


def wide_rows(n, seed):
    rng = np.random.default_rng(seed)
    return [
        (float(x), float(y))
        for x, y in zip(rng.integers(0, 1000, n), rng.integers(0, 1000, n))
    ]


def reference_k(miner, config):
    """Equation 1 on the miner's live table and partitionings, by
    per-interval ``np.unique``."""
    from repro.core import completeness_from_partitioning

    s = 0.0
    for i, mapping in enumerate(miner.mapper.mappings):
        part = mapping.partitioning
        column = miner.mapper.table.column(i)
        codes = part.assign(column)
        for code in range(part.num_intervals):
            values = column[codes == code]
            if np.unique(values).size > 1:
                s = max(s, len(values) / len(column))
    return completeness_from_partitioning(s, config.min_support, 2)


class _CountMeasurements:
    def __init__(self, monkeypatch):
        from repro.core.partitioner import Partitioning

        self.calls = 0
        real = Partitioning.max_multi_value_support

        def counted(part, column, codes=None):
            self.calls += 1
            return real(part, column, codes)

        monkeypatch.setattr(
            Partitioning, "max_multi_value_support", counted
        )


class TestRealizedK:
    def test_measured_once_per_miner(self, monkeypatch):
        config = incremental_config(num_partitions=8)
        table = RelationalTable.from_records(WIDE, wide_rows(300, seed=1))
        spy = _CountMeasurements(monkeypatch)
        miner = QuantitativeMiner(table, config)
        partitioned = sum(m.is_partitioned for m in miner.mapper.mappings)
        assert partitioned == 2
        assert spy.calls == partitioned  # __init__
        result = miner.mine()
        miner.mine()
        miner.realized_completeness(0.5)
        assert spy.calls == partitioned
        assert result.stats.realized_completeness == reference_k(
            miner, config
        )

    def test_kept_partitioning_remeasures_grown_table(self, monkeypatch):
        config = incremental_config(num_partitions=8)
        rows = wide_rows(300, seed=2)
        miner = QuantitativeMiner(
            RelationalTable.from_records(WIDE, rows), config
        )
        before = miner.realized_completeness(config.min_support)
        edges = miner.mapper.mapping(0).partitioning.edges
        # Distinct values inside x's first interval grow its support.
        inside = np.linspace(edges[0], edges[1], 8, endpoint=False)
        spy = _CountMeasurements(monkeypatch)
        report = miner.append([(float(v), 500.0) for v in inside])
        assert not report.repartitioned
        assert miner.mapper.mapping(0).partitioning.edges == edges
        assert spy.calls == 2  # the grown table, once
        assert report.realized_completeness == reference_k(miner, config)
        assert report.realized_completeness > before
        miner.mine()
        assert spy.calls == 2

    def test_drift_past_budget_repartitions(self):
        config = incremental_config(
            num_partitions=8,
            incremental=IncrementalConfig(
                enabled=True, shard_size=32, k_drift_budget=0.05
            ),
        )
        miner = QuantitativeMiner(
            RelationalTable.from_records(WIDE, wide_rows(300, seed=3)),
            config,
        )
        edges = miner.mapper.mapping(0).partitioning.edges
        inside = np.linspace(edges[0], edges[1], 200, endpoint=False)
        report = miner.append([(float(v), 500.0) for v in inside])
        assert report.repartitioned
        assert "drifted past" in report.reason
        assert report.realized_completeness == reference_k(miner, config)
        assert miner.mapper.mapping(0).partitioning.edges != edges


# ----------------------------------------------------------------------
# Property: incremental re-mine == cold mine of the concatenated table
# ----------------------------------------------------------------------
class TestIncrementalEquivalence:
    @given(
        st.integers(0, 10_000),
        st.integers(60, 160),
        st.integers(1, 60),
        st.floats(0.1, 0.33),
        st.sampled_from(["array", "bitmap", "direct", "rtree"]),
        st.sampled_from([8, 32]),
        st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_append_then_mine_matches_cold_mine(
        self, seed, n, extra_n, minsup, backend, shard_size, novel
    ):
        rows = build_rows(n, seed=seed)
        # 'novel' appends draw from a wider value set, so some runs
        # force the re-partition branch; the equivalence must hold on
        # both paths.
        extra = build_rows(
            extra_n, seed=seed + 1, values=8 if novel else 6
        )
        config = incremental_config(
            shard_size=shard_size, min_support=minsup, counting=backend
        )
        miner = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows), config
        )
        miner.mine()
        report = miner.append(extra)
        result = miner.mine()
        cold = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows + extra), config
        ).mine()
        assert result.support_counts == cold.support_counts
        assert result.rules == cold.rules
        if not report.repartitioned:
            total = math.ceil((n + extra_n) / shard_size)
            dirty = sum(
                1
                for s in plan_shards(n + extra_n, shard_size=shard_size)
                if s.stop > n
            )
            hits, misses = (
                result.stats.execution.stage_shard_cache["item_histograms"]
            )
            assert misses == dirty
            assert hits == total - dirty

    @pytest.mark.parametrize("cache_backend", ["memory", "disk"])
    def test_equivalence_across_cache_backends(
        self, cache_backend, tmp_path
    ):
        cache = {"backend": cache_backend}
        if cache_backend == "disk":
            cache["directory"] = str(tmp_path)
        rows = build_rows(150, seed=11)
        extra = rows[:30]
        config = incremental_config(shard_size=32, cache=cache)
        miner = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows), config
        )
        miner.mine()
        miner.append(extra)
        result = miner.mine()
        assert result.stats.execution.shard_cache_hits > 0
        cold = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows + extra), config
        ).mine()
        assert result.support_counts == cold.support_counts
        assert result.rules == cold.rules

    def test_equivalence_under_parallel_executor(self):
        rows = build_rows(400, seed=12)
        extra = rows[:80]
        config = incremental_config(
            shard_size=64,
            execution={"executor": "parallel", "num_workers": 2},
        )
        miner = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows), config
        )
        miner.mine()
        report = miner.append(extra)
        assert not report.repartitioned
        result = miner.mine()
        cold = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows + extra), config
        ).mine()
        assert result.support_counts == cold.support_counts
        assert result.rules == cold.rules


# ----------------------------------------------------------------------
# Serve surface
# ----------------------------------------------------------------------
HEADER = "x,y,c"


def rows_to_csv(rows):
    return HEADER + "\n" + "\n".join(
        f"{x:g},{y:g},{c}" for x, y, c in rows
    ) + "\n"


class TestRegistryAppend:
    def test_append_grows_shared_table_and_durable_csv(self, tmp_path):
        from repro.serve.tables import TableRegistry, _load_csv_text

        registry = TableRegistry(tmp_path)
        rows = build_rows(60, seed=13)
        extra = build_rows(12, seed=14)
        registry.put_csv("t", rows_to_csv(rows), categorical=["c"])
        live = registry.get("t")
        description = registry.append_csv("t", rows_to_csv(extra))
        assert description["records_appended"] == 12
        assert description["num_records"] == 72
        # The cached instance grew in place.
        assert registry.get("t") is live
        assert live.num_records == 72
        # The durable CSV reparses to the identical grown table.
        reparsed = _load_csv_text(
            (tmp_path / "t.csv").read_text(),
            quantitative=[],
            categorical=["c"],
        )
        assert reparsed.fingerprint() == live.fingerprint()

    def test_append_reorders_fragment_columns(self):
        from repro.serve.tables import TableRegistry

        registry = TableRegistry()
        registry.put_csv(
            "t", rows_to_csv(build_rows(20, seed=15)), categorical=["c"]
        )
        fragment = "c,y,x\n" + "\n".join(
            f"{c},{y:g},{x:g}" for x, y, c in build_rows(5, seed=16)
        )
        description = registry.append_csv("t", fragment)
        assert description["records_appended"] == 5
        expected = build_rows(5, seed=16)
        got = list(registry.get("t").iter_records())[-5:]
        assert got == expected

    def test_append_rejects_mismatched_columns(self):
        from repro.serve.tables import TableRegistry, UnknownTableError

        registry = TableRegistry()
        registry.put_csv(
            "t", rows_to_csv(build_rows(10, seed=17)), categorical=["c"]
        )
        with pytest.raises(ValueError):  # missing column
            registry.append_csv("t", "x,y\n1,2\n")
        with pytest.raises(ValueError, match="do not match"):
            registry.append_csv("t", "x,y,c,d\n1,2,a,3\n")
        with pytest.raises(UnknownTableError):
            registry.append_csv("missing", rows_to_csv([]))


class TestParseAppend:
    def test_defaults_and_validation(self):
        from repro.serve import ApiError
        from repro.serve.protocol import parse_append

        out = parse_append({"csv": "x\n1\n"})
        assert out == {"csv": "x\n1\n", "mine": True, "config": {}}
        out = parse_append(
            {"csv": "x\n1\n", "mine": False, "timeout": 5, "job_id": "j1"}
        )
        assert out["mine"] is False
        assert out["timeout"] == 5.0
        assert out["job_id"] == "j1"
        for bad in (
            [],
            {},
            {"csv": " "},
            {"csv": "x\n1\n", "mine": "yes"},
            {"csv": "x\n1\n", "config": {"nope": 1}},
            {"csv": "x\n1\n", "timeout": -1},
            {"csv": "x\n1\n", "surprise": 1},
        ):
            with pytest.raises(ApiError):
                parse_append(bad)


class TestHttpAppend:
    @pytest.fixture
    def server(self):
        from repro.obs import Observability
        from repro.serve import MiningHTTPServer, MiningService

        service = MiningService(observability=Observability()).start()
        http_server = MiningHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        yield http_server
        http_server.shutdown()
        thread.join(timeout=10)
        http_server.server_close()
        service.shutdown(drain_seconds=0)

    @staticmethod
    def request(server, method, path, body=None):
        req = urllib.request.Request(
            f"{server.url}{path}", data=body, method=method
        )
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status, json.load(resp)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)

    def test_append_route_mines_incrementally(self, server):
        import time

        rows = build_rows(200, seed=18)
        status, _ = self.request(
            server,
            "PUT",
            "/v1/tables/t?categorical=c",
            rows_to_csv(rows).encode(),
        )
        assert status == 201
        body = json.dumps(
            {
                "csv": rows_to_csv(rows[:40]),
                "config": {
                    "min_support": 0.2,
                    "min_confidence": 0.3,
                    "max_support": 0.6,
                    "partial_completeness": 3.0,
                    "incremental": {"enabled": True, "shard_size": 32},
                },
            }
        ).encode()
        status, payload = self.request(
            server, "POST", "/v1/tables/t/append", body
        )
        assert status == 200, payload
        assert payload["records_appended"] == 40
        assert payload["table"]["num_records"] == 240
        job_id = payload["job"]["job_id"]
        deadline = time.time() + 30
        while time.time() < deadline:
            _, record = self.request(server, "GET", f"/v1/jobs/{job_id}")
            if record["status"] in ("completed", "failed"):
                break
            time.sleep(0.05)
        assert record["status"] == "completed", record
        cold = QuantitativeMiner(
            RelationalTable.from_records(SCHEMA, rows + rows[:40]),
            incremental_config(shard_size=32),
        ).mine()
        _, document = self.request(
            server, "GET", f"/v1/jobs/{job_id}/rules"
        )
        assert len(document["rules"]) == len(cold.rules)
        # The shared metrics registry saw the append.
        _, metrics = self.request(server, "GET", "/metrics")
        assert metrics["counters"]["incremental.appends"] == 1
        assert (
            metrics["counters"]["incremental.records_appended"] == 40
        )

    def test_append_without_mine_and_unknown_table(self, server):
        rows = build_rows(20, seed=19)
        self.request(
            server,
            "PUT",
            "/v1/tables/t?categorical=c",
            rows_to_csv(rows).encode(),
        )
        body = json.dumps(
            {"csv": rows_to_csv(rows[:5]), "mine": False}
        ).encode()
        status, payload = self.request(
            server, "POST", "/v1/tables/t/append", body
        )
        assert status == 200
        assert "job" not in payload
        status, _ = self.request(
            server, "POST", "/v1/tables/nope/append", body
        )
        assert status == 404
