"""The four named workloads, each in an untraced and a traced form.

Every workload builds its inputs from the run's seed, measures for the
requested number of seconds and checks the program's outputs; a failed
check raises :class:`~compose.CheckFailed`.  An untraced run returns
the end-to-end metrics, a traced run the per-layer ledger.  See
``NOTES.md`` for why each workload exists and what each metric should
move.
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from urllib.parse import quote

import numpy as np

from repro.core import MinerConfig, QuantitativeMiner
from repro.core.config import CacheConfig
from repro.core.export import result_to_document
from repro.data import generate_credit_table
from repro.engine.cache import DiskCache
from repro.rules import RuleIndex, RulesetRegistry
from repro.serve import TableRegistry
from repro.serve.protocol import prediction_payload
from repro.table import RelationalTable

from compose import (
    CheckFailed,
    check_identical,
    check_mining_result,
    compose_frequent_itemsets,
    compose_mine,
)
from server import REQUEST_TIMEOUT, RequestFailed, ServerProcess
from spans import (
    SpanRecorder,
    count_total,
    durations,
    root_ledgers,
    spans_outside,
)

FIGURE9 = dict(
    min_support=0.10,
    max_support=0.40,
    partial_completeness=3.0,
    num_partitions=10,
    max_itemset_size=4,
    min_confidence=0.5,
    interest_level=1.1,
)
SCALEUP_RECORDS = 500_000
FIG9_BASE_RECORDS = 50_000
#: Root span of the 50k-record Figure-9 reference run (kept out of the
#: layer ledger: it is a second input size, not the workload's op).
FIG9_BASE = "fig9.base"
#: ``bench_fig9_scaleup.py`` fails a point above 1.6x linear.
FIG9_LINEAR_SLACK = 1.6

FINE_RECORDS = 20_000
FINE_CONFIG = dict(min_support=0.30)

RULES_RECORDS = 50_000
RULES_CONFIG = dict(  # bench_rule_serving.py's settings
    min_support=0.1,
    min_confidence=0.4,
    max_support=0.45,
    num_partitions=8,
    interest_level=1.1,
    cache={"enabled": False},
)
TARGET = "employee_category"
RULESET = "bench"
QUERY_BLOCK = 2_000

APPEND_BASE_RECORDS = 100_000
APPEND_BATCH = 1_000
APPEND_CONFIG = {**FIGURE9, "min_support": 0.20}
#: Base tables the server holds; appends go to them in turn, so one
#: run's median spans several tables' mining costs.
APPEND_TABLES = 4
#: The server's RSS grows with each append job; it is read at this op.
RSS_AFTER_APPENDS = 16
#: What the service mines after an append (it turns incremental on).
APPEND_JOB_CONFIG = {**APPEND_CONFIG, "incremental": {"enabled": True}}

# Seed streams: one per kind of input, so inputs never overlap.
TABLE, QUERIES, FRAGMENTS = 1, 2, 3

#: Every per-layer metric, with its unit (BENCHMARK.json lists them).
LAYER_UNITS = {
    "mapper.encode_s": "s",
    "frequent_items.s": "s",
    "frequent_items.items": "count",
    "candidates.s": "s",
    "candidates.generated": "count",
    "counting.itemsets_s": "s",
    "counting.itemsets_candidates": "count",
    "counting.itemsets_frequent_ratio": "ratio",
    "counting.pairs_s": "s",
    "counting.pairs_candidates": "count",
    "counting.pairs_frequent_ratio": "ratio",
    "apriori.fig9_relative": "ratio",
    "rulegen.s": "s",
    "rulegen.rules": "count",
    "interest.s": "s",
    "interest.kept_ratio": "ratio",
    "export.s": "s",
    "export.bytes": "bytes",
    "engine.overhead_s": "s",
    "engine.shard_cache_hit_ratio": "ratio",
    "rules.index_build_s": "s",
    "rules.registry_lookup_s": "s",
    "rules.predict_s": "s",
    "rules.matches_per_query": "count",
    "serve.http_overhead_s": "s",
    "serve.table_append_s": "s",
    "serve.job_overhead_s": "s",
    "trace.uncovered_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer time metric -> the span whose self time it reports.
LAYER_SPANS = {
    "mapper.encode_s": "mapper.encode",
    "frequent_items.s": "frequent_items",
    "candidates.s": "candidates",
    "counting.itemsets_s": "counting.itemsets",
    "counting.pairs_s": "counting.pairs",
    "rulegen.s": "rulegen",
    "interest.s": "interest",
    "export.s": "export",
    "rules.index_build_s": "rules.index_build",
    "rules.registry_lookup_s": "rules.registry_lookup",
    "rules.predict_s": "rules.predict",
    "serve.table_append_s": "serve.table_append",
}

#: The spans that make up Figure 9's frequent-itemset phase.
FREQUENT_PHASE = (
    "mapper.encode",
    "frequent_items",
    "candidates",
    "counting.pairs",
    "counting.itemsets",
)
#: Every span of the composed mining path.
MINING_SPANS = FREQUENT_PHASE + ("rulegen", "interest")


@dataclass
class Context:
    seed: int
    seconds: float
    root: object  # checkout root (cwd of the server)
    run_dir: object  # per-run scratch directory inside the checkout
    env: dict  # environment for child processes
    server_cpus: set  # where the server runs (the benchmark has its own)


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    lines: list = field(default_factory=list)
    recorder: SpanRecorder | None = None


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def derived_seed(seed: int, stream: int, index: int) -> int:
    """A seed for input ``index`` of one stream, distinct across streams."""
    return int(
        np.random.SeedSequence([seed, stream, index]).generate_state(1)[0]
    )


def fresh_copy(table) -> RelationalTable:
    """A new table object over copied columns: no memo carries over."""
    return RelationalTable.from_columns(
        table.schema, [table.column(a.name).copy() for a in table.schema]
    )


def table_csv(table) -> str:
    """CSV text with a header; floats print with every digit."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.schema.names)
    writer.writerows(table.iter_records())
    return buffer.getvalue()


def kinds(table) -> tuple:
    """``(quantitative, categorical)`` attribute names of ``table``."""
    return (
        [a.name for a in table.schema if a.is_quantitative],
        [a.name for a in table.schema if not a.is_quantitative],
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_line(label: str, latencies) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    best = None
    for q in (0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
        if n - math.ceil(q * n) >= 10:
            best = q
    if best is None:
        return f"{label}: {n} samples; no percentile has 10 beyond it"
    return (
        f"{label}: p{best * 100:g} = {percentile(latencies, best):.6f} s "
        f"({n} samples, {n - math.ceil(best * n)} beyond it)"
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(seconds: float, op, min_ops: int = 1) -> int:
    """Run ``op(i)`` until ``seconds`` have passed and ``min_ops`` ran."""
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        op(i)
        i += 1
    return i


def end_to_end(outcome, latencies, setup_samples, records_per_op, peak_rss):
    """The end-to-end metrics every workload reports.

    ``records_per_s`` is the records one op handles over the median op
    latency.  The tail is printed, not reported as a metric: at the
    sample counts a run affords, p90 has fewer than ten samples beyond
    it on most workloads.
    """
    p50 = percentile(latencies, 0.5)
    outcome.metrics["setup_s"] = (statistics.median(setup_samples), "s")
    outcome.metrics["op_s_p50"] = (p50, "s")
    outcome.metrics["records_per_s"] = (records_per_op / p50, "records/s")
    outcome.metrics["peak_rss_mb"] = (peak_rss, "MiB")
    outcome.lines.append(tail_line("op latency tail", latencies))
    outcome.lines.append(
        f"op latency p90 = {percentile(latencies, 0.9):.6f} s over "
        f"{len(latencies)} samples"
    )
    outcome.lines.append(
        f"failed_ratio = {outcome.failed / outcome.attempted:.4f} "
        f"({outcome.failed} of {outcome.attempted}); setup samples: "
        f"{len(setup_samples)}"
    )


def layer_metrics(outcome, rec, extra: dict) -> None:
    """Fill every per-layer metric from the spans plus ``extra``.

    A layer's time is the median, over the root spans it appears in,
    of its summed self time under that root; a layer this workload
    never calls reports 0.
    """
    spans = spans_outside(rec.spans, FIG9_BASE)
    ledgers = root_ledgers(spans)
    values = {}
    for metric, span_name in LAYER_SPANS.items():
        seen = [lg[span_name] for lg in ledgers if span_name in lg]
        values[metric] = statistics.median(seen) if seen else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    values["frequent_items.items"] = (
        count_total(spans, "frequent_items", "items")
        / max(1, len(durations(spans, "frequent_items")))
    )
    per_mine = max(1, len(durations(spans, "rulegen")))
    values["candidates.generated"] = (
        count_total(spans, "candidates", "generated") / per_mine
    )
    for layer in ("itemsets", "pairs"):
        name = f"counting.{layer}"
        candidates = count_total(spans, name, "candidates")
        values[f"{name}_candidates"] = candidates / per_mine
        values[f"{name}_frequent_ratio"] = ratio(
            count_total(spans, name, "frequent"), candidates
        )
    values["rulegen.rules"] = count_total(spans, "rulegen", "rules") / per_mine
    values["interest.kept_ratio"] = ratio(
        count_total(spans, "interest", "kept"),
        count_total(spans, "interest", "rules_in"),
    )
    values["export.bytes"] = count_total(spans, "export", "bytes") / max(
        1, len(durations(spans, "export"))
    )
    values["rules.matches_per_query"] = count_total(
        spans, "rules.predict", "matches"
    ) / max(1, len(durations(spans, "rules.predict")))
    uncovered = sum(lg["root.self"] for lg in ledgers)
    wall = sum(lg["root.wall"] for lg in ledgers)
    values["trace.uncovered_ratio"] = ratio(uncovered, wall)
    values.update(extra)
    for metric, unit in LAYER_UNITS.items():
        outcome.metrics[metric] = (float(values.get(metric, 0.0)), unit)
    outcome.lines.append(
        f"traced roots: {len(ledgers)}; spans recorded: {len(rec.spans)}; "
        f"uncovered share of traced wall: "
        f"{values['trace.uncovered_ratio']:.2%}; tracing overhead: "
        f"{values.get('trace.overhead_ratio', 0.0):+.2%}"
    )


def mining_seconds(ledger: dict, spans=MINING_SPANS) -> float:
    """Self time of the mining layers (or of ``spans``) under one root."""
    return sum(ledger.get(name, 0.0) for name in spans)


def shard_cache_hit_ratio(executions) -> float:
    """Shard-granular artifact-cache hits over lookups, across runs."""
    hits = sum(e.shard_cache_hits for e in executions)
    misses = sum(e.shard_cache_misses for e in executions)
    return hits / (hits + misses) if hits + misses else 0.0


def replay_both_ways(i, rec, quiet, walls, replay) -> None:
    """Run ``replay(recorder)`` traced and untraced, in turn first.

    Appends each wall time to ``walls[True]`` (traced) or
    ``walls[False]``; their medians give the tracing overhead.
    """
    for traced in (True, False) if i % 2 == 0 else (False, True):
        start = time.perf_counter()
        replay(rec if traced else quiet)
        walls[traced].append(time.perf_counter() - start)


def tracing_overhead(traced, quiet) -> float:
    """Median traced wall over median untraced wall, minus one."""
    return statistics.median(traced) / statistics.median(quiet) - 1.0


# ----------------------------------------------------------------------
# scaleup and fine_partition: one cold mine per op
# ----------------------------------------------------------------------
def mining_untraced(ctx, out, records, settings) -> None:
    config = MinerConfig(**settings)
    latencies, setup = [], []

    def op(i):
        start = time.perf_counter()
        table = generate_credit_table(
            records, seed=derived_seed(ctx.seed, TABLE, i)
        )
        begin = time.perf_counter()
        result = QuantitativeMiner(table, config).mine()
        done = time.perf_counter()
        out.attempted += 1
        setup.append(begin - start)
        latencies.append(done - begin)
        check_mining_result(result, config)

    measure(ctx.seconds, op)
    end_to_end(out, latencies, setup, records, self_peak_rss_mb())


def mining_traced(ctx, out, records, settings, fig9=False) -> None:
    """Per op: ``mine()`` for reference, then the composed calls twice.

    One composed replay runs under spans, the other with the recorder
    off; both must equal ``mine()`` bit for bit, and their wall times
    give the tracing overhead.  With ``fig9`` the op also runs the
    frequent-itemset phase on a 50k-record table.
    """
    config = MinerConfig(**settings)
    rec = out.recorder
    quiet = SpanRecorder(enabled=False)
    walls = {True: [], False: []}
    mine_walls, executions = [], []

    def op(i):
        seed = derived_seed(ctx.seed, TABLE, i)
        table = generate_credit_table(records, seed=seed)
        copies = [fresh_copy(table), fresh_copy(table)]
        start = time.perf_counter()
        result = QuantitativeMiner(table, config).mine()
        mine_walls.append(time.perf_counter() - start)
        out.attempted += 1
        executions.append(result.stats.execution)
        check_mining_result(result, config)

        def replay(recorder):
            with recorder.span("op"):
                composed = compose_mine(copies.pop(), config, recorder)
            check_identical(composed, result)

        replay_both_ways(i, rec, quiet, walls, replay)
        if fig9:
            base = generate_credit_table(FIG9_BASE_RECORDS, seed=seed)
            with rec.span(FIG9_BASE):
                compose_frequent_itemsets(base, config, rec)

    measure(ctx.seconds, op)
    ledgers = root_ledgers(rec.spans)
    ops = [lg for lg in ledgers if lg["root.name"] == "op"]
    extra = {
        "engine.overhead_s": statistics.median(
            m - mining_seconds(lg) for m, lg in zip(mine_walls, ops)
        ),
        "engine.shard_cache_hit_ratio": shard_cache_hit_ratio(executions),
        "trace.overhead_ratio": tracing_overhead(walls[True], walls[False]),
    }
    out.lines.append(
        f"mine() wall p50 {statistics.median(mine_walls):.4f} s; engine "
        f"overhead (mine() minus its composed layer calls) "
        f"{extra['engine.overhead_s']:.4f} s"
    )
    if fig9:
        bases = [lg for lg in ledgers if lg["root.name"] == FIG9_BASE]
        relative = statistics.median(
            mining_seconds(big, FREQUENT_PHASE)
            / mining_seconds(small, FREQUENT_PHASE)
            for big, small in zip(ops, bases)
        )
        linear = records / FIG9_BASE_RECORDS
        verdict = (
            "within"
            if relative <= FIG9_LINEAR_SLACK * linear
            else "FLAG: breaks"
        )
        out.lines.append(
            f"Figure 9 shape: frequent-itemset phase at {records} records "
            f"is {relative:.2f}x its time at {FIG9_BASE_RECORDS}; linear "
            f"is {linear:.0f}x and the paper reports near-linear scale-up "
            f"(rel/linear {relative / linear:.2f}, {verdict} the "
            f"{FIG9_LINEAR_SLACK}x-linear bound)"
        )
        extra["apriori.fig9_relative"] = relative
    layer_metrics(out, rec, extra)


# ----------------------------------------------------------------------
# rule_serving: closed-loop predict against a published ruleset
# ----------------------------------------------------------------------
def query_records(ctx):
    """Held-out raw records: every request gets one no earlier op used."""
    block = 0
    while True:
        table = generate_credit_table(
            QUERY_BLOCK, seed=derived_seed(ctx.seed, QUERIES, block)
        )
        names = table.schema.names
        for values in table.iter_records():
            yield dict(zip(names, values))
        block += 1


def mined_ruleset(ctx):
    table = generate_credit_table(
        RULES_RECORDS, seed=derived_seed(ctx.seed, TABLE, 0)
    )
    return table, MinerConfig(**RULES_CONFIG)


def predict_body(record) -> dict:
    return {"record": record, "target": TARGET}


def expected_prediction(index, record) -> dict:
    payload = prediction_payload(index.predict(record, TARGET), index)
    payload["ruleset_id"] = RULESET
    return json.loads(json.dumps(payload))


def check_predictions(document, exchanges) -> None:
    """Every HTTP answer must equal in-process ``RuleIndex.predict``.

    The reference index takes the linear-scan path, which returns the
    same ranked matches as the R*-tree without the long build.
    """
    index = RuleIndex.from_document(
        json.loads(json.dumps(document)), use_index=False
    )
    predicted = 0
    for record, body in exchanges:
        answer = json.loads(body)
        if answer != expected_prediction(index, record):
            raise CheckFailed(f"HTTP predict differs for record {record}")
        predicted += answer["prediction"] is not None
    if exchanges and not predicted:
        raise CheckFailed("degenerate workload: no record got a prediction")


def rule_serving_untraced(ctx, out) -> None:
    latencies, exchanges = [], []
    queries = query_records(ctx)
    started = time.perf_counter()
    with ServerProcess(
        ctx.root, ctx.env, ctx.run_dir / "server.log", cpus=ctx.server_cpus
    ) as server:
        table, config = mined_ruleset(ctx)
        result = QuantitativeMiner(table, config).mine()
        document = result_to_document(result)
        server.request(
            "POST",
            "/v1/rulesets",
            {"ruleset_id": RULESET, "document": document},
        )
        setup = time.perf_counter() - started
        check_mining_result(result, config)

        def op(i):
            record = next(queries)
            out.attempted += 1
            start = time.perf_counter()
            try:
                body = server.request(
                    "POST",
                    f"/v1/rulesets/{RULESET}/predict",
                    predict_body(record),
                )
            except RequestFailed as exc:
                out.failed += 1
                latencies.append(REQUEST_TIMEOUT)
                out.lines.append(f"failed: {exc}")
                return
            latencies.append(time.perf_counter() - start)
            exchanges.append((record, body))

        measure(ctx.seconds, op)
        peak = server.peak_rss_mb()
    check_predictions(document, exchanges)
    out.lines.append("setup runs once: the R*-tree build dominates it")
    end_to_end(out, latencies, [setup], 1, peak)


def rule_serving_traced(ctx, out) -> None:
    """In-process replay of the publish and of every predict.

    The benchmark's own registry builds the index (persisting it the
    way a ``--store-dir`` server does), so the server started on that
    directory loads it instead of building it a second time.
    """
    rec = out.recorder
    quiet = SpanRecorder(enabled=False)
    store = ctx.run_dir / "store"
    queries = query_records(ctx)
    table, config = mined_ruleset(ctx)
    start = time.perf_counter()
    result = QuantitativeMiner(table, config).mine()
    mine_wall = time.perf_counter() - start
    check_mining_result(result, config)
    with rec.span("setup"):
        composed = compose_mine(fresh_copy(table), config, rec)
        with rec.span("export") as export:
            document = result_to_document(result)
        registry = RulesetRegistry(
            store / "rulesets", cache=DiskCache(str(store / "ruleset-cache"))
        )
        with rec.span("rules.index_build"):
            registry.put(RULESET, document)
    export.counts["bytes"] = len(json.dumps(document).encode())
    check_identical(composed, result)
    walls = {True: [], False: []}
    with ServerProcess(
        ctx.root, ctx.env, ctx.run_dir / "server.log",
        store_dir=store, cpus=ctx.server_cpus,
    ) as server:
        # The first query loads the persisted index; it is not an op.
        server.request(
            "POST", f"/v1/rulesets/{RULESET}/predict",
            predict_body(next(queries)),
        )

        def replay(record, recorder):
            start = time.perf_counter()
            with recorder.span("rules.registry_lookup"):
                index = registry.index(RULESET)
            with recorder.span("rules.predict") as span:
                prediction = index.predict(record, TARGET)
                span.counts["matches"] = len(prediction.matches)
            return time.perf_counter() - start

        def op(i):
            record = next(queries)
            out.attempted += 1
            body = None
            # The untraced replay runs outside the op span, before or
            # after it in turn.
            if i % 2:
                walls[False].append(replay(record, quiet))
            with rec.span("op"):
                with rec.span("serve.http_predict"):
                    try:
                        body = server.request(
                            "POST",
                            f"/v1/rulesets/{RULESET}/predict",
                            predict_body(record),
                        )
                    except RequestFailed as exc:
                        out.failed += 1
                        out.lines.append(f"failed: {exc}")
                walls[True].append(replay(record, rec))
            if not i % 2:
                walls[False].append(replay(record, quiet))
            if body is not None and json.loads(body) != expected_prediction(
                registry.index(RULESET), record
            ):
                raise CheckFailed(f"HTTP predict differs for record {record}")

        measure(ctx.seconds, op)
    ledger = root_ledgers(rec.spans)[0]
    spans = rec.spans
    extra = {
        "engine.overhead_s": mine_wall - mining_seconds(ledger),
        "serve.http_overhead_s": (
            statistics.median(durations(spans, "serve.http_predict"))
            - statistics.median(durations(spans, "rules.registry_lookup"))
            - statistics.median(durations(spans, "rules.predict"))
        ),
        "trace.overhead_ratio": tracing_overhead(walls[True], walls[False]),
    }
    layer_metrics(out, rec, extra)


# ----------------------------------------------------------------------
# append_remine: durable append + incremental re-mine through the server
# ----------------------------------------------------------------------
def append_bases(ctx) -> list:
    """``(name, table, csv text)`` for each base table the server holds."""
    bases = []
    for t in range(APPEND_TABLES):
        base = generate_credit_table(
            APPEND_BASE_RECORDS, seed=derived_seed(ctx.seed, TABLE, t)
        )
        bases.append((f"credit-{t}", base, table_csv(base)))
    return bases


def append_fragment(ctx, i) -> str:
    return table_csv(
        generate_credit_table(
            APPEND_BATCH, seed=derived_seed(ctx.seed, FRAGMENTS, i)
        )
    )


def load_tables(server, bases) -> list:
    """Upload each base table and mine it once; the per-table set-up times."""
    seconds = []
    for name, base, csv_text in bases:
        start = time.perf_counter()
        quantitative, categorical = kinds(base)
        server.request(
            "PUT",
            f"/v1/tables/{name}?quantitative={quote(','.join(quantitative))}"
            f"&categorical={quote(','.join(categorical))}",
            raw=csv_text.encode(),
        )
        job = server.request_json(
            "POST", "/v1/jobs", {"table": name, "config": APPEND_JOB_CONFIG}
        )
        event = server.job_outcome(job["job_id"])
        if event.get("status") != "completed":
            raise RuntimeError(
                f"set-up mining job ended {event.get('status')}"
            )
        seconds.append(time.perf_counter() - start)
    return seconds


def remote_append(server, name, fragment):
    """POST one append and follow its job; returns the terminal event."""
    try:
        reply = server.request_json(
            "POST",
            f"/v1/tables/{name}/append",
            {"csv": fragment, "config": APPEND_CONFIG},
        )
        return server.job_outcome(reply["job"]["job_id"])
    except RequestFailed as exc:
        return {"status": f"request failed: {exc}"}


def replay_registry(bases, directory=None) -> TableRegistry:
    registry = TableRegistry(directory)
    for name, base, csv_text in bases:
        quantitative, categorical = kinds(base)
        registry.put_csv(name, csv_text, quantitative, categorical)
    return registry


def job_rules(result) -> list:
    return json.loads(json.dumps(result_to_document(result)["rules"]))


def check_append_replay(bases, steps) -> None:
    """Replay the appends in-process; each job's rules must match."""
    registry = replay_registry(bases)
    cache = CacheConfig().build()
    config = MinerConfig.from_dict(APPEND_JOB_CONFIG)
    for name, fragment, rules in steps:
        registry.append_csv(name, fragment)
        if rules is None:
            continue
        result = QuantitativeMiner(
            registry.get(name), config, cache=cache
        ).mine()
        if job_rules(result) != rules:
            raise CheckFailed(f"append job rules on {name} differ from replay")


def append_remine_untraced(ctx, out) -> None:
    """Closed loop of appends, round-robin over the base tables.

    The server's peak RSS is read once :data:`RSS_AFTER_APPENDS` ops
    have run (the loop runs at least that many), because the server's
    memory grows with every append job and the op count in a window
    varies.
    """
    latencies, steps = [], []
    bases = append_bases(ctx)
    peak = None
    with ServerProcess(
        ctx.root, ctx.env, ctx.run_dir / "server.log",
        store_dir=ctx.run_dir / "store", cpus=ctx.server_cpus,
    ) as server:
        setup = load_tables(server, bases)

        def op(i):
            nonlocal peak
            name = bases[i % len(bases)][0]
            fragment = append_fragment(ctx, i)
            out.attempted += 1
            start = time.perf_counter()
            event = remote_append(server, name, fragment)
            elapsed = time.perf_counter() - start
            if event.get("status") == "completed":
                latencies.append(elapsed)
                steps.append((name, fragment, event["result"]["rules"]))
            else:
                out.failed += 1
                latencies.append(REQUEST_TIMEOUT)
                out.lines.append(f"failed: append job {event.get('status')}")
                # A failed request may or may not have grown the table.
                if not event["status"].startswith("request failed"):
                    steps.append((name, fragment, None))
            if i + 1 == RSS_AFTER_APPENDS:
                peak = server.peak_rss_mb()

        measure(ctx.seconds, op, min_ops=RSS_AFTER_APPENDS)
    if out.failed:
        out.lines.append("replay check skipped: an append failed")
    else:
        check_append_replay(bases, steps)
    out.lines.append(
        f"server peak RSS read after {RSS_AFTER_APPENDS} appends"
    )
    end_to_end(out, latencies, setup, APPEND_BATCH, peak)


def append_remine_traced(ctx, out) -> None:
    """The server's append path next to its in-process replay.

    Per op: the HTTP append and job (``serve.http_append``), then the
    same append on the benchmark's own ``--store-dir``-style registry,
    ``mine()`` with a shared artifact cache and the result export.  The
    composed layer calls then run on fresh copies of the grown table,
    traced and untraced, and must equal that ``mine()``.
    """
    rec = out.recorder
    quiet = SpanRecorder(enabled=False)
    bases = append_bases(ctx)
    registry = replay_registry(bases, ctx.run_dir / "replay-tables")
    cache = CacheConfig().build()
    config = MinerConfig.from_dict(APPEND_JOB_CONFIG)
    for name, _, _ in bases:
        QuantitativeMiner(registry.get(name), config, cache=cache).mine()
    walls = {True: [], False: []}
    executions = []
    with ServerProcess(
        ctx.root, ctx.env, ctx.run_dir / "server.log",
        store_dir=ctx.run_dir / "store", cpus=ctx.server_cpus,
    ) as server:
        load_tables(server, bases)

        def op(i):
            name = bases[i % len(bases)][0]
            fragment = append_fragment(ctx, i)
            out.attempted += 1
            with rec.span("op"):
                with rec.span("serve.http_append"):
                    event = remote_append(server, name, fragment)
                with rec.span("serve.table_append"):
                    registry.append_csv(name, fragment)
                table = registry.get(name)
                with rec.span("engine.mine"):
                    result = QuantitativeMiner(
                        table, config, cache=cache
                    ).mine()
                with rec.span("export") as export:
                    document = result_to_document(result)
            export.counts["bytes"] = len(json.dumps(document).encode())
            executions.append(result.stats.execution)
            if event.get("status") != "completed":
                out.failed += 1
                out.lines.append(f"failed: append job {event.get('status')}")
                raise CheckFailed("lost track of the server's table")
            if json.loads(json.dumps(document["rules"])) != event["result"][
                "rules"
            ]:
                raise CheckFailed("append job rules differ from the replay")
            copies = [fresh_copy(table), fresh_copy(table)]

            def replay(recorder):
                with recorder.span("compose"):
                    composed = compose_mine(copies.pop(), config, recorder)
                check_identical(composed, result)

            replay_both_ways(i, rec, quiet, walls, replay)

        measure(ctx.seconds, op)
    spans = rec.spans
    ledgers = root_ledgers(spans)
    composes = [lg for lg in ledgers if lg["root.name"] == "compose"]
    mines = durations(spans, "engine.mine")
    extra = {
        "engine.overhead_s": statistics.median(
            m - mining_seconds(lg) for m, lg in zip(mines, composes)
        ),
        "engine.shard_cache_hit_ratio": shard_cache_hit_ratio(executions),
        "serve.job_overhead_s": (
            statistics.median(durations(spans, "serve.http_append"))
            - statistics.median(durations(spans, "serve.table_append"))
            - statistics.median(mines)
        ),
        "trace.overhead_ratio": tracing_overhead(walls[True], walls[False]),
    }
    out.lines.append(
        f"shard cache over {len(executions)} append jobs: "
        f"{sum(e.shard_cache_hits for e in executions)} hits, "
        f"{sum(e.shard_cache_misses for e in executions)} misses"
    )
    layer_metrics(out, rec, extra)


RUNNERS = {
    ("scaleup", False): lambda ctx, out: mining_untraced(
        ctx, out, SCALEUP_RECORDS, FIGURE9
    ),
    ("scaleup", True): lambda ctx, out: mining_traced(
        ctx, out, SCALEUP_RECORDS, FIGURE9, fig9=True
    ),
    ("fine_partition", False): lambda ctx, out: mining_untraced(
        ctx, out, FINE_RECORDS, FINE_CONFIG
    ),
    ("fine_partition", True): lambda ctx, out: mining_traced(
        ctx, out, FINE_RECORDS, FINE_CONFIG
    ),
    ("rule_serving", False): rule_serving_untraced,
    ("rule_serving", True): rule_serving_traced,
    ("append_remine", False): append_remine_untraced,
    ("append_remine", True): append_remine_traced,
}
