"""Command-line interface: mine quantitative association rules from a CSV.

Examples
--------
Mine with defaults, sniffing attribute kinds from the data::

    quantrules mine people.csv

Force kinds, tune thresholds, keep only interesting rules::

    quantrules mine credit.csv \
        --categorical employee_category,marital_status \
        --min-support 0.2 --min-confidence 0.25 --max-support 0.4 \
        --completeness 1.5 --interest 1.1

Generate the synthetic credit dataset used by the benchmarks::

    quantrules generate credit.csv --records 50000 --seed 42

Combine categorical values along an is-a hierarchy (a JSON object of
child -> parent edges)::

    quantrules mine sales.csv --taxonomy item=clothes_taxonomy.json

Mine goal-directed — only rules concluding on one attribute, counting
strictly fewer candidates — then answer point queries offline::

    quantrules mine credit.csv --target employee_category \
        --save-json rules.json
    quantrules predict rules.json --target employee_category \
        --record '{"monthly_income": 3000, "credit_limit": 5000}'

Reproduce an evaluation figure on synthetic data::

    quantrules figure7 --records 20000
    quantrules figure8
    quantrules figure9 --sizes 50000,100000,200000
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    CacheConfig,
    ExecutionConfig,
    IncrementalConfig,
    MinerConfig,
    ObsConfig,
    QuantitativeMiner,
    RemoteConfig,
    Taxonomy,
)
from .data import generate_credit_table
from .table import load_csv, save_csv


def _split_names(text: str | None) -> list:
    if not text:
        return []
    return [name.strip() for name in text.split(",") if name.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrules",
        description=(
            "Mine quantitative association rules "
            "(Srikant & Agrawal, SIGMOD 1996)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine rules from a CSV file")
    mine.add_argument("csv", help="input CSV with a header row")
    mine.add_argument(
        "--quantitative",
        help="comma-separated columns to force quantitative",
    )
    mine.add_argument(
        "--categorical",
        help="comma-separated columns to force categorical",
    )
    mine.add_argument(
        "--min-support", type=float, default=0.1, metavar="FRAC"
    )
    mine.add_argument(
        "--min-confidence", type=float, default=0.5, metavar="FRAC"
    )
    mine.add_argument(
        "--max-support", type=float, default=0.4, metavar="FRAC",
        help="stop combining adjacent intervals beyond this support",
    )
    mine.add_argument(
        "--completeness", type=float, default=1.5, metavar="K",
        help="partial completeness level (drives interval counts)",
    )
    mine.add_argument(
        "--interest", type=float, default=None, metavar="R",
        help="interest level; omit to report all rules",
    )
    mine.add_argument(
        "--interest-mode",
        choices=("or", "and"),
        default="or",
        help="deviation test: support OR confidence (default) / AND",
    )
    mine.add_argument(
        "--target", metavar="ATTR", default=None,
        help=(
            "goal-directed mining: emit only rules concluding on ATTR, "
            "pruning candidates that cannot reach it (same rules as a "
            "full mine filtered to that consequent, counted cheaper)"
        ),
    )
    mine.add_argument(
        "--counting",
        choices=("array", "rtree", "direct", "bitmap", "auto"),
        default="array",
        help="support-counting backend for pass >= 3 super-candidates "
        "(Section 5.2; bitmap = packed per-interval bitsets); pass 2 "
        "always counts through 2-D prefix-sum pair plans",
    )
    mine.add_argument(
        "--partition-method",
        choices=("equidepth", "equiwidth", "equicardinality", "cluster"),
        default="equidepth",
        help="base-interval construction (equidepth = paper's Lemma 4)",
    )
    mine.add_argument(
        "--executor",
        choices=("serial", "parallel", "remote"),
        default="serial",
        help=(
            "execution engine: in-process (default), a process pool, "
            "or a worker fleet named by --workers"
        ),
    )
    mine.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for the parallel executor "
            "(default: all cores); N > 1 implies --executor parallel"
        ),
    )
    mine.add_argument(
        "--workers", metavar="HOST:PORT,...", default=None,
        help=(
            "comma-separated addresses of 'quantrules serve --worker' "
            "servers to count shards on; implies --executor remote"
        ),
    )
    mine.add_argument(
        "--shard-size", type=int, default=None, metavar="ROWS",
        help=(
            "records per table shard for support counting "
            "(default: derived from the worker count; results are "
            "identical for any value)"
        ),
    )
    mine.add_argument(
        "--append", action="append", default=[], metavar="EXTRA.csv",
        help=(
            "after mining, append EXTRA.csv's rows (same columns, any "
            "order) to the table and re-mine incrementally, reusing "
            "per-shard count artifacts for untouched rows (repeatable; "
            "enables the incremental engine)"
        ),
    )
    mine.add_argument(
        "--incremental-shard-size", type=int, default=None,
        metavar="ROWS",
        help=(
            "records per shard in incremental mode (fixed boundaries "
            "keep prefix shards byte-stable across appends; "
            "default: 8192)"
        ),
    )
    mine.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache (every stage runs)",
    )
    mine.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=(
            "cache stage artifacts on disk under DIR instead of in "
            "memory, so repeated invocations reuse each other's work"
        ),
    )
    mine.add_argument(
        "--taxonomy",
        action="append",
        default=[],
        metavar="ATTR=FILE.json",
        help=(
            "is-a hierarchy for a categorical attribute; the JSON file "
            "maps each child value/node to its parent (repeatable)"
        ),
    )
    mine.add_argument(
        "--save-json", metavar="PATH",
        help="additionally write the printed rules as a JSON document",
    )
    mine.add_argument(
        "--save-csv", metavar="PATH",
        help="additionally write the printed rules as a CSV table",
    )
    mine.add_argument(
        "--max-itemset-size", type=int, default=None, metavar="K",
        help="cap itemset size (default: run until exhausted)",
    )
    mine.add_argument(
        "--all-rules",
        action="store_true",
        help="print all rules, not only the interesting ones",
    )
    mine.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N rules",
    )
    mine.add_argument(
        "--async-jobs", type=int, default=None, metavar="N",
        help=(
            "batch mode: mine every sweep variant concurrently, at most "
            "N jobs at a time, sharing one warm artifact cache"
        ),
    )
    mine.add_argument(
        "--sweep-confidence", metavar="FRAC,FRAC,...", default=None,
        help=(
            "comma-separated min-confidence values to sweep "
            "(with --async-jobs; default: just --min-confidence)"
        ),
    )
    mine.add_argument(
        "--sweep-interest", metavar="R,R,...", default=None,
        help=(
            "comma-separated interest levels to sweep "
            "(with --async-jobs; default: just --interest)"
        ),
    )
    mine.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECS",
        help="per-job wall-clock budget in batch mode (default: none)",
    )
    mine.add_argument(
        "--stats", action="store_true", help="print mining statistics"
    )
    mine.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help=(
            "write the run's span trace as JSON lines to PATH, plus a "
            "Chrome trace-event file next to it (.chrome.json) for "
            "chrome://tracing / Perfetto"
        ),
    )
    mine.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's metrics snapshot as JSON to PATH",
    )
    mine.add_argument(
        "--log-level", metavar="LEVEL", default=None,
        help="enable pipeline logging at LEVEL (DEBUG, INFO, ...)",
    )
    mine.add_argument(
        "--otlp-endpoint", metavar="URL", default=None,
        help=(
            "push spans and metrics as OTLP/JSON to this collector "
            "base URL (http://host:port) during the run, draining "
            "before exit"
        ),
    )
    mine.add_argument(
        "--explain-timing",
        action="store_true",
        help="print the span-tree timing report after mining",
    )

    predict = sub.add_parser(
        "predict",
        help="point queries against an exported rules JSON document",
    )
    predict.add_argument(
        "rules_json",
        help=(
            "exported rules document (mine --save-json, or a job's "
            "result document) — must carry its 'attributes' section"
        ),
    )
    predict.add_argument(
        "--record", required=True, metavar="JSON",
        help=(
            "the record to query, as a JSON object of attribute: raw "
            "value (attributes may be omitted)"
        ),
    )
    predict.add_argument(
        "--target", metavar="ATTR", default=None,
        help=(
            "predict this attribute: report only rules concluding on "
            "it plus the top rule's interval; omit to list every "
            "fired rule"
        ),
    )
    predict.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="report at most N fired rules",
    )

    gen = sub.add_parser(
        "generate", help="write a synthetic credit dataset CSV"
    )
    gen.add_argument("csv", help="output CSV path")
    gen.add_argument("--records", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)

    fig7 = sub.add_parser(
        "figure7",
        help="reproduce Figure 7 (interesting rules vs. completeness)",
    )
    fig7.add_argument("--records", type=int, default=20_000)
    fig7.add_argument("--seed", type=int, default=42)
    fig7.add_argument(
        "--levels", default="1.5,2,3,5",
        help="comma-separated partial-completeness levels",
    )

    fig8 = sub.add_parser(
        "figure8",
        help="reproduce Figure 8 (%% interesting vs. interest level)",
    )
    fig8.add_argument("--records", type=int, default=10_000)
    fig8.add_argument("--seed", type=int, default=42)

    fig9 = sub.add_parser(
        "figure9", help="reproduce Figure 9 (scale-up with records)"
    )
    fig9.add_argument(
        "--sizes", default="50000,100000,200000,350000,500000",
        help="comma-separated record counts",
    )
    fig9.add_argument("--seed", type=int, default=42)

    serve = sub.add_parser(
        "serve", help="run the HTTP mining service"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="port to bind (0 = OS-assigned; read the 'serving on' line)",
    )
    serve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="max concurrent mining jobs (default: core count)",
    )
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "durable store directory (job journal, results, uploaded "
            "tables); omit for a memory-only server"
        ),
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="re-queue jobs a previous server left unfinished",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default wall-clock budget per job (none by default)",
    )
    serve.add_argument(
        "--max-body", type=int, default=None, metavar="BYTES",
        help="largest accepted request body (default: 32 MiB)",
    )
    serve.add_argument(
        "--drain-seconds", type=float, default=None, metavar="SECONDS",
        help=(
            "grace for in-flight jobs on shutdown before they are "
            "interrupted (default: wait for them)"
        ),
    )
    serve.add_argument(
        "--worker", action="store_true",
        help=(
            "also serve the /v1/shards/* counting routes so 'quantrules "
            "mine --workers' coordinators can count shards here (with "
            "--store-dir, shard counts persist under DIR/shard-cache)"
        ),
    )
    serve.add_argument(
        "--otlp-endpoint", metavar="URL", default=None,
        help=(
            "push this server's spans and metrics as OTLP/JSON to the "
            "collector at URL (http://host:port), draining on shutdown"
        ),
    )
    return parser


def _parse_taxonomies(specs) -> dict:
    """Parse repeated ``ATTR=FILE.json`` options into Taxonomy objects."""
    taxonomies = {}
    for spec in specs:
        attr, sep, path = spec.partition("=")
        if not sep or not attr or not path:
            raise SystemExit(
                f"--taxonomy expects ATTR=FILE.json, got {spec!r}"
            )
        with open(path) as f:
            edges = json.load(f)
        if not isinstance(edges, dict):
            raise SystemExit(
                f"{path}: expected a JSON object of child->parent edges"
            )
        taxonomies[attr] = Taxonomy(edges)
    return taxonomies


def _run_mine(args) -> int:
    taxonomies = _parse_taxonomies(args.taxonomy)
    executor = args.executor
    if args.jobs is not None and args.jobs > 1 and executor == "serial":
        executor = "parallel"
    remote = None
    if args.workers is not None:
        remote = RemoteConfig(workers=args.workers)
        executor = "remote"
    elif executor == "remote":
        raise SystemExit("--executor remote needs --workers HOST:PORT,...")
    execution = ExecutionConfig(
        executor=executor,
        num_workers=args.jobs,
        shard_size=args.shard_size,
    )
    if args.no_cache:
        cache = CacheConfig(enabled=False)
    elif args.cache_dir is not None:
        cache = CacheConfig(backend="disk", directory=args.cache_dir)
    else:
        cache = CacheConfig()
    observability = ObsConfig(
        enabled=(
            True
            if (
                args.trace_out
                or args.metrics_out
                or args.explain_timing
                or args.otlp_endpoint
            )
            else None
        ),
        trace_path=args.trace_out,
        metrics_path=args.metrics_out,
        log_level=args.log_level,
        otlp_endpoint=args.otlp_endpoint,
    )
    incremental = None
    if args.append or args.incremental_shard_size is not None:
        incremental = IncrementalConfig(
            enabled=True,
            shard_size=(
                args.incremental_shard_size
                if args.incremental_shard_size is not None
                else IncrementalConfig().shard_size
            ),
        )
    config = MinerConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        max_support=args.max_support,
        partial_completeness=args.completeness,
        interest_level=args.interest,
        interest_mode=(
            "support_and_confidence"
            if args.interest_mode == "and"
            else "support_or_confidence"
        ),
        counting=args.counting,
        target=args.target,
        partition_method=args.partition_method,
        max_itemset_size=args.max_itemset_size,
        taxonomies=taxonomies or None,
        execution=execution,
        cache=cache,
        observability=observability,
        incremental=incremental,
        remote=remote,
    )
    categorical = set(_split_names(args.categorical)) | set(taxonomies)
    table = load_csv(
        args.csv,
        quantitative=_split_names(args.quantitative),
        categorical=sorted(categorical),
    )
    if args.async_jobs is not None:
        if args.append:
            raise SystemExit("--append is not supported with --async-jobs")
        return _run_mine_batch(args, table, config)
    miner = QuantitativeMiner(table, config)
    result = miner.mine()
    if args.append:
        result = _apply_appends(args, miner, table)
    rules = result.rules if args.all_rules else result.interesting_rules
    print(result.describe_rules(rules, limit=args.limit))
    if args.save_json:
        result.save_rules_json(args.save_json, rules)
    if args.save_csv:
        result.save_rules_csv(args.save_csv, rules)
    shown = len(rules) if args.limit is None else min(args.limit, len(rules))
    print(
        f"\n{shown} of {len(result.rules)} rules shown "
        f"({len(result.interesting_rules)} interesting)",
        file=sys.stderr,
    )
    if args.stats:
        print(file=sys.stderr)
        print(result.stats.summary(), file=sys.stderr)
    _report_observability(args, result.observability)
    return 0


def _apply_appends(args, miner, table):
    """Apply each --append CSV and re-mine; returns the final result.

    Fragments are parsed with the base table's resolved attribute
    kinds forced, so a numeric-looking fragment can never flip a
    categorical column, and their rows are reordered to the base
    schema before appending.  Each round reports whether the append
    kept the existing partitions (per-shard count artifacts for
    untouched rows are reused) or had to re-partition.
    """
    names = [attr.name for attr in table.schema]
    quantitative = [a.name for a in table.schema if a.is_quantitative]
    categorical = [
        a.name for a in table.schema if not a.is_quantitative
    ]
    result = None
    for path in args.append:
        fragment = load_csv(
            path, quantitative=quantitative, categorical=categorical
        )
        fragment_names = [attr.name for attr in fragment.schema]
        if sorted(fragment_names) != sorted(names):
            raise SystemExit(
                f"{path}: columns {sorted(fragment_names)} do not "
                f"match {args.csv}'s columns {sorted(names)}"
            )
        report = miner.append(fragment.iter_records(names))
        mode = (
            f"re-partitioned: {report.reason}"
            if report.repartitioned
            else "kept partitions"
        )
        print(
            f"appended {report.records_appended} records from {path} "
            f"-> {report.num_records} total ({mode})",
            file=sys.stderr,
        )
        result = miner.mine()
    return result


def _report_observability(args, obs) -> None:
    """Print the timing report and exported-artifact notices for a run."""
    if obs is None:
        return
    if args.explain_timing:
        print(file=sys.stderr)
        print(obs.timing_report(), file=sys.stderr)
    for path in obs.export():
        print(f"wrote {path}", file=sys.stderr)
    obs.close()


def _sweep_configs(args, config) -> list:
    """Expand --sweep-* flags into one MinerConfig per batch job.

    The cross product of the swept min-confidence and interest values;
    an omitted sweep axis contributes the base config's single value.
    """
    import dataclasses

    confidences = [
        float(v) for v in _split_names(args.sweep_confidence)
    ] or [config.min_confidence]
    interests = [
        float(v) for v in _split_names(args.sweep_interest)
    ] or [config.interest_level]
    return [
        dataclasses.replace(
            config, min_confidence=conf, interest_level=interest
        )
        for conf in confidences
        for interest in interests
    ]


def _run_mine_batch(args, table, config) -> int:
    """Mine every sweep variant concurrently (the --async-jobs path)."""
    import asyncio

    from .core import MiningJobRunner

    configs = _sweep_configs(args, config)
    observability = config.observability.build()

    async def sweep():
        async with MiningJobRunner(
            max_concurrent_jobs=args.async_jobs,
            job_timeout=args.job_timeout,
            cache=config.cache.build(),
            observability=observability,
        ) as runner:
            jobs = [runner.submit(table, variant) for variant in configs]
            await runner.join()
            return runner, jobs

    runner, jobs = asyncio.run(sweep())
    failures = 0
    for job in jobs:
        variant = job.config
        interest = (
            "-" if variant.interest_level is None
            else f"{variant.interest_level:g}"
        )
        print(
            f"== {job.job_id}: min_conf={variant.min_confidence:g} "
            f"interest={interest} -> {job.status}"
        )
        if job.result is None:
            failures += 1
            if job.error is not None:
                print(f"   {job.error}", file=sys.stderr)
            continue
        result = job.result
        rules = result.rules if args.all_rules else result.interesting_rules
        print(result.describe_rules(rules, limit=args.limit))
        print()
    if args.stats:
        print(runner.stats.summary(), file=sys.stderr)
    # One export at the end, so the files cover every job in the sweep
    # (including the final job's outcome counters).
    _report_observability(args, observability)
    return 1 if failures else 0


def _run_predict(args) -> int:
    """Answer one match/predict point query from an exported document."""
    from .rules import RuleIndex
    from .serve.protocol import prediction_payload, rule_match_payload

    try:
        with open(args.rules_json) as f:
            document = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{args.rules_json}: {exc}")
    try:
        record = json.loads(args.record)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--record is not valid JSON: {exc}")
    if not isinstance(record, dict):
        raise SystemExit("--record must be a JSON object")
    try:
        index = RuleIndex.from_document(document)
        if args.target is not None:
            prediction = index.predict(
                record, args.target, top=args.top
            )
            payload = prediction_payload(prediction, index)
        else:
            matches = index.match(record)
            payload = {
                "num_matches": len(matches),
                "matches": [
                    rule_match_payload(m, index)
                    for m in (
                        matches[: args.top] if args.top else matches
                    )
                ],
            }
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(json.dumps(payload, indent=2))
    return 0


def _run_generate(args) -> int:
    table = generate_credit_table(args.records, seed=args.seed)
    save_csv(table, args.csv)
    print(f"wrote {table.num_records} records to {args.csv}", file=sys.stderr)
    return 0


def _run_figure7(args) -> int:
    from .experiments import run_figure7

    table = generate_credit_table(args.records, seed=args.seed)
    levels = tuple(float(v) for v in _split_names(args.levels))
    result = run_figure7(table, completeness_levels=levels)
    print(result.render())
    return 0


def _run_figure8(args) -> int:
    from .experiments import run_figure8

    table = generate_credit_table(args.records, seed=args.seed)
    print(run_figure8(table).render())
    return 0


def _run_figure9(args) -> int:
    from .experiments import run_figure9

    cache: dict = {}

    def table_for_size(n: int):
        if n not in cache:
            cache[n] = generate_credit_table(n, seed=args.seed)
        return cache[n]

    sizes = tuple(int(v) for v in _split_names(args.sizes))
    print(run_figure9(table_for_size, sizes=sizes).render())
    return 0


def _run_serve(args) -> int:
    from pathlib import Path

    from .obs import Observability
    from .serve import (
        DEFAULT_MAX_BODY,
        DiskJobStore,
        MiningHTTPServer,
        MiningService,
        TableRegistry,
        run_server,
    )

    observability = Observability(otlp_endpoint=args.otlp_endpoint)
    store = tables = rulesets = None
    if args.store_dir is not None:
        from .engine.cache import DiskCache
        from .rules import RulesetRegistry

        store = DiskJobStore(args.store_dir)
        tables = TableRegistry(Path(args.store_dir) / "tables")
        # Uploaded rulesets (and their built indexes) survive restarts.
        rulesets = RulesetRegistry(
            Path(args.store_dir) / "rulesets",
            cache=DiskCache(Path(args.store_dir) / "ruleset-cache"),
            observability=observability,
        )
    shard_worker = None
    if args.worker:
        from .engine.cache import DiskCache
        from .serve import ShardWorker

        shard_cache = None
        if args.store_dir is not None:
            shard_cache = DiskCache(Path(args.store_dir) / "shard-cache")
        shard_worker = ShardWorker(
            shard_cache, metrics=observability.metrics
        )
    service = MiningService(
        store=store,
        tables=tables,
        max_concurrent_jobs=args.jobs,
        default_job_timeout=args.job_timeout,
        observability=observability,
        shard_worker=shard_worker,
        rulesets=rulesets,
    ).start()
    if args.recover:
        requeued = service.recover()
        print(
            f"recovered {len(requeued)} interrupted job(s)",
            file=sys.stderr,
        )
    server = MiningHTTPServer(
        (args.host, args.port),
        service,
        max_body=(
            DEFAULT_MAX_BODY if args.max_body is None else args.max_body
        ),
    )
    run_server(
        server,
        drain_seconds=args.drain_seconds,
        announce=lambda line: print(line, flush=True),
    )
    observability.close()
    return 0


_COMMANDS = {
    "mine": _run_mine,
    "predict": _run_predict,
    "generate": _run_generate,
    "figure7": _run_figure7,
    "figure8": _run_figure8,
    "figure9": _run_figure9,
    "serve": _run_serve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        handler = _COMMANDS[args.command]
    except KeyError:
        raise AssertionError(f"unhandled command {args.command!r}")
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
