"""Mining configuration.

Collects every user-specified parameter of the paper in one validated
object: minimum support/confidence, the *maximum support* used to stop
combining adjacent intervals (Section 1.2), the partial-completeness level
driving the partitioning (Section 3), and the interest level driving rule
pruning (Section 4).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: Interest-mode constants (Section 4: "The user can specify whether it
#: should be support and confidence, or support or confidence".)
SUPPORT_OR_CONFIDENCE = "support_or_confidence"
SUPPORT_AND_CONFIDENCE = "support_and_confidence"

#: Counting backends (Section 5.2).  ``auto`` applies the paper's memory
#: heuristic per super-candidate, choosing between the multi-dimensional
#: array and the R*-tree.
COUNTING_BACKENDS = ("array", "rtree", "direct", "bitmap", "auto")

#: Executor names understood by the execution engine.
EXECUTORS = ("serial", "parallel", "remote")

#: Artifact-cache backends understood by :class:`CacheConfig`.
CACHE_BACKENDS = ("memory", "disk", "none")

# ----------------------------------------------------------------------
# Stage dependency declarations for the content-addressed artifact cache.
#
# Each tuple names the MinerConfig attributes (fields or derived
# properties) a pipeline stage's declared outputs are a function of —
# the *transitive* set, since every artifact ultimately derives from
# (table, config).  The execution block is deliberately absent from all
# of them: executors and shard layouts are purely operational and must
# never invalidate cached artifacts.
# ----------------------------------------------------------------------

#: Fields that shape the encoded table (Steps 1-2: partitioning/mapping).
PARTITIONING_CONFIG_KEYS = (
    "min_support",
    "partial_completeness",
    "max_quantitative_in_rule",
    "num_partitions",
    "partition_method",
    "taxonomies",
)

#: Step 3a (frequent items) adds the range cap and the Lemma 5 prune.
FREQUENT_ITEMS_CONFIG_KEYS = PARTITIONING_CONFIG_KEYS + (
    "max_support",
    "item_prune_interest_level",
)

#: Step 3b (level-wise counting) adds the search bound and the backend
#: knobs.  The backend choice cannot change *output* (all backends are
#: bit-identical), but it does change the recorded pass statistics, so
#: it conservatively participates in the fingerprint.
COUNTING_CONFIG_KEYS = FREQUENT_ITEMS_CONFIG_KEYS + (
    "max_itemset_size",
    "counting",
    "memory_budget_bytes",
    "target",
)

#: Step 4 (rule generation) adds the effective confidence threshold.
RULEGEN_CONFIG_KEYS = COUNTING_CONFIG_KEYS + ("effective_min_confidence",)

#: Step 5 (interest filter) adds the full interest parameterization.
INTEREST_CONFIG_KEYS = RULEGEN_CONFIG_KEYS + (
    "interest_level",
    "interest_mode",
    "apply_specialization_check",
)


@dataclass
class ExecutionConfig:
    """How the staged execution engine runs a mining job.

    Parameters
    ----------
    executor:
        ``"serial"`` (in-process; the default and the reference
        semantics) or ``"parallel"`` (a process pool).  Per-shard support
        counts merge by integer addition, so both produce bit-identical
        results.
    num_workers:
        Worker processes for the parallel executor; ``None`` uses every
        core.  Ignored by the serial executor.
    shard_size:
        Records per :class:`~repro.engine.shards.TableShard`.  ``None``
        derives a layout from the worker count (one shard total for
        serial runs).  Any value yields identical mining output — the
        knob only trades scheduling granularity against per-shard
        overhead.
    rule_block_size:
        Work units per block when the *rule* stages fan out: frequent
        itemsets per rule-generation block, attribute-signature groups
        per interest-filter block.  ``None`` derives a block count from
        the worker count (and keeps the rule stages serial under the
        serial executor).  As with ``shard_size``, any value yields
        bit-identical output.
    """

    executor: str = "serial"
    num_workers: int | None = None
    shard_size: int | None = None
    rule_block_size: int | None = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        if self.rule_block_size is not None and self.rule_block_size < 1:
            raise ValueError(
                f"rule_block_size must be >= 1, got {self.rule_block_size}"
            )

    @property
    def resolved_num_workers(self) -> int:
        """Concrete worker count (serial always means one)."""
        if self.executor == "serial":
            return 1
        return self.num_workers or os.cpu_count() or 1


@dataclass
class RemoteConfig:
    """How the ``"remote"`` executor reaches its worker fleet.

    Parameters
    ----------
    workers:
        ``host:port`` addresses of counting workers (servers started
        with ``quantrules serve --worker``), as a list/tuple or one
        comma-separated string.  Required when
        ``execution.executor`` is ``"remote"``.
    task_timeout:
        Per shard-count request wall-clock budget in seconds.  The task
        is retried on another worker, never the same one; the slow
        worker is marked dead only if it also fails a short
        ``GET /healthz`` probe.
    max_retries:
        Retries per shard task after its first failure, spread over
        the surviving workers.
    backoff_seconds:
        Base of the exponential backoff slept between retries.
    fallback_local:
        Whether the coordinator counts a shard in-process once no
        live worker is left to try it — every worker dead, or the
        shard timed out on each live one (``True``, the default — the run
        completes with bit-identical output) or fails fast with a
        :class:`~repro.engine.remote.RemoteDispatchError` (``False``).

    Like the other engine blocks this is purely operational: per-shard
    partial counts merge by exact integer addition, so any worker
    assignment, retry history or fallback produces the same output as
    a serial run.  It participates in no cache fingerprint.
    """

    workers: tuple = ()
    task_timeout: float = 30.0
    max_retries: int = 3
    backoff_seconds: float = 0.1
    fallback_local: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.workers, str):
            self.workers = tuple(
                w.strip() for w in self.workers.split(",") if w.strip()
            )
        else:
            self.workers = tuple(str(w) for w in self.workers)
        from ..engine.remote import parse_worker_address

        for address in self.workers:
            parse_worker_address(address)  # raises ValueError if bad
        if self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )


@dataclass
class AsyncConfig:
    """How the asyncio front end multiplexes concurrent mining jobs.

    Parameters
    ----------
    max_concurrent_jobs:
        Upper bound on jobs mining at the same time in one
        :class:`~repro.core.async_miner.MiningJobRunner` (a semaphore;
        excess submissions queue).  ``None`` uses the host's core count.
    job_timeout:
        Default per-job wall-clock budget in seconds; ``None`` means no
        timeout.  A job exceeding it is cancelled at the next stage
        boundary and reports ``"timed_out"``.  Individual submissions
        may override this.

    Like the execution and cache blocks, this block is purely
    operational: it decides when and how concurrently jobs run, never
    what they compute, so it participates in no cache fingerprint.
    """

    max_concurrent_jobs: int | None = None
    job_timeout: float | None = None

    def __post_init__(self) -> None:
        if (
            self.max_concurrent_jobs is not None
            and self.max_concurrent_jobs < 1
        ):
            raise ValueError(
                "max_concurrent_jobs must be >= 1, "
                f"got {self.max_concurrent_jobs}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be > 0, got {self.job_timeout}"
            )

    @property
    def resolved_max_concurrent_jobs(self) -> int:
        """Concrete concurrency bound (``None`` means the core count)."""
        return self.max_concurrent_jobs or os.cpu_count() or 1


@dataclass
class CacheConfig:
    """How the artifact cache behaves across mining runs.

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` disables caching entirely (every stage
        runs); equivalent to the CLI's ``--no-cache``.
    backend:
        ``"memory"`` (bounded in-process LRU; the default), ``"disk"``
        (one file per fingerprint under ``directory``, shared across
        processes), or ``"none"`` (explicitly cache-free).
    max_entries:
        LRU bound for the memory backend; ignored by the others.
        ``None`` (the default) resolves to 64 entries — or 4096 when
        the owning :class:`MinerConfig` has incremental mining enabled,
        since shard-granular count artifacts need one entry per shard
        per counting stage and a 64-entry bound would evict them
        between runs.
    directory:
        Location for the disk backend; ``None`` uses
        ``~/.cache/repro``.  Setting a directory while leaving
        ``backend`` at its default selects the disk backend.
    max_bytes:
        Size budget for the disk backend's directory; least-recently-
        used entries are evicted past it.  ``None`` (the default) leaves
        the directory unbounded.  Shard-granular artifacts multiply the
        entry count, so append-heavy deployments should set this.

    Caching is purely an optimization: cache keys are content
    fingerprints of the table plus every configuration field a stage
    depends on, so a hit always restores exactly what a fresh run would
    have produced (property-tested in ``tests/test_artifact_cache.py``).
    """

    enabled: bool = True
    backend: str = "memory"
    max_entries: int | None = None
    directory: str | None = None
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in CACHE_BACKENDS:
            raise ValueError(
                f"backend must be one of {CACHE_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError(
                f"max_bytes must be >= 1, got {self.max_bytes}"
            )
        if self.directory is not None and self.backend == "memory":
            self.backend = "disk"

    def build(self):
        """Resolve this configuration into an engine-layer cache.

        Returns an :class:`~repro.engine.cache.ArtifactCache` or
        ``None`` when caching is disabled (the engine then skips cache
        consultation entirely).
        """
        if not self.enabled or self.backend == "none":
            return None
        from ..engine.cache import DiskCache, MemoryCache

        if self.backend == "disk":
            return DiskCache(self.directory, max_bytes=self.max_bytes)
        return MemoryCache(
            max_entries=64 if self.max_entries is None else self.max_entries
        )


@dataclass
class IncrementalConfig:
    """How the miner handles appended records (shard-granular dataflow).

    Parameters
    ----------
    enabled:
        Master switch.  When on (and an artifact cache is active), the
        record-linear counting stages consult per-shard count artifacts
        before fanning out, so a re-mine after
        :meth:`~repro.core.miner.QuantitativeMiner.append` recounts
        only new or dirty shards.  Off (the default) preserves the
        stage-granular behavior exactly.
    shard_size:
        Records per shard when ``execution.shard_size`` is unset.
        Incremental mode needs boundaries that do not move when the
        record count grows (a worker-derived layout would dirty every
        shard on every append), so it pins a fixed size.  An explicit
        ``execution.shard_size`` takes precedence.
    k_drift_budget:
        Allowed relative drift of the realized partial-completeness
        level K before an append forces a re-partition.  After every
        append the miner recomputes K from the live boundaries (Eq. 1
        machinery); while it stays within ``baseline * (1 + budget)``
        the partitioning — and with it every cached shard artifact —
        is kept.  ``0`` re-partitions on any measurable drift.

    Like the other engine blocks this is purely operational: within the
    K budget the kept partitioning makes incremental output *identical*
    to a cold mine under the same partitioning, and past the budget the
    rebuild path is literally the cold path.  It participates in no
    cache fingerprint.
    """

    enabled: bool = False
    shard_size: int = 8192
    k_drift_budget: float = 0.25

    def __post_init__(self) -> None:
        if self.shard_size < 1:
            raise ValueError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        if self.k_drift_budget < 0:
            raise ValueError(
                f"k_drift_budget must be >= 0, got {self.k_drift_budget}"
            )


@dataclass
class ObsConfig:
    """What the observability layer records and where it exports.

    Parameters
    ----------
    enabled:
        Master switch.  ``None`` (the default) means "on exactly when
        some export target is set", so passing ``trace_path`` is enough
        to get a trace; ``True`` forces live instruments even without
        file targets (the programmatic API reads them off the result);
        ``False`` forces the no-op instruments regardless of paths.
    trace_path:
        Target for the JSON-lines span log (the CLI's ``--trace-out``),
        or ``None``.
    chrome_trace_path:
        Target for the Chrome trace-event file.  ``None`` derives
        ``<trace_path stem>.chrome.json`` whenever ``trace_path`` is
        set, so one flag yields both machine formats.
    metrics_path:
        Target for the metrics snapshot JSON (``--metrics-out``), or
        ``None``.
    log_level:
        When set, :func:`repro.obs.configure_logging` is applied at
        build time with this level name (``"DEBUG"``, ``"info"``, ...).
    otlp_endpoint:
        When set, the built bundle streams spans and metric snapshots
        as OTLP/JSON to this collector base URL
        (``http://host:port``) via a background
        :class:`~repro.obs.TelemetryPusher`; setting it alone enables
        observability, like the export paths.

    Like the execution, cache and async blocks, this block is purely
    operational — it observes a run without changing what it computes —
    so it participates in no cache fingerprint (property-tested in
    ``tests/test_fingerprint.py``).
    """

    enabled: bool | None = None
    trace_path: str | None = None
    chrome_trace_path: str | None = None
    metrics_path: str | None = None
    log_level: str | None = None
    otlp_endpoint: str | None = None

    def __post_init__(self) -> None:
        if self.log_level is not None:
            import logging

            if not isinstance(
                logging.getLevelName(str(self.log_level).upper()), int
            ):
                raise ValueError(f"unknown log_level {self.log_level!r}")
        if self.chrome_trace_path is None and self.trace_path is not None:
            stem = str(self.trace_path)
            if stem.endswith(".jsonl"):
                stem = stem[: -len(".jsonl")]
            elif stem.endswith(".json"):
                stem = stem[: -len(".json")]
            self.chrome_trace_path = stem + ".chrome.json"
        if self.enabled is None:
            self.enabled = any(
                path is not None
                for path in (
                    self.trace_path,
                    self.chrome_trace_path,
                    self.metrics_path,
                    self.otlp_endpoint,
                )
            )

    def build(self):
        """Resolve this block into a live observability bundle.

        Returns a :class:`~repro.obs.Observability` (fresh tracer +
        registry plus the configured export targets) or ``None`` when
        disabled — callers then fall back to the no-op instruments.
        Applies ``log_level`` as a side effect when set.
        """
        from ..obs import Observability, configure_logging

        if self.log_level is not None:
            configure_logging(self.log_level)
        if not self.enabled:
            return None
        return Observability(
            trace_path=self.trace_path,
            chrome_trace_path=self.chrome_trace_path,
            metrics_path=self.metrics_path,
            otlp_endpoint=self.otlp_endpoint,
        )


@dataclass
class MinerConfig:
    """All knobs of the quantitative rule miner.

    Parameters
    ----------
    min_support:
        Fractional minimum support ("minsup").
    min_confidence:
        Fractional minimum confidence ("minconf").
    max_support:
        Fractional maximum support: adjacent base intervals stop being
        combined once the combined support exceeds this value.  Single
        intervals/values above the cap are still considered (Section 1.2).
    partial_completeness:
        Desired level K > 1; the number of base intervals per quantitative
        attribute is ``2 * n / (min_support * (K - 1))`` (Equation 2).
    interest_level:
        R of Section 4.  ``None`` (or 0) disables interest filtering, in
        which case every rule meeting minsup/minconf is reported.
    interest_mode:
        ``"support_or_confidence"`` (the formal definition of Section 4) or
        ``"support_and_confidence"`` (stricter; enables the Lemma 5
        interest-prune during candidate generation, per Section 5.1).
    max_quantitative_in_rule:
        Optional n' of Section 3.2: when the user knows no rule has more
        than n' quantitative attributes, Equation 2 may use n' in place of
        n, giving coarser (fewer) partitions for the same K.
    num_partitions:
        Explicit per-attribute override of the partition count: either an
        int applied to every quantitative attribute or a mapping from
        attribute name to int.  ``None`` derives counts from
        ``partial_completeness``.
    partition_method:
        ``"equidepth"`` (Lemma 4: optimal for partial completeness),
        ``"equiwidth"`` (kept for the skewed-data ablation of Section 7),
        or ``"cluster"`` (1-D k-means; the paper's future-work
        exploration for skewed data).
    counting:
        Support-counting backend for pass >= 3 super-candidates:
        ``"array"`` (multi-dimensional array with prefix sums),
        ``"rtree"`` (R*-tree point queries), ``"direct"`` (per-candidate
        scans; reference), ``"bitmap"`` (packed per-interval bitsets:
        ranges become two word-level operations plus a popcount), or
        ``"auto"`` (paper's heuristic).  Pass 2 always counts through
        2-D prefix-sum pair plans, whatever the backend.
    memory_budget_bytes:
        Applies to pass >= 3 super-candidates only.  The ``auto`` backend
        refuses the array when its cells would exceed this budget,
        falling back to the R*-tree (Section 5.2 trade-off); ``bitmap``
        likewise charges its prefix-bitset tables against the same budget
        and over-budget groups fall back to the R*-tree.  A joint
        prefix-sum table (one per attribute set, for ``array`` groups and
        the interest filter's on-demand supports) is built only while
        its 8-byte cells fit both this budget and 4M cells; otherwise
        counting falls back to per-group masked arrays or record scans,
        with identical counts.  Pass-2 pair plans are not charged
        against it.
    max_itemset_size:
        Optional cap on the number of items per itemset (``None`` = run
        until no candidates remain, as in the paper).
    apply_specialization_check:
        Whether the *final* interest measure (with the Figure 6
        specialization-difference test) is used; ``False`` falls back to
        the tentative generalization-only measure of [SA95].
    taxonomies:
        Optional mapping from categorical attribute name to a
        :class:`~repro.core.taxonomy.Taxonomy`.  Values of a plain
        categorical attribute are never combined; with a taxonomy, the
        hierarchy's interior nodes become the only permissible "ranges"
        over the attribute (Section 1.1's pointer to [SA95]/[HF95]).
    lemma1_confidence_adjustment:
        Lemma 1: a K-complete itemset collection only guarantees a
        *close* counterpart for every raw-value rule when rules are
        generated at ``min_confidence / K``.  When enabled, rule
        generation divides the configured minimum confidence by the
        partial-completeness level, so ``min_confidence`` keeps its
        raw-granularity meaning at the cost of extra (lower-confidence)
        rules in the output.
    target:
        Optional attribute name enabling *goal-directed* mining
        (Apriori_Goal-style): the level-wise search prunes itemsets
        that cannot extend to a frequent itemset over the target
        attribute, and rule generation emits only rules whose
        consequent is a single item on the target.  The output is
        bit-identical to a full mine post-filtered to that consequent
        shape, while counting strictly fewer candidates.  ``None``
        (the default) mines the whole table as usual.
    execution:
        How the staged engine runs the job (executor, worker count,
        shard size).  An :class:`ExecutionConfig`, a plain dict of its
        fields, or ``None`` for the serial default.  Purely operational:
        every setting produces bit-identical mining output.
    cache:
        How stage artifacts are cached across runs (see
        :class:`CacheConfig`).  A :class:`CacheConfig`, a plain dict of
        its fields, or ``None`` for the in-memory default.  Also purely
        operational: a cache hit restores exactly what the stage would
        have produced.
    async_mining:
        How the asyncio front end multiplexes concurrent jobs (see
        :class:`AsyncConfig`).  An :class:`AsyncConfig`, a plain dict of
        its fields, or ``None`` for the defaults.  Purely operational
        like the other engine blocks.
    observability:
        What the tracing/metrics layer records and where it exports
        (see :class:`ObsConfig`).  An :class:`ObsConfig`, a plain dict
        of its fields, or ``None`` for "off".  Purely operational like
        the other engine blocks: observing a run never changes its
        output or its cache keys.
    incremental:
        How appended records are handled (see
        :class:`IncrementalConfig`).  An :class:`IncrementalConfig`, a
        plain dict of its fields, or ``None`` for "off".  Purely
        operational like the other engine blocks.
    remote:
        How the ``"remote"`` executor reaches its counting workers
        (see :class:`RemoteConfig`).  A :class:`RemoteConfig`, a plain
        dict of its fields, or ``None`` for the defaults; required to
        carry worker addresses when ``execution.executor`` is
        ``"remote"``.  Purely operational like the other engine
        blocks.
    """

    min_support: float = 0.1
    min_confidence: float = 0.5
    max_support: float = 0.4
    partial_completeness: float = 1.5
    interest_level: float | None = None
    interest_mode: str = SUPPORT_OR_CONFIDENCE
    max_quantitative_in_rule: int | None = None
    num_partitions: object = None
    partition_method: str = "equidepth"
    counting: str = "array"
    memory_budget_bytes: int = 256 * 1024 * 1024
    max_itemset_size: int | None = None
    apply_specialization_check: bool = True
    taxonomies: dict | None = None
    lemma1_confidence_adjustment: bool = False
    target: str | None = None
    execution: ExecutionConfig | None = field(default=None)
    cache: CacheConfig | None = field(default=None)
    async_mining: AsyncConfig | None = field(default=None)
    observability: ObsConfig | None = field(default=None)
    incremental: IncrementalConfig | None = field(default=None)
    remote: RemoteConfig | None = field(default=None)

    def __post_init__(self) -> None:
        if self.execution is None:
            self.execution = ExecutionConfig()
        elif isinstance(self.execution, dict):
            self.execution = ExecutionConfig(**self.execution)
        elif not isinstance(self.execution, ExecutionConfig):
            raise TypeError(
                "execution must be an ExecutionConfig, a dict of its "
                f"fields, or None; got {type(self.execution).__name__}"
            )
        if self.cache is None:
            self.cache = CacheConfig()
        elif isinstance(self.cache, dict):
            self.cache = CacheConfig(**self.cache)
        elif not isinstance(self.cache, CacheConfig):
            raise TypeError(
                "cache must be a CacheConfig, a dict of its fields, or "
                f"None; got {type(self.cache).__name__}"
            )
        if self.async_mining is None:
            self.async_mining = AsyncConfig()
        elif isinstance(self.async_mining, dict):
            self.async_mining = AsyncConfig(**self.async_mining)
        elif not isinstance(self.async_mining, AsyncConfig):
            raise TypeError(
                "async_mining must be an AsyncConfig, a dict of its "
                f"fields, or None; got {type(self.async_mining).__name__}"
            )
        if self.observability is None:
            self.observability = ObsConfig()
        elif isinstance(self.observability, dict):
            self.observability = ObsConfig(**self.observability)
        elif not isinstance(self.observability, ObsConfig):
            raise TypeError(
                "observability must be an ObsConfig, a dict of its "
                f"fields, or None; got {type(self.observability).__name__}"
            )
        if self.incremental is None:
            self.incremental = IncrementalConfig()
        elif isinstance(self.incremental, dict):
            self.incremental = IncrementalConfig(**self.incremental)
        elif not isinstance(self.incremental, IncrementalConfig):
            raise TypeError(
                "incremental must be an IncrementalConfig, a dict of its "
                f"fields, or None; got {type(self.incremental).__name__}"
            )
        if self.remote is None:
            self.remote = RemoteConfig()
        elif isinstance(self.remote, dict):
            self.remote = RemoteConfig(**self.remote)
        elif not isinstance(self.remote, RemoteConfig):
            raise TypeError(
                "remote must be a RemoteConfig, a dict of its fields, "
                f"or None; got {type(self.remote).__name__}"
            )
        if self.execution.executor == "remote" and not self.remote.workers:
            raise ValueError(
                "the remote executor needs remote.workers "
                "(host:port addresses of 'quantrules serve --worker' "
                "servers)"
            )
        if (
            self.incremental.enabled
            and self.cache.backend == "memory"
            and self.cache.max_entries is None
        ):
            # Shard-granular count artifacts need one entry per shard
            # per counting stage; the plain 64-entry default would evict
            # them between an append and the re-mine that should reuse
            # them.  An explicit max_entries always wins.
            self.cache.max_entries = 4096
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError(
                f"min_support must be in (0, 1], got {self.min_support}"
            )
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if not 0.0 < self.max_support <= 1.0:
            raise ValueError(
                f"max_support must be in (0, 1], got {self.max_support}"
            )
        if self.partial_completeness <= 1.0:
            raise ValueError(
                "partial_completeness must exceed 1 "
                f"(K=1 means no information loss), got {self.partial_completeness}"
            )
        if self.interest_level is not None and self.interest_level < 0:
            raise ValueError(
                f"interest_level must be >= 0, got {self.interest_level}"
            )
        if self.interest_mode not in (
            SUPPORT_OR_CONFIDENCE,
            SUPPORT_AND_CONFIDENCE,
        ):
            raise ValueError(f"unknown interest_mode {self.interest_mode!r}")
        if self.partition_method not in ("equidepth", "equiwidth", "equicardinality", "cluster"):
            raise ValueError(
                f"unknown partition_method {self.partition_method!r}"
            )
        if self.counting not in COUNTING_BACKENDS:
            raise ValueError(
                f"counting must be one of {COUNTING_BACKENDS}, "
                f"got {self.counting!r}"
            )
        if self.max_itemset_size is not None and self.max_itemset_size < 1:
            raise ValueError("max_itemset_size must be >= 1")
        if (
            self.max_quantitative_in_rule is not None
            and self.max_quantitative_in_rule < 1
        ):
            raise ValueError("max_quantitative_in_rule must be >= 1")
        if self.target is not None and (
            not isinstance(self.target, str) or not self.target
        ):
            raise ValueError(
                "target must be a non-empty attribute name or None, "
                f"got {self.target!r}"
            )

    def to_dict(self) -> dict:
        """This configuration as a JSON-ready dictionary.

        The wire format of the serving layer: nested engine blocks
        serialize as plain dicts of their fields and taxonomies as
        their defining ``{child: parent}`` edge sets, so
        ``MinerConfig.from_dict(json.loads(json.dumps(c.to_dict())))``
        reconstructs an equal configuration.  ``num_partitions`` passes
        through as given; JSON transport normalizes any tuples in it to
        lists (the partitioner accepts either).
        """
        import dataclasses

        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in ("execution", "cache", "async_mining",
                          "observability", "incremental", "remote"):
                value = dataclasses.asdict(value)
            elif f.name == "taxonomies":
                value = (
                    None
                    if value is None
                    else {name: tax.edges for name, tax in value.items()}
                )
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MinerConfig":
        """Inverse of :meth:`to_dict`.

        Unknown keys are rejected (a mistyped field in a job submission
        must fail loudly, not silently mine with defaults); nested
        blocks may be dicts (normalized by ``__post_init__``) and
        taxonomies are rebuilt from their edge sets.
        """
        import dataclasses

        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown MinerConfig field(s): {sorted(unknown)}"
            )
        kwargs = dict(data)
        taxonomies = kwargs.get("taxonomies")
        if taxonomies is not None:
            from .taxonomy import Taxonomy

            kwargs["taxonomies"] = {
                name: (
                    edges
                    if isinstance(edges, Taxonomy)
                    else Taxonomy(edges)
                )
                for name, edges in taxonomies.items()
            }
        return cls(**kwargs)

    @property
    def effective_interest_level(self) -> float:
        """R with "disabled" normalized to 0.0."""
        return self.interest_level or 0.0

    @property
    def effective_min_confidence(self) -> float:
        """The minconf rule generation actually uses.

        Equal to ``min_confidence`` unless Lemma 1's adjustment is on, in
        which case it is divided by the partial-completeness level so
        raw-granularity rules are guaranteed a close partitioned
        counterpart.
        """
        if not self.lemma1_confidence_adjustment:
            return self.min_confidence
        return self.min_confidence / self.partial_completeness

    @property
    def item_prune_interest_level(self) -> float | None:
        """The interest level *as it affects frequent-item generation*.

        The Lemma 5 prune deletes over-supported rangeable items during
        the first pass, but only in support-and-confidence mode with
        R > 1 — in every other configuration the interest level has no
        effect on items or itemsets.  Cache fingerprints of the counting
        stages use this derived value instead of ``interest_level``
        itself, so a confidence/interest-only sweep in the default OR
        mode re-uses cached ``support_counts``.
        """
        if (
            self.interest_enabled
            and self.interest_mode == SUPPORT_AND_CONFIDENCE
            and self.effective_interest_level > 1.0
        ):
            return self.effective_interest_level
        return None

    @property
    def interest_enabled(self) -> bool:
        """Interest filtering is active for R > 0.

        R = 0 is "no interest measure" (Figure 8's leftmost point): every
        rule trivially exceeds 0 times its expectation.
        """
        return self.effective_interest_level > 0.0
