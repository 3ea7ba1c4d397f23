"""Distributed shard counting: a coordinator-side remote executor.

The record-linear counting stages decompose into per-shard partial
counts that merge by exact integer addition (see
:mod:`~repro.engine.shards`), so the shard/merge contract that makes
:class:`~repro.engine.executor.ParallelExecutor` bit-identical to
serial within one host extends unchanged across hosts:
:class:`RemoteExecutor` ships each :class:`~repro.engine.shards
.TableShard` to a worker server over HTTP, the worker counts its slice
locally, and the coordinator merges the returned partials exactly as it
would merge local ones.  Any shard layout, any worker assignment and
any retry history therefore produce the same output as a
:class:`~repro.engine.executor.SerialExecutor` run.

Wire protocol (the worker side lives in
:mod:`repro.serve.worker`, served by ``quantrules serve --worker``):

- ``PUT  /v1/shards/tables/{view_fp}`` — publish the coded column
  matrix once per *view fingerprint* (table content fingerprint +
  encoding fingerprint).  Workers keep published views in a bounded
  store, so repeated sweeps over the same table publish nothing.
- ``GET  /v1/shards/tables`` — the view fingerprints a worker holds
  (consulted before publishing, so a coordinator restart reuses views
  a long-lived worker already has).
- ``POST /v1/shards/count`` — count one shard: a record range, a
  worker-function token, a pickled candidate payload and an optional
  shard-artifact key the worker's own
  :class:`~repro.engine.cache.ArtifactCache` is consulted with (the
  key equals the coordinator's
  :class:`~repro.engine.shard_cache.ShardCountCache` key, so worker
  disk artifacts survive across sweeps and coordinator restarts).

Failure semantics: a connection error or error response marks the
worker dead for the rest of the run and the task is retried on the
surviving workers with exponential backoff; an ``unknown shard view``
404 (worker restarted) triggers one republish instead.  A request that
times out first probes the worker's ``GET /healthz`` with a short
timeout: a worker that answers is slow, not dead — it stays in the
fleet and only the task is retried, never again on that worker — while
one that does not answer is marked dead.  When the task has no live
worker left to try (every worker dead, or the task timed out on each
live one), ``fallback_local=True`` (the default) counts it in-process —
the merge contract keeps the result bit-identical either way — while
``fallback_local=False`` raises :class:`RemoteDispatchError`.

Trust model: pickled payloads cross the wire, so worker mode is meant
for a private network you control.  Workers only accept
``repro.*``-module function tokens and unpickle through
:func:`restricted_loads`, but that is hardening, not isolation — do not
expose worker routes to untrusted clients.
"""

from __future__ import annotations

import base64
import http.client
import io
import json
import pickle
import threading
import time

from ..obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRICS,
    NULL_TRACER,
    Span,
    format_traceparent,
)
from .executor import Executor
from .fingerprint import Unfingerprintable, fingerprint
from .shards import shard_view

#: Per-request wall-clock budget (connect + count + response), seconds.
DEFAULT_TASK_TIMEOUT = 30.0

#: How many times one shard task is retried after its first failure.
DEFAULT_MAX_RETRIES = 3

#: Base of the exponential backoff between retries, seconds.
DEFAULT_BACKOFF_SECONDS = 0.1

#: Upper bound on the ``GET /healthz`` probe that tells a slow worker
#: from a dead one after a task timeout, seconds.
HEALTH_PROBE_TIMEOUT = 2.0

#: Module prefixes :func:`restricted_loads` will resolve classes from.
_ALLOWED_PICKLE_MODULES = ("repro", "numpy", "builtins", "collections")


class RemoteDispatchError(RuntimeError):
    """A shard task could not be completed on any worker."""


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves repro/numpy/builtin globals."""

    def find_class(self, module: str, name: str):
        """Resolve ``module.name`` if the module prefix is allowed."""
        root = module.split(".", 1)[0]
        if root in _ALLOWED_PICKLE_MODULES:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"global {module}.{name} is not allowed on the shard wire"
        )


def restricted_loads(data: bytes):
    """Unpickle wire data, resolving only repro/numpy/builtin globals.

    Both ends of the shard protocol deserialize through this instead of
    plain :func:`pickle.loads`: payloads and results only ever contain
    repro value types and numpy arrays, so anything else in a pickle
    stream is a protocol violation (or an attack) and fails loudly.
    """
    return _RestrictedUnpickler(io.BytesIO(data)).load()


def worker_fn_token(fn) -> str | None:
    """The wire token naming a shard worker function, or ``None``.

    Tokens are ``"module:qualname"`` and only module-level functions of
    ``repro.*`` modules qualify — the worker resolves the token by
    import, so anything else must take the local path.
    """
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", "") or ""
    if not module.startswith("repro.") or "." in qualname or not qualname:
        return None
    return f"{module}:{qualname}"


def shard_artifact_key(stage, shard_fp, encoding_fp, payload_fp) -> str:
    """The per-shard count artifact key, shared with ShardCountCache.

    One formula on purpose: the coordinator's
    :class:`~repro.engine.shard_cache.ShardCountCache` and every
    worker's local :class:`~repro.engine.cache.ArtifactCache` address
    the same artifact space, so a partial count cached anywhere is
    valid everywhere the same bytes/encoding/candidates recur.
    """
    return fingerprint(
        "shard-counts", stage, shard_fp, encoding_fp, payload_fp
    )


def parse_worker_address(text: str) -> tuple:
    """Parse one ``host:port`` worker address into ``(host, port)``."""
    host, sep, port_text = str(text).strip().rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address must be host:port, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(
            f"worker address must be host:port, got {text!r}"
        ) from exc
    if not 1 <= port <= 65535:
        raise ValueError(f"worker port out of range in {text!r}")
    return host, port


class _WorkerClient:
    """HTTP client state for one worker server.

    Tracks liveness and which view fingerprints the worker is known to
    hold.  Requests use one fresh ``http.client`` connection each (the
    simplest thread-safe shape; shard counting is compute-bound, so
    connection reuse would not move the needle).
    """

    def __init__(self, address: str, timeout: float) -> None:
        self.address = str(address)
        self.host, self.port = parse_worker_address(address)
        self.timeout = timeout
        self.alive = True
        self.published: set = set()
        self.listed = False
        self.lock = threading.Lock()

    def request(
        self, method: str, path: str, body, content_type: str,
        headers=None, timeout=None,
    ):
        """One HTTP round-trip; returns ``(status, parsed-JSON body)``.

        ``timeout`` overrides the client's task timeout for this call.
        """
        connection = http.client.HTTPConnection(
            self.host,
            self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        request_headers = {"Content-Type": content_type}
        if headers:
            request_headers.update(headers)
        try:
            connection.request(
                method,
                path,
                body=body,
                headers=request_headers,
            )
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {}
        return response.status, payload

    def answers_health_probe(self) -> bool:
        """Whether ``GET /healthz`` answers 200 within a short timeout."""
        try:
            status, _ = self.request(
                "GET", "/healthz", None, "application/json",
                timeout=min(self.timeout, HEALTH_PROBE_TIMEOUT),
            )
        except (OSError, http.client.HTTPException):
            return False
        return status == 200


class RemoteExecutor(Executor):
    """Fan shard counting out to worker servers over HTTP.

    Parameters
    ----------
    workers:
        ``host:port`` addresses of servers started with
        ``quantrules serve --worker``.
    task_timeout:
        Per-request wall-clock budget in seconds.  A task that blows it
        is retried on another worker (never the same one); its worker is
        marked dead only if it then fails a short ``GET /healthz`` probe
        too.
    max_retries:
        Retries per shard task after its first failure, across the
        surviving workers.
    backoff_seconds:
        Base of the exponential backoff slept between retries.
    fallback_local:
        Count a shard in-process once no live worker is left to try
        it — every worker dead, or the shard timed out on each live
        one (``True``, the default — the run completes with identical
        output) or raise :class:`RemoteDispatchError` (``False`` — fail
        fast so an operator notices the fleet is gone).

    Only the record-sharded counting surface
    (:meth:`map_shards`, discovered by
    :func:`~repro.engine.sharded.sharded_map`) is distributed; the
    generic :meth:`map` used by the rule stages runs in-process on the
    coordinator — rule work is candidate-bound, not record-bound, so
    shipping the table for it would cost more than it saves.
    """

    name = "remote"

    def __init__(
        self,
        workers,
        *,
        task_timeout: float = DEFAULT_TASK_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        fallback_local: bool = True,
    ) -> None:
        addresses = [str(w) for w in workers]
        if not addresses:
            raise ValueError("RemoteExecutor needs at least one worker")
        if task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {task_timeout}"
            )
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {backoff_seconds}"
            )
        self._workers = [
            _WorkerClient(address, task_timeout) for address in addresses
        ]
        self.num_workers = len(self._workers)
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.fallback_local = fallback_local
        self._pool = None
        self._view_blobs: dict = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Generic executor surface (runs on the coordinator)
    # ------------------------------------------------------------------
    def map(self, fn, tasks) -> list:
        """Apply ``fn`` to every task in-process, preserving order."""
        return [fn(task) for task in tasks]

    def close(self) -> None:
        """Shut the dispatch thread pool down; idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Introspection (stats, tests, benchmarks)
    # ------------------------------------------------------------------
    @property
    def worker_addresses(self) -> list:
        """The configured worker addresses, in dispatch order."""
        return [worker.address for worker in self._workers]

    @property
    def live_workers(self) -> list:
        """Addresses of workers not yet marked dead."""
        return [w.address for w in self._workers if w.alive]

    # ------------------------------------------------------------------
    # Remote shard dispatch (discovered by sharded_map)
    # ------------------------------------------------------------------
    def map_shards(
        self, view, shards, fn, payload, *, stage=None, metrics=None,
        tracer=None, parent=None,
    ):
        """Count every shard on the worker fleet; shard order kept.

        Returns ``(results, handoff, lanes, info)``: ``results`` is the
        ``(result, worker seconds)`` list :func:`~repro.engine.sharded
        .sharded_map` expects, ``handoff`` the mode to report
        (``"remote"``, or ``"copied"`` when the whole dispatch had to
        run locally), ``lanes`` one per-task span lane naming the
        worker that produced each result, and ``info`` the dispatch's
        ``remote.*`` tallies for the stats layer.

        With an enabled ``tracer``, every task runs under a
        ``remote_dispatch`` span (child of ``parent``, normally the
        stage span) whose trace context travels to the worker as a
        W3C ``traceparent`` header; the worker's own ``shard_count``
        span comes back in the count response and is adopted into
        this tracer, so the exported trace is one fleet-wide tree.
        """
        shards = tuple(shards)
        registry = metrics if metrics is not None else NULL_METRICS
        tracer = tracer if tracer is not None else NULL_TRACER
        plan = self._plan_dispatch(view, shards, fn, payload, stage)
        if plan is None:
            # No publishable view or no wire-safe fn token: run the
            # whole dispatch in-process, exactly like a serial map.
            results = [
                self._run_local(view, shard, fn, payload)
                for shard in shards
            ]
            lanes = ["remote/local"] * len(shards)
            return results, "copied", lanes, None
        view_fp, blob, token, payload_b64, keys = plan
        with self._lock:
            self._view_blobs[view_fp] = blob
        info = {
            "tasks": len(shards),
            "retries": 0,
            "worker_deaths": 0,
            "local_fallbacks": 0,
            "cache_hits": 0,
            "worker_tasks": {},
        }
        outcomes = self._dispatch_all(
            view, shards, fn, payload, view_fp, token, payload_b64,
            keys, stage, info, registry, tracer, parent,
        )
        results = [(result, seconds) for result, seconds, _ in outcomes]
        lanes = [lane for _, _, lane in outcomes]
        registry.counter("remote.tasks").increment(len(shards))
        return results, "remote", lanes, info

    # ------------------------------------------------------------------
    # Dispatch internals
    # ------------------------------------------------------------------
    def _plan_dispatch(self, view, shards, fn, payload, stage):
        """Resolve the wire artifacts for a dispatch, or ``None``.

        ``None`` means "not remotable": the function is not a module-
        level ``repro.*`` worker, or the view exposes no fingerprints /
        column matrix to publish from.
        """
        token = worker_fn_token(fn)
        matrix_of = getattr(view, "column_matrix", None)
        table_fp = getattr(view, "fingerprint", None)
        encoding_fp = getattr(view, "encoding_fingerprint", None)
        if token is None or None in (matrix_of, table_fp, encoding_fp):
            return None
        try:
            encoding = encoding_fp()
            view_fp = fingerprint("remote-view", table_fp(), encoding)
            payload_fp = fingerprint(payload)
        except Unfingerprintable:
            return None
        blob = pickle.dumps(
            {
                "matrix": matrix_of(),
                "cardinalities": [
                    view.cardinality(a)
                    for a in range(view.num_attributes)
                ],
                "num_records": view.num_records,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        payload_b64 = base64.b64encode(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        keys = None
        shard_fps = getattr(view, "shard_fingerprints", None)
        if stage is not None and shard_fps is not None:
            keys = [
                shard_artifact_key(stage, shard_fp, encoding, payload_fp)
                for shard_fp in shard_fps(shards)
            ]
        return view_fp, blob, token, payload_b64, keys

    def _dispatch_all(
        self, view, shards, fn, payload, view_fp, token, payload_b64,
        keys, stage, info, registry, tracer, parent,
    ) -> list:
        """Run every shard task over the dispatch pool, in task order."""
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=max(2, 2 * self.num_workers),
                thread_name_prefix="repro-remote",
            )

        def one(index_shard):
            index, shard = index_shard
            return self._dispatch_task(
                view, shard, fn, payload, view_fp, token, payload_b64,
                None if keys is None else keys[index], stage, index,
                info, registry, tracer, parent,
            )

        return list(self._pool.map(one, enumerate(shards)))

    def _dispatch_task(
        self, view, shard, fn, payload, view_fp, token, payload_b64,
        key, stage, index, stage_info, registry, tracer, parent,
    ):
        """Count one shard, retrying across surviving workers.

        Returns ``(result, seconds, lane)``.  Worker choice starts
        round-robin on the task index and walks the live set; every
        failure bumps the retry counters, records a ``remote_retry``
        event on the task's dispatch span and backs off exponentially
        until ``max_retries`` is spent or no live worker is left to
        try, after which the local fallback (or
        :class:`RemoteDispatchError`) decides the task.  A failure
        marks the worker dead unless it was a timeout and the worker
        still answers its health probe: that worker is only slow, so
        it stays live, the task counts as a ``remote.slow_tasks``
        counter tick and a ``remote_slow`` event span, and this task is
        not sent to it again.  A task therefore times out at most once
        per worker.
        """
        request = {
            "view": view_fp,
            "start": shard.start,
            "stop": shard.stop,
            "fn": token,
            "payload": payload_b64,
        }
        if stage is not None:
            request["stage"] = stage
        if key is not None:
            request["artifact_key"] = key
        body = json.dumps(request).encode("utf-8")
        with tracer.start_span(
            f"{stage or 'count'}[shard {index}]",
            kind="remote_dispatch",
            parent=parent,
            shard_start=shard.start,
            shard_stop=shard.stop,
        ) as span:
            headers = None
            if tracer.enabled:
                headers = {
                    "traceparent": format_traceparent(
                        tracer.trace_id, span.span_id
                    )
                }
            failures = 0
            timed_out_on = set()
            worker = self._pick_worker(index, timed_out_on)
            while worker is not None:
                timed_out = False
                try:
                    self._ensure_published(worker, view_fp, registry)
                    outcome = self._count_on(
                        worker, view_fp, body, registry, headers
                    )
                except TimeoutError:
                    outcome, timed_out = None, True
                except (OSError, RemoteDispatchError):
                    outcome = None
                if outcome is not None:
                    result, seconds, cached, response = outcome
                    with self._lock:
                        tally = stage_info["worker_tasks"]
                        tally[worker.address] = (
                            tally.get(worker.address, 0) + 1
                        )
                        if cached:
                            stage_info["cache_hits"] += 1
                    if cached:
                        registry.counter("remote.cache_hits").increment()
                    registry.histogram(
                        "remote.count_seconds",
                        labels={"worker": worker.address},
                        buckets=DEFAULT_LATENCY_BUCKETS,
                    ).observe(seconds)
                    self._ingest_worker_telemetry(
                        tracer, registry, worker.address, span, response
                    )
                    span.set(
                        worker=worker.address,
                        cache="hit" if cached else "miss",
                    )
                    return result, seconds, f"remote/{worker.address}"
                if timed_out and worker.answers_health_probe():
                    timed_out_on.add(worker.address)
                    registry.counter(
                        "remote.slow_tasks", labels={"worker": worker.address}
                    ).increment()
                    tracer.record(
                        "remote_slow",
                        kind="event",
                        parent=span,
                        worker=worker.address,
                        attempt=failures + 1,
                    )
                else:
                    self._mark_dead(worker, stage_info, registry)
                failures += 1
                failed, worker = worker, None
                if failures <= self.max_retries:
                    worker = self._pick_worker(index + failures, timed_out_on)
                if worker is None:
                    break
                with self._lock:
                    stage_info["retries"] += 1
                registry.counter("remote.retries").increment()
                registry.counter(
                    "remote.retries", labels={"worker": failed.address}
                ).increment()
                tracer.record(
                    "remote_retry",
                    kind="event",
                    parent=span,
                    worker=failed.address,
                    attempt=failures,
                )
                if self.backoff_seconds:
                    time.sleep(self.backoff_seconds * (2 ** (failures - 1)))
            if not self.fallback_local:
                raise RemoteDispatchError(
                    f"shard [{shard.start}, {shard.stop}) failed on every "
                    f"worker ({', '.join(w.address for w in self._workers)})"
                )
            with self._lock:
                stage_info["local_fallbacks"] += 1
            registry.counter("remote.local_fallbacks").increment()
            result, seconds = self._run_local(view, shard, fn, payload)
            span.set(worker="local")
            return result, seconds, "remote/local"

    def _ingest_worker_telemetry(
        self, tracer, registry, address, dispatch_span, response
    ) -> None:
        """Adopt worker-returned span records and metric deltas.

        Worker spans arrive with the propagated trace id, their own
        random span ids and a wall-clock ``start_unix``; the start is
        rebased onto this tracer's epoch so exporters place coordinator
        and worker spans on one timeline.  Counter deltas are folded
        into this registry labeled by worker address.
        """
        if tracer.enabled:
            for record in response.get("spans") or ():
                try:
                    span = Span(
                        name=str(record["name"]),
                        kind=str(record.get("kind", "worker_shard")),
                        span_id=int(record["span_id"]),
                        parent_id=(
                            None if record.get("parent_id") is None
                            else int(record["parent_id"])
                        ),
                        start=(
                            float(record["start_unix"])
                            - tracer.epoch_wall
                        ),
                        duration=float(record["duration"]),
                        attributes=dict(record.get("attributes") or {}),
                        thread=(
                            str(record.get("thread", ""))
                            or f"worker/{address}"
                        ),
                        pid=int(record.get("pid", 0)),
                        trace_id=str(record.get("trace_id", "")),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                if span.parent_id is None:
                    span.parent_id = dispatch_span.span_id
                span.attributes.setdefault("worker", address)
                tracer.adopt(span)
        if registry.enabled:
            deltas = response.get("metrics")
            if not isinstance(deltas, dict):
                return
            for name, delta in deltas.items():
                if (
                    isinstance(name, str)
                    and isinstance(delta, int)
                    and not isinstance(delta, bool)
                    and delta >= 0
                ):
                    registry.counter(
                        name, labels={"worker": address}
                    ).increment(delta)

    def _run_local(self, view, shard, fn, payload):
        """Count one shard in-process (the fallback lane)."""
        started = time.perf_counter()
        result = fn(shard_view(view, shard), payload)
        return result, time.perf_counter() - started

    def _pick_worker(self, preference: int, skip=()):
        """The ``preference``-th live worker not in ``skip``, or ``None``.

        ``skip`` holds addresses; the choice is round-robin over the
        workers that remain.
        """
        with self._lock:
            live = [
                w for w in self._workers
                if w.alive and w.address not in skip
            ]
            if not live:
                return None
            return live[preference % len(live)]

    def _mark_dead(self, worker, stage_info, registry) -> None:
        """Mark one worker dead for the rest of this executor's life."""
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            stage_info["worker_deaths"] += 1
        registry.counter("remote.worker_deaths").increment()
        registry.counter(
            "remote.dead_workers", labels={"worker": worker.address}
        ).increment()

    def _ensure_published(self, worker, view_fp: str, registry) -> None:
        """Make sure ``worker`` holds the view, publishing if needed.

        The first contact with a worker lists the views it already
        holds, so a coordinator (re)start against long-lived workers
        skips publication entirely — the cross-sweep reuse path.
        """
        with worker.lock:
            if not worker.listed:
                status, payload = worker.request(
                    "GET", "/v1/shards/tables", None, "application/json"
                )
                if status == 200:
                    worker.published.update(payload.get("views", ()))
                worker.listed = True
            if view_fp in worker.published:
                return
            with self._lock:
                blob = self._view_blobs[view_fp]
            status, payload = worker.request(
                "PUT",
                f"/v1/shards/tables/{view_fp}",
                blob,
                "application/octet-stream",
            )
            if status != 201:
                raise RemoteDispatchError(
                    f"worker {worker.address} refused view publish "
                    f"({status}): {payload}"
                )
            worker.published.add(view_fp)
            registry.counter("remote.publishes").increment()
            registry.counter("remote.publish_bytes").increment(len(blob))

    def _count_on(
        self, worker, view_fp: str, body: bytes, registry, headers=None
    ):
        """One count request; ``None`` asks the caller to retry.

        A 404 means the worker restarted since the view was published
        (its store is in-memory): forget the publication, republish and
        try once more before giving up on the worker.
        """
        for attempt in range(2):
            status, payload = worker.request(
                "POST", "/v1/shards/count", body, "application/json",
                headers,
            )
            if status == 200:
                try:
                    result = restricted_loads(
                        base64.b64decode(payload["result"])
                    )
                    seconds = float(payload.get("seconds", 0.0))
                except (KeyError, ValueError, pickle.UnpicklingError):
                    return None
                return (
                    result, seconds, payload.get("cache") == "hit",
                    payload,
                )
            if status == 404 and attempt == 0:
                with worker.lock:
                    worker.published.discard(view_fp)
                self._ensure_published(worker, view_fp, registry)
                continue
            return None
        return None
