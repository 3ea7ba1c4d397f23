"""``quantrules serve`` in its own process, and a small HTTP client for it."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time

#: How long one HTTP operation may take before it counts as failed.
REQUEST_TIMEOUT = 60.0


class RequestFailed(Exception):
    """A non-2xx response, a timeout or a broken connection."""


class ServerProcess:
    """One ``python -m repro.cli serve`` child on an OS-assigned port.

    ``cpus`` pins the server (every thread it starts) to those CPUs.

    Use as a context manager: leaving it stops the server with SIGTERM
    (the server drains and exits) and waits for the process to end.
    """

    def __init__(self, root, env, log_path, store_dir=None, cpus=None) -> None:
        self._root = root
        self._env = env
        self._cpus = cpus
        self._log_path = log_path
        self._store_dir = store_dir
        self._proc = None
        self._log = None
        self.host = "127.0.0.1"
        self.port = None

    def __enter__(self) -> "ServerProcess":
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", self.host, "--port", "0",
        ]
        if self._store_dir is not None:
            argv += ["--store-dir", str(self._store_dir)]
        self._log = open(self._log_path, "w")
        self._proc = subprocess.Popen(
            argv,
            cwd=self._root,
            env=self._env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            preexec_fn=(
                None
                if self._cpus is None
                else lambda: os.sched_setaffinity(0, self._cpus)
            ),
        )
        try:
            self.port = self._read_port(deadline=time.monotonic() + 60)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _read_port(self, deadline: float) -> int:
        out = self._proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    return int(line.strip().rsplit(":", 1)[1])
            elif self._proc.poll() is not None:
                break
        raise RuntimeError(
            f"server did not announce a port; see {self._log_path}"
        )

    def __exit__(self, *exc) -> None:
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc is not None:
            proc.stdout.close()
        if self._log is not None:
            self._log.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size so far (VmHWM), in MiB."""
        with open(f"/proc/{self._proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def request(self, method: str, path: str, body=None, raw=None) -> bytes:
        """One request; returns the body or raises :class:`RequestFailed`."""
        if body is not None:
            raw = json.dumps(body).encode()
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            conn.request(method, path, body=raw)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise RequestFailed(f"{method} {path}: {exc}") from exc
        finally:
            conn.close()
        if not 200 <= response.status < 300:
            raise RequestFailed(
                f"{method} {path}: HTTP {response.status} "
                f"{data[:200]!r}"
            )
        return data

    def request_json(self, method: str, path: str, body=None, raw=None):
        return json.loads(self.request(method, path, body=body, raw=raw))

    def job_outcome(self, job_id: str) -> dict:
        """Follow a job's NDJSON event stream to its terminal event."""
        data = self.request(
            "GET", f"/v1/jobs/{job_id}/events?format=ndjson"
        )
        lines = [line for line in data.splitlines() if line.strip()]
        if not lines:
            raise RequestFailed(f"job {job_id}: empty event stream")
        return json.loads(lines[-1])
