"""Fault-injection harness for the simulation cluster.

Spins up a *real* fleet — one ``repro serve --coordinator`` subprocess
plus N ``repro worker`` subprocesses, each with its own store shard —
and hands the chaos tests levers to break it on cue:

* :meth:`Cluster.kill` — SIGKILL a worker (machine death mid-job; the
  coordinator sees the dispatch socket reset and retries elsewhere);
* :meth:`Cluster.pause` / :meth:`Cluster.resume` — SIGSTOP/SIGCONT a
  worker (hang/partition; heartbeats lapse, the coordinator declares
  it dead, and on resume the zombie re-registers);
* :meth:`Cluster.terminate` — SIGTERM (graceful drain, exit 0);
* fault-injection submissions (``fault: crash|fail|hang``) when the
  cluster is started with ``allow_faults=True``.

Shard state is inspected straight from each worker's on-disk store —
including a killed worker's, whose files survive it — so tests can
assert the cluster-wide invariant: exactly one blob per unique run
digest, no duplicate executions.

The cluster is only "done" when the chaos tests in
``tests/test_cluster.py`` pass, not when the happy path does.
"""

from __future__ import annotations

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobState

SRC = Path(__file__).resolve().parent.parent / "src"
_PORT_RE = re.compile(r"http://[\d.]+:(\d+)")

#: a small, fast cell (about 0.1 s simulated) used all over the tests
SMALL_CELL = dict(benchmark="noop", policy="baseline",
                  instructions=2000, warmup=300)
#: a cell slow enough (~2 s) to reliably kill a worker mid-job
BIG_CELL = dict(benchmark="noop", policy="baseline",
                instructions=400_000, warmup=5000)


def _spawn(argv: List[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)


def _read_port(proc: subprocess.Popen, what: str) -> int:
    """Parse the announce line; the subprocess prints it at listen."""
    line = proc.stdout.readline()
    match = _PORT_RE.search(line or "")
    if not match:
        raise AssertionError("no listen line from %s: %r" % (what, line))
    return int(match.group(1))


def processes_naming(text: str) -> List[int]:
    """PIDs of live processes whose command line contains ``text``.

    Reads ``/proc`` (empty on hosts without it). Zombies have an empty
    command line, so an exited but unreaped child does not count.
    """
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(
                    "utf-8", "replace")
        except OSError:
            continue  # exited meanwhile, or not ours to read
        if text in cmdline:
            pids.append(int(entry))
    return pids


@dataclass
class WorkerProc:
    """One worker subprocess and where its store shard lives."""

    name: str
    proc: subprocess.Popen
    port: int
    store_root: Path
    paused: bool = False

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


class Cluster:
    """A coordinator + N worker subprocesses under test control."""

    def __init__(self, tmp_path, workers: int = 2, slots: int = 1,
                 heartbeat_interval: float = 0.2,
                 heartbeat_timeout: float = 1.0,
                 retries: int = 2, backoff: float = 0.05,
                 timeout: Optional[float] = None,
                 queue_limit: Optional[int] = None,
                 allow_faults: bool = False) -> None:
        self.root = Path(tmp_path)
        self.slots = slots
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.queue_limit = queue_limit
        self.allow_faults = allow_faults
        self.n_workers = workers
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + os.pathsep
            + os.environ.get("PYTHONPATH", ""),
            REPRO_CACHE_DIR=str(self.root / "cache"),
            REPRO_NO_MANIFEST="1")
        self.coordinator: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.workers: Dict[str, WorkerProc] = {}
        self._next_worker = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Cluster":
        argv = ["serve", "--coordinator", "--port", "0",
                "--heartbeat-interval", str(self.heartbeat_interval),
                "--heartbeat-timeout", str(self.heartbeat_timeout),
                "--retries", str(self.retries),
                "--backoff", str(self.backoff)]
        if self.timeout is not None:
            argv += ["--timeout", str(self.timeout)]
        if self.queue_limit is not None:
            argv += ["--queue-limit", str(self.queue_limit)]
        if self.allow_faults:
            argv += ["--allow-faults"]
        self.coordinator = _spawn(argv, self.env)
        self.port = _read_port(self.coordinator, "coordinator")
        for _ in range(self.n_workers):
            self.add_worker()
        self.wait_alive(self.n_workers)
        return self

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def add_worker(self, name: Optional[str] = None,
                   slots: Optional[int] = None) -> WorkerProc:
        """Spawn one worker and register it with the coordinator."""
        if name is None:
            name = "w%d" % self._next_worker
            self._next_worker += 1
        store_root = self.root / "shards" / name
        proc = _spawn(["worker",
                       "--coordinator-port", str(self.port),
                       "--name", name, "--port", "0",
                       "--slots", str(slots or self.slots),
                       "--store", str(store_root)], self.env)
        port = _read_port(proc, "worker %s" % name)
        worker = WorkerProc(name=name, proc=proc, port=port,
                            store_root=store_root)
        self.workers[name] = worker
        return worker

    def stop(self) -> None:
        """Best-effort teardown: SIGTERM everything, SIGKILL stragglers."""
        procs = [w.proc for w in self.workers.values()]
        if self.coordinator is not None:
            procs.append(self.coordinator)
        for worker in self.workers.values():
            if worker.paused:
                self.resume(worker.name)
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + 30
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.wait(max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    def drain_fleet(self) -> Dict[str, int]:
        """SIGTERM the whole fleet: coordinator first, then workers.

        The coordinator drains its backlog *through* the workers, so
        they must outlive it; once it exits the workers are idle and
        drain trivially. Returns each process's exit code — a clean
        fleet drain is all zeros.
        """
        codes: Dict[str, int] = {}
        self.coordinator.send_signal(signal.SIGTERM)
        codes["coordinator"] = self.coordinator.wait(timeout=120)
        for worker in self.workers.values():
            if worker.alive:
                worker.proc.send_signal(signal.SIGTERM)
        for name, worker in self.workers.items():
            codes[name] = worker.proc.wait(timeout=60)
        return codes

    # ------------------------------------------------------------------
    # chaos levers
    # ------------------------------------------------------------------
    def kill(self, name: str) -> None:
        """SIGKILL a worker: machine death, nothing gets to clean up.

        Its forked pool children must not outlive it: they carry the
        worker's command line (and so its shard path), and must be gone
        within a few seconds of the kill.
        """
        worker = self.workers[name]
        worker.proc.kill()
        worker.proc.wait(timeout=30)
        shard = str(worker.store_root)
        deadline = time.monotonic() + 5.0
        while processes_naming(shard) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = processes_naming(shard)
        assert not left, ("processes %r outlived SIGKILLed worker %s"
                          % (left, name))

    def terminate(self, name: str) -> int:
        """SIGTERM a worker: graceful drain; returns its exit code."""
        worker = self.workers[name]
        worker.proc.send_signal(signal.SIGTERM)
        return worker.proc.wait(timeout=60)

    def pause(self, name: str) -> None:
        """SIGSTOP a worker: a hang/partition — the process is alive
        but heartbeats (and everything else) freeze."""
        worker = self.workers[name]
        worker.proc.send_signal(signal.SIGSTOP)
        worker.paused = True

    def resume(self, name: str) -> None:
        """SIGCONT a paused worker; it will re-register as a zombie."""
        worker = self.workers[name]
        try:
            worker.proc.send_signal(signal.SIGCONT)
        except OSError:
            pass
        worker.paused = False

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def client(self, timeout: float = 30.0, **kwargs) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=timeout, **kwargs)

    def health(self) -> Dict[str, object]:
        return self.client().health()

    def alive_worker_ids(self) -> List[str]:
        return [str(w["id"]) for w in self.client().workers()
                if w["state"] == "alive"]

    def wait_alive(self, n: int, timeout: float = 20.0) -> None:
        """Block until exactly ``n`` workers are alive on the ring."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if len(self.alive_worker_ids()) == n:
                    return
            except (ServiceError, OSError):
                pass
            time.sleep(0.05)
        raise AssertionError("never saw %d alive workers (have %r)"
                             % (n, self.alive_worker_ids()))

    def wait_state(self, job_id: str, state: str,
                   timeout: float = 30.0) -> Dict[str, object]:
        """Poll one job until it reaches ``state`` (asserts no detour
        into a different terminal state)."""
        client = self.client()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = client.status(job_id)
            if job["state"] == state:
                return job
            if (job["state"] in JobState.TERMINAL
                    and state not in JobState.TERMINAL):
                raise AssertionError("job went %s waiting for %s: %r"
                                     % (job["state"], state, job))
            time.sleep(0.02)
        raise AssertionError("job %s never reached %s" % (job_id, state))

    def wait_all_done(self, job_ids: List[str],
                      timeout: float = 120.0) -> List[Dict[str, object]]:
        client = self.client()
        return [client.wait(job_id, timeout=timeout)
                for job_id in job_ids]

    def shard_rows(self, names: Optional[List[str]] = None
                   ) -> Dict[str, List[Dict[str, str]]]:
        """Read each shard's index rows straight off disk.

        Works for dead workers too (their files outlive them), so a
        test can count blobs across the *whole* cluster store: the
        union of every shard.
        """
        out: Dict[str, List[Dict[str, str]]] = {}
        for name, worker in self.workers.items():
            if names is not None and name not in names:
                continue
            db = worker.store_root / "store.sqlite"
            if not db.exists():
                out[name] = []
                continue
            con = sqlite3.connect(str(db))
            try:
                rows = con.execute(
                    "SELECT key, stats_blob FROM results").fetchall()
            finally:
                con.close()
            out[name] = [{"key": k, "stats_blob": d} for k, d in rows]
        return out

    def cluster_blob_counts(self) -> Dict[str, int]:
        """How many times each run digest is stored, cluster-wide."""
        counts: Dict[str, int] = {}
        for rows in self.shard_rows().values():
            for row in rows:
                counts[row["key"]] = counts.get(row["key"], 0) + 1
        return counts

    def shard_stats(self, name: str, key: str) -> Optional[dict]:
        """Load one stored stats payload from a shard's blob dir."""
        for row in self.shard_rows([name])[name]:
            if row["key"] == key:
                digest = row["stats_blob"]
                blob = (self.workers[name].store_root / "blobs"
                        / digest[:2] / (digest + ".json"))
                with open(blob) as fh:
                    return json.load(fh)
        return None
