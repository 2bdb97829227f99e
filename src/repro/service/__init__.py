"""Simulation service: durable result store + async job server.

The serving layer above the parallel suite runner (DESIGN.md §13):

* :mod:`repro.service.store` — content-addressed, deduplicating
  persistence for simulation results (SQLite index + blob directory),
  keyed by the canonical cell digest shared with the result cache and
  the run manifests;
* :mod:`repro.service.server` — a long-lived asyncio job server
  (``repro serve``) with a priority queue, a bounded process-pool of
  simulation workers, per-job timeouts, bounded retries with backoff,
  queue-full backpressure, and graceful SIGTERM drain;
* :mod:`repro.service.client` — the stdlib-only HTTP client behind
  ``repro submit`` / ``repro jobs``;
* :mod:`repro.service.jobs` — the job model and the picklable worker
  entry point;
* :mod:`repro.service.cluster` — the scale-out layer: a coordinator
  (``repro serve --coordinator``) that dispatches cells to registered
  ``repro worker`` processes with heartbeat liveness, consistent-hash
  sharding of the store by run digest, work stealing, and
  retry-on-another-worker when a worker is lost mid-job.

Layering: ``service`` sits above ``simulator`` (it reuses the runner
internals and the result-cache keys) and below nothing — no simulation
or model code may import it (enforced by ``repro lint``).

The package root re-exports nothing: import the submodule you need.
``repro.service.store`` is imported by every trace load and every
batch entry point that takes ``--store``, so it must not pay for the
HTTP stack (``asyncio``, ``http.client``) that the server, client and
cluster modules load.
"""
