"""Serving subsystem: cross-request dynamic batching over compiled models.

The first subsystem layered *on top of* the compiler rather than inside
it.  Many independent inference requests are coalesced into single
linearized mega-batches executed through a model's precompiled host plan
and workspace arena — bit-identical to running each request alone, but
paying the per-call host overhead once per flush instead of once per
caller.

One flush loop per server, two ways to drive it, and a pool on top:

* **sync** — build a :class:`ModelServer`, ``submit()`` requests, and
  the policy auto-flushes on the caller's thread (``flush()`` /
  ``drain()`` force it).  No threads, deterministic, ideal for tests
  and batch jobs.
* **threaded** — ``with server:`` runs the one worker thread that owns
  every flush while any number of producer threads submit.  The full
  request lifecycle rides along: deadlines, cancellation, bisection
  fault isolation, priority shedding.
* **pooled-async** — a :class:`~repro.serve.pool.WorkerPool` replicates
  the server N times (private arenas, shared compilation) behind
  pluggable load balancing with per-replica circuit breakers, and
  ``await pool.asubmit(...)`` / ``await server.asubmit(...)`` serve
  asyncio callers through the same scheduler as the thread API.

Whatever the mode, outputs are bitwise identical to single-replica,
per-request execution — routing and batching decide *when and where* a
request executes, never what it computes.

Pieces:

* :mod:`~repro.serve.request` — requests, deadlines, cancellation,
  tenants and future-like handles;
* :mod:`~repro.serve.coalescer` — forest merge + root-row scatter;
* :mod:`~repro.serve.scheduler` — flush policies, admission control,
  priority-aware load shedding, per-tenant fair-share interleaving;
* :mod:`~repro.serve.server` — the :class:`ModelServer` front-end with
  bisection fault isolation;
* :mod:`~repro.serve.aio` — the asyncio bridge (awaitable handles);
* :mod:`~repro.serve.pool` — replica worker pools, load balancers,
  replica replacement, aggregated metrics;
* :mod:`~repro.serve.metrics` — throughput / latency / occupancy /
  resilience counters, tenant-labeled families;
* :mod:`~repro.serve.router` — multi-model dispatch (servers *and*
  pools) with circuit breakers and health states, fed by the one failure
  taxonomy, :func:`repro.errors.health_signal`.
"""

from .aio import AsyncRequestHandle
from .coalescer import CoalescedBatch, coalesce, scatter
from .metrics import ServerMetrics
from .pool import (LeastLoaded, LoadBalancer, Replica, RoundRobin,
                   SloAware, WorkerPool)
from .request import Request, RequestHandle, RequestResult
from .router import BreakerState, CircuitBreaker, Router
from .scheduler import (Admission, AnyOf, Deadline, FlushPolicy,
                        MaxPendingRequests, MaxTotalNodes, QueueSnapshot,
                        Scheduler, default_policy)
from .server import ModelServer

__all__ = [
    "CoalescedBatch", "coalesce", "scatter", "ServerMetrics", "Request",
    "RequestHandle", "RequestResult", "BreakerState", "CircuitBreaker",
    "Router", "Admission", "AnyOf", "Deadline", "FlushPolicy",
    "MaxPendingRequests", "MaxTotalNodes", "QueueSnapshot", "Scheduler",
    "default_policy", "ModelServer", "AsyncRequestHandle", "WorkerPool",
    "Replica", "LoadBalancer", "RoundRobin", "LeastLoaded", "SloAware",
]
