"""Replica worker pools: N servers, one model, one front door.

One :class:`~repro.serve.ModelServer` is one worker thread, one arena,
one queue.  :class:`WorkerPool` replicates that
unit N times over a single compiled model — each replica is an
in-process worker owning a *private-arena view* of the model (see
:func:`~repro.serve.router._private_arena_view`: compilation state —
program, generated kernels, host plan, params, and for ``target="c"``
models the immutable ``.so`` — is shared; workspace arenas are not) —
and fronts them with pluggable load balancing, per-replica circuit
breakers, failover submit, replica replacement after crashes, and one
aggregated metrics/tracing view.

Correctness is inherited, not re-proven: a replica is an ordinary
``ModelServer``, so every flush on any replica is bitwise identical to
running its requests alone, and therefore the *pool's* outputs are
bitwise identical to a single-replica synchronous server given the same
requests — routing decides only *where* a request executes, never what
its result is.  The chaos suite drives a seeded request stream through
a 4-replica pool and asserts exactly that.

Load balancers order the replicas a submit may try; the pool walks the
order, skipping replicas whose breaker is OPEN and failing over on
queue-full backpressure, so one slow or broken replica degrades
capacity instead of availability.  :class:`SloAware` additionally
refuses admission outright when every replica's queue sits above its
depth bound — shedding at the door beats queueing past a deadline.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Union)

import numpy as np

from ..errors import CircuitOpenError, QueueFullError, ServingError
from ..linearizer import Node
from ..obs import Clock, MetricsRegistry, Tracer, to_prometheus
from .aio import AsyncRequestHandle
from .request import RequestHandle
from .router import CircuitBreaker, _private_arena_view
from .server import ModelServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import CortexModel

#: ModelServer.metrics_snapshot keys the pool aggregate must preserve
#: (the PR 7 pin); counters sum, rates sum, percentiles pool raw windows
_SUM_KEYS = ("submitted", "rejected", "completed", "failed", "flushes",
             "nodes_processed", "retries", "isolations", "isolation_execs",
             "expired", "cancelled", "shed")


@dataclass
class Replica:
    """One worker behind the pool: a named server plus its breaker."""

    index: int
    name: str
    server: ModelServer
    breaker: Optional[CircuitBreaker]

    @property
    def queue_depth(self) -> int:
        return len(self.server.scheduler)


class LoadBalancer:
    """Orders the replicas one submit may try, best candidate first.

    The pool walks the returned order with failover: breaker-OPEN
    replicas are skipped, queue-full replicas are passed over, and the
    request lands on the first replica that admits it.  Returning an
    empty order refuses admission (the SLO-aware balancer does).
    """

    def order(self, replicas: Sequence[Replica]) -> List[Replica]:
        raise NotImplementedError


class RoundRobin(LoadBalancer):
    """Rotate the starting replica; even spread under uniform traffic."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def order(self, replicas: Sequence[Replica]) -> List[Replica]:
        n = len(replicas)
        start = next(self._counter) % n
        return [replicas[(start + i) % n] for i in range(n)]


class LeastLoaded(LoadBalancer):
    """Shortest queue first (stable: index breaks ties)."""

    def order(self, replicas: Sequence[Replica]) -> List[Replica]:
        return sorted(replicas, key=lambda r: (r.queue_depth, r.index))


class SloAware(LoadBalancer):
    """Least-loaded among replicas under a queue-depth admission bound.

    A replica whose queue has reached ``max_queue_depth`` is not a
    candidate; when every replica is over the bound the order is empty
    and the pool sheds the submit with
    :class:`~repro.errors.QueueFullError` — bounding queueing delay (the
    SLO) instead of admitting work that will expire in line.
    """

    def __init__(self, max_queue_depth: int):
        if max_queue_depth < 1:
            raise ServingError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth

    def order(self, replicas: Sequence[Replica]) -> List[Replica]:
        ok = [r for r in replicas
              if r.queue_depth < self.max_queue_depth]
        return sorted(ok, key=lambda r: (r.queue_depth, r.index))


def _make_balancer(spec: Union[str, LoadBalancer]) -> LoadBalancer:
    if isinstance(spec, LoadBalancer):
        return spec
    if spec == "round_robin":
        return RoundRobin()
    if spec == "least_loaded":
        return LeastLoaded()
    raise ServingError(
        f"unknown balancer {spec!r}; use 'round_robin', 'least_loaded' "
        f"or a LoadBalancer instance (SloAware needs its depth bound)")


class WorkerPool:
    """N replica servers over one compiled model, behind one submit.

    Args:
        model: the compiled model; each replica serves a private-arena
            view of it (shared compilation state, private workspace).
        replicas: how many workers to build.
        balancer: ``"round_robin"`` (default), ``"least_loaded"``, or a
            :class:`LoadBalancer` instance (e.g. :class:`SloAware`).
        name: pool name; replica ``i`` is named ``"<name>/r<i>"`` in
            spans, breaker labels and the aggregated snapshot.
        breaker: per-replica circuit breaking — ``True`` (default)
            installs :class:`~repro.serve.router.CircuitBreaker` with
            default thresholds, a zero-arg callable builds one per
            replica, ``False`` disables.
        tracer: optional shared :class:`~repro.obs.Tracer`; every
            replica traces into it (request spans carry a ``replica``
            attribute), so one trace export covers the whole pool.
        clock: optional shared :class:`~repro.obs.Clock` for all
            replicas and breakers.
        faults: a :class:`~repro.serve.FaultInjector` shared by every
            replica, or a one-arg callable ``faults(i)`` building one
            per replica (independent chaos schedules).
        server_kw: every other :class:`~repro.serve.ModelServer` keyword
            (``policy``, ``fair_share``, ``retry``, ``memo`` ...) —
            applied to each replica alike.
    """

    def __init__(self, model: "CortexModel", replicas: int = 2, *,
                 balancer: Union[str, LoadBalancer] = "round_robin",
                 name: str = "pool",
                 breaker: Union[bool, Callable[[], CircuitBreaker]] = True,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[Clock] = None,
                 faults=None,
                 **server_kw):
        if replicas < 1:
            raise ServingError("a pool needs at least 1 replica")
        self._model = model
        self.name = name
        self.tracer = tracer
        self._clock = clock
        self._breaker_spec = breaker
        self._faults_spec = faults
        self._server_kw = dict(server_kw)
        self._balancer = _make_balancer(balancer)
        #: pool-level registry: replica-labeled gauges + breaker families
        #: (per-replica *counters* stay in each replica's own registry —
        #: instrument names are per-process within a registry)
        self.registry = MetricsRegistry()
        self._g_depth = self.registry.gauge(
            "pool_replica_queue_depth",
            "requests waiting on each replica", ["replica"])
        self._g_nodes = self.registry.gauge(
            "pool_replica_queue_nodes",
            "structure nodes waiting on each replica", ["replica"])
        self._g_submitted = self.registry.gauge(
            "pool_replica_submitted",
            "requests accepted by each replica", ["replica"])
        self._g_completed = self.registry.gauge(
            "pool_replica_completed",
            "requests completed by each replica", ["replica"])
        self._g_tenant_submitted = self.registry.gauge(
            "pool_tenant_submitted",
            "requests accepted pool-wide, by tenant", ["tenant"])
        self._g_tenant_completed = self.registry.gauge(
            "pool_tenant_completed",
            "requests completed pool-wide, by tenant", ["tenant"])
        self._tenants_seen: Dict[str, bool] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        self._id_blocks = 0
        self._replicas: List[Replica] = [
            self._build_replica(i) for i in range(replicas)]
        #: replicas retired by replace_replica (kept for accounting)
        self.replaced: List[str] = []

    # -- replica construction ----------------------------------------------
    def _build_replica(self, index: int) -> Replica:
        rname = f"{self.name}/r{index}"
        faults = self._faults_spec
        if callable(faults) and not hasattr(faults, "snapshot"):
            faults = faults(index)
        # each build (including replacements) gets a fresh disjoint id
        # block, so request ids are unique across the pool's lifetime
        self._id_blocks += 1
        server = ModelServer(
            _private_arena_view(self._model),
            name=rname, tracer=self.tracer, clock=self._clock,
            faults=faults, request_id_base=self._id_blocks * 10 ** 9,
            **self._server_kw)
        breaker_spec = self._breaker_spec
        if breaker_spec is True:
            clock = self._clock
            breaker = (CircuitBreaker(clock=clock) if clock is not None
                       else CircuitBreaker())
        elif callable(breaker_spec):
            breaker = breaker_spec()
        elif breaker_spec in (False, None):
            breaker = None
        else:
            raise ServingError(
                "breaker must be True, False, or a zero-arg factory")
        if breaker is not None:
            breaker.bind_metrics(self.registry, model=rname)
            if self.tracer is not None:
                breaker.bind_tracer(self.tracer, replica=rname)
            server.add_observer(
                lambda req, exc, _b=breaker: _b.record(exc is None))
        # callback children *replace* on re-registration, so a
        # replacement replica rebinds its label set cleanly
        self._g_depth.callback(
            lambda s=server: float(len(s.scheduler)), replica=rname)
        self._g_nodes.callback(
            lambda s=server: float(s.scheduler.pending_nodes),
            replica=rname)
        self._g_submitted.callback(
            lambda s=server: float(s.metrics.snapshot()["submitted"]),
            replica=rname)
        self._g_completed.callback(
            lambda s=server: float(s.metrics.snapshot()["completed"]),
            replica=rname)
        return Replica(index=index, name=rname, server=server,
                       breaker=breaker)

    def _note_tenant(self, tenant: str) -> None:
        if tenant in self._tenants_seen:
            return
        self._tenants_seen[tenant] = True

        def _sum(key: str, t: str = tenant) -> float:
            total = 0
            for rep in self._replicas:
                total += rep.server.metrics.tenants().get(t, {}).get(key, 0)
            return float(total)

        self._g_tenant_submitted.callback(
            lambda: _sum("submitted"), tenant=tenant)
        self._g_tenant_completed.callback(
            lambda: _sum("completed"), tenant=tenant)

    # -- introspection -----------------------------------------------------
    @property
    def replicas(self) -> Sequence[Replica]:
        return tuple(self._replicas)

    def __len__(self) -> int:
        return len(self._replicas)

    @property
    def running(self) -> bool:
        return any(r.server.running for r in self._replicas)

    @property
    def closed(self) -> bool:
        return self._closed

    def health(self) -> Dict[str, str]:
        """Per-replica breaker state (breaker-less replicas are closed)."""
        return {r.name: (r.breaker.state.value if r.breaker is not None
                         else "closed")
                for r in self._replicas}

    # -- dispatch ----------------------------------------------------------
    def submit(self, roots: Union[Node, Sequence[Node]], *,
               timeout_s: Optional[float] = None,
               priority: int = 0,
               tenant: str = "default") -> RequestHandle:
        """Route one request to a replica; failover across the order.

        Walks the balancer's candidate order: breaker-OPEN replicas are
        skipped, :class:`~repro.errors.QueueFullError` backpressure
        fails over to the next candidate, and only when *every* replica
        refuses does the submit fail — with the most informative of the
        collected refusals (breaker sheds outrank queue-full, since they
        carry health state and a retry-after hint).
        """
        if self._closed:
            raise ServingError(
                f"pool {self.name!r} is stopped; new submits are "
                f"rejected (drain ordering: reject, drain replicas, "
                f"close spans)")
        order = self._balancer.order(self._replicas)
        if not order:
            raise QueueFullError(
                f"pool {self.name!r}: SLO admission refused the request "
                f"(every replica's queue is over the depth bound)")
        breaker_exc: Optional[CircuitOpenError] = None
        full_exc: Optional[QueueFullError] = None
        for rep in order:
            if rep.breaker is not None and not rep.breaker.allow():
                if breaker_exc is None:
                    breaker_exc = CircuitOpenError(
                        f"replica {rep.name!r} circuit is "
                        f"{rep.breaker.state.value}",
                        retry_after_s=rep.breaker.retry_after_s())
                continue
            try:
                handle = rep.server.submit(
                    roots, timeout_s=timeout_s, priority=priority,
                    tenant=tenant)
            except QueueFullError as exc:
                full_exc = exc
                continue
            self._note_tenant(tenant)
            return handle
        if breaker_exc is not None and full_exc is None:
            raise breaker_exc
        raise (full_exc if full_exc is not None else QueueFullError(
            f"pool {self.name!r}: every replica refused the request"))

    async def asubmit(self, roots: Union[Node, Sequence[Node]], *,
                      timeout_s: Optional[float] = None,
                      priority: int = 0,
                      tenant: str = "default") -> AsyncRequestHandle:
        """Async :meth:`submit`; see :meth:`ModelServer.asubmit`."""
        if not self.running:
            raise ServingError(
                "asubmit needs a started pool (start() or 'with pool:')")
        loop = asyncio.get_running_loop()
        handle = self.submit(roots, timeout_s=timeout_s,
                             priority=priority, tenant=tenant)
        return AsyncRequestHandle(handle, loop)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Start every replica's worker thread(s)."""
        with self._lock:
            if self._closed:
                raise ServingError("pool is stopped; build a new one")
            for rep in self._replicas:
                if not rep.server.running:
                    rep.server.start()
            self._started = True
            return self

    def stop(self) -> None:
        """Reject new submits, drain every replica, close every span.

        Drain ordering (the satellite contract): (1) the pool flips
        closed, so :meth:`submit` rejects immediately; (2) each
        replica's server stops — its former/executor threads finish
        every in-flight flush and the straggler drain serves anything
        still queued; (3) each replica is *closed* so stale references
        cannot re-enqueue.  After stop() returns, every taken request
        has resolved exactly once and a shared tracer holds no open
        request span.  Idempotent: repeated (or concurrent) stops are
        no-ops after the first.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for rep in self._replicas:
            rep.server.close()

    def drain(self) -> int:
        """Flush every replica until all queues are empty."""
        return sum(r.server.drain() for r in self._replicas)

    def flush(self) -> int:
        return sum(r.server.flush() for r in self._replicas)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def dangling_root_spans(self) -> List[object]:
        """Open ``request`` spans on the shared tracer (should be none
        after :meth:`stop`)."""
        if self.tracer is None:
            return []
        return [s for s in self.tracer.open_spans()
                if s.name == "request"]

    # -- replica replacement -----------------------------------------------
    def replace_replica(self, index: int) -> Replica:
        """Retire replica ``index`` and install a fresh one in its slot.

        The crash-recovery path: the old replica is stopped and drained
        first — every handle it holds resolves (results where flushes
        still succeed, typed errors where they don't) — then closed, so
        zero handles are left unresolved by the swap.  The replacement
        is a fresh private-arena server (and a fresh breaker) under the
        *same* replica name; labeled gauges re-bind in place.  Started
        automatically when the pool is running.
        """
        with self._lock:
            if not 0 <= index < len(self._replicas):
                raise ServingError(
                    f"no replica {index} (pool has "
                    f"{len(self._replicas)})")
            old = self._replicas[index]
            old.server.close()  # stop + drain + refuse stale submits
            self.replaced.append(old.name)
            fresh = self._build_replica(index)
            self._replicas[index] = fresh
            if self._started and not self._closed:
                fresh.server.start()
            return fresh

    # -- observability -----------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Pool-wide aggregate plus per-replica detail.

        The top-level keys preserve the single-server snapshot contract
        (the PR 7 pinned set): counters and rates are sums across
        replicas, ``uptime_s`` is the oldest replica's, and latency /
        occupancy percentiles are *exact* percentiles over the union of
        the replicas' raw sliding windows — never averages of per-replica
        percentiles.  Per-replica snapshots nest under ``"replicas"``,
        per-tenant counts under ``"tenants"``, breaker health under
        ``"health"``.
        """
        reps = list(self._replicas)
        snaps = {r.name: r.server.metrics_snapshot() for r in reps}
        agg: dict = {"uptime_s": max(
            (s["uptime_s"] for s in snaps.values()), default=0.0)}
        for key in _SUM_KEYS:
            agg[key] = sum(s[key] for s in snaps.values())
        agg["throughput_rps"] = sum(
            s["throughput_rps"] for s in snaps.values())
        agg["throughput_nodes_ps"] = sum(
            s["throughput_nodes_ps"] for s in snaps.values())
        lat: List[float] = []
        occ_r: List[float] = []
        occ_n: List[float] = []
        for r in reps:
            lat.extend(r.server.metrics.latency_window())
            occ = r.server.metrics.occupancy_windows()
            occ_r.extend(occ["requests"])
            occ_n.extend(occ["nodes"])
        lat_arr = np.asarray(lat, dtype=np.float64)
        agg["latency_p50_ms"] = (
            float(np.percentile(lat_arr, 50)) * 1e3 if lat else 0.0)
        agg["latency_p99_ms"] = (
            float(np.percentile(lat_arr, 99)) * 1e3 if lat else 0.0)
        agg["latency_mean_ms"] = (
            float(np.mean(lat_arr)) * 1e3 if lat else 0.0)
        agg["batch_occupancy_requests"] = (
            float(np.mean(occ_r)) if occ_r else 0.0)
        agg["batch_occupancy_nodes"] = (
            float(np.mean(occ_n)) if occ_n else 0.0)
        done = agg["completed"] + agg["failed"]
        agg["error_rate"] = agg["failed"] / max(1, done)
        agg["queue_depth"] = sum(
            s["queue_depth"] for s in snaps.values())
        agg["queue_nodes"] = sum(
            s["queue_nodes"] for s in snaps.values())
        tenants: Dict[str, Dict[str, int]] = {}
        for s in snaps.values():
            for t, counts in s.get("tenants", {}).items():
                agg_t = tenants.setdefault(
                    t, {"submitted": 0, "completed": 0})
                agg_t["submitted"] += counts["submitted"]
                agg_t["completed"] += counts["completed"]
        if tenants:
            agg["tenants"] = tenants
        agg["replicas"] = snaps
        agg["health"] = self.health()
        return agg

    def metrics_prometheus(self) -> str:
        """The pool registry (replica/tenant-labeled gauges, breaker
        families) in Prometheus text format.

        Per-replica counter/histogram families remain scrapeable from
        each replica's own server
        (``pool.replicas[i].server.metrics_prometheus()``) — instrument
        names are unique per registry, not per process.
        """
        return to_prometheus(self.registry)

    def trace_export(self, path: Optional[str] = None) -> Optional[dict]:
        """Chrome trace-event export of the shared tracer (all replicas)."""
        if self.tracer is None:
            return None
        doc = self.tracer.export_chrome(
            process_name=f"repro-serve-pool:{self.name}")
        if path is not None:
            import json

            with open(path, "w") as f:
                json.dump(doc, f, indent=1)
        return doc
