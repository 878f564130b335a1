"""Serving metrics: throughput, latency percentiles, batch occupancy.

One :class:`ServerMetrics` instance per server, backed by the unified
:class:`~repro.obs.MetricsRegistry` — every counter is a registry
Counter family and every distribution a registry Histogram, so the same
numbers that feed :meth:`snapshot` (the flat dict the server has always
exposed) are also scrapeable in Prometheus text format or JSON via the
exporters in :mod:`repro.obs.export`.  Other serving components
(:class:`~repro.serve.router.CircuitBreaker`, the fault injector, the
workspace arena) register into the **same** registry through their
``bind_metrics`` hooks, giving one scrape for the whole serving stack.

The recording API (``note_submit`` / ``note_flush`` / ...) and the
:meth:`snapshot` keys are unchanged from the pre-registry
implementation; latency and occupancy percentiles still come from
bounded sliding windows (the histograms keep a raw-sample window beside
their cumulative buckets), so a long-running server's metrics reflect
recent traffic at O(window) memory.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..obs import Clock, MetricsRegistry
from ..runtime.memory import WorkspaceArena

#: bucket bounds for per-flush occupancy (requests / nodes per mega-batch)
_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class ServerMetrics:
    """Counters plus sliding-window distributions for one model server.

    Thread-safe: the worker thread records while callers snapshot or
    scrape.  Pass a shared ``registry`` to aggregate several servers'
    components into one scrape (instrument names are per-process, so two
    *servers* sharing a registry would collide — share across components
    of one server, not across servers).
    """

    def __init__(self, window: int = 4096, *,
                 registry: Optional[MetricsRegistry] = None,
                 clock: Optional[Clock] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock if clock is not None else time.perf_counter
        self._t0 = self._clock()
        r = self.registry
        self._submitted = r.counter(
            "serve_requests_submitted_total", "requests accepted by submit()")
        self._rejected = r.counter(
            "serve_requests_rejected_total",
            "requests refused at admission (queue full, validation)")
        self._completed = r.counter(
            "serve_requests_completed_total", "requests resolved with a result")
        self._failed = r.counter(
            "serve_requests_failed_total", "requests resolved with an error")
        self._flushes = r.counter(
            "serve_flushes_total", "mega-batch flushes executed")
        self._nodes = r.counter(
            "serve_nodes_processed_total",
            "structure nodes executed in successful flushes")
        self._retries = r.counter(
            "serve_retries_total", "transient-failure retry attempts")
        self._isolations = r.counter(
            "serve_isolations_total",
            "failed batches bisected to isolate a poison request")
        self._isolation_execs = r.counter(
            "serve_isolation_execs_total",
            "extra sub-batch executions spent on isolation")
        self._expired = r.counter(
            "serve_requests_expired_total",
            "requests that hit their deadline before execution")
        self._cancelled = r.counter(
            "serve_requests_cancelled_total",
            "queued requests cancelled before execution")
        self._shed = r.counter(
            "serve_requests_shed_total",
            "admitted requests evicted for higher-priority work")
        #: per-request end-to-end latency (submit -> result set), seconds
        self._latency = r.histogram(
            "serve_request_latency_seconds",
            "end-to-end request latency (submit to result)", window=window)
        #: per-flush occupancy: requests and structure nodes per mega-batch
        self._occ_requests = r.histogram(
            "serve_flush_occupancy_requests",
            "requests coalesced per flush", buckets=_OCCUPANCY_BUCKETS,
            window=window)
        self._occ_nodes = r.histogram(
            "serve_flush_occupancy_nodes",
            "structure nodes coalesced per flush",
            buckets=_OCCUPANCY_BUCKETS, window=window)
        self._flush_exec = r.histogram(
            "serve_flush_exec_seconds",
            "wall time of each successful flush execution", window=window)
        r.gauge("serve_uptime_seconds", "seconds since server start",
                fn=lambda: self._clock() - self._t0)
        #: per-tenant fair-share accounting — labeled families beside the
        #: unlabeled aggregates above, so the pinned snapshot keys stay
        #: untouched while the Prometheus export grows a ``tenant`` label
        self._tenant_submitted = r.counter(
            "serve_tenant_requests_submitted_total",
            "requests accepted by submit(), by tenant", ["tenant"])
        self._tenant_completed = r.counter(
            "serve_tenant_requests_completed_total",
            "requests resolved with a result, by tenant", ["tenant"])
        self._tenants: Dict[str, bool] = {}

    # -- recording (server side) -------------------------------------------
    def note_submit(self, tenant: Optional[str] = None) -> None:
        self._submitted.inc()
        if tenant is not None:
            self._tenants[tenant] = True
            self._tenant_submitted.labels(tenant=tenant).inc()

    def note_reject(self) -> None:
        self._rejected.inc()

    def note_retry(self) -> None:
        """One transient-failure retry attempt (of a whole flush)."""
        self._retries.inc()

    def note_isolation(self, extra_execs: int) -> None:
        """A failed multi-request batch was bisected into sub-batches."""
        self._isolations.inc()
        self._isolation_execs.inc(extra_execs)

    def note_expired(self, n: int = 1) -> None:
        """``n`` requests hit their deadline before being served."""
        self._expired.inc(n)

    def note_cancelled(self, n: int = 1) -> None:
        """``n`` queued requests were cancelled before execution."""
        self._cancelled.inc(n)

    def note_shed(self, n: int = 1) -> None:
        """``n`` admitted requests were evicted for higher-priority work."""
        self._shed.inc(n)

    def note_failed(self, n: int = 1) -> None:
        """``n`` requests failed outside a whole-flush failure."""
        self._failed.inc(n)

    def note_flush(self, num_requests: int, num_nodes: int, exec_s: float,
                   latencies: Sequence[float], *, failed: bool = False,
                   tenants: Optional[Sequence[str]] = None) -> None:
        self._flushes.inc()
        if failed:
            self._failed.inc(num_requests)
        else:
            self._completed.inc(num_requests)
            self._nodes.inc(num_nodes)
            self._occ_requests.observe(num_requests)
            self._occ_nodes.observe(num_nodes)
            self._flush_exec.observe(exec_s)
            self._latency.observe_many(latencies)
            if tenants:
                counts: Dict[str, int] = {}
                for t in tenants:
                    counts[t] = counts.get(t, 0) + 1
                for t, n in counts.items():
                    self._tenants[t] = True
                    self._tenant_completed.labels(tenant=t).inc(n)

    # -- per-tenant views ----------------------------------------------------
    def tenants(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant submitted/completed counts (tenants seen so far)."""
        out: Dict[str, Dict[str, int]] = {}
        for t in sorted(self._tenants):
            out[t] = {
                "submitted": int(
                    self._tenant_submitted.labels(tenant=t).value),
                "completed": int(
                    self._tenant_completed.labels(tenant=t).value),
            }
        return out

    # -- raw sliding windows (pool aggregation) ------------------------------
    # A pool must not average replicas' percentiles (a mean of p99s is
    # not a p99 of anything); these hand the aggregator the raw recent
    # samples so it can take exact percentiles over the union.
    def latency_window(self) -> List[float]:
        return self._latency.window_values()

    def flush_exec_window(self) -> List[float]:
        return self._flush_exec.window_values()

    def occupancy_windows(self) -> Dict[str, List[float]]:
        return {"requests": self._occ_requests.window_values(),
                "nodes": self._occ_nodes.window_values()}

    # -- reporting ---------------------------------------------------------
    def snapshot(self, arena: Optional[WorkspaceArena] = None
                 ) -> Dict[str, object]:
        """Everything as one dict; percentiles over the sliding window."""
        elapsed = max(self._clock() - self._t0, 1e-12)
        completed = int(self._completed.value)
        failed = int(self._failed.value)
        nodes = int(self._nodes.value)
        out: Dict[str, object] = {
            "uptime_s": elapsed,
            "submitted": int(self._submitted.value),
            "rejected": int(self._rejected.value),
            "completed": completed,
            "failed": failed,
            "flushes": int(self._flushes.value),
            "nodes_processed": nodes,
            "throughput_rps": completed / elapsed,
            "throughput_nodes_ps": nodes / elapsed,
            "latency_p50_ms": self._latency.percentile(50) * 1e3,
            "latency_p99_ms": self._latency.percentile(99) * 1e3,
            "latency_mean_ms": self._latency.window_mean() * 1e3,
            "batch_occupancy_requests": self._occ_requests.window_mean(),
            "batch_occupancy_nodes": self._occ_nodes.window_mean(),
            "retries": int(self._retries.value),
            "isolations": int(self._isolations.value),
            "isolation_execs": int(self._isolation_execs.value),
            "expired": int(self._expired.value),
            "cancelled": int(self._cancelled.value),
            "shed": int(self._shed.value),
            "error_rate": failed / max(1, completed + failed),
        }
        if arena is not None:
            out["arena"] = arena.snapshot()
        return out
