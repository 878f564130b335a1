"""The model server: submit -> coalesce -> one host-plan launch -> scatter.

:class:`ModelServer` is the serving front-end over a compiled
:class:`~repro.api.CortexModel`.  Independent callers :meth:`~ModelServer
.submit` root sets and immediately get future-like handles; the scheduler
decides when the pending requests flush as one coalesced mega-batch through
the model's precompiled :class:`~repro.runtime.plan.HostPlan` and workspace
arena — so the per-call host work PR 1 hoisted to compile time is now also
amortized *across callers*, not just across a single caller's stream.  The
model may be compiled in process or reloaded from an artifact; both are the
one :class:`~repro.api.CortexModel` class and serve identically.  Serving
timings are measured host wall-clock, never simulated (DESIGN.md §1): the
server takes no simulated device.

One flush loop (``Scheduler.take`` -> claim -> ``coalesce`` ->
``execute_plan`` on the model's one arena -> ``scatter`` -> resolve), two
ways to drive it:

* **synchronous** — ``submit()`` auto-flushes whenever the policy fires
  (and ``flush()`` / ``drain()`` force it), all on the caller's thread;
* **threaded** — ``start()`` (or ``with server:``) runs the one worker
  thread that owns every flush, so many producer threads can submit
  concurrently while execution stays single-threaded (the arena is not
  thread-safe).

On top of the threaded mode, :class:`~repro.serve.pool.WorkerPool`
replicates the server N times behind a load balancer, and ``await
server.asubmit(...)`` (on a server or a pool) gives asyncio callers
awaitable handles with the exact lifecycle of the thread API.

Every flush is bit-identical to running each of its requests alone — the
equivalence tests assert this across the model zoo and all flush policies.

Resilience (the request lifecycle, end to end):

* **admission** — every ``submit()`` runs the one structure walk
  (:func:`~repro.linearizer.structures.validate`: acyclicity, declared
  structure kind, arity bound; its node count feeds the optional cap and
  the scheduler), so a malformed request is rejected on the caller's
  thread and flushes never re-check structure — only the word-range
  check of :class:`~repro.linearizer.Linearizer` still runs there;
  priority-aware load shedding under overload (see
  :class:`~repro.serve.scheduler.Scheduler`).
* **deadlines** — ``submit(roots, timeout_s=...)``; overdue requests are
  expired *in the queue* and are never co-batched or executed.
* **cancellation** — ``handle.cancel()`` wins any time before the server
  claims the request for execution.
* **isolation** — a failed batch is bisected (O(log n) re-executions,
  not O(n)) so one poisoned request fails alone with a typed error while
  its co-batched neighbours still succeed.  There is no retry: execution
  is deterministic given the coalesced batch, so a failure that survives
  bisection is the request's own and is delivered through its handle.

Every taken request resolves exactly once, on every code path — the
chaos suite drives injected faults through this loop and asserts no
handle is ever left unresolved.  Whoever needs to hear about a request's
end (the breakers of :class:`~repro.serve.Router` and
:class:`~repro.serve.WorkerPool`, the asyncio bridge) registers
:meth:`~repro.serve.request.RequestHandle.add_done_callback` on the
handle ``submit`` returned.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import (DeadlineExceededError, InvalidRequestError,
                      LoadShedError, QueueFullError, ServingError)
from ..linearizer import Node
from ..linearizer import validate as validate_structure
from ..obs import (STATUS_CANCELLED, STATUS_DEADLINE, STATUS_ERROR,
                   STATUS_OK, STATUS_SHED, Clock, Tracer, to_prometheus)
from ..runtime.plan import execute_plan
from ..runtime.profiler import KernelProfiler
from .coalescer import coalesce, scatter
from .metrics import ServerMetrics
from .request import Request, RequestHandle, RequestResult
from .scheduler import FlushPolicy, Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import CortexModel

class ModelServer:
    """Cross-request dynamic batching over one compiled model.

    Args:
        model: the compiled model whose plan, params and arena serve
            every flush.
        policy: flush policy (default: 32 pending requests or 2 ms).
        max_queue: admission bound; beyond it ``submit`` raises
            :class:`~repro.errors.QueueFullError` (backpressure) unless
            the arrival outranks a queued request, which is then shed
            with :class:`~repro.errors.LoadShedError`.
        max_request_nodes: admission cap on one request's structure size
            (``None`` = uncapped); violations raise
            :class:`~repro.errors.InvalidRequestError`.
        outputs: buffer names to scatter back per request (default: the
            model's output and state buffers).
        tracer: optional :class:`~repro.obs.Tracer`.  With one, every
            submitted request gets its own trace id and a root
            ``request`` span closed exactly once with the request's
            outcome, every flush gets a ``flush`` span (with its
            thread's ``cpu_ms``) with ``coalesce`` / ``linearize`` /
            ``execute`` / ``scatter`` / ``resolve`` children, and
            lifecycle turns (isolation, cancel, expire, shed) land as
            span events.  Without one (default) the hot path pays one
            pointer comparison per hook.
        profiler: optional :class:`~repro.runtime.profiler
            .KernelProfiler` threaded into every ``execute_plan`` call
            — per-kernel wall times and call counts, reported under the
            ``kernels`` key of :meth:`metrics_snapshot`.
        clock: the :class:`~repro.obs.Clock` used for submit timestamps,
            deadlines and queue ages (default ``perf_counter``); inject
            a :class:`~repro.obs.FakeClock` shared with the tracer and
            breakers to pin a whole test timeline.
        memo: ``"on"`` routes every flush through the content-addressed
            subtree cache (:mod:`repro.memo`): cached subtrees are
            pruned from the batch and their rows spliced in, with
            outputs guaranteed bitwise identical to the plain path (the
            splicer refuses — :class:`~repro.errors.SpliceRefusedError`
            at construction — any model where that cannot be proven).
            Models compiled with ``CompileOptions(memo="on")`` — in
            process or reloaded — get this by default via
            :meth:`~repro.api.CortexModel.server`.
        memo_cache: optional shared :class:`~repro.memo.MemoCache`
            (e.g. one cache across a Router's models); default is a
            private cache sized by the policy.
        memo_policy: optional :class:`~repro.memo.MemoPolicy` (entry
            bounds, minimum subtree size, verify mode).
        name: optional replica/server name; rides every request's root
            span (``replica`` attribute) and the pool's labeled metrics,
            so multi-replica traces and scrapes stay attributable.
        fair_share: interleave flush batches round-robin across tenants
            (see :meth:`submit`'s ``tenant``) instead of global FIFO, so
            a capped flush serves every waiting tenant.
        request_id_base: first request id minus one; a
            :class:`~repro.serve.WorkerPool` hands each replica a
            disjoint block so ids stay unique pool-wide.
    """

    def __init__(self, model: "CortexModel", *,
                 policy: Optional[FlushPolicy] = None,
                 max_queue: int = 1024,
                 max_request_nodes: Optional[int] = None,
                 outputs: Optional[Sequence[str]] = None,
                 tracer: Optional[Tracer] = None,
                 profiler: Optional[KernelProfiler] = None,
                 clock: Optional[Clock] = None,
                 wake_interval_s: float = 0.001,
                 memo: Union[str, bool] = "off",
                 memo_cache=None,
                 memo_policy=None,
                 name: Optional[str] = None,
                 fair_share: bool = False,
                 request_id_base: int = 0):
        if max_request_nodes is not None and max_request_nodes < 1:
            raise ServingError("max_request_nodes must be >= 1")
        self.model = model
        self.name = name
        self._clock: Clock = clock if clock is not None else time.perf_counter
        self.scheduler = Scheduler(policy, max_queue=max_queue,
                                   clock=self._clock,
                                   fair_share=fair_share)
        self.metrics = ServerMetrics(clock=self._clock)
        self.tracer = tracer
        self.profiler = profiler
        # one scrape for the whole serving stack: the arena and the queue
        # report into the same registry the ServerMetrics counters live in
        # (breakers bind via Router)
        reg = self.metrics.registry
        model.arena.bind_metrics(reg)
        reg.gauge("serve_queue_depth", "requests waiting in the queue",
                  fn=lambda: len(self.scheduler))
        reg.gauge("serve_queue_nodes",
                  "structure nodes waiting in the queue",
                  fn=lambda: self.scheduler.pending_nodes)
        # cross-request subtree memoization (repro.memo): "on" builds a
        # per-server splicer (or adopts a shared MemoCache) after the
        # splice-safety analysis; refusal raises SpliceRefusedError
        # eagerly rather than serving a maybe-not-bitwise path
        if memo in ("on", True):
            from ..memo import MemoSplicer

            self.memo = MemoSplicer(model, cache=memo_cache,
                                    policy=memo_policy)
            self.memo.bind_metrics(reg)
        elif memo in ("off", False, None):
            self.memo = None
            if memo_cache is not None or memo_policy is not None:
                raise ServingError(
                    "memo_cache/memo_policy given but memo is 'off'")
        else:
            raise ServingError(
                f"memo must be 'on' or 'off', got {memo!r}")
        self._max_request_nodes = max_request_nodes
        self._outputs = (list(outputs) if outputs is not None
                         else model.default_outputs())
        unknown = [n for n in self._outputs
                   if n not in model.lowered.module.buffers]
        if unknown:
            raise ServingError(
                f"outputs names no buffer of this model: {unknown}; "
                f"choose from {sorted(model.lowered.module.buffers)}")
        self._wake_interval_s = wake_interval_s
        # pools give each replica a disjoint id block so request ids —
        # and the trace/span attributes carrying them — stay globally
        # unique across a pool
        self._req_counter = request_id_base
        self._counter_lock = threading.Lock()
        #: serializes flush execution (arena + workspace are single-threaded)
        self._flush_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        self._cond = threading.Condition()
        #: the worker is about to wait on ``_cond``: only then notify
        self._waiting = False
        #: serializes start/stop so concurrent stop() calls are idempotent
        self._lifecycle_lock = threading.Lock()
        #: set by ``close()`` (and by a pool tearing its replicas down):
        #: submits are refused permanently, unlike a restartable stop()
        self._closed = False

    # -- submission --------------------------------------------------------
    def submit(self, roots: Union[Node, Sequence[Node]], *,
               timeout_s: Optional[float] = None,
               priority: int = 0,
               tenant: str = "default") -> RequestHandle:
        """Queue one request; returns its handle immediately.

        ``timeout_s`` sets the request's deadline: if it is still queued
        when the deadline passes, it fails with
        :class:`~repro.errors.DeadlineExceededError` and is never
        executed (one waiting to re-run in a bisected sub-batch expires
        the same way).  ``priority`` feeds overload shedding: at a full queue
        a higher-priority arrival evicts the lowest-priority pending
        request (shed with :class:`~repro.errors.LoadShedError`) instead
        of being rejected.  ``tenant`` is the request's fair-share
        accounting class: it labels the tenant metrics families and,
        under ``fair_share=True``, determines how flush batches are
        interleaved — never what any request's outputs are.

        In synchronous mode the call also flushes when the policy fires,
        so earlier callers' handles may complete during a later
        ``submit``.  Raises :class:`~repro.errors.QueueFullError` when
        admission control refuses — callers should back off and retry
        (or drop) — :class:`~repro.errors.LinearizationError` for a
        structure that breaks the model's compile-time declaration
        (cyclic, wrong kind, over the arity bound) and
        :class:`~repro.errors.InvalidRequestError` for one over
        ``max_request_nodes``; a refused request is never queued.
        """
        if self._closed:
            raise ServingError(
                "server is closed: stop() already drained it on behalf "
                "of its pool; submit to the pool, not the replica")
        if timeout_s is not None and timeout_s < 0:
            raise ServingError("timeout_s must be >= 0")
        root_list = [roots] if isinstance(roots, Node) else list(roots)
        if not root_list:
            raise ServingError("request needs at least one root")
        # the one structure walk, at the door: nothing below re-checks it
        lz = self.model.lowered.linearizer
        nodes = validate_structure(root_list, lz.kind, lz.max_children)
        if (self._max_request_nodes is not None
                and nodes > self._max_request_nodes):
            raise InvalidRequestError(
                f"request has {nodes} nodes, exceeding the "
                f"max_request_nodes={self._max_request_nodes} "
                f"admission cap")
        with self._counter_lock:
            self._req_counter += 1
            rid = self._req_counter
        submit_t = self._clock()
        req = Request(request_id=rid, roots=root_list, num_nodes=nodes,
                      submit_t=submit_t,
                      deadline_t=(submit_t + timeout_s
                                  if timeout_s is not None else None),
                      priority=priority, tenant=tenant)
        tracer = self.tracer
        if tracer is not None:
            # the span opens before the queue offer: in threaded mode the
            # worker may claim (and resolve) the request the instant it
            # lands, and the root span must already be on it by then
            req.trace_id = tracer.new_trace_id()
            attrs = {"request_id": rid, "priority": priority,
                     "roots": len(root_list), "nodes": nodes}
            if tenant != "default":
                attrs["tenant"] = tenant
            if self.name is not None:
                attrs["replica"] = self.name
            req.span = tracer.start_span(
                "request", trace_id=req.trace_id, attributes=attrs)
            req.span.add_event("submitted")
        self._expire_queued()
        adm = self.scheduler.offer(req)
        if not adm:
            self.metrics.note_reject()
            self._end_request_span(req, STATUS_ERROR, "rejected")
            raise QueueFullError(
                f"queue full ({self.scheduler.max_queue} pending); "
                f"retry after a flush")
        if adm.victim is not None:
            won = adm.victim.handle.set_exception(LoadShedError(
                f"request {adm.victim.request_id} shed for "
                f"higher-priority work under overload"))
            self.metrics.note_shed()
            if won:
                self._end_request_span(adm.victim, STATUS_SHED, "shed")
            else:
                # the victim's handle was already resolved (caller
                # cancellation won the race): close its span with the
                # outcome the caller actually observed
                self._close_dropped_span(adm.victim)
        self.metrics.note_submit(tenant=tenant)
        if self._thread is not None:
            if self._waiting:
                with self._cond:
                    self._cond.notify()
        elif self.scheduler.should_flush():
            self.flush()
        return req.handle

    async def asubmit(self, roots: Union[Node, Sequence[Node]], *,
                      timeout_s: Optional[float] = None,
                      priority: int = 0,
                      tenant: str = "default"):
        """Async :meth:`submit`: returns an awaitable handle.

        ``await server.asubmit(roots)`` queues exactly like the thread
        API (same admission, deadline, priority and tenant semantics —
        :class:`~repro.errors.QueueFullError` et al. raise out of the
        coroutine) and returns an :class:`~repro.serve.aio
        .AsyncRequestHandle`; ``await handle`` yields the
        :class:`RequestResult` or raises the same typed lifecycle errors
        the threaded handle would.  The event loop is never blocked: the
        flush happens on the server's worker thread and completion is
        posted back via ``call_soon_threadsafe``.

        Requires a *running* (threaded) server — in
        synchronous mode nothing would ever flush the queue under a
        suspended coroutine.
        """
        import asyncio

        from .aio import AsyncRequestHandle

        if not self.running:
            raise ServingError(
                "asubmit needs a started server (start() or 'with "
                "server:'); in synchronous mode nothing flushes while "
                "the coroutine awaits")
        loop = asyncio.get_running_loop()
        handle = self.submit(roots, timeout_s=timeout_s,
                             priority=priority, tenant=tenant)
        return AsyncRequestHandle(handle, loop)

    # -- span bookkeeping --------------------------------------------------
    def _end_request_span(self, req: Request, status: str, event: str,
                          **attrs: object) -> None:
        """Close a request's root span with its terminal event (once).

        Called only on the code path that won the handle's resolution,
        so every request span closes exactly once, with a terminal event
        that matches the handle's outcome.
        """
        span = req.span
        if span is not None and not span.closed:
            span.add_event(event, **attrs)
            span.end(status)

    def _close_dropped_span(self, req: Request) -> None:
        """Span closure for a request resolved under the server's feet.

        The handle was resolved by someone other than this server's
        execution path — caller cancellation in the common case.
        """
        if req.handle.cancelled:
            self._end_request_span(req, STATUS_CANCELLED, "cancelled")
        else:  # pragma: no cover - no current path resolves otherwise
            self._end_request_span(req, STATUS_ERROR, "dropped")

    # -- deadline expiry ---------------------------------------------------
    def _expire_queued(self, now: Optional[float] = None) -> None:
        """Resolve every queued request whose deadline has passed."""
        dead = self.scheduler.expire(now)
        for req in dead:
            if req.handle.set_exception(DeadlineExceededError(
                    f"request {req.request_id} expired in queue after "
                    f"{req.deadline_t - req.submit_t:.3f}s")):
                self.metrics.note_expired()
                self._end_request_span(req, STATUS_DEADLINE, "expired")
            else:
                self._close_dropped_span(req)

    # -- flushing ----------------------------------------------------------
    def flush(self) -> int:
        """Serve one policy-sized batch of pending requests.

        Returns the number of requests served (0 when the queue is empty —
        an empty flush is a no-op, not an error).  Failures are delivered
        through the affected requests' handles, never raised here.
        """
        with self._flush_lock:
            self._expire_queued()
            taken = self.scheduler.take()
            if not taken:
                return 0
            self._execute_flush(taken)
            return len(taken)

    def drain(self) -> int:
        """Flush until the queue is empty; returns total requests served."""
        total = 0
        while True:
            n = self.flush()
            if n == 0:
                return total
            total += n

    # -- the resilient flush loop ------------------------------------------
    def _claim_live(self, reqs: List[Request]) -> List[Request]:
        """Drop dead requests (cancelled / expired), claim the rest.

        A dropped request's handle is already resolved (cancellation) or
        resolved here (deadline expiry); a claimed request can no longer
        be cancelled, so nothing in the returned list resolves under the
        executor's feet.
        """
        now = self._clock()
        live: List[Request] = []
        for req in reqs:
            if req.expired(now):
                if req.handle.set_exception(DeadlineExceededError(
                        f"request {req.request_id} deadline passed "
                        f"before execution")):
                    self.metrics.note_expired()
                    self._end_request_span(req, STATUS_DEADLINE, "expired")
                else:
                    self._close_dropped_span(req)
                continue
            if not req.handle.claim():
                # resolved by someone else: cancellation (or shed)
                if req.handle.cancelled:
                    self.metrics.note_cancelled()
                self._close_dropped_span(req)
                continue
            live.append(req)
        return live

    def _execute_flush(self, taken: List[Request]) -> None:
        try:
            self._run_batch(taken)
        except BaseException:
            # KeyboardInterrupt / SystemExit: fail the handles so no
            # caller blocks forever, but let the interrupt propagate
            for req in taken:
                if req.handle.set_exception(
                        ServingError("flush interrupted")):
                    self._end_request_span(req, STATUS_ERROR, "interrupted")
            raise

    def _run_batch(self, reqs: List[Request]) -> None:
        """Execute one (sub-)batch to final resolution of every handle.

        Claim live requests and attempt the coalesced execution; a failed
        multi-request batch is bisected so a single culprit fails alone —
        O(log n) re-executions instead of the seed's O(n) serial
        isolation.  Claim time is the single arbitration point for
        cancel/deadline races.
        """
        reqs = self._claim_live(reqs)
        if not reqs:
            return
        try:
            self._attempt(reqs)
        except Exception as exc:
            if len(reqs) == 1:
                self._fail_request(reqs[0], exc)
                return
            # bisection isolation: split and recurse, so one poisoned
            # request costs O(log n) re-executions
            self.metrics.note_isolation(extra_execs=2)
            if self.tracer is not None:
                for r in reqs:
                    if r.span is not None:
                        r.span.add_event("isolated", batch=len(reqs))
            mid = len(reqs) // 2
            self._run_batch(reqs[:mid])
            self._run_batch(reqs[mid:])

    def _attempt(self, reqs: List[Request]) -> None:
        """One coalesced execution attempt; resolves handles on success.

        With a tracer, each attempt records one ``flush`` trace — its
        ``cpu_ms`` from ``time.thread_time``, and ``coalesce`` (with a
        retroactive ``linearize`` child), ``execute``, ``scatter`` and
        ``resolve`` spans — and stamps every resolved request's own
        trace with retroactive ``queued`` and ``execute`` children
        before closing its root span.  The tracing-off path pays pointer
        comparisons and three extra clock reads per flush, nothing per
        request.
        """
        model = self.model
        arena = model.arena
        tracer = self.tracer
        flush_t = self._clock()
        flush_span = (tracer.start_span(
            "flush", attributes={"requests": len(reqs)})
            if tracer is not None else None)
        # this thread's CPU beside the span's wall time, which under
        # threaded serving also holds the other threads' turns
        cpu_t = time.thread_time() if tracer is not None else 0.0
        try:
            # return the slab a prior run(reuse=True) left leased, so the
            # arena's contents are deterministic between flushes
            model.release()
            for req in reqs:
                req.attempts += 1
            t_coalesce = self._clock()
            batch = coalesce(reqs, model.lowered.linearizer, self.memo)
            t_exec = self._clock()
            res = execute_plan(model.plan, batch.lin, model.params,
                               arena=arena, profiler=self.profiler,
                               seeds=batch.seeds)
            try:
                t_scatter = self._clock()
                per_request = scatter(batch.root_ids, res.workspace,
                                      self._outputs)
                splice = batch.splice
                if splice is not None:
                    # verify (optional) then commit — both only after the
                    # whole flush executed, so a failed execution can never
                    # leave partial rows in the cache; commit copies rows
                    # before the arena reclaims the workspace below
                    if self.memo.policy.verify:
                        self.memo.verify([r.roots for r in reqs], splice,
                                         self._outputs, per_request)
                    self.memo.commit(splice, res.workspace)
                    if tracer is not None:
                        tracer.instant(
                            "memo_splice", hits=splice.hits,
                            spliced_nodes=splice.spliced_nodes,
                            executed_nodes=splice.executed_nodes,
                            full_hit_requests=splice.full_hit_requests)
            finally:
                # the slab goes back on every exit once execute_plan has
                # succeeded: a scatter / verify failure must not drop the
                # flush's workspace from the arena
                arena.release_many(res.arena_buffers)
        except Exception as exc:
            if flush_span is not None:
                flush_span.set_attribute("exception", type(exc).__name__)
                flush_span.add_event(
                    "attempt_failed",
                    attempt=max(r.attempts for r in reqs))
                flush_span.end(STATUS_ERROR)
            raise
        done_t = self._clock()
        exec_s = done_t - flush_t
        if self.profiler is not None:
            self.profiler.note_linearize(batch.lin.wall_time_s)
        if flush_span is not None:
            flush_span.set_attribute("nodes", batch.num_nodes)
            cs = tracer.add_span("coalesce", t_coalesce, t_exec,
                                 parent=flush_span)
            lin_s = batch.lin.wall_time_s
            if lin_s:
                # linearization was timed inside coalesce(); lay it back
                # as the tail of the coalesce span (clamped so a fake
                # tracer clock never produces a negative start)
                tracer.add_span("linearize",
                                max(t_coalesce, t_exec - lin_s), t_exec,
                                parent=cs)
            tracer.add_span("execute", t_exec, t_scatter,
                            parent=flush_span,
                            attributes={"nodes": batch.num_nodes})
            tracer.add_span("scatter", t_scatter, done_t,
                            parent=flush_span)
        latencies = []
        for req, outs in zip(reqs, per_request):
            latency = done_t - req.submit_t
            latencies.append(latency)
            req.handle.set_result(RequestResult(
                request_id=req.request_id,
                outputs=outs,
                batch_requests=batch.num_requests,
                batch_nodes=batch.num_nodes,
                queue_time_s=flush_t - req.submit_t,
                exec_time_s=exec_s,
                latency_s=latency,
                attempts=req.attempts))
            if tracer is not None and req.span is not None:
                tracer.add_span("queued", req.submit_t, flush_t,
                                parent=req.span)
                tracer.add_span("execute", flush_t, done_t,
                                parent=req.span,
                                attributes={"attempts": req.attempts,
                                            "flush": flush_span.span_id})
                req.span.add_event("resolved")
                req.span.end(STATUS_OK)
        if flush_span is not None:
            tracer.add_span("resolve", done_t, self._clock(),
                            parent=flush_span)
            flush_span.set_attribute(
                "cpu_ms", (time.thread_time() - cpu_t) * 1e3)
            flush_span.end(STATUS_OK)
        self.metrics.note_flush(batch.num_requests, batch.num_nodes,
                                exec_s, latencies,
                                tenants=[r.tenant for r in reqs])

    def _fail_request(self, req: Request, exc: BaseException) -> None:
        """Final, typed failure of a single isolated request."""
        if req.handle.set_exception(exc):
            self.metrics.note_failed()
            self._end_request_span(req, STATUS_ERROR, "failed",
                                   exception=type(exc).__name__,
                                   attempts=req.attempts)

    # -- streaming ---------------------------------------------------------
    def serve_forever(self, requests: Iterable[Union[Node, Sequence[Node]]]
                      ) -> List[RequestHandle]:
        """Drive a request stream to completion; returns all handles.

        Submits every element of ``requests`` (applying backpressure by
        flushing — or, in threaded mode, waiting — when the queue fills),
        then drains the queue, so every returned handle is done.
        """
        handles: List[RequestHandle] = []
        for roots in requests:
            while True:
                try:
                    handles.append(self.submit(roots))
                    break
                except QueueFullError:
                    if self._thread is not None:
                        time.sleep(self._wake_interval_s)
                    else:
                        self.flush()
        self.drain()
        return handles

    # -- threaded mode -----------------------------------------------------
    #: arenas owned by running servers (id(arena) -> weakref(server)).
    #: Arenas are not thread-safe, and a Session cache hit hands the
    #: *same* model — arena included — to several callers; this registry
    #: turns "two worker threads flushing one arena" from silent
    #: workspace corruption into an immediate error at start().
    _arena_owners: dict = {}
    _arena_owners_lock = threading.Lock()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "ModelServer":
        """Spawn the worker thread that owns flushing (threaded mode)."""
        with self._lifecycle_lock:
            if self._closed:
                raise ServingError("server is closed; build a new one")
            if self._thread is not None:
                raise ServingError("server already started")
            key = id(self.model.arena)
            with ModelServer._arena_owners_lock:
                ref = ModelServer._arena_owners.get(key)
                owner = ref() if ref is not None else None
                # admission is keyed on registry presence, not
                # owner.running: stop() keeps its entry until the final
                # drain has finished flushing through the arena, so
                # checking `running` here would re-open the drain window
                # the registry exists to close
                if owner is not None and owner is not self:
                    raise ServingError(
                        "this model's workspace arena is already owned by "
                        "another server (Session cache hits return the "
                        "same model object); serve one model from one "
                        "server, or register aliases through Router, "
                        "which builds private-arena views")
                ModelServer._arena_owners[key] = weakref.ref(self)
            self._stop = False
            self._thread = threading.Thread(target=self._worker,
                                            name="cortex-serve",
                                            daemon=True)
            self._thread.start()
            return self

    def stop(self) -> None:
        """Stop the worker; pending requests drain before it exits.

        Idempotent and safe to race: concurrent and repeated ``stop()``
        calls serialize on the lifecycle lock, and every call returns
        only after the queue is drained — so each taken request resolves
        exactly once and every root span closes.
        """
        with self._lifecycle_lock:
            thread = self._thread
            if thread is None:
                # never started (or already stopped): still serve
                # whatever is queued so no handle hangs, then return
                if not self._closed:
                    self.drain()
                return
            with self._cond:
                self._stop = True
                self._cond.notify_all()
            thread.join()
            self._thread = None
            # a submit() racing with shutdown may have enqueued after the
            # worker's final drain; serve those here so no handle hangs
            self.drain()
            # only now release arena ownership: the drain above still
            # flushes through the arena, so a second server must not be
            # admitted yet
            key = id(self.model.arena)
            with ModelServer._arena_owners_lock:
                ref = ModelServer._arena_owners.get(key)
                if ref is not None and ref() is self:
                    del ModelServer._arena_owners[key]

    def close(self) -> None:
        """Stop, drain, and permanently refuse new submits.

        Unlike plain :meth:`stop` (which a later :meth:`start` can
        undo), a closed server rejects every subsequent ``submit`` with
        :class:`~repro.errors.ServingError` — the pool closes replicas
        it tears down so a stale reference cannot enqueue work nothing
        will ever flush.  Idempotent.
        """
        self.stop()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _worker(self) -> None:
        while not self._stop:
            self._expire_queued()
            if self.scheduler.should_flush():
                self.flush()
            else:
                with self._cond:
                    # raised before the re-check: a submit either lands
                    # before it (and the check sees it) or sees the flag
                    self._waiting = True
                    if not self._stop and not self.scheduler.should_flush():
                        # empty queue: sleep until a submit/stop notifies;
                        # with requests pending, poll so a Deadline policy
                        # (or a per-request deadline) fires even without
                        # new arrivals
                        self._cond.wait(self._wake_interval_s
                                        if len(self.scheduler) else None)
                    self._waiting = False
        self.drain()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- observability -----------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Throughput / latency / occupancy / arena counters, one dict."""
        # the arena is not thread-safe: serialize against flushes so a
        # live scrape never iterates pool dicts the worker is mutating
        with self._flush_lock:
            snap = self.metrics.snapshot(arena=self.model.arena)
        snap["queue_depth"] = len(self.scheduler)
        snap["queue_nodes"] = self.scheduler.pending_nodes
        if self.name is not None:
            snap["replica"] = self.name
        tenants = self.metrics.tenants()
        if tenants:
            snap["tenants"] = tenants
        if self.profiler is not None:
            snap["kernels"] = self.profiler.snapshot()
        if self.memo is not None:
            snap["memo"] = self.memo.snapshot()
        return snap

    def metrics_prometheus(self) -> str:
        """The whole serving stack's registry in Prometheus text format.

        Covers the request counters and latency/occupancy histograms,
        the arena gauges, queue depth, and any
        breakers the router bound — one scrape body, ready to serve
        from an HTTP handler.
        """
        # callback gauges read the (single-threaded) arena: serialize
        # against flushes like metrics_snapshot does
        with self._flush_lock:
            return to_prometheus(self.metrics.registry)

    def trace_export(self, path: Optional[str] = None) -> Optional[dict]:
        """Everything traced so far, as a Chrome trace-event document.

        Loadable in Perfetto / ``chrome://tracing``; span events ride as
        instant events and trace/span ids travel in ``args``.  Returns
        ``None`` when the server has no tracer; with ``path`` the
        document is also written to disk as JSON.
        """
        if self.tracer is None:
            return None
        doc = self.tracer.export_chrome(process_name="repro-serve")
        if path is not None:
            import json

            with open(path, "w") as f:
                json.dump(doc, f, indent=1)
        return doc

    def self_check(self, requests: Sequence[Union[Node, Sequence[Node]]],
                   *, raise_on_mismatch: bool = True) -> bool:
        """Probe the bit-identity guarantee for *this* model configuration.

        Coalesces ``requests`` into one mega-batch and compares every
        request's root rows against running it alone.  The guarantee
        rests on the kernels' GEMMs being batch-extent invariant, which
        is a property of the weight shapes this model emits and of the
        BLAS build — the model-zoo configurations are covered by the test
        suite; call this once at deployment for anything exotic.
        """
        model = self.model
        sets = [[r] if isinstance(r, Node) else list(r) for r in requests]
        lin, id_sets = model.lowered.linearizer.coalesce(sets)
        res = execute_plan(model.plan, lin, model.params)
        for roots, ids in zip(sets, id_sets):
            solo = model.run(roots)
            solo_ids = [solo.lin.node_id(r) for r in roots]
            for name in self._outputs:
                if not np.array_equal(res.workspace[name][ids],
                                      solo.workspace[name][solo_ids]):
                    if raise_on_mismatch:
                        raise ServingError(
                            f"coalesced outputs for buffer {name!r} are "
                            f"not bit-identical to per-request execution "
                            f"on this BLAS/model configuration")
                    return False
        return True
