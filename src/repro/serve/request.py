"""Requests and future-like result handles for the serving subsystem.

A request is one caller's independent inference input: a set of recursive
structure roots.  Submitting it to a :class:`~repro.serve.ModelServer`
returns a :class:`RequestHandle` immediately; the result materializes when
the scheduler flushes the mega-batch the request rode in.  Handles are
thread-safe — the threaded server completes them from its worker thread
while callers block in :meth:`RequestHandle.result`.

Lifecycle: a handle starts *pending*; the caller may :meth:`RequestHandle
.cancel` it until the server *claims* it for execution; the server
resolves it exactly once (result or typed exception).  Resolution is
first-wins — late writers are ignored — which is what makes "zero handles
left unresolved, none resolved twice" hold under races between caller
cancellation, deadline expiry and flush completion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import (RequestCancelledError, RequestTimeoutError,
                      ServingError)
from ..linearizer import Node


@dataclass
class RequestResult:
    """Per-request outcome of one coalesced flush.

    ``outputs`` holds *copies* of this request's root rows (the shared
    mega-batch workspace has already been recycled into the arena by the
    time the caller sees this), keyed by buffer name and ordered like the
    request's roots.
    """

    request_id: int
    outputs: Dict[str, np.ndarray]
    #: how many requests / structure nodes shared the flush (occupancy)
    batch_requests: int
    batch_nodes: int
    queue_time_s: float = 0.0
    exec_time_s: float = 0.0
    latency_s: float = 0.0
    #: execution attempts this request took to succeed (1 = first try;
    #: more when transient faults forced retries)
    attempts: int = 1

    def root_output(self, name: str) -> np.ndarray:
        """Rows of an output buffer at this request's roots."""
        return self.outputs[name]


class RequestHandle:
    """Future-like handle for one submitted request."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[RequestResult] = None
        self._exception: Optional[BaseException] = None
        self._cancelled = False
        self._claimed = False
        self._callbacks: List[Callable[["RequestHandle"], None]] = []

    # -- completion callbacks (asyncio bridge) ------------------------------
    def add_done_callback(self, fn: Callable[["RequestHandle"], None]
                          ) -> None:
        """Run ``fn(handle)`` exactly once when the handle resolves.

        Registered before resolution, the callback fires on whichever
        thread wins the resolution (server worker, canceller, expiry
        sweep); registered after, it fires immediately on the caller's
        thread.  Callbacks run outside the handle's lock — they may read
        :meth:`exception` / :meth:`result` freely — and a raising
        callback is swallowed (it must not take down the flush loop).
        This is the hook the asyncio bridge uses to complete loop-side
        futures via ``call_soon_threadsafe``.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _run_callback(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # pragma: no cover - callback bugs
            pass

    def _drain_callbacks(self) -> None:
        """Fire pending callbacks after resolution (outside the lock)."""
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._run_callback(fn)

    # -- completion (server side) -----------------------------------------
    def set_result(self, result: RequestResult) -> bool:
        """Resolve with a result; ``False`` when already resolved."""
        with self._lock:
            if self._event.is_set():
                return False
            self._result = result
            self._event.set()
        self._drain_callbacks()
        return True

    def set_exception(self, exc: BaseException) -> bool:
        """Resolve with a failure; ``False`` when already resolved."""
        with self._lock:
            if self._event.is_set():
                return False
            self._exception = exc
            self._event.set()
        self._drain_callbacks()
        return True

    def claim(self) -> bool:
        """Mark execution as started (server side).

        ``False`` when the handle already resolved (cancelled / expired)
        — the server must then drop the request instead of executing it.
        After a successful claim, :meth:`cancel` can no longer win.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._claimed = True
            return True

    # -- cancellation (caller side) ----------------------------------------
    def cancel(self) -> bool:
        """Cancel the request if it has not started executing.

        ``True`` when the cancellation won: the handle resolves
        immediately with :class:`~repro.errors.RequestCancelledError` and
        the server will never execute the request.  ``False`` when the
        request is already executing or already resolved.
        """
        with self._lock:
            if self._event.is_set() or self._claimed:
                return False
            self._cancelled = True
            self._exception = RequestCancelledError(
                f"request {self.request_id} cancelled")
            self._event.set()
        self._drain_callbacks()
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    # -- consumption (caller side) -----------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> RequestResult:
        """Block until the request's flush completes; raise its failure.

        With the synchronous server, call :meth:`ModelServer.flush` /
        ``drain`` first — nothing completes handles until a flush runs.
        An expired wait raises :class:`~repro.errors.RequestTimeoutError`
        (a ``TimeoutError`` subclass); the request itself stays pending.
        """
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                f"request {self.request_id} not served within {timeout}s")
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                f"request {self.request_id} not served within {timeout}s")
        return self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("cancelled" if self._cancelled
                 else "failed" if self._exception is not None
                 else "done" if self.done() else "pending")
        return f"RequestHandle(id={self.request_id}, {state})"


@dataclass
class Request:
    """One queued inference request (server-internal bookkeeping)."""

    request_id: int
    roots: List[Node]
    #: distinct nodes reachable from ``roots`` (the admission walk's count)
    num_nodes: int
    #: ``time.perf_counter()`` at admission (deadline / latency accounting)
    submit_t: float
    #: absolute ``perf_counter`` deadline; ``None`` = no deadline.  The
    #: server expires overdue requests in the queue and refuses to
    #: co-batch (or execute) them past this instant.
    deadline_t: Optional[float] = None
    #: load-shedding class: higher values survive overload longer (an
    #: arriving higher-priority request may evict the lowest-priority
    #: queued one instead of being rejected)
    priority: int = 0
    #: execution attempts so far (bounded by the server's retry policy)
    attempts: int = 0
    #: fair-share accounting class — requests from different tenants are
    #: interleaved by the scheduler's fair-share take so one chatty
    #: tenant cannot monopolize a flush
    tenant: str = "default"
    #: created in ``__post_init__`` when not supplied
    handle: Optional[RequestHandle] = field(repr=False, default=None)
    #: trace id minted at ``submit()`` when the server carries a
    #: :class:`~repro.obs.Tracer`; ``None`` when tracing is off
    trace_id: Optional[str] = None
    #: the request's open root :class:`~repro.obs.Span` (server-owned;
    #: closed exactly once on the resolution path that wins the handle)
    span: Optional[object] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.handle is None:
            self.handle = RequestHandle(self.request_id)
        if not self.roots:
            raise ServingError("request needs at least one root")

    def expired(self, now: float) -> bool:
        return self.deadline_t is not None and now >= self.deadline_t
