"""Asyncio bridge: awaitable request handles over the threaded server.

The serving stack's execution side is threads all the way down (arenas
are single-threaded; flush loops own them).  This module is the thin
seam that lets ``async`` callers ride the same scheduler without a
second code path: :meth:`~repro.serve.ModelServer.asubmit` performs a
normal (non-blocking) ``submit()`` and wraps the returned
:class:`~repro.serve.RequestHandle` in an :class:`AsyncRequestHandle`,
which mirrors resolution into an ``asyncio`` future via
``loop.call_soon_threadsafe`` from the handle's done-callback.

Lifecycle parity is exact, by construction: admission, deadlines,
priorities, isolation and cancellation all happen in the
threaded machinery on the *same* handle object; the bridge only changes
how a caller waits.  Typed errors carry over unchanged — an awaited
cancelled request raises :class:`~repro.errors.RequestCancelledError`
(not ``asyncio.CancelledError``: the request was cancelled, not the
coroutine), a deadline miss raises
:class:`~repro.errors.DeadlineExceededError`, and a bounded ``await
handle.result(timeout_s=...)`` raises
:class:`~repro.errors.RequestTimeoutError` like the blocking API.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..errors import RequestTimeoutError
from .request import RequestHandle, RequestResult


class AsyncRequestHandle:
    """Awaitable view of one submitted request.

    ``await handle`` yields the :class:`~repro.serve.RequestResult` (or
    raises the request's typed failure); :meth:`cancel`, :meth:`result`
    and :meth:`exception` are coroutine counterparts of the blocking
    handle's methods.  The underlying thread-side handle stays reachable
    as ``handle.sync`` for callers that need to mix styles.
    """

    def __init__(self, handle: RequestHandle,
                 loop: asyncio.AbstractEventLoop):
        self.sync = handle
        self.request_id = handle.request_id
        self._loop = loop
        self._future: asyncio.Future = loop.create_future()
        # a caller may consume the outcome through exception() / the
        # sync handle and never await the future itself; mark the
        # exception retrieved so GC never logs a spurious warning
        self._future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        # fires immediately if the handle already resolved (sync-mode
        # auto-flush during submit), else from whichever thread wins
        handle.add_done_callback(self._on_done)

    # -- thread -> loop completion ----------------------------------------
    def _on_done(self, handle: RequestHandle) -> None:
        try:
            self._loop.call_soon_threadsafe(self._complete)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _complete(self) -> None:
        if self._future.done():  # pragma: no cover - double-post guard
            return
        exc = self.sync.exception(timeout=0)
        if exc is not None:
            self._future.set_exception(exc)
        else:
            self._future.set_result(self.sync.result(timeout=0))

    # -- awaiting ----------------------------------------------------------
    def __await__(self):
        return self.result().__await__()

    async def result(self, timeout_s: Optional[float] = None
                     ) -> RequestResult:
        """Await the request's result; raise its typed failure.

        ``timeout_s`` bounds the *wait*, like the blocking
        ``handle.result(timeout=...)``: expiry raises
        :class:`~repro.errors.RequestTimeoutError` and the request
        itself stays pending (it may still complete later).
        """
        if timeout_s is None:
            return await asyncio.shield(self._future)
        try:
            return await asyncio.wait_for(
                asyncio.shield(self._future), timeout_s)
        except asyncio.TimeoutError:
            raise RequestTimeoutError(
                f"request {self.request_id} not served within "
                f"{timeout_s}s") from None

    async def exception(self, timeout_s: Optional[float] = None
                        ) -> Optional[BaseException]:
        """Await resolution; return the failure instead of raising it.

        ``asyncio.wait`` (not ``await future``) keeps a wait-timeout
        distinguishable from the request's *own* ``TimeoutError``-family
        failures (deadline expiry is one).
        """
        done, _ = await asyncio.wait([self._future], timeout=timeout_s)
        if not done:
            raise RequestTimeoutError(
                f"request {self.request_id} not served within "
                f"{timeout_s}s")
        return self.sync.exception(timeout=0)

    # -- lifecycle ---------------------------------------------------------
    async def cancel(self) -> bool:
        """Cancel if execution has not started; ``True`` when it won.

        Same race semantics as the thread API: a claim by the executor
        beats a cancel, and a winning cancel resolves the handle with
        :class:`~repro.errors.RequestCancelledError` for every waiter —
        sync and async alike.
        """
        return self.sync.cancel()

    def done(self) -> bool:
        return self.sync.done()

    @property
    def cancelled(self) -> bool:
        return self.sync.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Async{self.sync!r}"
