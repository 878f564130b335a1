"""Exception hierarchy for the Cortex reproduction.

Every error raised by this package derives from :class:`CortexError` so
applications can catch compiler problems without catching unrelated bugs.

The serving subsystem additionally classifies failures for its retry and
degradation machinery:

* ``retryable`` — a class-level flag on every :class:`CortexError`;
  ``True`` only for failures that a plain re-execution can plausibly fix
  (:class:`TransientExecutionError`).  The server's bounded-retry loop
  consults it through :func:`is_retryable`, so a malformed request is
  never pointlessly re-executed while a transient kernel fault is.
* client-caused request outcomes get precise types —
  :class:`RequestTimeoutError` / :class:`DeadlineExceededError` /
  :class:`RequestCancelledError` — distinct from server-side overload
  (:class:`QueueFullError`, :class:`LoadShedError`) and from degraded
  upstream health (:class:`CircuitOpenError`), because callers react
  differently to each (give up, back off, or fail over).
"""

from __future__ import annotations

from typing import Optional


class CortexError(Exception):
    """Base class for all errors raised by this package."""

    #: may a plain re-execution of the failed work plausibly succeed?
    #: Consulted by the serving retry loop via :func:`is_retryable`.
    retryable: bool = False


class IRError(CortexError):
    """Malformed IR: bad operands, dtype mismatches, unknown operators."""


class TypeMismatchError(IRError):
    """An expression combined operands of incompatible dtypes."""


class ScheduleError(CortexError):
    """An illegal scheduling directive (e.g. unrolling a DAG model)."""


class LoweringError(CortexError):
    """RA -> ILIR lowering failed (unsupported construct, missing info)."""


class BoundsError(CortexError):
    """Bounds inference failed or an access was proven out of bounds."""


class CodegenError(CortexError):
    """Code generation encountered an unsupported construct."""


class NativeError(CodegenError):
    """The native (C -> ``.so``) backend failed or refused a launch.

    Raised for toolchain problems (no compiler, compilation failure,
    missing symbols) and — critically — for launch-time marshalling
    violations: a buffer whose dtype does not match the kernel's compiled
    ABI, or a non-C-contiguous array that a zero-copy pointer pass would
    silently reinterpret as dense memory.  Subclasses
    :class:`CodegenError` so existing "codegen problem" handling covers
    the native layer too.
    """


class NativeFallbackWarning(UserWarning):
    """``target="c"`` fell back to the Python target.

    Emitted (never raised) when native-backend construction cannot
    proceed — typically no C compiler on the host, or ``REPRO_NO_CC=1``.
    The model still compiles and runs, through the Python kernels.
    """


class LinearizationError(CortexError):
    """The data structure linearizer rejected an input structure."""


class ExecutionError(CortexError):
    """Runtime failure while executing a compiled module."""


class TransientExecutionError(ExecutionError):
    """An execution failure that re-running the same work may fix.

    The classification the serving retry loop keys on: spurious kernel
    faults, allocation pressure, injected chaos faults.  Deterministic
    failures (shape mismatches, malformed structures) must **not** use
    this type — retrying them wastes the whole batch's time.
    """

    retryable = True


class DeviceError(CortexError):
    """Unknown device or invalid device parameter."""


class ServingError(CortexError):
    """Invalid use of the serving subsystem (bad policy, stopped server)."""


class QueueFullError(ServingError):
    """Admission control rejected a request: the scheduler queue is full."""


class LoadShedError(QueueFullError):
    """An admitted request was evicted for higher-priority work.

    Subclasses :class:`QueueFullError` so existing overload handling
    (back off and retry) keeps working unchanged.
    """


class InvalidRequestError(ServingError):
    """Admission-time structural validation rejected a request."""


class RequestTimeoutError(ServingError, TimeoutError):
    """A request (or a wait on its handle) exceeded its time budget.

    Also derives from :class:`TimeoutError` so callers written against
    the previous bare-``TimeoutError`` behaviour of
    ``RequestHandle.result(timeout=)`` keep working.
    """


class DeadlineExceededError(RequestTimeoutError):
    """A request's deadline expired before (or while) it was served.

    Raised through the request's handle; deadline-expired requests are
    never executed and never co-batched with live ones.
    """


class RequestCancelledError(ServingError):
    """The request was cancelled via ``RequestHandle.cancel()``."""


class MemoError(CortexError):
    """Invalid use of the subtree-memoization layer (:mod:`repro.memo`)."""


class SpliceRefusedError(MemoError):
    """This model/configuration cannot safely splice cached rows.

    Raised eagerly — at :class:`~repro.memo.MemoSplicer` construction —
    when the safety verdict lowering recorded says seeding cached state
    rows may not reproduce unmemoized execution bitwise (e.g. kernels that
    inspect descendants beyond direct child state, schedules without
    dynamic batching), or when an older artifact carries no verdict.  The memoization
    invariant is absolute: refuse rather than risk a non-identical splice.
    """


class MemoVerifyError(MemoError):
    """A verify-mode memoized flush did not match unmemoized execution.

    Never retryable: a mismatch means a poisoned cache entry or a broken
    splice-safety assumption, and re-executing the same splice would
    silently return the same wrong rows.
    """


class CircuitOpenError(ServingError):
    """A model's circuit breaker is open: requests are shed immediately.

    Raised by :meth:`repro.serve.Router.submit` instead of queueing work
    on a model that is persistently failing or saturated.  ``retry_after_s``
    (when known) is the breaker's remaining cool-down.
    """

    def __init__(self, message: str,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


def is_retryable(exc: BaseException) -> bool:
    """Is this failure worth re-executing (bounded, with backoff)?

    ``True`` exactly for :class:`CortexError` subclasses that declare
    ``retryable = True``; foreign exceptions (bugs, keyboard interrupts)
    are never retried.
    """
    return bool(getattr(exc, "retryable", False))
