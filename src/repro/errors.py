"""Exception hierarchy for the Cortex reproduction.

Every error raised by this package derives from :class:`CortexError` so
applications can catch compiler problems without catching unrelated bugs.

The serving subsystem additionally gives each request outcome a precise
type, because callers react differently to each (give up, back off, or
fail over): client-caused outcomes — :class:`RequestTimeoutError` /
:class:`DeadlineExceededError` / :class:`RequestCancelledError` — are
distinct from server-side overload (:class:`QueueFullError`,
:class:`LoadShedError`) and from degraded upstream health
(:class:`CircuitOpenError`).  Which of those outcomes say something about
a *model's* health is decided once, by :func:`health_signal`.
"""

from __future__ import annotations

from typing import Optional


class CortexError(Exception):
    """Base class for all errors raised by this package."""


class IRError(CortexError):
    """Malformed IR: bad operands, dtype mismatches, unknown operators."""


class TypeMismatchError(IRError):
    """An expression combined operands of incompatible dtypes."""


class ScheduleError(CortexError):
    """An illegal scheduling directive (e.g. an unknown fusion level, or a
    simulated unrolling of a DAG model)."""


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


class ArtifactError(CortexError):
    """A saved-model directory cannot be loaded: another format, or a
    document that does not decode to a well-formed module.  The message
    says to re-save the model with ``save_model``."""


class LinearizationError(CortexError):
    """The data structure linearizer rejected an input structure."""


class ExecutionError(CortexError):
    """Runtime failure while executing a compiled module."""


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
    dynamic batching).  The memoization invariant is absolute: refuse
    rather than risk a non-identical splice.
    """


class MemoVerifyError(MemoError):
    """A verify-mode memoized flush did not match unmemoized execution.

    A mismatch means a poisoned cache entry or a broken splice-safety
    assumption; re-executing the same splice would silently return the
    same wrong rows, so the flush fails instead.
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


#: outcomes that say nothing about the model that would have served them:
#: the request's own input was refused (structure, word range, int32, size
#: cap), the caller gave up, or the server was overloaded
_NEUTRAL = (LinearizationError, InvalidRequestError, RequestCancelledError,
            DeadlineExceededError, QueueFullError)


def health_signal(exc: Optional[BaseException]) -> Optional[bool]:
    """The one failure taxonomy: what a request's outcome says about its
    model.

    ``True`` for a result (``exc is None``), ``None`` for an outcome that
    belongs to the client or to load — a refused input, a cancellation, a
    deadline expiry, load shedding — and ``False`` for every other
    exception, which counts against the model.  Circuit breakers are fed
    through this function and nothing else.
    """
    if exc is None:
        return True
    if isinstance(exc, _NEUTRAL):
        return None
    return False
