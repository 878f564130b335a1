"""Multi-model serving: one router, many named model servers.

A deployment rarely serves a single model; the :class:`Router` keys
independent :class:`~repro.serve.ModelServer` instances by name and fans
``submit`` calls out to the right one.  Each server keeps its own
scheduler, arena and metrics — models never share workspace — so the
router is thin by design: registration, dispatch, lifecycle, health
tracking, and an aggregated metrics view.

Registration accepts a :class:`~repro.api.CortexModel` — freshly
compiled or reloaded from an artifact — or a ready server, and
:meth:`Router.deploy` compiles by spec + options
through the router's :class:`~repro.pipeline.Session`, so registering
the same configuration twice (blue/green rollouts, per-tenant aliases)
never recompiles.

Graceful degradation: every registered model gets a
:class:`CircuitBreaker` (disable with ``breaker=False``).  The breaker
watches executed requests' outcomes through the server's observer hook
and walks the classic health states — ``CLOSED`` (healthy) → ``OPEN``
after a run of failures (submits shed immediately with
:class:`~repro.errors.CircuitOpenError` instead of queueing onto a
broken model and cascading into queue timeouts) → ``HALF_OPEN`` after a
cool-down (a bounded number of probe requests are let through) → back
to ``CLOSED`` once the probes succeed.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import time
from typing import (TYPE_CHECKING, Dict, Iterator, Optional, Sequence,
                    Union)

from ..errors import CircuitOpenError, ServingError
from ..linearizer import Node
from ..obs import Clock, MetricsRegistry, Tracer
from .request import RequestHandle
from .server import ModelServer


class BreakerState(enum.Enum):
    """Health of one model behind the router."""

    CLOSED = "closed"          # healthy: all traffic flows
    OPEN = "open"              # shedding: submits fail fast
    HALF_OPEN = "half_open"    # probing: limited traffic readmitted


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open recovery.

    ``failure_threshold`` consecutive executed-request failures trip the
    breaker ``OPEN``; for ``reset_timeout_s`` every :meth:`allow` is
    refused (the router sheds with
    :class:`~repro.errors.CircuitOpenError`).  After the cool-down the
    breaker turns ``HALF_OPEN`` and admits up to ``half_open_probes``
    in-flight probe requests: that many successes close it (counters
    reset), while any probe failure re-opens it for a fresh cool-down.

    Thread-safe; ``clock`` is injectable for tests — any
    :class:`~repro.obs.Clock` (defaults to ``time.monotonic``), so one
    :class:`~repro.obs.FakeClock` can drive breaker cool-downs and span
    timestamps from a single timeline.
    """

    def __init__(self, *, failure_threshold: int = 5,
                 reset_timeout_s: float = 1.0,
                 half_open_probes: int = 2,
                 clock: Clock = time.monotonic):
        if failure_threshold < 1:
            raise ServingError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ServingError("reset_timeout_s must be >= 0")
        if half_open_probes < 1:
            raise ServingError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_t = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.opened_count = 0        # times the breaker tripped OPEN
        self.shed_count = 0          # submits refused while OPEN
        #: observability bindings (optional; see bind_metrics/bind_tracer)
        self._m_opened = None
        self._m_shed = None
        self._m_state = None
        self._tracer: Optional[Tracer] = None
        self._tracer_tags: Dict[str, object] = {}

    # -- observability bindings --------------------------------------------
    def bind_metrics(self, registry: MetricsRegistry,
                     model: str = "default") -> "CircuitBreaker":
        """Report trips, sheds and state into a shared metrics registry.

        Registers ``breaker_opened_total`` / ``breaker_shed_total``
        counters and a ``breaker_state`` gauge (0 closed, 1 half-open,
        2 open), all labeled by ``model`` so every breaker behind one
        router lands in the same families.  The router binds each
        breaker into its server's registry automatically.
        """
        self._m_opened = registry.counter(
            "breaker_opened_total", "times the circuit tripped OPEN",
            ["model"]).labels(model=model)
        self._m_shed = registry.counter(
            "breaker_shed_total", "submits refused while OPEN",
            ["model"]).labels(model=model)
        self._m_state = registry.gauge(
            "breaker_state", "0 closed / 1 half-open / 2 open",
            ["model"]).labels(model=model)
        return self

    def bind_tracer(self, tracer: Tracer, **tags: object) -> "CircuitBreaker":
        """Emit ``breaker_open`` / ``breaker_closed`` instant events.

        Trips happen before any request exists (a shed submit never
        queues), so they surface as standalone tracer instants rather
        than request spans; ``tags`` (e.g. ``model="treelstm"``) ride on
        every event.
        """
        self._tracer = tracer
        self._tracer_tags = dict(tags)
        return self

    def _set_state(self, state: BreakerState) -> None:
        """Transition + mirror to gauge/tracer (call under ``_lock``)."""
        prev = self._state
        self._state = state
        if self._m_state is not None:
            self._m_state.set({BreakerState.CLOSED: 0,
                               BreakerState.HALF_OPEN: 1,
                               BreakerState.OPEN: 2}[state])
        if self._tracer is not None and prev is not state:
            if state is BreakerState.OPEN:
                self._tracer.instant("breaker_open", **self._tracer_tags)
            elif state is BreakerState.CLOSED:
                self._tracer.instant("breaker_closed", **self._tracer_tags)

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (self._state is BreakerState.OPEN
                and self._clock() - self._opened_t >= self.reset_timeout_s):
            self._set_state(BreakerState.HALF_OPEN)
            self._probes_in_flight = 0
            self._probe_successes = 0

    def allow(self) -> bool:
        """May a new request pass?  (Counts a HALF_OPEN probe slot.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN:
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    return True
                return False
            self.shed_count += 1
            if self._m_shed is not None:
                self._m_shed.inc()
            return False

    def retry_after_s(self) -> Optional[float]:
        """Remaining cool-down when OPEN; ``None`` otherwise."""
        with self._lock:
            if self._state is not BreakerState.OPEN:
                return None
            return max(0.0, self.reset_timeout_s
                       - (self._clock() - self._opened_t))

    def record(self, ok: bool) -> None:
        """Feed one executed request's outcome into the health state."""
        with self._lock:
            if ok:
                if self._state is BreakerState.HALF_OPEN:
                    self._probe_successes += 1
                    if self._probe_successes >= self.half_open_probes:
                        self._set_state(BreakerState.CLOSED)
                        self._consecutive_failures = 0
                elif self._state is BreakerState.CLOSED:
                    self._consecutive_failures = 0
                return
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (self._state is BreakerState.CLOSED
                    and self._consecutive_failures
                    >= self.failure_threshold):
                self._trip()

    def _trip(self) -> None:
        self._set_state(BreakerState.OPEN)
        self._opened_t = self._clock()
        self._consecutive_failures = 0
        self.opened_count += 1
        if self._m_opened is not None:
            self._m_opened.inc()

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state.value,
                "consecutive_failures": self._consecutive_failures,
                "opened_count": self.opened_count,
                "shed_count": self.shed_count,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_s": self.reset_timeout_s,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker({self.state.value})"


def _private_arena_view(model: "CortexModel") -> "CortexModel":
    """A shallow view of ``model`` with its own workspace arena.

    Compilation state (program, kernels, host plan, params) is shared;
    the arena and lease bookkeeping are fresh, because arenas are
    single-threaded and each server flushes independently.
    """
    from ..runtime.memory import WorkspaceArena

    # __post_init__ re-runs and resets the lease state
    return dataclasses.replace(model, arena=WorkspaceArena())


if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import CortexModel
    from ..models.registry import ModelSpec
    from ..options import CompileOptions
    from ..pipeline import Session


class Router:
    """Name-keyed dispatch over independent model servers.

    ``session`` (optional) is the compile cache :meth:`deploy` uses; pass
    a shared :class:`~repro.pipeline.Session` to pool compiles across
    routers, benchmarks and tuners.
    """

    def __init__(self, session: Optional["Session"] = None) -> None:
        self._servers: Dict[str, ModelServer] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._session = session

    @property
    def session(self) -> "Session":
        """The router's compile cache (created lazily)."""
        if self._session is None:
            from ..pipeline import Session

            self._session = Session()
        return self._session

    # -- registration ------------------------------------------------------
    def add_model(self, name: str,
                  model: Union["CortexModel", ModelServer], *,
                  breaker: Union[CircuitBreaker, bool, None] = True,
                  **server_kw) -> ModelServer:
        """Register a model (wrapped in a new server) or a ready server.

        Registering the *same model object* under a second name (the
        natural outcome of :class:`~repro.pipeline.Session` cache hits)
        wraps it in a private-arena view first — two servers must never
        flush through one workspace arena.  Ready ``ModelServer``
        instances are taken as-is; sharing a model across hand-built
        servers is the caller's responsibility.

        ``breaker`` configures the model's circuit breaker: ``True``
        (default) installs a :class:`CircuitBreaker` with default
        thresholds, a :class:`CircuitBreaker` instance is used as-is,
        and ``False`` / ``None`` disables breaking for this model.
        """
        if name in self._servers:
            raise KeyError(f"model {name!r} already registered")
        if isinstance(model, ModelServer):
            if server_kw:
                raise TypeError("server_kw only applies when registering a "
                                "model, not a ready ModelServer")
            server = model
        else:
            if any(s.model is model for s in self._servers.values()):
                model = _private_arena_view(model)
            server = ModelServer(model, **server_kw)
        if breaker is True:
            breaker = CircuitBreaker()
        if isinstance(breaker, CircuitBreaker):
            self._breakers[name] = breaker
            breaker.bind_metrics(server.metrics.registry, model=name)
            if server.tracer is not None:
                breaker.bind_tracer(server.tracer, model=name)
            server.add_observer(
                lambda req, exc, _b=breaker: _b.record(exc is None))
        self._servers[name] = server
        return server

    def deploy(self, name: str, model: Union[str, "ModelSpec"],
               options: Optional["CompileOptions"] = None, *,
               hidden: Optional[int] = None, vocab: int = 1000,
               build_kw: Optional[dict] = None,
               **server_kw) -> ModelServer:
        """Compile (through the router's session cache) and register.

        ``model`` is a registry name, a spec, or a user-authored
        :class:`~repro.authoring.ModelDef` (resolved to its derived spec
        by the session) — custom models deploy exactly like zoo models;
        ``options`` a
        :class:`~repro.options.CompileOptions` (default: the paper
        headline schedule).  Equal ``(spec, options)`` deployments under
        different names share one *compilation* — program, generated
        kernels, host plan — so multi-alias serving costs one compile;
        each deployment still gets its own workspace arena (arenas are
        single-threaded, and servers flush independently).
        """
        compiled = self.session.compile(model, options, hidden=hidden,
                                        vocab=vocab, **(build_kw or {}))
        return self.add_model(name, _private_arena_view(compiled),
                              **server_kw)

    def add_pool(self, name: str, pool, **pool_kw):
        """Register a :class:`~repro.serve.pool.WorkerPool` (or build one).

        ``pool`` is either a ready pool or a model handle, in which case
        a pool named ``name`` is built over it with ``pool_kw``
        (``replicas=4``, ``balancer=...``, ``policy=...``, ...).
        Pools dispatch through the same :meth:`submit` / :meth:`flush` /
        lifecycle surface as single servers; per-replica circuit
        breaking lives *inside* the pool, so the router adds no breaker
        of its own.
        """
        from .pool import WorkerPool

        if name in self._servers:
            raise KeyError(f"model {name!r} already registered")
        if not isinstance(pool, WorkerPool):
            pool = WorkerPool(pool, name=name, **pool_kw)
        elif pool_kw:
            raise TypeError("pool_kw only applies when registering a "
                            "model, not a ready WorkerPool")
        self._servers[name] = pool
        return pool

    def deploy_pool(self, name: str, model: Union[str, "ModelSpec"],
                    options: Optional["CompileOptions"] = None, *,
                    replicas: int = 2, hidden: Optional[int] = None,
                    vocab: int = 1000, build_kw: Optional[dict] = None,
                    **pool_kw):
        """Compile (through the router's session cache) and pool-register.

        The pool analogue of :meth:`deploy`: one compilation, N
        private-arena replicas behind load balancing.
        """
        compiled = self.session.compile(model, options, hidden=hidden,
                                        vocab=vocab, **(build_kw or {}))
        return self.add_pool(name, compiled, replicas=replicas, **pool_kw)

    def remove_model(self, name: str) -> None:
        """Unregister a model, serving whatever is still queued first.

        ``stop()`` drains a threaded server on its way down but is a
        no-op for one that was never started; the explicit ``drain()``
        covers the synchronous case so no submitted handle is abandoned.
        """
        server = self.server(name)
        server.stop()
        server.drain()
        del self._servers[name]
        self._breakers.pop(name, None)

    def server(self, name: str) -> ModelServer:
        try:
            return self._servers[name]
        except KeyError:
            raise KeyError(f"unknown model {name!r}; "
                           f"serving: {sorted(self._servers)}")

    def __getitem__(self, name: str) -> ModelServer:
        return self.server(name)

    def __contains__(self, name: str) -> bool:
        return name in self._servers

    def __iter__(self) -> Iterator[str]:
        return iter(self._servers)

    @property
    def names(self) -> Sequence[str]:
        return sorted(self._servers)

    # -- health ------------------------------------------------------------
    def breaker(self, name: str) -> Optional[CircuitBreaker]:
        """The model's circuit breaker (``None`` when disabled)."""
        self.server(name)  # raise the uniform KeyError for unknown names
        return self._breakers.get(name)

    def health(self) -> Dict[str, str]:
        """Per-model health state (models without a breaker are closed)."""
        return {name: (self._breakers[name].state.value
                       if name in self._breakers
                       else BreakerState.CLOSED.value)
                for name in self._servers}

    # -- dispatch ----------------------------------------------------------
    def submit(self, name: str, roots: Union[Node, Sequence[Node]],
               **submit_kw) -> RequestHandle:
        """Dispatch to the named model, shedding fast when it is broken.

        With the model's breaker ``OPEN``, raises
        :class:`~repro.errors.CircuitOpenError` immediately — the
        request never queues, so a persistently failing model degrades
        into fast typed rejections instead of queue-timeout cascades.
        ``submit_kw`` (``timeout_s``, ``priority``) forwards to
        :meth:`ModelServer.submit`.
        """
        server = self.server(name)
        breaker = self._breakers.get(name)
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"model {name!r} circuit is {breaker.state.value}; "
                f"shedding until the model proves healthy",
                retry_after_s=breaker.retry_after_s())
        return server.submit(roots, **submit_kw)

    def flush(self, name: Optional[str] = None) -> int:
        """Flush one model's queue, or every model's when ``name`` is None."""
        if name is not None:
            return self.server(name).flush()
        return sum(s.flush() for s in self._servers.values())

    def drain(self, name: Optional[str] = None) -> int:
        if name is not None:
            return self.server(name).drain()
        return sum(s.drain() for s in self._servers.values())

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Router":
        for server in self._servers.values():
            if not server.running:
                server.start()
        return self

    def stop(self) -> None:
        for server in self._servers.values():
            server.stop()

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- observability -----------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, dict]:
        """Per-model metrics (breaker health included), keyed like
        :meth:`submit`."""
        out: Dict[str, dict] = {}
        for name, server in self._servers.items():
            snap = server.metrics_snapshot()
            if name in self._breakers:
                snap["breaker"] = self._breakers[name].snapshot()
            out[name] = snap
        return out
