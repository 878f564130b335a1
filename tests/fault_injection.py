"""Deterministic, seeded fault injection for the chaos tests.

A :class:`FaultInjector` wraps a compiled model the way
:meth:`~repro.runtime.profiler.KernelProfiler.wrap` wraps launch records:
``injector.wrap(model)`` returns a view of ``model`` whose host-plan
launch records and workspace arena ``lease`` go through the injector.
Nothing in ``repro`` knows it is there.  Three failure modes, each drawn
at most once per execution from one seeded generator:

* **arena allocation failures** — raised by the view's arena ``lease``,
  before the workspace exists, where memory pressure would surface;
* **slow flushes** — a sleep in the execution's first launch;
* **kernel exceptions** — raised by the execution's first launch, after
  the workspace was leased, where a faulting kernel would fail.

Every injected fault is a persistent :class:`~repro.errors.ExecutionError`
tagged ``injected = True``.  The server does not retry: a request a fault
hits fails typed, unless bisection re-runs it in a sub-batch whose
execution the generator spares.  Draws happen only for executions that
lease from the view's arena (every server flush does); ``run()`` without
``reuse`` and memo verification re-runs never see a fault.

Determinism is the point: the same seed, request stream and
configuration inject the identical fault sequence, so a chaos failure
replays exactly.
"""

import copy
import dataclasses
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.memory import WorkspaceArena

#: the host plan's launch-record lists
_PHASES = ("pre", "leaf", "level", "fused", "post")


class FaultInjector:
    """Seeded chaos: inject execution faults at configurable rates.

    Args:
        seed: seed for the injector's private RNG; equal seeds replay
            the identical fault sequence.
        kernel_failure_rate: probability per execution that its first
            launch raises.
        arena_failure_rate: probability per execution that the workspace
            lease fails.
        slow_flush_rate: probability per execution of a slow flush.
        slow_flush_s: how long a slow flush sleeps.
        max_injections: stop injecting failures after this many (slow
            flushes excluded); ``None`` = unbounded.  Lets a test inject
            a burst of faults and then provably recover.
    """

    def __init__(self, seed: int = 0, *,
                 kernel_failure_rate: float = 0.0,
                 arena_failure_rate: float = 0.0,
                 slow_flush_rate: float = 0.0,
                 slow_flush_s: float = 0.002,
                 max_injections: Optional[int] = None):
        for name, rate in (("kernel_failure_rate", kernel_failure_rate),
                           ("arena_failure_rate", arena_failure_rate),
                           ("slow_flush_rate", slow_flush_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.kernel_failure_rate = kernel_failure_rate
        self.arena_failure_rate = arena_failure_rate
        self.slow_flush_rate = slow_flush_rate
        self.slow_flush_s = slow_flush_s
        self.max_injections = max_injections
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Rewind the fault sequence."""
        with self._lock:
            self._rng = np.random.default_rng(self.seed)
            #: True from a lease until its execution's first launch draws
            self._armed = False
            self.executions = 0
            self.kernel_failures = 0
            self.arena_failures = 0
            self.slow_flushes = 0

    # -- wrapping ------------------------------------------------------------
    def wrap(self, model):
        """A view of ``model`` that injects this injector's faults.

        The view has its own copy of the host plan, every launch record
        wrapped, and its own workspace arena, ``lease`` wrapped; program,
        kernels and parameters are shared, and ``model`` is untouched.
        """
        plan = copy.copy(model.plan)
        for phase in _PHASES:
            setattr(plan, phase, [(name, self._launch(fn))
                                  for name, fn in getattr(plan, phase)])
        arena = WorkspaceArena()
        arena.lease = self._lease(arena.lease)
        return dataclasses.replace(model, plan=plan, arena=arena)

    def _draw(self, rate: float, failure: bool = True) -> bool:
        """One Bernoulli draw (call under ``_lock``); failure draws stop
        once ``max_injections`` failures were injected."""
        if failure and self.max_injections is not None and (
                self.kernel_failures + self.arena_failures
                >= self.max_injections):
            return False
        return rate > 0.0 and self._rng.random() < rate

    def _lease(self, lease: Callable) -> Callable:
        def faulty_lease(*args):
            with self._lock:
                self.executions += 1
                failed = self._draw(self.arena_failure_rate)
                self.arena_failures += failed
                self._armed = not failed
            if failed:
                self._raise("workspace arena allocation failed")
            return lease(*args)
        return faulty_lease

    def _launch(self, fn: Callable) -> Callable:
        def faulty_launch(*args):
            with self._lock:
                first, self._armed = self._armed, False
                slow = first and self._draw(self.slow_flush_rate,
                                            failure=False)
                failed = first and self._draw(self.kernel_failure_rate)
                self.slow_flushes += slow
                self.kernel_failures += failed
            if slow:
                time.sleep(self.slow_flush_s)
            if failed:
                self._raise("kernel launch failed")
            return fn(*args)
        return faulty_launch

    @staticmethod
    def _raise(message: str) -> None:
        exc = ExecutionError(f"injected fault: {message}")
        exc.injected = True
        raise exc

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "executions": self.executions,
                "kernel_failures": self.kernel_failures,
                "arena_failures": self.arena_failures,
                "slow_flushes": self.slow_flushes,
            }


def inject_replicas(pool, make: Callable[[int], FaultInjector]
                    ) -> List[FaultInjector]:
    """Give replica ``i`` of a not-yet-started pool the injector
    ``make(i)`` (independent chaos schedules); returns the injectors.

    A replacement replica built later by ``replace_replica`` is healthy.
    """
    injectors = []
    for rep in pool.replicas:
        inj = make(rep.index)
        rep.server.model = inj.wrap(rep.server.model)
        injectors.append(inj)
    return injectors
