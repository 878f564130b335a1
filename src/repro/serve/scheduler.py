"""Request scheduler: flush policies, FIFO queue, admission control.

The scheduler decides *when* the server coalesces its pending requests into
one mega-batch (the flush) and *how many* of them ride in it.  Policies are
pluggable and composable:

* :class:`MaxPendingRequests` — flush once N requests are queued (and cap a
  flush at N requests);
* :class:`MaxTotalNodes` — flush once the queued structures total N nodes
  (and cap a flush at the node budget), bounding workspace size;
* :class:`Deadline` — flush once the oldest request has waited D ms,
  bounding tail latency under light traffic;
* :class:`AnyOf` — flush when any constituent fires (``a | b`` sugar).

Admission control is a hard bound on queued requests: :meth:`Scheduler
.offer` refuses beyond ``max_queue``, which the server surfaces as
:class:`~repro.errors.QueueFullError` backpressure to callers.  Overload
is priority-aware: a full queue sheds its lowest-priority (latest-queued)
request to admit a strictly higher-priority arrival, so under saturation
important traffic degrades last.  Requests carrying deadlines are expired
*in the queue* by :meth:`Scheduler.expire` — an overdue request never
rides a flush.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..errors import ServingError
from .request import Request


@dataclass(frozen=True)
class QueueSnapshot:
    """What a flush policy sees: the pending queue, summarized."""

    num_requests: int
    num_nodes: int
    oldest_age_s: float


@dataclass(frozen=True)
class Admission:
    """Outcome of :meth:`Scheduler.offer`; truthy iff admitted.

    ``victim`` is the lower-priority request that was evicted to make
    room (the server resolves its handle with
    :class:`~repro.errors.LoadShedError`); ``None`` in the common case.
    """

    admitted: bool
    victim: Optional[Request] = None

    def __bool__(self) -> bool:
        return self.admitted


class FlushPolicy:
    """When to flush the queue, and how much of its FIFO prefix to take."""

    def should_flush(self, snap: QueueSnapshot) -> bool:
        raise NotImplementedError

    def take(self, requests: Sequence[Request]) -> int:
        """How many of the queued requests (FIFO prefix) one flush serves.

        Always at least 1 when the queue is non-empty: a single request
        larger than a budget must still be servable.
        """
        return len(requests)

    def __or__(self, other: "FlushPolicy") -> "AnyOf":
        return AnyOf(self, other)


class MaxPendingRequests(FlushPolicy):
    """Flush when ``limit`` requests are pending; at most ``limit`` each."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ServingError("MaxPendingRequests limit must be >= 1")
        self.limit = limit

    def should_flush(self, snap: QueueSnapshot) -> bool:
        return snap.num_requests >= self.limit

    def take(self, requests: Sequence[Request]) -> int:
        return min(len(requests), self.limit)

    def __repr__(self) -> str:
        return f"MaxPendingRequests({self.limit})"


class MaxTotalNodes(FlushPolicy):
    """Flush when pending structures total ``limit`` nodes.

    A flush takes the longest FIFO prefix within the node budget — but at
    least one request, so an oversized single request still gets served.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ServingError("MaxTotalNodes limit must be >= 1")
        self.limit = limit

    def should_flush(self, snap: QueueSnapshot) -> bool:
        return snap.num_nodes >= self.limit

    def take(self, requests: Sequence[Request]) -> int:
        total = 0
        for i, req in enumerate(requests):
            total += req.num_nodes
            if total > self.limit and i > 0:
                return i
        return len(requests)

    def __repr__(self) -> str:
        return f"MaxTotalNodes({self.limit})"


class Deadline(FlushPolicy):
    """Flush when the oldest pending request has waited ``ms`` milliseconds.

    Bounds queueing latency under light traffic, where a count-based policy
    alone would leave a lone request waiting forever.
    """

    def __init__(self, ms: float):
        if ms < 0:
            raise ServingError("Deadline must be >= 0 ms")
        self.ms = float(ms)

    def should_flush(self, snap: QueueSnapshot) -> bool:
        return snap.num_requests > 0 and snap.oldest_age_s * 1e3 >= self.ms

    def __repr__(self) -> str:
        return f"Deadline({self.ms}ms)"


class AnyOf(FlushPolicy):
    """Flush when any constituent policy fires; take the tightest cap."""

    def __init__(self, *policies: FlushPolicy):
        if not policies:
            raise ServingError("AnyOf needs at least one policy")
        self.policies = tuple(policies)

    def should_flush(self, snap: QueueSnapshot) -> bool:
        return any(p.should_flush(snap) for p in self.policies)

    def take(self, requests: Sequence[Request]) -> int:
        return min(p.take(requests) for p in self.policies)

    def __repr__(self) -> str:
        return " | ".join(map(repr, self.policies))


def default_policy() -> FlushPolicy:
    """The server default: batch up to 32 requests, wait at most 2 ms."""
    return MaxPendingRequests(32) | Deadline(2.0)


class Scheduler:
    """FIFO request queue with a flush policy and bounded admission.

    Thread-safe: the threaded server offers from caller threads while its
    worker takes flush batches.  Execution itself (the arena, the
    workspace) stays single-threaded — only the queue is shared.
    """

    def __init__(self, policy: Optional[FlushPolicy] = None,
                 max_queue: int = 1024, *,
                 clock: Optional[Callable[[], float]] = None,
                 fair_share: bool = False):
        if max_queue < 1:
            raise ServingError("max_queue must be >= 1")
        self.policy = policy if policy is not None else default_policy()
        self.max_queue = max_queue
        #: interleave flush batches round-robin across tenants (per-tenant
        #: FIFO preserved) so one chatty tenant cannot monopolize a flush
        self.fair_share = bool(fair_share)
        #: time source for deadline expiry and queue-age snapshots when
        #: the caller passes no explicit ``now`` (an :class:`~repro.obs
        #: .Clock`; the server injects its own so one FakeClock drives
        #: submit timestamps, deadlines and spans together)
        self._clock = clock if clock is not None else time.perf_counter
        self._q: Deque[Request] = deque()
        self._nodes = 0
        #: any queued request carrying a deadline?  Keeps the expiry
        #: sweep O(1) for deadline-free traffic.
        self._deadlines = 0
        #: queued requests per tenant (keys vanish at zero) and lifetime
        #: admitted counts per tenant (monotone; fair-share accounting)
        self._tenant_queued: Dict[str, int] = {}
        self._tenant_admitted: Dict[str, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._q)

    @property
    def pending_nodes(self) -> int:
        """Structure nodes across the queued requests."""
        return self._nodes

    # -- tenant accounting -------------------------------------------------
    def tenant_depths(self) -> Dict[str, int]:
        """Queued request count per tenant (only tenants with depth > 0)."""
        with self._lock:
            return dict(self._tenant_queued)

    def tenant_admitted(self) -> Dict[str, int]:
        """Lifetime admitted request count per tenant."""
        with self._lock:
            return dict(self._tenant_admitted)

    def _tenant_remove(self, request: Request) -> None:
        """Drop a departing request from the queued-depth map (lock held)."""
        left = self._tenant_queued.get(request.tenant, 0) - 1
        if left > 0:
            self._tenant_queued[request.tenant] = left
        else:
            self._tenant_queued.pop(request.tenant, None)

    # -- admission ---------------------------------------------------------
    def offer(self, request: Request) -> Admission:
        """Queue a request; falsy :class:`Admission` when control refuses.

        At a full queue a strictly higher-priority arrival evicts the
        lowest-priority (latest-queued among ties) pending request and is
        admitted in its place; the eviction is reported as ``victim`` so
        the server can resolve its handle with a typed
        :class:`~repro.errors.LoadShedError`.  Equal-priority arrivals
        are refused — shedding never reorders within a priority class.
        """
        with self._lock:
            if len(self._q) >= self.max_queue:
                victim_i = None
                for i in range(len(self._q) - 1, -1, -1):
                    cand = self._q[i]
                    if cand.priority < request.priority and (
                            victim_i is None
                            or cand.priority < self._q[victim_i].priority):
                        victim_i = i
                if victim_i is None:
                    return Admission(False)
                victim = self._q[victim_i]
                del self._q[victim_i]
                self._nodes -= victim.num_nodes
                if victim.deadline_t is not None:
                    self._deadlines -= 1
                self._tenant_remove(victim)
                self._append(request)
                return Admission(True, victim=victim)
            self._append(request)
            return Admission(True)

    def _append(self, request: Request) -> None:
        self._q.append(request)
        self._nodes += request.num_nodes
        if request.deadline_t is not None:
            self._deadlines += 1
        self._tenant_queued[request.tenant] = (
            self._tenant_queued.get(request.tenant, 0) + 1)
        self._tenant_admitted[request.tenant] = (
            self._tenant_admitted.get(request.tenant, 0) + 1)

    # -- deadline expiry ---------------------------------------------------
    def expire(self, now: Optional[float] = None) -> List[Request]:
        """Remove and return every queued request past its deadline.

        The server resolves the returned requests' handles with
        :class:`~repro.errors.DeadlineExceededError`; they never ride a
        flush.  O(1) when no queued request carries a deadline.
        """
        with self._lock:
            if not self._deadlines:
                return []
            if now is None:
                now = self._clock()
            live: Deque[Request] = deque()
            dead: List[Request] = []
            for req in self._q:
                (dead if req.expired(now) else live).append(req)
            if dead:
                self._q = live
                self._nodes -= sum(r.num_nodes for r in dead)
                self._deadlines -= sum(
                    1 for r in dead if r.deadline_t is not None)
                for req in dead:
                    self._tenant_remove(req)
            return dead

    # -- flush decisions ---------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> QueueSnapshot:
        with self._lock:
            if not self._q:
                return QueueSnapshot(0, 0, 0.0)
            if now is None:
                now = self._clock()
            return QueueSnapshot(
                num_requests=len(self._q),
                num_nodes=self._nodes,
                oldest_age_s=max(0.0, now - self._q[0].submit_t))

    def should_flush(self, now: Optional[float] = None) -> bool:
        snap = self.snapshot(now)
        return snap.num_requests > 0 and self.policy.should_flush(snap)

    def take(self) -> List[Request]:
        """Pop one flush's worth of requests (empty list when idle).

        ``take`` does not re-check :meth:`should_flush` — a forced
        ``server.flush()`` / ``drain()`` serves whatever is queued.

        With ``fair_share`` the flush is filled by interleaving tenants
        round-robin (tenants ordered by their oldest queued request,
        per-tenant FIFO preserved) instead of taking the global FIFO
        prefix, so a capped flush serves every waiting tenant instead of
        whoever flooded the queue first.  Batch composition never affects
        results — coalesced execution is bitwise identical to per-request
        execution regardless of which requests share a flush.
        """
        with self._lock:
            if not self._q:
                return []
            order = (self._fair_order() if self.fair_share
                     else tuple(self._q))
            n = max(1, min(self.policy.take(order), len(order)))
            out = list(order[:n])
            if n == len(self._q):
                self._q.clear()
            else:
                taken = {id(r) for r in out}
                self._q = deque(r for r in self._q if id(r) not in taken)
            self._nodes -= sum(r.num_nodes for r in out)
            self._deadlines -= sum(
                1 for r in out if r.deadline_t is not None)
            for req in out:
                self._tenant_remove(req)
            return out

    def _fair_order(self) -> Sequence[Request]:
        """Round-robin interleave of per-tenant FIFO queues (lock held)."""
        lanes: Dict[str, List[Request]] = {}
        for req in self._q:  # insertion order = arrival order per tenant
            lanes.setdefault(req.tenant, []).append(req)
        if len(lanes) <= 1:
            return tuple(self._q)
        order: List[Request] = []
        cursors = [(lane, 0) for lane in lanes.values()]
        while cursors:
            next_round = []
            for lane, i in cursors:
                order.append(lane[i])
                if i + 1 < len(lane):
                    next_round.append((lane, i + 1))
            cursors = next_round
        return order
