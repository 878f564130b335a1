"""Replica pools, the asyncio bridge, and the threaded flush loop.

Three layers of the scale-out serving PR under one suite:

* :class:`~repro.serve.pool.WorkerPool` — private-arena replicas behind
  pluggable load balancing, per-replica breakers, failover submit,
  crash + replacement, aggregated metrics that preserve the pinned
  single-server snapshot keys;
* :class:`~repro.serve.aio.AsyncRequestHandle` — lifecycle parity
  (deadline, cancel, typed failure) between ``await`` and the thread API;
* the one worker thread — stop/start/close ordering, and claim time as
  the single arbitration point for a cancel racing a taken batch.

The cross-cutting invariant everywhere: whatever the replica count,
balancer or fault schedule, every completed request's outputs are
bitwise identical to a single-replica synchronous server.
"""

import asyncio
import os
import threading

import numpy as np
import pytest

from repro import api
from repro.data import synthetic_treebank
from repro.errors import (CircuitOpenError, DeadlineExceededError,
                          QueueFullError, RequestCancelledError,
                          RequestTimeoutError, ServingError)
from repro.obs import FakeClock, Tracer
from repro.serve import (AsyncRequestHandle, CircuitBreaker, Deadline,
                         LeastLoaded, LoadBalancer, MaxPendingRequests,
                         ModelServer, RoundRobin, Router, Scheduler,
                         SloAware, WorkerPool)
from repro.serve.request import Request, RequestHandle

from fault_injection import FaultInjector

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
VOCAB = 120
OUT = "rnn_h_ph"


@pytest.fixture(scope="module")
def model():
    return api.compile("treelstm", hidden=8, vocab=VOCAB)


def _requests(n, rng, batch=1):
    return [synthetic_treebank(batch, vocab_size=VOCAB, rng=rng)
            for _ in range(n)]


def _solo_rows(model, roots):
    run = model.run(roots)
    ids = [run.lin.node_id(r) for r in roots]
    return run.workspace[OUT][ids]


# ---------------------------------------------------------------------------
# handle done-callbacks (the asyncio bridge's primitive)


def test_done_callback_fires_once_on_result():
    h = RequestHandle(1)
    seen = []
    h.add_done_callback(lambda hh: seen.append(hh.request_id))
    assert not seen
    assert h.set_result("r")
    assert seen == [1]
    assert not h.set_result("again")  # first-wins
    assert seen == [1]


def test_done_callback_after_resolution_fires_immediately():
    h = RequestHandle(2)
    h.set_exception(ServingError("boom"))
    seen = []
    h.add_done_callback(lambda hh: seen.append(type(hh.exception(0))))
    assert seen == [ServingError]


def test_done_callback_fires_on_cancel_and_swallows_errors():
    h = RequestHandle(3)
    seen = []
    h.add_done_callback(lambda hh: 1 / 0)  # must not break resolution
    h.add_done_callback(lambda hh: seen.append(hh.cancelled))
    assert h.cancel()
    assert seen == [True]


# ---------------------------------------------------------------------------
# scheduler: tenants and fair share


def _req(rid, tenant, nodes=1):
    from repro.linearizer import leaf

    return Request(request_id=rid, roots=[leaf(0)], num_nodes=nodes,
                   submit_t=0.0, tenant=tenant)


def test_scheduler_tenant_depths_track_offer_take():
    s = Scheduler(MaxPendingRequests(100))
    for i in range(3):
        s.offer(_req(i, "a"))
    s.offer(_req(3, "b"))
    assert s.tenant_depths() == {"a": 3, "b": 1}
    assert s.tenant_admitted() == {"a": 3, "b": 1}
    s.take()
    assert s.tenant_depths() == {}
    assert s.tenant_admitted() == {"a": 3, "b": 1}  # lifetime counts stay


def test_fair_share_interleaves_tenants_preserving_fifo():
    s = Scheduler(MaxPendingRequests(4), fair_share=True)
    # tenant a floods first, then b and c arrive
    order = [(1, "a"), (2, "a"), (3, "a"), (4, "b"), (5, "b"), (6, "c")]
    for rid, t in order:
        s.offer(_req(rid, t))
    taken = s.take()  # capped at 4 by the policy
    assert [r.request_id for r in taken] == [1, 4, 6, 2]
    # per-tenant FIFO held: a's 1 before 2, b's 4 first, c's 6
    rest = s.take()
    assert sorted(r.request_id for r in rest) == [3, 5]


def test_fair_share_single_tenant_is_plain_fifo():
    s = Scheduler(MaxPendingRequests(10), fair_share=True)
    for i in range(4):
        s.offer(_req(i, "only"))
    assert [r.request_id for r in s.take()] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# load balancers


def _fake_replicas(depths):
    class _Sched:
        def __init__(self, n):
            self._n = n

        def __len__(self):
            return self._n

    class _Srv:
        def __init__(self, n):
            self.scheduler = _Sched(n)

    from repro.serve.pool import Replica

    return [Replica(index=i, name=f"r{i}", server=_Srv(d), breaker=None)
            for i, d in enumerate(depths)]


def test_round_robin_rotates_start():
    reps = _fake_replicas([0, 0, 0])
    rr = RoundRobin()
    starts = [rr.order(reps)[0].index for _ in range(6)]
    assert starts == [0, 1, 2, 0, 1, 2]


def test_least_loaded_prefers_short_queues():
    reps = _fake_replicas([5, 1, 3])
    assert [r.index for r in LeastLoaded().order(reps)] == [1, 2, 0]


def test_slo_aware_refuses_when_all_over_bound(model):
    reps = _fake_replicas([4, 9])
    slo = SloAware(max_queue_depth=4)
    assert slo.order(reps) == []
    reps2 = _fake_replicas([4, 2])
    assert [r.index for r in slo.order(reps2)] == [1]
    # end to end: a pool whose only replica is over the bound sheds
    pool = WorkerPool(model, replicas=1, balancer=SloAware(1),
                      policy=MaxPendingRequests(64))
    rng = np.random.default_rng(CHAOS_SEED)
    pool.submit(_requests(1, rng)[0])  # depth now 1 == bound
    with pytest.raises(QueueFullError):
        pool.submit(_requests(1, rng)[0])
    pool.drain()
    pool.stop()


# ---------------------------------------------------------------------------
# worker pool: bitwise invariant, failover, lifecycle


def test_pool_outputs_bitwise_match_solo_across_balancers(model):
    rng = np.random.default_rng(CHAOS_SEED)
    reqs = _requests(24, rng, batch=2)
    expect = [_solo_rows(model, r) for r in reqs]
    for balancer in ("round_robin", "least_loaded"):
        pool = WorkerPool(model, replicas=3, balancer=balancer,
                          policy=MaxPendingRequests(4) | Deadline(2.0))
        with pool:
            handles = [pool.submit(r) for r in reqs]
            got = [h.result(30).root_output(OUT) for h in handles]
        for e, g in zip(expect, got):
            assert np.array_equal(e, g)


def test_pool_replicas_have_private_arenas(model):
    pool = WorkerPool(model, replicas=3)
    arenas = {id(r.server.model.arena) for r in pool.replicas}
    assert len(arenas) == 3
    assert id(model.arena) not in arenas  # the template model is untouched
    pool.stop()


def test_pool_failover_skips_open_breaker(model):
    pool = WorkerPool(model, replicas=2, balancer="round_robin",
                      policy=MaxPendingRequests(64))
    # trip replica 0's breaker by hand
    b0 = pool.replicas[0].breaker
    for _ in range(b0.failure_threshold):
        b0.record(False)
    rng = np.random.default_rng(CHAOS_SEED)
    handles = [pool.submit(r) for r in _requests(6, rng)]
    submitted = [r.server.metrics_snapshot()["submitted"]
                 for r in pool.replicas]
    assert submitted == [0, 6]
    pool.drain()
    for h in handles:
        h.result(5)
    pool.stop()


def test_pool_all_breakers_open_sheds_typed(model):
    pool = WorkerPool(model, replicas=2)
    for rep in pool.replicas:
        for _ in range(rep.breaker.failure_threshold):
            rep.breaker.record(False)
    rng = np.random.default_rng(CHAOS_SEED)
    with pytest.raises(CircuitOpenError):
        pool.submit(_requests(1, rng)[0])
    pool.stop()


class _InIndexOrder(LoadBalancer):
    def order(self, replicas):
        return list(replicas)


def test_pool_failover_queue_full_probe_returns_its_slot(model):
    """A HALF_OPEN replica whose queue refuses the probe must get the
    probe slot back, or it stays half-open forever."""
    clock = FakeClock()
    pool = WorkerPool(model, replicas=2, balancer=_InIndexOrder(),
                      max_queue=1, policy=MaxPendingRequests(100),
                      breaker=lambda: CircuitBreaker(
                          failure_threshold=1, reset_timeout_s=5.0,
                          half_open_probes=1, clock=clock))
    r0 = pool.replicas[0]
    r0.breaker.record(False)
    clock.advance(5.0)
    rng = np.random.default_rng(CHAOS_SEED)
    reqs = _requests(3, rng)
    filler = r0.server.submit(reqs[0])       # r0's queue is now full
    # r0 admits the probe, its queue refuses it: failover to r1
    landed = pool.submit(reqs[1])
    assert r0.server.metrics_snapshot()["submitted"] == 1
    assert filler.cancel()
    pool.drain()
    probe = pool.submit(reqs[2])             # the slot came back: r0 takes it
    assert r0.server.metrics_snapshot()["submitted"] == 2
    pool.drain()
    assert np.array_equal(probe.result(5).root_output(OUT),
                          _solo_rows(model, reqs[2]))
    assert landed.result(5) is not None
    assert r0.breaker.state.value == "closed"
    pool.stop()


def test_pool_stop_is_idempotent_and_rejects_submits(model):
    tracer = Tracer()
    pool = WorkerPool(model, replicas=2, tracer=tracer,
                      policy=MaxPendingRequests(2))
    pool.start()
    rng = np.random.default_rng(CHAOS_SEED)
    handles = [pool.submit(r) for r in _requests(8, rng)]
    pool.stop()
    pool.stop()  # idempotent
    # drain ordering: every handle resolved, no open request spans
    assert all(h.done() for h in handles)
    for h in handles:
        h.result(0)
    assert pool.dangling_root_spans() == []
    with pytest.raises(ServingError):
        pool.submit(_requests(1, rng)[0])
    # the replicas themselves are closed too: a stale reference cannot
    # enqueue work nothing will flush
    with pytest.raises(ServingError):
        pool.replicas[0].server.submit(_requests(1, rng)[0])


def test_pool_concurrent_stops_race_safely(model):
    pool = WorkerPool(model, replicas=2)
    pool.start()
    rng = np.random.default_rng(CHAOS_SEED)
    handles = [pool.submit(r) for r in _requests(12, rng)]
    threads = [threading.Thread(target=pool.stop) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(h.done() for h in handles)


def test_pool_replace_replica_after_crash_resolves_everything(model):
    """The CI smoke contract: forced worker crash + replacement leaves
    zero unresolved handles, and the replacement serves correctly."""
    # replica 0 gets a persistently failing injector, replica 1 is healthy
    pool = WorkerPool(model, replicas=2, balancer="round_robin",
                      policy=MaxPendingRequests(2))
    r0 = pool.replicas[0].server
    r0.model = FaultInjector(seed=CHAOS_SEED,
                             kernel_failure_rate=1.0).wrap(r0.model)
    pool.start()
    rng = np.random.default_rng(CHAOS_SEED)
    reqs = _requests(10, rng)
    handles = [pool.submit(r) for r in reqs]
    pool.drain()
    outcomes = [h.exception(10) for h in handles]
    assert all(h.done() for h in handles)
    crashed = [e for e in outcomes if e is not None]
    assert crashed, "replica 0's persistent faults must surface"
    assert pool.replicas[0].breaker.state.name in ("OPEN", "HALF_OPEN")
    # replace the crashed worker; zero unresolved handles at all times
    old_server = pool.replicas[0].server
    fresh = pool.replace_replica(0)
    assert fresh.server is not old_server
    assert old_server.closed
    with pytest.raises(ServingError):
        old_server.submit(reqs[0])
    assert pool.replaced == ["pool/r0"]
    # the fresh replica is built from the pool's healthy model
    more = [pool.submit(r) for r in _requests(6, rng)]
    pool.drain()
    assert all(h.done() for h in more)
    pool.stop()
    assert all(h.done() for h in handles + more)


def test_pool_snapshot_preserves_pinned_keys_and_pools_percentiles(model):
    from test_observability import PINNED_SNAPSHOT_KEYS

    pool = WorkerPool(model, replicas=2, policy=MaxPendingRequests(3))
    rng = np.random.default_rng(CHAOS_SEED)
    handles = [pool.submit(r) for r in _requests(9, rng)]
    pool.drain()
    for h in handles:
        h.result(5)
    snap = pool.metrics_snapshot()
    assert PINNED_SNAPSHOT_KEYS <= set(snap)
    assert snap["submitted"] == 9
    assert snap["completed"] == 9
    assert snap["replicas"] and len(snap["replicas"]) == 2
    assert sum(s["completed"] for s in snap["replicas"].values()) == 9
    # pooled percentiles are exact over the union of replica windows
    lat = []
    for rep in pool.replicas:
        lat.extend(rep.server.metrics.latency_window())
    assert len(lat) == 9
    assert snap["latency_p99_ms"] == pytest.approx(
        float(np.percentile(np.asarray(lat), 99)) * 1e3)
    assert snap["latency_p50_ms"] == pytest.approx(
        float(np.percentile(np.asarray(lat), 50)) * 1e3)
    pool.stop()


def test_pool_prometheus_has_replica_and_tenant_labels(model):
    pool = WorkerPool(model, replicas=2, name="exp",
                      policy=MaxPendingRequests(2))
    rng = np.random.default_rng(CHAOS_SEED)
    hs = [pool.submit(r, tenant="acme") for r in _requests(4, rng)]
    pool.drain()
    for h in hs:
        h.result(5)
    text = pool.metrics_prometheus()
    assert 'replica="exp/r0"' in text and 'replica="exp/r1"' in text
    assert 'pool_tenant_submitted{tenant="acme"} 4' in text
    assert 'pool_tenant_completed{tenant="acme"} 4' in text
    # each replica's own export carries the tenant-labeled families
    rep_text = pool.replicas[0].server.metrics_prometheus()
    assert "serve_tenant_requests_submitted_total" in rep_text
    pool.stop()


def test_router_add_pool_dispatch_and_lifecycle(model):
    router = Router()
    pool = router.add_pool("tree", model, replicas=2,
                           policy=MaxPendingRequests(2))
    assert router["tree"] is pool
    rng = np.random.default_rng(CHAOS_SEED)
    with router:
        reqs = _requests(4, rng)
        expect = [_solo_rows(model, r) for r in reqs]
        handles = [router.submit("tree", r) for r in reqs]
        got = [h.result(10).root_output(OUT) for h in handles]
    for e, g in zip(expect, got):
        assert np.array_equal(e, g)
    with pytest.raises(KeyError):
        router.add_pool("tree", model)


# ---------------------------------------------------------------------------
# the threaded flush loop: claim-time arbitration, stop/start/close


def test_pipeline_fallback_on_stale_prepared_batch(model):
    """A cancel landing between ``scheduler.take()`` and the claim fails
    typed; both co-taken neighbours still match their solo rows."""
    from repro.serve.router import _private_arena_view

    srv = ModelServer(_private_arena_view(model))
    rng = np.random.default_rng(CHAOS_SEED)
    reqs = _requests(3, rng)
    expect = [_solo_rows(model, r) for r in reqs]
    handles = [srv.submit(r) for r in reqs]
    taken = srv.scheduler.take()
    assert len(taken) == 3
    assert handles[1].cancel()
    srv._run_batch(taken)
    assert np.array_equal(handles[0].result(0).root_output(OUT),
                          expect[0])
    with pytest.raises(RequestCancelledError):
        handles[1].result(0)
    assert np.array_equal(handles[2].result(0).root_output(OUT),
                          expect[2])
    assert srv.metrics_snapshot()["cancelled"] == 1


def test_pipeline_stop_drains_everything(model):
    """submit -> take -> execute -> resolve survives stop(): everything
    queued drains, start() works again, close() is final."""
    srv = ModelServer(model, policy=MaxPendingRequests(4))
    srv.start()
    rng = np.random.default_rng(CHAOS_SEED)
    handles = [srv.submit(r) for r in _requests(21, rng)]
    srv.stop()
    assert all(h.done() for h in handles)
    for h in handles:
        h.result(0)
    # restartable (stop != close)
    srv.start()
    h = srv.submit(_requests(1, rng)[0])
    srv.stop()
    h.result(0)
    srv.close()
    with pytest.raises(ServingError):
        srv.submit(_requests(1, rng)[0])


# ---------------------------------------------------------------------------
# asyncio bridge: lifecycle parity with the thread API


def test_asubmit_requires_running_server(model):
    srv = ModelServer(model)

    async def go():
        await srv.asubmit(_requests(1, np.random.default_rng(0))[0])

    with pytest.raises(ServingError, match="started"):
        asyncio.run(go())


def test_asubmit_results_bitwise_match_threaded_same_seed(model):
    rng = np.random.default_rng(CHAOS_SEED)
    reqs = _requests(10, rng)
    expect = [_solo_rows(model, r) for r in reqs]

    async def go():
        srv = ModelServer(model, policy=MaxPendingRequests(4)
                          | Deadline(1.0))
        srv.start()
        try:
            handles = [await srv.asubmit(r) for r in reqs]
            assert all(isinstance(h, AsyncRequestHandle) for h in handles)
            res = await asyncio.gather(*handles)
            return [r.root_output(OUT) for r in res]
        finally:
            srv.stop()

    got = asyncio.run(go())
    for e, g in zip(expect, got):
        assert np.array_equal(e, g)


def test_asubmit_deadline_expiry_raises_typed(model):
    async def go():
        # a policy that never fires on its own: the deadline must be
        # enforced by the worker's expiry sweep, exactly like threads
        srv = ModelServer(model, policy=MaxPendingRequests(10_000))
        srv.start()
        try:
            h = await srv.asubmit(
                _requests(1, np.random.default_rng(CHAOS_SEED))[0],
                timeout_s=0.01)
            with pytest.raises(DeadlineExceededError):
                await h
            assert (await h.exception()) is not None
        finally:
            srv.stop()

    asyncio.run(go())


def test_asubmit_result_wait_timeout_leaves_request_pending(model):
    async def go():
        srv = ModelServer(model, policy=MaxPendingRequests(10_000))
        srv.start()
        try:
            h = await srv.asubmit(
                _requests(1, np.random.default_rng(CHAOS_SEED))[0])
            with pytest.raises(RequestTimeoutError):
                await h.result(timeout_s=0.02)
            assert not h.done()  # the wait expired, not the request
            srv.flush()
            res = await h.result(timeout_s=5)
            assert res.request_id == h.request_id
        finally:
            srv.stop()

    asyncio.run(go())


def test_async_cancel_race_semantics(model):
    """await handle.cancel() wins iff execution has not claimed it, and
    a winning cancel surfaces RequestCancelledError to awaiters."""
    async def go():
        srv = ModelServer(model, policy=MaxPendingRequests(10_000))
        srv.start()
        try:
            rng = np.random.default_rng(CHAOS_SEED)
            handles = [await srv.asubmit(r) for r in _requests(6, rng)]
            won = [await h.cancel() for h in handles[:3]]
            assert all(won)
            for h in handles[:3]:
                assert (await h.cancel()) is False  # already resolved
            srv.drain()
            for h in handles[:3]:
                with pytest.raises(RequestCancelledError):
                    await h
                assert h.cancelled
            for h in handles[3:]:
                res = await h
                assert res.outputs[OUT].shape[0] >= 1
                assert (await h.cancel()) is False  # resolved: too late
        finally:
            srv.stop()

    asyncio.run(go())


def test_async_retry_then_succeed_bitwise(model):
    """A failed request surfaces typed through ``await``; the caller's
    own retry (a resubmit) is served bitwise identical."""
    rng = np.random.default_rng(CHAOS_SEED)
    reqs = _requests(8, rng)
    expect = [_solo_rows(model, r) for r in reqs]

    async def go():
        # the first three executions fail, deterministically for every
        # chaos seed: a flush's [n] -> [n/2] -> [1] bisection path, so
        # exactly one request fails and every other one heals
        faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=1.0,
                               max_injections=3)
        srv = ModelServer(faults.wrap(model),
                          policy=MaxPendingRequests(4) | Deadline(1.0))
        srv.start()
        try:
            handles = [await srv.asubmit(r) for r in reqs]
            got, retried = [], 0
            for roots, h in zip(reqs, handles):
                exc = await h.exception()
                if exc is not None:
                    assert exc.injected
                    retried += 1
                    h = await srv.asubmit(roots)
                got.append((await h).root_output(OUT))
            return got, retried
        finally:
            srv.stop()

    got, retried = asyncio.run(go())
    assert retried == 1, "the injector must have failed one request"
    for e, g in zip(expect, got):
        assert np.array_equal(e, g)


def test_pool_asubmit_mixed_sync_async_callers(model):
    """Sync and async callers share one pool (and one scheduler per
    replica) without affecting each other's results."""
    rng = np.random.default_rng(CHAOS_SEED)
    reqs = _requests(12, rng)
    expect = [_solo_rows(model, r) for r in reqs]

    async def go():
        pool = WorkerPool(model, replicas=2,
                          policy=MaxPendingRequests(3) | Deadline(1.0))
        pool.start()
        try:
            sync_handles = [pool.submit(r) for r in reqs[:6]]
            async_handles = [await pool.asubmit(r) for r in reqs[6:]]
            async_res = await asyncio.gather(*async_handles)
            loop = asyncio.get_running_loop()
            sync_res = [await loop.run_in_executor(
                None, lambda h=h: h.result(30)) for h in sync_handles]
            return ([r.root_output(OUT) for r in sync_res]
                    + [r.root_output(OUT) for r in async_res])
    # stop() after gathers: all handles resolved before teardown
        finally:
            pool.stop()

    got = asyncio.run(go())
    for e, g in zip(expect, got):
        assert np.array_equal(e, g)
