"""Chaos suite: the serving resilience invariant under injected faults.

The invariant: with a seeded test-side
:class:`~fault_injection.FaultInjector` wrapping the model the server
runs — persistent kernel exceptions, arena allocation failures and slow
flushes — **every** submitted request either succeeds with outputs
bitwise identical to a fault-free solo run, or fails with a precise
typed :class:`~repro.errors.CortexError`, and no handle is ever left
unresolved.  The server does not retry; bisection re-runs a failed
batch's halves, so a fault fails only the requests whose every execution
it hit.  Around that: the request lifecycle (deadlines, cancellation,
typed ``result(timeout=)``), O(log n) bisection isolation,
priority-aware load shedding, circuit breakers walking CLOSED -> OPEN ->
HALF_OPEN -> CLOSED under an injectable clock and fed only by outcomes
that say something about the model, and concurrent-submit backpressure.

Chaos runs are reproducible: the request stream and the injector share
``REPRO_CHAOS_SEED`` (default 0; CI runs two fixed seeds), so a failure
here replays exactly.
"""

import os
import threading

import numpy as np
import pytest

from repro import CompileOptions, api
from repro.data import (grid_dag_batch, perfect_binary_tree,
                        synthetic_treebank)
from repro.errors import (CircuitOpenError, CortexError,
                          DeadlineExceededError, ExecutionError,
                          InvalidRequestError, LinearizationError,
                          LoadShedError, QueueFullError,
                          RequestCancelledError, RequestTimeoutError,
                          ServingError, health_signal)
from repro.linearizer import branch, leaf
from repro.models.registry import MODELS
from repro.models.sequential import make_sequence
from repro.obs import FakeClock
from repro.runtime.native import native_available
from repro.serve import (BreakerState, CircuitBreaker, MaxPendingRequests,
                         ModelServer, Router, WorkerPool)
from repro.serve.request import RequestHandle

from fault_injection import FaultInjector, inject_replicas

#: one seed drives the request stream AND the fault sequence; CI's chaos
#: lane runs the suite under two fixed values of REPRO_CHAOS_SEED
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

VOCAB = 120


def _small_model(name, **options):
    args = dict(hidden=8)
    if name == "dagrnn":
        args["num_cells"] = 64
    else:
        args["vocab"] = VOCAB
    return api.compile(name, CompileOptions(**options), **args)


def _request(name, rng, batch=1):
    if name == "dagrnn":
        return grid_dag_batch(batch, 3, 3)
    if MODELS[name].kind.value == "sequence":
        return [make_sequence(list(rng.integers(0, VOCAB, 10)))
                for _ in range(batch)]
    return synthetic_treebank(batch, vocab_size=VOCAB, rng=rng)


def _assert_request_matches_solo(model, roots, result):
    """Served rows must be bitwise identical to a fault-free solo run."""
    solo = model.run(roots)
    ids = [solo.lin.node_id(r) for r in roots]
    for out in model.lowered.module.output_buffers:
        assert np.array_equal(result.root_output(out),
                              solo.workspace[out][ids]), out


# breaker cool-downs, server deadlines and tracer spans all run off the
# one injectable repro.obs.FakeClock imported above

# ---------------------------------------------------------------------------
# the tentpole invariant: bitwise-identical-or-typed-error under chaos


def test_chaos_transient_kernel_faults_bitwise_or_typed():
    """10% injected kernel faults over 200 coalesced requests, two models.

    Each fault strikes one execution.  Every request must resolve: either
    a success whose root rows equal a fault-free solo run bit for bit
    (bisection re-ran it in a sub-batch the fault spared), or a typed
    CortexError carrying the ``injected`` tag.
    """
    rng = np.random.default_rng(CHAOS_SEED)
    total_injected = 0
    for name in ("treelstm", "dagrnn"):
        m = _small_model(name)
        faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=0.10)
        srv = faults.wrap(m).server(policy=MaxPendingRequests(4))
        requests = [_request(name, rng) for _ in range(100)]
        handles = [srv.submit(r) for r in requests]
        srv.drain()
        assert all(h.done() for h in handles)          # zero unresolved
        for roots, h in zip(requests, handles):
            exc = h.exception()
            if exc is None:
                res = h.result()
                assert 1 <= res.attempts <= 3           # [4] -> [2] -> [1]
                _assert_request_matches_solo(m, roots, res)
            else:
                assert isinstance(exc, CortexError)
                assert getattr(exc, "injected", False)
        snap = srv.metrics_snapshot()
        assert snap["completed"] + snap["failed"] == 100
        assert snap["error_rate"] == snap["failed"] / 100
        # every flush starts as a batch of four: a fault means bisection
        assert (snap["isolations"] > 0) == (faults.kernel_failures > 0)
        total_injected += faults.kernel_failures
    # the run must actually have been chaotic (holds for the CI seeds)
    assert total_injected > 0


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_injected_kernel_faults_reach_a_native_host_entry():
    """On ``target="c"`` a call runs through the library's host entry,
    not the plan's launch records; the injector's view still launches its
    wrapped records, so a fault fires there as on the Python target, and
    a spared request is served bitwise."""
    m = _small_model("treelstm", target="c")
    assert m.plan.addressed
    rng = np.random.default_rng(CHAOS_SEED)
    for rate in (1.0, 0.0):
        faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=rate)
        view = faults.wrap(m)
        assert not view.plan.addressed
        roots = _request("treelstm", rng)
        srv = view.server(policy=MaxPendingRequests(1))
        handle = srv.submit(roots)
        srv.drain()
        if rate:
            assert getattr(handle.exception(), "injected", False)
        else:
            _assert_request_matches_solo(m, roots, handle.result())
        assert faults.kernel_failures == int(rate)


def test_chaos_arena_faults_healed_without_leaking_the_pool():
    """Arena allocation faults heal through bisection; the pool stays
    bounded.

    A mid-execution failure used to leak its lease out of the arena
    forever; now every failed flush puts its slab back in its class, so
    two identical faulted phases leave the same bytes parked and nothing
    out on lease (steady state, no monotonic growth or shrink).
    """
    faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=0.15,
                           arena_failure_rate=0.15)
    view = faults.wrap(_small_model("treelstm"))
    srv = view.server(policy=MaxPendingRequests(4))

    def phase():
        # replay the identical request stream AND fault sequence, so the
        # second phase's lease pattern is a rerun of the first
        rng = np.random.default_rng(CHAOS_SEED)
        faults.reset()
        handles = [srv.submit(_request("treelstm", rng)) for _ in range(40)]
        srv.drain()
        assert all(h.done() for h in handles)
        return handles

    phase()
    after_first = view.arena.snapshot()
    assert after_first["pooled_bytes"] > 0 and after_first["leased"] == 0
    phase()
    after_second = view.arena.snapshot()
    assert after_second["pooled_bytes"] == after_first["pooled_bytes"]
    assert after_second["leased"] == 0
    assert after_second["misses"] == after_first["misses"]  # all reuse
    assert faults.kernel_failures + faults.arena_failures > 0
    assert srv.metrics_snapshot()["isolations"] > 0


def test_chaos_slow_flushes_only_delay_never_corrupt():
    rng = np.random.default_rng(CHAOS_SEED)
    m = _small_model("treefc")
    faults = FaultInjector(seed=CHAOS_SEED, slow_flush_rate=1.0,
                           slow_flush_s=0.001)
    srv = faults.wrap(m).server(policy=MaxPendingRequests(4))
    requests = [_request("treefc", rng) for _ in range(8)]
    handles = [srv.submit(r) for r in requests]
    srv.drain()
    assert faults.slow_flushes == faults.executions > 0
    for roots, h in zip(requests, handles):
        _assert_request_matches_solo(m, roots, h.result())


def test_chaos_run_is_reproducible_per_seed():
    """Same seed, same stream -> identical fault sequence and outputs."""

    def run():
        rng = np.random.default_rng(CHAOS_SEED)
        m = _small_model("treernn")
        faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=0.2)
        srv = faults.wrap(m).server(policy=MaxPendingRequests(4))
        requests = [_request("treernn", rng) for _ in range(24)]
        handles = [srv.submit(r) for r in requests]
        srv.drain()
        outs = [None if h.exception() is not None
                else h.result().root_output(
                    m.lowered.module.output_buffers[0])
                for h in handles]
        return faults.snapshot(), outs

    snap_a, outs_a = run()
    snap_b, outs_b = run()
    assert snap_a == snap_b
    for a, b in zip(outs_a, outs_b):
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert np.array_equal(a, b)


def test_fault_injector_validates_rates_and_resets():
    with pytest.raises(ValueError):
        FaultInjector(kernel_failure_rate=1.5)
    with pytest.raises(ValueError):
        FaultInjector(arena_failure_rate=-0.1)
    m = _small_model("treefc")
    roots = _request("treefc", np.random.default_rng(CHAOS_SEED))
    inj = FaultInjector(seed=3, kernel_failure_rate=1.0, max_injections=1)
    view = inj.wrap(m)
    assert view.plan is not m.plan and view.arena is not m.arena
    with pytest.raises(ExecutionError):
        view.run(roots, reuse=True)
    assert view.arena.snapshot()["leased"] == 0  # the slab came back
    view.run(roots, reuse=True)              # max_injections exhausted
    m.run(roots, reuse=True)                 # the wrapped model is untouched
    inj.reset()
    with pytest.raises(ExecutionError) as ei:
        view.run(roots, reuse=True)
    # injected faults are the model's own: they count against it
    assert ei.value.injected and health_signal(ei.value) is False
    assert inj.snapshot()["executions"] == 1


# ---------------------------------------------------------------------------
# request lifecycle: deadlines, cancellation, typed waits


def test_deadline_expired_request_is_never_executed():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(100))
    rng = np.random.default_rng(CHAOS_SEED)
    live = srv.submit(_request("treefc", rng))
    dead = srv.submit(_request("treefc", rng), timeout_s=0.0)
    # the flush's expiry sweep drops the overdue request before taking:
    # it never rides the mega-batch at all
    assert srv.flush() == 1
    assert isinstance(dead.exception(), DeadlineExceededError)
    assert isinstance(dead.exception(), TimeoutError)   # catchable as stdlib
    assert live.result().batch_requests == 1
    snap = srv.metrics_snapshot()
    assert snap["expired"] == 1 and snap["completed"] == 1
    assert snap["failed"] == 0 and snap["flushes"] == 1
    with pytest.raises(ServingError):
        srv.submit(_request("treefc", rng), timeout_s=-1.0)


def test_expiry_sweeps_the_queue_without_a_flush():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(100))
    rng = np.random.default_rng(CHAOS_SEED)
    dead = srv.submit(_request("treefc", rng), timeout_s=0.0)
    # the next submit's in-queue sweep expires it; no flush has run
    srv.submit(_request("treefc", rng))
    assert dead.done()
    assert isinstance(dead.exception(), DeadlineExceededError)
    assert len(srv.scheduler) == 1           # expired request left the queue


def test_cancel_wins_only_before_the_claim():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(100))
    rng = np.random.default_rng(CHAOS_SEED)
    kept = srv.submit(_request("treefc", rng))
    gone = srv.submit(_request("treefc", rng))
    assert gone.cancel()                     # pending: cancellation wins
    assert gone.cancelled
    assert not gone.cancel()                 # idempotent, already resolved
    with pytest.raises(RequestCancelledError):
        gone.result()
    srv.drain()
    assert not kept.cancel()                 # resolved: too late to cancel
    assert kept.result().attempts == 1
    assert kept.result().batch_requests == 1   # the cancelled one never rode
    snap = srv.metrics_snapshot()
    assert snap["cancelled"] == 1
    assert (snap["completed"], snap["failed"]) == (1, 0)


def test_result_timeout_is_typed_and_leaves_request_pending():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(100))
    h = srv.submit(_request("treefc", np.random.default_rng(CHAOS_SEED)))
    with pytest.raises(RequestTimeoutError):
        h.result(timeout=0.01)
    with pytest.raises(RequestTimeoutError):
        h.exception(timeout=0.01)
    assert not h.done()                      # the wait expired, not the request
    srv.drain()
    assert h.result(timeout=1.0).batch_requests == 1


# ---------------------------------------------------------------------------
# persistent faults: no retry, bisection decides who fails


def test_persistent_fault_fails_its_request_once_without_retry():
    """Three injected faults on a flush of four: [4] fails, [2] fails,
    [1] fails — that request fails once, typed, and its three
    neighbours are served bitwise.  The failed and error_rate counters
    come from that real failure."""
    m = _small_model("treefc")
    faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=1.0,
                           max_injections=3)
    srv = faults.wrap(m).server(policy=MaxPendingRequests(100))
    rng = np.random.default_rng(CHAOS_SEED)
    requests = [_request("treefc", rng) for _ in range(4)]
    handles = [srv.submit(r) for r in requests]
    assert srv.flush() == 4
    exc = handles[0].exception()
    assert isinstance(exc, ExecutionError) and exc.injected
    for roots, h in zip(requests[1:], handles[1:]):
        _assert_request_matches_solo(m, roots, h.result())
    assert faults.kernel_failures == 3
    assert faults.executions == 5            # [4] [2] [1] [1] [2]
    snap = srv.metrics_snapshot()
    assert (snap["completed"], snap["failed"]) == (3, 1)
    assert snap["error_rate"] == 0.25
    assert snap["isolations"] == 2 and snap["retries"] == 0


# ---------------------------------------------------------------------------
# bisection isolation: one culprit costs O(log n), not O(n)


def test_bisection_isolates_single_culprit_in_log_executions():
    m = _small_model("treernn")
    srv = m.server(policy=MaxPendingRequests(100))
    rng = np.random.default_rng(CHAOS_SEED)
    good = [_request("treernn", rng) for _ in range(7)]
    # structure is refused at submit(); the poison that still reaches a
    # flush is a leaf word past the embedding table (word-range check)
    bad = [branch(branch(leaf(3), leaf(1)), leaf(VOCAB + 5))]
    handles = [srv.submit(g) for g in good[:5]]
    bad_h = srv.submit(bad)
    handles += [srv.submit(g) for g in good[5:]]
    assert srv.flush() == 8
    assert isinstance(bad_h.exception(), LinearizationError)
    for roots, h in zip(good, handles):
        _assert_request_matches_solo(m, roots, h.result())
    snap = srv.metrics_snapshot()
    # [8] fails -> [4][4] -> [2][2] -> [1][1]: exactly log2(8) splits,
    # each costing two sub-executions — the seed isolated serially at O(n)
    assert snap["isolations"] == 3
    assert snap["isolation_execs"] == 6
    assert snap["failed"] == 1 and snap["completed"] == 7


# ---------------------------------------------------------------------------
# the door: hostile structures never get past submit()


def _hostile_structures():
    """(roots, error type, message) per way a structure can break the
    model's declaration; every one is a valid *word* payload."""
    a = branch(leaf(1), leaf(2))
    cyclic = branch(a, leaf(3))
    a.children = (cyclic, leaf(2))
    shared = leaf(3)
    return {
        "cyclic": ([cyclic], LinearizationError, "contains a cycle"),
        "dag": ([branch(branch(shared, leaf(1)), shared)],
                LinearizationError, "compiled for a tree"),
        "over-arity": ([branch(leaf(1), leaf(2), leaf(4))],
                       LinearizationError, "exceeds declared max_children"),
        "oversized": ([perfect_binary_tree(3, vocab_size=VOCAB)],
                      InvalidRequestError, "max_request_nodes=8"),
    }


@pytest.mark.parametrize("door", ("sync", "threaded", "pool", "router"))
def test_hostile_structures_refused_at_every_door(door):
    """Cyclic, wrong-kind, over-arity and oversized requests raise typed
    errors on the caller's thread, before anything is queued, hashed or
    linearized — memo on, so a structure that got through would reach
    the hashing pass, which does not terminate on a cycle."""
    m = _small_model("treernn")
    kw = dict(policy=MaxPendingRequests(4), max_request_nodes=8, memo="on")
    if door == "pool":
        front = WorkerPool(m, replicas=2, **kw)
        submit, snapshot = front.submit, front.metrics_snapshot
    elif door == "router":
        front = Router()
        front.add_model("m", m, **kw)
        submit = lambda roots: front.submit("m", roots)       # noqa: E731
        snapshot = lambda: front.metrics_snapshot()["m"]      # noqa: E731
    else:
        front = m.server(**kw)
        submit, snapshot = front.submit, front.metrics_snapshot
    if door != "sync":
        front.start()
    try:
        for roots, exc_type, message in _hostile_structures().values():
            with pytest.raises(exc_type, match=message):
                submit(roots)
        snap = snapshot()
        assert snap["submitted"] == 0 and snap["queue_depth"] == 0
        good = [branch(leaf(1), branch(leaf(2), leaf(4)))]
        h = submit(good)
        front.drain()
        _assert_request_matches_solo(m, good, h.result(60))
        assert snapshot()["submitted"] == 1
    finally:
        front.stop()


# ---------------------------------------------------------------------------
# overload: priority-aware shedding on top of bounded admission


def test_priority_shedding_evicts_lowest_priority_for_higher():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(100), max_queue=3)
    rng = np.random.default_rng(CHAOS_SEED)
    low = [srv.submit(_request("treefc", rng)) for _ in range(3)]
    vip = srv.submit(_request("treefc", rng), priority=1)
    victim = low[-1]                         # latest-queued lowest priority
    assert victim.done()
    exc = victim.exception()
    assert isinstance(exc, LoadShedError)
    assert isinstance(exc, QueueFullError)   # old backoff handlers still work
    # no strictly lower-priority victim available -> plain backpressure
    # (shedding never evicts within or above the arrival's own class)
    with pytest.raises(QueueFullError):
        srv.submit(_request("treefc", rng), priority=0)
    srv.drain()
    for h in (low[0], low[1], vip):
        assert h.result().attempts == 1
    snap = srv.metrics_snapshot()
    assert snap["shed"] == 1 and snap["rejected"] == 1
    assert snap["completed"] == 3


# ---------------------------------------------------------------------------
# circuit breaker: OPEN on persistent failure, recovery through HALF_OPEN


def _failing_router(max_injections, clock):
    """A router serving one model whose first executions always fail."""
    router = Router()
    faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=1.0,
                           max_injections=max_injections)
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0,
                             half_open_probes=2, clock=clock)
    router.add_model("frontend", faults.wrap(_small_model("treefc")),
                     breaker=breaker, policy=MaxPendingRequests(1))
    return router, breaker


def test_breaker_opens_on_persistent_failure_and_recovers():
    clock = FakeClock()
    router, breaker = _failing_router(max_injections=3, clock=clock)
    rng = np.random.default_rng(CHAOS_SEED)
    # three persistent failures (executed solo) trip it
    for _ in range(3):
        h = router.submit("frontend", _request("treefc", rng))
        assert isinstance(h.exception(), CortexError)
    assert breaker.state is BreakerState.OPEN
    assert router.health() == {"frontend": "open"}
    with pytest.raises(CircuitOpenError) as ei:
        router.submit("frontend", _request("treefc", rng))
    assert 0.0 < ei.value.retry_after_s <= 10.0
    assert breaker.shed_count == 1
    # cool-down elapses -> HALF_OPEN; the injector is exhausted, so the
    # bounded probes succeed and close the circuit
    clock.advance(10.0)
    assert breaker.state is BreakerState.HALF_OPEN
    probes = [router.submit("frontend", _request("treefc", rng))
              for _ in range(2)]
    for h in probes:
        assert h.result().attempts >= 1
    assert breaker.state is BreakerState.CLOSED
    assert router.health() == {"frontend": "closed"}
    assert breaker.opened_count == 1
    snap = router.metrics_snapshot()["frontend"]["breaker"]
    assert snap["state"] == "closed" and snap["opened_count"] == 1


def test_breaker_failed_probe_reopens_then_heals():
    clock = FakeClock()
    router, breaker = _failing_router(max_injections=4, clock=clock)
    rng = np.random.default_rng(CHAOS_SEED)
    for _ in range(3):
        router.submit("frontend", _request("treefc", rng)).exception()
    assert breaker.state is BreakerState.OPEN
    clock.advance(10.0)
    # the 4th injected fault lands on the probe: straight back to OPEN
    probe = router.submit("frontend", _request("treefc", rng))
    assert isinstance(probe.exception(), CortexError)
    assert breaker.state is BreakerState.OPEN
    assert breaker.opened_count == 2
    with pytest.raises(CircuitOpenError):
        router.submit("frontend", _request("treefc", rng))
    clock.advance(10.0)                      # second cool-down; faults spent
    for _ in range(2):
        router.submit("frontend", _request("treefc", rng)).result()
    assert breaker.state is BreakerState.CLOSED


def test_breaker_half_open_bounds_inflight_probes():
    clock = FakeClock()
    router = Router()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                             half_open_probes=2, clock=clock)
    faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=1.0,
                           max_injections=1)
    # a policy that never auto-fires keeps the probes queued (in flight)
    router.add_model("frontend", faults.wrap(_small_model("treefc")),
                     breaker=breaker, policy=MaxPendingRequests(100))
    rng = np.random.default_rng(CHAOS_SEED)
    h = router.submit("frontend", _request("treefc", rng))
    router.flush("frontend")
    assert isinstance(h.exception(), CortexError)    # threshold=1 -> OPEN
    clock.advance(5.0)
    p1 = router.submit("frontend", _request("treefc", rng))
    p2 = router.submit("frontend", _request("treefc", rng))
    with pytest.raises(CircuitOpenError):            # probe budget spent
        router.submit("frontend", _request("treefc", rng))
    router.flush("frontend")
    assert p1.result() and p2.result()
    assert breaker.state is BreakerState.CLOSED


def _oov(word):
    """A well-formed tree whose last leaf word is past the embedding
    table: refused at the flush, the client's fault."""
    return [branch(branch(leaf(3), leaf(1)), leaf(word))]


#: a client's bad word: past the vocabulary, or past int32 on a memo
#: server, which meets it while hashing, before the linearizer does
_BAD_WORDS = {"oov": (lambda i: VOCAB + i, "off"),
              "memo-int32": (lambda i: 2**40 + i, "on")}


@pytest.mark.parametrize("door, bad", [
    pytest.param(door, bad, id=door if bad == "oov" else f"{door}-{bad}")
    for bad in _BAD_WORDS for door in ("router", "pool")])
def test_client_input_errors_never_open_a_breaker(door, bad):
    """Five requests with a bad word, each failing alone with
    LinearizationError, say nothing about the model: every breaker stays
    closed and the next valid request is served bitwise — while a
    persistent kernel fault still counts (the breaker tests above)."""
    word, memo = _BAD_WORDS[bad]
    m = _small_model("treelstm", memo=memo)
    kw = dict(policy=MaxPendingRequests(1), memo=memo)
    if door == "router":
        front = Router()
        front.add_model("t", m, **kw)
        submit = lambda roots: front.submit("t", roots)      # noqa: E731
    else:
        # least-loaded over always-empty queues: every request lands on
        # replica 0, so five failures would reach its threshold
        front = WorkerPool(m, replicas=2, balancer="least_loaded", **kw)
        submit = front.submit
    for i in range(5):
        h = submit(_oov(word(i)))
        assert isinstance(h.exception(), LinearizationError)
    assert set(front.health().values()) == {"closed"}
    good = _request("treelstm", np.random.default_rng(CHAOS_SEED))
    _assert_request_matches_solo(m, good, submit(good).result())
    front.stop()


def test_breaker_neutral_probe_outcomes_return_their_slots():
    """A HALF_OPEN probe gives its slot back on every outcome: a neutral
    resolution, or a refusal raised by submit itself."""
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                             half_open_probes=2, clock=clock)
    breaker.record(False)
    clock.advance(5.0)
    assert breaker.state is BreakerState.HALF_OPEN
    neutral = (DeadlineExceededError("late"), RequestCancelledError("gone"),
               LoadShedError("shed"), LinearizationError("bad word"))
    for i, exc in enumerate(neutral):
        h = breaker.admit(lambda i=i: RequestHandle(i))
        assert h is not None                 # a slot was free
        h.set_exception(exc)
    for exc in (InvalidRequestError("too big"), QueueFullError("full")):
        def refuse(exc=exc):
            raise exc
        with pytest.raises(type(exc)):
            breaker.admit(refuse)
    assert breaker.state is BreakerState.HALF_OPEN
    held = [breaker.admit(lambda: RequestHandle(9)) for _ in range(3)]
    assert held[2] is None                   # two in flight: budget spent
    for h in held[:2]:
        h.set_result("ok")
    assert breaker.state is BreakerState.CLOSED


def test_breaker_probe_slots_hold_under_racing_threads():
    """Admissions and neutral resolutions racing on more threads than
    cores neither lose a probe slot nor exceed the in-flight bound."""
    import sys

    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0,
                             half_open_probes=3, clock=clock)
    breaker.record(False)
    clock.advance(1.0)
    admitted, peak = [0], [0]

    def worker():
        for i in range(300):
            h = breaker.admit(lambda: RequestHandle(i))
            if h is not None:
                peak[0] = max(peak[0], breaker._probes_in_flight)
                admitted[0] += 1
                h.set_exception(DeadlineExceededError("late"))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert admitted[0] > 0 and peak[0] <= 3
    assert breaker._probes_in_flight == 0
    assert breaker.state is BreakerState.HALF_OPEN


def test_breaker_refused_probe_returns_its_slot_at_the_router():
    """Oversized probes refused at the door must not wedge HALF_OPEN."""
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                             half_open_probes=2, clock=clock)
    router = Router()
    m = _small_model("treefc")
    router.add_model("m", m, breaker=breaker, max_request_nodes=3,
                     policy=MaxPendingRequests(1))
    breaker.record(False)
    clock.advance(5.0)
    assert breaker.state is BreakerState.HALF_OPEN
    for _ in range(2):
        with pytest.raises(InvalidRequestError):
            router.submit("m", [perfect_binary_tree(3, vocab_size=VOCAB)])
    clock.advance(3600.0)
    for word in (1, 2):
        roots = [leaf(word)]
        _assert_request_matches_solo(
            m, roots, router.submit("m", roots).result())
    assert router.health() == {"m": "closed"}


# ---------------------------------------------------------------------------
# concurrency: backpressure under threaded producers, drain under failure


def test_concurrent_producers_hit_max_queue_with_clean_backpressure():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(10 ** 6), max_queue=16)
    rng = np.random.default_rng(CHAOS_SEED)
    batches = [_request("treefc", np.random.default_rng(int(s)))
               for s in rng.integers(0, 2 ** 31, 40)]
    accepted, rejected = [], []
    lock = threading.Lock()

    def producer(chunk):
        for roots in chunk:
            try:
                h = srv.submit(roots)
                with lock:
                    accepted.append((roots, h))
            except QueueFullError:
                with lock:
                    rejected.append(roots)

    threads = [threading.Thread(target=producer, args=(batches[i::4],))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # admission control held the line exactly, with typed rejections
    assert len(accepted) == 16 and len(rejected) == 24
    snap = srv.metrics_snapshot()
    assert snap["rejected"] == 24 and snap["queue_depth"] == 16
    srv.drain()
    for roots, h in accepted:
        _assert_request_matches_solo(m, roots, h.result())


def test_threaded_stop_during_injected_failures_leaves_no_handle_pending():
    """stop() during chaotic in-flight traffic resolves every handle."""
    m = _small_model("treelstm")
    faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=0.3)
    srv = ModelServer(faults.wrap(m), policy=MaxPendingRequests(4),
                      max_queue=8)
    handles = []
    lock = threading.Lock()

    def producer(seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            roots = _request("treelstm", rng)
            while True:
                try:
                    h = srv.submit(roots)
                    break
                except QueueFullError:
                    pass                     # backpressure: spin and retry
            with lock:
                handles.append((roots, h))

    with srv:
        threads = [threading.Thread(target=producer, args=(CHAOS_SEED + i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    # the context exit ran stop(): worker drained, late submits served
    assert len(handles) == 40
    assert all(h.done() for _, h in handles)         # zero unresolved
    for roots, h in handles:
        exc = h.exception()
        if exc is None:
            _assert_request_matches_solo(m, roots, h.result())
        else:
            assert isinstance(exc, CortexError) and exc.injected
    assert not srv.running

# ---------------------------------------------------------------------------
# pool + async chaos lane: replica pools under the same seeded fault
# streams as the single-server lanes above


def test_acceptance_pooled_continuous_batching_bitwise_vs_sync_solo():
    """The PR's acceptance gate, end to end.

    A seeded 200-request chaos stream (mixed batch sizes, priorities and
    tenants, slow-flush faults on every replica) through a 4-replica
    pool must produce outputs bitwise identical
    to a single-replica synchronous server fed the same stream, resolve
    every handle exactly once, and close exactly one root span per
    request.
    """
    from repro.obs import Tracer
    from repro.serve.router import _private_arena_view

    m = _small_model("treelstm")
    rng = np.random.default_rng(CHAOS_SEED)
    stream = []
    for i in range(200):
        stream.append((_request("treelstm", rng,
                                batch=int(rng.integers(1, 4))),
                       int(rng.integers(0, 3)),       # priority
                       f"t{int(rng.integers(0, 4))}"))  # tenant

    # baseline: single replica, synchronous driving
    baseline = ModelServer(_private_arena_view(m),
                           policy=MaxPendingRequests(4))
    base_handles = [baseline.submit(roots, priority=p, tenant=t)
                    for roots, p, t in stream]
    baseline.drain()
    expect = [h.result(0) for h in base_handles]

    # slow-flush chaos: delays reorder replica timing but never corrupt
    tracer = Tracer()
    pool = WorkerPool(m, replicas=4, balancer="round_robin", tracer=tracer,
                      policy=MaxPendingRequests(4), fair_share=True)
    injectors = inject_replicas(
        pool, lambda i: FaultInjector(seed=CHAOS_SEED + i,
                                      slow_flush_rate=0.25,
                                      slow_flush_s=0.0002))
    resolutions = []
    with pool:
        handles = [pool.submit(roots, priority=p, tenant=t)
                   for roots, p, t in stream]
        for h in handles:
            h.add_done_callback(
                lambda hh: resolutions.append(hh.request_id))
        pool.drain()
        got = [h.result(60) for h in handles]

    # bitwise identity against the synchronous single-replica run
    outs = m.lowered.module.output_buffers
    for e, g in zip(expect, got):
        for out in outs:
            assert np.array_equal(e.root_output(out),
                                  g.root_output(out)), out
    # ...and against fault-free solo execution (transitively implied,
    # checked directly on a sample to keep the suite fast)
    for (roots, _, _), g in list(zip(stream, got))[::40]:
        _assert_request_matches_solo(m, roots, g)

    # every handle resolved exactly once
    assert sorted(resolutions) == sorted(h.request_id for h in handles)
    assert all(h.done() for h in handles)

    # chaos actually happened
    total_slow = sum(inj.slow_flushes for inj in injectors)
    assert total_slow > 0

    # one closed root span per request, none dangling
    assert pool.dangling_root_spans() == []
    roots_spans = [s for s in tracer.finished_spans()
                   if s.name == "request"]
    assert len([s for s in roots_spans if s.closed]) == 200


def test_pool_chaos_kernel_faults_bitwise_or_typed_across_replicas():
    """The tentpole chaos invariant holds through a pool: with
    per-replica injectors firing kernel faults, every request either
    heals through bisection to bitwise-identical outputs or fails typed."""
    m = _small_model("treelstm")
    pool = WorkerPool(m, replicas=2, balancer="least_loaded",
                      policy=MaxPendingRequests(4))
    injectors = inject_replicas(
        pool, lambda i: FaultInjector(seed=CHAOS_SEED + i,
                                      kernel_failure_rate=0.12))
    rng = np.random.default_rng(CHAOS_SEED)
    requests = [_request("treelstm", rng) for _ in range(60)]
    with pool:
        handles = [pool.submit(r) for r in requests]
        # force out sub-policy stragglers; in-flight flushes and
        # bisections then resolve on the worker threads
        pool.drain()
        for h in handles:
            h.exception(30)
    assert all(h.done() for h in handles)
    for roots, h in zip(requests, handles):
        exc = h.exception(0)
        if exc is None:
            _assert_request_matches_solo(m, roots, h.result(0))
        else:
            assert isinstance(exc, CortexError) and exc.injected
    assert sum(inj.kernel_failures for inj in injectors) > 0
    snap = pool.metrics_snapshot()
    assert snap["completed"] + snap["failed"] == 60


def test_pool_async_chaos_mixed_lifecycle_under_faults():
    """asubmit through a faulted pool: deadlines expire typed,
    cancels win or lose cleanly, survivors resolve bitwise or typed."""
    import asyncio

    m = _small_model("treelstm")
    rng = np.random.default_rng(CHAOS_SEED)
    requests = [_request("treelstm", rng) for _ in range(30)]

    async def go():
        pool = WorkerPool(m, replicas=2, policy=MaxPendingRequests(4))
        inject_replicas(pool, lambda i: FaultInjector(
            seed=CHAOS_SEED + i, kernel_failure_rate=0.15))
        pool.start()
        try:
            doomed = await pool.asubmit(requests[0], timeout_s=1e-4)
            handles = [await pool.asubmit(r) for r in requests[1:20]]
            maybe = [await pool.asubmit(r) for r in requests[20:]]
            cancel_won = [await h.cancel() for h in maybe]
            with pytest.raises(DeadlineExceededError):
                await doomed
            outcomes = []
            for h in handles:
                outcomes.append((await h.exception(), h))
            for won, h in zip(cancel_won, maybe):
                if won:
                    with pytest.raises(RequestCancelledError):
                        await h
                    assert h.cancelled
                else:
                    await h.exception()  # resolved some other way
            return outcomes
        finally:
            pool.stop()

    outcomes = asyncio.run(go())
    for (exc, h), roots in zip(outcomes, requests[1:20]):
        if exc is None:
            res = h.sync.result(0)
            _assert_request_matches_solo(m, roots, res)
        else:
            assert isinstance(exc, CortexError) and exc.injected
