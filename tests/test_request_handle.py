"""RequestHandle lifecycle with a lazily made event.

A handle makes its ``threading.Event`` only when a waiter finds it
unresolved; resolution is first-wins, claim-time arbitration decides
``cancel`` against ``claim``, and every done-callback fires exactly once.
These tests drive those rules through real thread interleavings.
"""

import sys
import threading

import pytest

from repro.errors import (RequestCancelledError, RequestTimeoutError,
                          ServingError)
from repro.serve import RequestHandle

ROUNDS = 200


@pytest.fixture(autouse=True)
def _fast_thread_switches():
    """Switch threads often, so the races below interleave finely."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _run_together(*fns):
    """Start ``fns`` on their own threads behind one barrier; join them."""
    barrier = threading.Barrier(len(fns))
    out = [None] * len(fns)

    def runner(i, fn):
        barrier.wait()
        out[i] = fn()

    threads = [threading.Thread(target=runner, args=(i, fn))
               for i, fn in enumerate(fns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    return out


def test_a_handle_resolved_before_any_wait_never_makes_an_event():
    h = RequestHandle(1)
    assert h.set_result("r")
    assert h.result(0) == "r" and h.exception(0) is None and h.done()
    assert h._event is None
    pending = RequestHandle(2)
    with pytest.raises(RequestTimeoutError):
        pending.exception(0)
    assert pending._event is not None and not pending.done()


def test_result_zero_on_a_pending_handle_times_out_and_first_waiter_wakes():
    h = RequestHandle(3)
    got = []
    started = threading.Event()

    def waiter():
        started.set()
        got.append(h.result(10))

    t = threading.Thread(target=waiter)
    t.start()
    started.wait(10)
    with pytest.raises(RequestTimeoutError):
        h.result(0)
    with pytest.raises(RequestTimeoutError):
        h.exception(0.001)
    assert h.set_result("late")
    t.join(10)
    assert got == ["late"]


@pytest.mark.parametrize("outcome", ["result", "exception"])
@pytest.mark.parametrize("method", ["result", "exception"])
def test_waiters_before_and_after_resolution_all_see_it(outcome, method):
    for i in range(ROUNDS):
        h = RequestHandle(i)
        err = ServingError("boom")

        def wait():
            try:
                return getattr(h, method)(10)
            except ServingError as e:
                return e

        def resolve():
            if outcome == "result":
                return h.set_result("ok")
            return h.set_exception(err)

        # two waiters race the resolver; one more arrives after it
        first, second, won = _run_together(wait, wait, resolve)
        assert won
        want = ("ok" if outcome == "result" and method == "result"
                else None if outcome == "result" else err)
        assert first is want and second is want and wait() is want


def test_cancel_racing_claim_has_exactly_one_winner():
    for i in range(ROUNDS):
        h = RequestHandle(i)
        cancelled, claimed = _run_together(h.cancel, h.claim)
        assert cancelled != claimed
        assert h.done() == cancelled == h.cancelled
        if cancelled:
            assert isinstance(h.exception(0), RequestCancelledError)
        else:
            assert not h.cancel()  # a claimed request can't be cancelled
            assert h.set_result("ok") and h.result(0) == "ok"


def test_set_result_racing_set_exception_is_first_wins():
    err = ServingError("boom")
    for i in range(ROUNDS):
        h = RequestHandle(i)
        fired = []
        h.add_done_callback(fired.append)
        as_result, as_error = _run_together(lambda: h.set_result("ok"),
                                            lambda: h.set_exception(err))
        assert as_result != as_error
        assert fired == [h]
        if as_result:
            assert h.result(0) == "ok" and h.exception(0) is None
        else:
            assert h.exception(0) is err


def test_callbacks_racing_resolution_each_fire_exactly_once():
    for i in range(ROUNDS // 4):
        h = RequestHandle(i)
        fired = []
        lock = threading.Lock()

        def add_many():
            for k in range(20):
                def cb(hh, k=k):
                    assert hh is h and hh.done()
                    with lock:
                        fired.append(k)
                h.add_done_callback(cb)

        _run_together(add_many, lambda: h.set_result("ok"))
        h.add_done_callback(lambda hh: fired.append("after"))
        assert sorted(fired, key=str) == sorted(
            [*range(20), "after"], key=str)
