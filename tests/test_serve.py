"""Serving subsystem: coalescing equivalence, scheduling, metrics, router.

The load-bearing property is *cross-request equivalence*: a request served
inside a coalesced mega-batch must produce root outputs bit-identical to
running that request alone through ``model.run()``, across the model zoo
and every flush policy (the kernels' GEMMs are batch-extent invariant —
see ``runtime/kernels._dot_gemm``).  Around that: scheduler policy
mechanics, admission control/backpressure, the threaded server, metrics,
the multi-model router, and the PR's API satellites (``CortexModel
.release()``, ``plan: Optional[HostPlan]``).
"""

import dataclasses
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, api
from repro.data import grid_dag_batch, synthetic_treebank
from repro.errors import LinearizationError, QueueFullError, ServingError
from repro.linearizer import TreeLinearizer, branch, count_nodes, leaf
from repro.models.registry import MODELS
from repro.models.sequential import make_sequence
from repro.obs import FakeClock, Tracer
from repro.serve import (AnyOf, Deadline, MaxPendingRequests, MaxTotalNodes,
                         ModelServer, Request, Router, Scheduler,
                         default_policy, scatter)
from repro.serve.scheduler import QueueSnapshot

VOCAB = 120

#: the zoo slice named by the issue: tree, DAG, fc and sequential kinds
ZOO = ("treelstm", "dagrnn", "treefc", "seq_lstm")


def _small_model(name, hidden=8, **options):
    args = dict(hidden=hidden)
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
    """Coalesced rows must equal the solo run's rows, root for root (both
    order a request's rows like the request's own roots)."""
    solo = model.run(roots)
    for out in model.lowered.module.output_buffers:
        assert np.array_equal(result.root_output(out),
                              solo.root_output(out)), out


# ---------------------------------------------------------------------------
# linearizer forest-merge entry point


def test_coalesce_merges_and_maps_roots_back():
    lz = TreeLinearizer()
    rng = np.random.default_rng(3)
    sets = [synthetic_treebank(b, vocab_size=40, rng=rng) for b in (1, 3, 2)]
    lin, id_sets = lz.coalesce(sets)
    assert len(id_sets) == 3
    assert [len(ids) for ids in id_sets] == [1, 3, 2]
    # every mapped id resolves to the exact root object of that set
    for rs, ids in zip(sets, id_sets):
        for root, nid in zip(rs, ids):
            assert lin.order[nid] is root
    # merged root ids cover exactly the per-set ids
    assert set(lin.roots.tolist()) == {int(i) for ids in id_sets for i in ids}


def test_coalesce_single_set_matches_plain_call():
    lz = TreeLinearizer()
    roots = synthetic_treebank(4, vocab_size=40,
                               rng=np.random.default_rng(5))
    lin, id_sets = lz.coalesce([roots])
    plain = lz(roots)
    assert np.array_equal(lin.roots, plain.roots)
    assert lin.num_nodes == plain.num_nodes


def test_coalesce_shared_root_visited_once():
    shared = branch(leaf(1), leaf(2))
    lin, id_sets = TreeLinearizer().coalesce([[shared], [shared]])
    assert id_sets[0].tolist() == id_sets[1].tolist()
    assert len(lin.roots) == 1  # deduped in the merged forest


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_gather_scatter_equals_a_fancy_index_per_request(data):
    rows = data.draw(st.integers(1, 30))
    sets = data.draw(st.lists(st.lists(st.integers(0, rows - 1),
                                       min_size=1, max_size=5),
                              min_size=1, max_size=6))
    rng = np.random.default_rng(rows)
    ws = {"h": rng.standard_normal((rows, 3)).astype(np.float32),
          "c": rng.standard_normal((rows, 2)).astype(np.float32)}
    root_ids = [np.asarray(ids, dtype=np.int64) for ids in sets]
    want = [{n: ws[n][ids] for n in ws} for ids in root_ids]
    got = scatter(root_ids, ws, list(ws))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(np.array_equal(g[n], w[n]) and g[n].dtype == w[n].dtype
                   for n in ws)
    for buf in ws.values():  # the workspace is recycled...
        buf.fill(np.nan)
    # ...and one request writes into its rows: nobody else's rows move
    for n in ws:
        got[0][n][...] = -7.0
    for g, w in zip(got[1:], want[1:]):
        assert all(np.array_equal(g[n], w[n]) for n in ws)


def test_scatter_of_no_requests_is_empty():
    assert scatter([], {"h": np.zeros((2, 2))}, ["h"]) == []


def test_served_rows_survive_later_flushes_and_are_not_shared():
    model = _small_model("treelstm")
    rng = np.random.default_rng(17)
    trees = synthetic_treebank(6, vocab_size=VOCAB, rng=rng)
    server = ModelServer(model, policy=MaxPendingRequests(4))
    # requests sharing roots (and a duplicate root) in one flush
    first = [server.submit(roots) for roots in (
        trees[:2], [trees[1]], [trees[2], trees[2]], trees[:1])]
    results = [h.result(0) for h in first]
    held = [{n: a.copy() for n, a in r.outputs.items()} for r in results]
    for roots in [trees[3:], [trees[0]], trees[2:5], [trees[5]]] * 3:
        server.submit(roots)
    server.drain()
    assert model.arena.snapshot()["leased"] == 0
    for roots, r, h in zip((trees[:2], [trees[1]], [trees[2], trees[2]],
                            trees[:1]), results, held):
        _assert_request_matches_solo(model, roots, r)
        assert all(np.array_equal(r.outputs[n], h[n]) for n in h)
    name = model.default_outputs()[0]
    a, b = results[0].outputs[name], results[1].outputs[name]
    assert np.array_equal(a[1], b[0]) and not np.shares_memory(a, b)
    results[1].outputs[name][...] = 0.0
    assert np.array_equal(results[0].outputs[name], held[0][name])


def test_coalesce_empty_rejected():
    with pytest.raises(LinearizationError):
        TreeLinearizer().coalesce([])


# ---------------------------------------------------------------------------
# cross-request equivalence: the subsystem's core guarantee


@pytest.mark.parametrize("name", ZOO)
def test_coalesced_bit_identical_across_zoo(name):
    rng = np.random.default_rng(7)
    m = _small_model(name)
    requests = [_request(name, rng) for _ in range(6)]
    srv = m.server(policy=MaxPendingRequests(6))
    handles = [srv.submit(r) for r in requests]
    assert all(h.done() for h in handles)  # 6th submit hit the policy
    for roots, h in zip(requests, handles):
        res = h.result()
        assert res.batch_requests == 6
        _assert_request_matches_solo(m, roots, res)


@pytest.mark.parametrize("hidden", [1, 8, 83, 256])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_coalesced_bit_identical_at_gemm_widths(name, hidden):
    """Coalesced rows equal per-request rows at GEMM widths that are not
    multiples of 16 too (unpadded, hidden 1 and 83 give rows whose bits
    depend on the row count; see ``runtime/kernels._dot_gemm``)."""
    rng = np.random.default_rng(hidden)
    m = _small_model(name, hidden, target="python")
    requests = [_request(name, rng) for _ in range(6)]
    srv = m.server(policy=MaxPendingRequests(6))
    handles = [srv.submit(r) for r in requests]
    for roots, h in zip(requests, handles):
        assert h.result().batch_requests == 6
        _assert_request_matches_solo(m, roots, h.result())


@pytest.mark.parametrize("policy", [
    MaxPendingRequests(3),
    MaxTotalNodes(40),
    Deadline(0.0),                       # flush immediately per request
    AnyOf(MaxPendingRequests(4), MaxTotalNodes(200)),
    default_policy(),
])
def test_coalesced_bit_identical_every_policy(policy):
    rng = np.random.default_rng(11)
    m = _small_model("treelstm")
    requests = [_request("treelstm", rng, batch=b)
                for b in (1, 2, 1, 3, 1, 1, 2)]
    srv = m.server(policy=policy)
    handles = srv.serve_forever(requests)
    assert all(h.done() for h in handles)
    for roots, h in zip(requests, handles):
        _assert_request_matches_solo(m, roots, h.result())


def test_single_request_flush_and_empty_queue():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(100))
    assert srv.flush() == 0                   # empty queue: no-op, no error
    roots = _request("treefc", np.random.default_rng(0))
    h = srv.submit(roots)
    assert not h.done()
    assert srv.flush() == 1                   # single-request mega-batch
    res = h.result()
    assert res.batch_requests == 1
    _assert_request_matches_solo(m, roots, res)
    assert srv.flush() == 0


def test_mixed_request_sizes_one_flush():
    rng = np.random.default_rng(13)
    m = _small_model("treegru")
    requests = [_request("treegru", rng, batch=b) for b in (1, 4, 2)]
    srv = m.server(policy=MaxPendingRequests(64))
    handles = [srv.submit(r) for r in requests]
    assert srv.drain() == 3
    sizes = {h.result().batch_nodes for h in handles}
    assert len(sizes) == 1                    # all rode the same mega-batch
    for roots, h in zip(requests, handles):
        _assert_request_matches_solo(m, roots, h.result())


@pytest.mark.parametrize("memo", ("off", "on"))
def test_requests_sharing_a_subtree_ride_one_execution(memo):
    """Sharing *across* requests is legal: each request is a tree on its
    own, the merged forest is the DAG-shaped batch the linearizer already
    visits once per node — in a server's first flush like in any other
    (a flush-time structure check used to refuse it there as "a dag" and
    bisect: 1 isolation, 2 extra executions)."""
    m = _small_model("treelstm")
    phrase = branch(leaf(3), branch(leaf(5), leaf(7)))
    requests = [[branch(phrase, leaf(1))], [branch(leaf(2), phrase)]]
    srv = m.server(policy=MaxPendingRequests(64), memo=memo)
    handles = [srv.submit(r) for r in requests]
    assert srv.flush() == 2                   # the fresh server's first
    snap = srv.metrics_snapshot()
    assert snap["flushes"] == 1 and snap["completed"] == 2
    assert snap["isolations"] == 0 and snap["isolation_execs"] == 0
    assert snap["failed"] == 0
    for roots, h in zip(requests, handles):
        assert h.result().batch_requests == 2
        _assert_request_matches_solo(m, roots, h.result())


# ---------------------------------------------------------------------------
# scheduler / policy mechanics


def _snap(requests=0, nodes=0, age_s=0.0):
    return QueueSnapshot(requests, nodes, age_s)


def test_policy_should_flush_thresholds():
    assert MaxPendingRequests(4).should_flush(_snap(requests=4))
    assert not MaxPendingRequests(4).should_flush(_snap(requests=3))
    assert MaxTotalNodes(100).should_flush(_snap(nodes=100))
    assert not MaxTotalNodes(100).should_flush(_snap(nodes=99))
    assert Deadline(5.0).should_flush(_snap(requests=1, age_s=0.006))
    assert not Deadline(5.0).should_flush(_snap(requests=1, age_s=0.004))
    assert not Deadline(0.0).should_flush(_snap(requests=0))
    both = MaxPendingRequests(4) | Deadline(5.0)
    assert isinstance(both, AnyOf)
    assert both.should_flush(_snap(requests=9))
    assert both.should_flush(_snap(requests=1, age_s=1.0))
    assert not both.should_flush(_snap(requests=1))


def _mk_request(rid, num_nodes):
    return Request(request_id=rid, roots=[leaf(0)], num_nodes=num_nodes,
                   submit_t=time.perf_counter())


def test_policy_take_caps():
    reqs = [_mk_request(i, 10) for i in range(6)]
    assert MaxPendingRequests(4).take(reqs) == 4
    assert MaxTotalNodes(35).take(reqs) == 3      # 10+10+10 <= 35 < 40
    assert MaxTotalNodes(5).take(reqs) == 1       # oversized first: still 1
    assert Deadline(1.0).take(reqs) == 6          # deadline caps nothing
    assert (MaxPendingRequests(4) | MaxTotalNodes(25)).take(reqs) == 2


def test_policy_validation_errors():
    with pytest.raises(ServingError):
        MaxPendingRequests(0)
    with pytest.raises(ServingError):
        MaxTotalNodes(0)
    with pytest.raises(ServingError):
        Deadline(-1)
    with pytest.raises(ServingError):
        AnyOf()
    with pytest.raises(ServingError):
        Scheduler(max_queue=0)


def test_scheduler_fifo_and_node_accounting():
    s = Scheduler(MaxPendingRequests(2), max_queue=8)
    for i, nodes in enumerate((5, 7, 3)):
        assert s.offer(_mk_request(i, nodes))
    assert len(s) == 3 and s.pending_nodes == 15
    assert s.should_flush()
    taken = s.take()
    assert [r.request_id for r in taken] == [0, 1]
    assert len(s) == 1 and s.pending_nodes == 3
    assert [r.request_id for r in s.take()] == [2]
    assert s.take() == []


def test_admission_control_backpressure():
    m = _small_model("treefc")
    # deliberately never auto-flush so the queue can fill
    srv = m.server(policy=MaxPendingRequests(100), max_queue=3)
    rng = np.random.default_rng(1)
    for _ in range(3):
        srv.submit(_request("treefc", rng))
    with pytest.raises(QueueFullError):
        srv.submit(_request("treefc", rng))
    snap = srv.metrics_snapshot()
    assert snap["submitted"] == 3 and snap["rejected"] == 1
    assert srv.drain() == 3                    # flushing frees the queue
    srv.submit(_request("treefc", rng))        # admitted again


def test_submit_empty_request_rejected():
    srv = _small_model("treefc").server()
    with pytest.raises(ServingError):
        srv.submit([])


# ---------------------------------------------------------------------------
# validation modes and failure delivery


def test_validation_failure_delivered_via_handle():
    m = _small_model("treernn")
    # structure is checked at submit() (see test_serve_chaos.py); the
    # poison that still reaches a flush is an out-of-vocabulary leaf word,
    # refused by the linearizer's word-range check — this test covers the
    # mid-flush failure-delivery path
    srv = m.server(policy=MaxPendingRequests(100))
    h = srv.submit([branch(branch(leaf(3), leaf(1)), leaf(VOCAB + 5))])
    assert srv.flush() == 1
    assert isinstance(h.exception(), LinearizationError)
    with pytest.raises(LinearizationError):
        h.result()
    snap = srv.metrics_snapshot()
    assert snap["failed"] == 1 and snap["completed"] == 0
    # the server survives: later well-formed requests are served
    roots = _request("treernn", np.random.default_rng(2))
    h2 = srv.submit(roots)
    srv.flush()
    _assert_request_matches_solo(m, roots, h2.result())


def test_flush_failure_isolated_to_culprit_request():
    """One malformed request must not fail the requests it rode with."""
    m = _small_model("treernn")
    srv = m.server(policy=MaxPendingRequests(100))
    rng = np.random.default_rng(41)
    good = [_request("treernn", rng) for _ in range(3)]
    bad = [branch(branch(leaf(3), leaf(1)), leaf(VOCAB + 5))]  # no such row
    handles = [srv.submit(g) for g in good[:2]]
    bad_h = srv.submit(bad)
    handles.append(srv.submit(good[2]))
    assert srv.flush() == 4                    # one coalesced attempt
    assert isinstance(bad_h.exception(), LinearizationError)
    for roots, h in zip(good, handles):        # the others still served
        _assert_request_matches_solo(m, roots, h.result())
    snap = srv.metrics_snapshot()
    assert snap["failed"] == 1 and snap["completed"] == 3


def test_node_counts_are_real_under_every_policy():
    """The admission walk returns the node count, so nothing reads 0 under
    the default policy: ``Request.num_nodes``, ``pending_nodes``, the
    ``serve_queue_nodes`` gauge and the root span's ``nodes`` attribute."""
    rng = np.random.default_rng(43)
    m = _small_model("treefc")
    for policy in (None, MaxPendingRequests(100), MaxTotalNodes(10_000)):
        clock = FakeClock()                    # the default's 2 ms never pass
        tracer = Tracer(clock=clock)
        srv = m.server(policy=policy, tracer=tracer, clock=clock)
        reqs = [_request("treefc", rng, batch=b) for b in (1, 2, 1)]
        for r in reqs:
            srv.submit(r)
        sizes = [count_nodes(r) for r in reqs]
        assert [q.num_nodes for q in srv.scheduler._q] == sizes
        assert srv.scheduler.pending_nodes == sum(sizes) > 0
        assert srv.metrics_snapshot()["queue_nodes"] == sum(sizes)
        assert f"serve_queue_nodes {sum(sizes)}" in srv.metrics_prometheus()
        assert [sp.attributes["nodes"] for sp in tracer.open_spans()
                if sp.name == "request"] == sizes
        assert srv.drain() == 3 and srv.scheduler.pending_nodes == 0


def test_submit_after_stop_served_synchronously():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(1))
    srv.start()
    srv.stop()
    roots = _request("treefc", np.random.default_rng(44))
    h = srv.submit(roots)                      # sync mode: policy flushes
    _assert_request_matches_solo(m, roots, h.result())


def test_self_check_probes_bit_identity():
    rng = np.random.default_rng(47)
    m = _small_model("treelstm")
    srv = m.server()
    assert srv.self_check([_request("treelstm", rng) for _ in range(4)])


def test_outputs_subset():
    m = _small_model("treelstm")
    srv = m.server(policy=MaxPendingRequests(1), outputs=["rnn_h_ph"])
    h = srv.submit(_request("treelstm", np.random.default_rng(4)))
    res = h.result()
    assert list(res.outputs) == ["rnn_h_ph"]


def test_unknown_output_name_refused_at_construction():
    m = _small_model("treelstm")
    with pytest.raises(ServingError, match="nope"):
        ModelServer(m, outputs=["rnn_h_ph", "nope"])


def test_server_keyword_surface_is_pinned():
    """The constructor's options, written out: a keyword added or removed
    shows up here, and a misspelt one fails where the server is built —
    through ``model.server`` and through a pool alike — not at first
    flush."""
    import inspect

    from repro.serve import WorkerPool

    kwonly = {n for n, p in inspect.signature(ModelServer).parameters.items()
              if p.kind is p.KEYWORD_ONLY}
    assert kwonly == {
        "policy", "max_queue", "max_request_nodes", "outputs", "tracer",
        "profiler", "clock", "wake_interval_s", "memo", "memo_cache",
        "memo_policy", "name", "fair_share", "request_id_base"}
    assert len(kwonly) == 14
    m = _small_model("treernn")
    with pytest.raises(TypeError, match="no_such_option"):
        m.server(no_such_option=1)
    with pytest.raises(TypeError, match="no_such_option"):
        WorkerPool(m, replicas=2, no_such_option=1)
    # serving numbers are measured, never simulated: no device keyword
    from repro.runtime import V100
    from repro.serve import Router

    with pytest.raises(TypeError, match="device"):
        m.server(device=V100)
    with pytest.raises(TypeError, match="device"):
        WorkerPool(m, replicas=2, device=V100)
    with pytest.raises(TypeError, match="device"):
        Router().add_model("m", m, device=V100)


# ---------------------------------------------------------------------------
# threaded mode


def test_threaded_server_serves_submissions():
    rng = np.random.default_rng(17)
    m = _small_model("treelstm")
    requests = [_request("treelstm", rng) for _ in range(10)]
    with m.server(policy=MaxPendingRequests(4) | Deadline(1.0),
                  wake_interval_s=0.0005) as srv:
        assert srv.running
        handles = [srv.submit(r) for r in requests]
        results = [h.result(timeout=10.0) for h in handles]
    assert not srv.running
    for roots, res in zip(requests, results):
        _assert_request_matches_solo(m, roots, res)
    assert srv.metrics_snapshot()["completed"] == 10


def test_threaded_server_drains_on_stop():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(1000))  # never fires on its own
    srv.start()
    with pytest.raises(ServingError):
        srv.start()                                   # double start rejected
    handles = [srv.submit(_request("treefc", np.random.default_rng(i)))
               for i in range(3)]
    srv.stop()                                        # drains before exiting
    assert all(h.done() for h in handles)
    srv.stop()                                        # idempotent


def test_threaded_worker_never_misses_a_wakeup():
    """A submit notifies the worker only while it waits.  More producers
    than cores, each waiting on its own request before the next, would
    hang (and time out) if a submit ever landed unseen between the
    worker's queue check and its sleep on an empty queue."""
    m = _small_model("treernn")
    tree = synthetic_treebank(1, vocab_size=VOCAB,
                              rng=np.random.default_rng(5))
    errors = []

    def producer(srv):
        try:
            for _ in range(40):
                srv.submit(tree).result(timeout=10.0)
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with m.server(policy=MaxPendingRequests(1)) as srv:
            threads = [threading.Thread(target=producer, args=(srv,))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors
    assert srv.metrics_snapshot()["completed"] == 160


# ---------------------------------------------------------------------------
# metrics


def test_metrics_snapshot_contents():
    rng = np.random.default_rng(19)
    m = _small_model("treelstm")
    srv = m.server(policy=MaxPendingRequests(3))
    srv.serve_forever([_request("treelstm", rng) for _ in range(7)])
    snap = srv.metrics_snapshot()
    assert snap["submitted"] == 7 and snap["completed"] == 7
    assert snap["flushes"] >= 3
    assert snap["queue_depth"] == 0
    assert snap["throughput_rps"] > 0
    assert 0.0 < snap["latency_p50_ms"] <= snap["latency_p99_ms"]
    assert 1.0 <= snap["batch_occupancy_requests"] <= 3.0
    assert snap["nodes_processed"] > 0
    # arena section comes from WorkspaceArena.snapshot()
    arena = snap["arena"]
    assert set(arena) == {"hits", "misses", "hit_rate", "pooled_bytes",
                          "max_pooled_bytes", "leased"}
    # one lease per flush, parked again afterwards; none left out
    assert arena["hits"] + arena["misses"] == snap["flushes"]
    assert arena["leased"] == 0
    # and the registry scrape carries the same four arena gauges, live
    scrape = srv.metrics_prometheus()
    assert set(re.findall(r"^(arena_\w+) ", scrape, re.M)) == {
        "arena_hits", "arena_misses", "arena_hit_rate", "arena_pooled_bytes"}
    assert f"arena_pooled_bytes {arena['pooled_bytes']}" in scrape
    assert 0 < arena["pooled_bytes"] <= arena["max_pooled_bytes"]


def test_arena_snapshot_standalone():
    from repro.runtime import WorkspaceArena

    arena = WorkspaceArena()
    arena.release(arena.lease(1000))
    held = arena.lease(1000)
    snap = arena.snapshot()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["hit_rate"] == 0.5
    assert snap["pooled_bytes"] == 0 and snap["leased"] == 1
    arena.release(held)
    snap = arena.snapshot()
    assert snap["pooled_bytes"] == held.nbytes and snap["leased"] == 0
    assert snap["max_pooled_bytes"] >= snap["pooled_bytes"]


def _serve_unique_forests(hidden, flushes, memo):
    """Serve ``flushes`` forests nobody has seen before, 1 to 16 trees each,
    checking after every flush that what the arena parks stays under the
    arena's own bound, and that bound under a fixed multiple of the largest
    workspace served.  Returns the final arena snapshot.  (CI's ``pool``
    lane calls this at a larger size.)"""
    from repro.runtime.memory import ALIGN, SLABS_PER_CLASS

    m = api.compile("treelstm", hidden=hidden, vocab=VOCAB)
    arena = m.arena
    srv = m.server(memo=memo)
    rng = np.random.default_rng(5)
    # bytes of scratch per node: every buffer has one row-count dimension,
    # and max_batch_len <= num_nodes
    row_bytes = sum(
        b.np_dtype.itemsize * int(np.prod([d for d in b.dims
                                           if isinstance(d, int)]))
        for b in m.plan.buffers if not b.required_param)
    largest = 0
    warm = flushes // 3
    for i in range(flushes):
        if i == warm:
            hits, misses = arena.stats.hits, arena.stats.misses
        forest = synthetic_treebank(int(rng.integers(1, 17)),
                                    vocab_size=VOCAB, rng=rng)
        handles = [srv.submit(t) for t in forest]
        srv.flush()
        assert all(h.done() and h.exception() is None for h in handles)
        largest = max(largest, count_nodes(forest))
        workspace = largest * row_bytes + ALIGN * len(m.plan.buffers)
        ceiling = 4 * SLABS_PER_CLASS * workspace
        assert arena.pooled_bytes <= ceiling, (
            f"flush {i}: arena parks {arena.pooled_bytes} bytes, more than "
            f"{4 * SLABS_PER_CLASS}x the largest workspace ({workspace})")
        assert arena.pooled_bytes <= arena.max_pooled_bytes <= ceiling, i
    steady_hits = arena.stats.hits - hits
    steady = steady_hits + arena.stats.misses - misses
    assert steady_hits / steady >= 0.95, arena.snapshot()
    assert arena.snapshot()["leased"] == 0
    return arena.snapshot()


@pytest.mark.parametrize("memo", ["off", "on"])
def test_pooled_bytes_stay_bounded_under_unique_forests(memo):
    """A long-running server over ever-new input sizes parks a bounded
    number of bytes (the exact-shape pool grew without limit here) and
    still serves nearly every flush from a parked slab."""
    _serve_unique_forests(hidden=16, flushes=300, memo=memo)


def test_request_result_timing_fields():
    m = _small_model("treefc")
    srv = m.server(policy=MaxPendingRequests(2))
    h1 = srv.submit(_request("treefc", np.random.default_rng(5)))
    h2 = srv.submit(_request("treefc", np.random.default_rng(6)))
    r1, r2 = h1.result(), h2.result()
    for r in (r1, r2):
        assert r.batch_requests == 2
        assert r.queue_time_s >= 0 and r.exec_time_s > 0
        assert r.latency_s >= r.queue_time_s
    assert r1.request_id != r2.request_id


# ---------------------------------------------------------------------------
# router


def test_router_dispatches_per_model():
    rng = np.random.default_rng(23)
    router = Router()
    models = {name: _small_model(name) for name in ("treelstm", "treefc")}
    for name, m in models.items():
        router.add_model(name, m, policy=MaxPendingRequests(2))
    assert router.names == ["treefc", "treelstm"]
    assert "treelstm" in router and "mvrnn" not in router
    per_model = {name: _request(name, rng) for name in models}
    handles = {name: router.submit(name, roots)
               for name, roots in per_model.items()}
    router.drain()
    for name, h in handles.items():
        _assert_request_matches_solo(models[name], per_model[name],
                                     h.result())
    snaps = router.metrics_snapshot()
    assert set(snaps) == set(models)
    assert all(s["completed"] == 1 for s in snaps.values())


def test_router_registration_rules():
    router = Router()
    m = _small_model("treefc")
    server = router.add_model("a", m)
    with pytest.raises(KeyError):
        router.add_model("a", m)              # duplicate name
    with pytest.raises(KeyError, match="unknown model"):
        router.submit("nope", [leaf(0)])
    with pytest.raises(TypeError):
        router.add_model("b", server, max_queue=5)  # kwargs need a model
    router.add_model("b", ModelServer(m))     # a ready server is accepted
    router.remove_model("a")
    assert router.names == ["b"]


def test_router_threaded_lifecycle():
    rng = np.random.default_rng(29)
    router = Router()
    m = _small_model("treefc")
    router.add_model("fc", m, policy=Deadline(0.5), wake_interval_s=0.0005)
    with router:
        assert router["fc"].running
        h = router.submit("fc", _request("treefc", rng))
        assert h.result(timeout=10.0).batch_requests >= 1
    assert not router["fc"].running


# ---------------------------------------------------------------------------
# API satellites: release() and Optional[HostPlan]


def test_release_drains_leased_buffers():
    m = _small_model("treernn")
    roots = _request("treernn", np.random.default_rng(31))
    m.run(roots, reuse=True)
    (slab,) = m._leased                       # one slab still out on lease
    assert m.arena.pooled_bytes == 0
    m.release()
    assert not m._leased
    assert m.arena.pooled_bytes == slab.nbytes
    m.release()                               # idempotent no-op


def test_release_interleaves_with_server_flushes():
    m = _small_model("treernn")
    rng = np.random.default_rng(37)
    roots = _request("treernn", rng)
    want = m.run(roots).output("rnn").copy()
    m.run(roots, reuse=True)                  # leaves buffers leased
    srv = m.server(policy=MaxPendingRequests(1))
    h = srv.submit(roots)                     # flush drains the lease first
    assert not m._leased
    assert np.array_equal(h.result().root_output("rnn"),
                          want[m.lowered.linearizer(roots).roots])


def test_plan_field_is_proper_optional():
    fields = {f.name: f for f in dataclasses.fields(api.CortexModel)}
    assert fields["plan"].default is None
    m = _small_model("treefc")
    assert m.plan is not None                 # resolved in __post_init__
    # a caller-supplied plan is kept verbatim
    m2 = api.CortexModel(spec=m.spec, program=m.program, lowered=m.lowered,
                         compiled=m.compiled, params=m.params, plan=m.plan)
    assert m2.plan is m.plan
    import inspect

    src = inspect.getsource(api)
    assert "type: ignore[assignment]" not in src
