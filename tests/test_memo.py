"""Memoization suite: the content-addressed subtree cache (repro.memo).

The subsystem invariant under test: **memoized output equals unmemoized
output bitwise** — across the zoo, under injected faults, under cache
eviction — or the splice layer refuses up front with a typed
:class:`~repro.errors.SpliceRefusedError`.  Around that: structural
hashing (content addressing, DAG/tree digest equivalence, O(1)
re-annotation), the bounded LRU (:class:`~repro.memo.MemoCache`),
incremental re-inference through :class:`~repro.memo.MemoSession` +
:func:`~repro.memo.graft` (only the dirty spine executes), the
``params_version`` stale-weights story, chaos with verify-mode as a
poisoned-entry detector, and the serving observability surface
(``metrics_snapshot()["memo"]``, ``memo_cache_*`` gauges, the
``memo_splice`` trace instant).

Chaos runs share ``REPRO_CHAOS_SEED`` with the serving chaos suite, so a
failure here replays exactly.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro import api
from repro.data import (synthetic_treebank, zipf_dag_stream,
                        zipf_sequence_stream, zipf_tree_stream)
from repro.errors import (CortexError, LinearizationError, MemoError,
                          MemoVerifyError, ScheduleError, ServingError,
                          SpliceRefusedError)
from repro.ilir.codegen.c_codegen import parity_classification
from repro.linearizer import Node, branch, iter_nodes, leaf, tree_from_nested
from repro.memo import (MemoCache, MemoEntry, MemoPolicy, MemoSession,
                        MemoSplicer, cache_key, graft, model_memo_key,
                        splice_refusal, subtree_digest, subtree_size)
from repro.memo.hashing import annotate, params_fingerprint
from repro.models.registry import MODELS
from repro.models.sequential import make_sequence
from repro.obs import Tracer, validate_chrome_trace
from repro.options import DEBUG, CompileOptions
from repro.ra.interp import interpret_reference
from repro.runtime.native import native_available
from repro.serve import FaultInjector, MaxPendingRequests, ModelServer
from repro.serve.coalescer import coalesce
from repro.serve.request import Request
from repro.tools.artifact import load_model, save_model

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

VOCAB = 120


def _small_model(name, **options):
    args = dict(hidden=8)
    if name == "dagrnn":
        args["num_cells"] = 64
    else:
        args["vocab"] = VOCAB
    return api.compile(name, CompileOptions(**options), **args)


def _stream(name, n, seed):
    """A shared-substructure request stream matching the model's kind."""
    kind = MODELS[name].kind.value
    if kind == "dag":
        return zipf_dag_stream(n, seed=seed)
    if kind == "sequence":
        return zipf_sequence_stream(n, vocab_size=VOCAB, seed=seed)
    return zipf_tree_stream(n, vocab_size=VOCAB, seed=seed)


def _assert_bitwise_solo(model, roots, result):
    """A served request's rows must equal a plain solo run bit for bit."""
    solo = model.run(roots)
    rs = [roots] if isinstance(roots, Node) else list(roots)
    ids = [solo.lin.node_id(r) for r in rs]
    for out in model.lowered.module.output_buffers:
        assert np.array_equal(result.root_output(out),
                              solo.workspace[out][ids]), out


def _solo_rows(model, roots, out):
    """Root rows of a plain solo run, shaped like a session's output."""
    solo = model.run(roots)
    rs = [roots] if isinstance(roots, Node) else list(roots)
    return solo.workspace[out][[solo.lin.node_id(r) for r in rs]]


def _balanced(depth, rng):
    """A perfect binary tree of 2**depth leaves with random words."""
    nodes = [leaf(int(w)) for w in rng.integers(0, VOCAB, 2 ** depth)]
    while len(nodes) > 1:
        nodes = [branch(nodes[i], nodes[i + 1])
                 for i in range(0, len(nodes), 2)]
    return nodes[0]


# ---------------------------------------------------------------------------
# structural hashing: content addressing


def test_digest_is_content_addressed():
    rng = np.random.default_rng(CHAOS_SEED)
    words = [int(w) for w in rng.integers(0, VOCAB, 4)]

    def build():
        return branch(branch(leaf(words[0]), leaf(words[1])),
                      branch(leaf(words[2]), leaf(words[3])))

    a, b = build(), build()
    assert a is not b
    assert subtree_digest(a) == subtree_digest(b)
    assert subtree_size(a) == subtree_size(b) == 7
    # a different word payload, a different shape, and leaf-vs-interior
    # must all separate
    c = branch(branch(leaf(words[0]), leaf(words[1])),
               branch(leaf(words[2]), leaf((words[3] + 1) % VOCAB)))
    assert subtree_digest(c) != subtree_digest(a)
    skew = branch(branch(branch(leaf(words[0]), leaf(words[1])),
                         leaf(words[2])), leaf(words[3]))
    assert subtree_digest(skew) != subtree_digest(a)
    assert subtree_digest(leaf(5)) != subtree_digest(Node((leaf(5),), 5))


def test_dag_and_its_tree_expansion_hash_identically():
    # sharing changes work, not values: a diamond and its expansion must
    # share cache entries
    shared = branch(leaf(1), leaf(2))
    diamond = Node((shared, shared), 9)
    expanded = Node((branch(leaf(1), leaf(2)), branch(leaf(1), leaf(2))), 9)
    assert subtree_digest(diamond) == subtree_digest(expanded)
    # size counts per path (a policy threshold, not a node census)
    assert subtree_size(diamond) == subtree_size(expanded) == 7
    # annotate counts *distinct* reachable nodes
    assert annotate([Node((shared, shared), 9)]) <= annotate(
        [Node((branch(leaf(1), leaf(2)), branch(leaf(1), leaf(2))), 9)])


def test_annotate_is_iterative_and_cached():
    # a chain far beyond the recursion limit: annotate must not recurse
    node = leaf(0)
    for w in range(5000):
        node = Node((node,), w % VOCAB)
    assert annotate([node]) == 5001
    memo_before = node._memo
    assert memo_before is not None and memo_before[1] == 5001
    # re-annotation is O(1) per node: the cached tuple is reused, not
    # recomputed
    assert annotate([node]) == 5001
    assert node._memo is memo_before


def test_params_fingerprint_and_model_key_separate_models():
    rng = np.random.default_rng(CHAOS_SEED)
    params = {"W": rng.standard_normal((4, 4)).astype(np.float32),
              "b": np.zeros(4, dtype=np.float32)}
    fp = params_fingerprint(params)
    assert fp == params_fingerprint(dict(reversed(list(params.items()))))
    edited = {k: v.copy() for k, v in params.items()}
    edited["b"][0] = 1.0
    assert params_fingerprint(edited) != fp

    a, b = _small_model("treernn"), _small_model("treegru")
    assert model_memo_key(a) != model_memo_key(b)
    assert a.memo_model_key() == model_memo_key(a)
    d = subtree_digest(leaf(1))
    assert cache_key("m", 0, d) != cache_key("m", 1, d)


# ---------------------------------------------------------------------------
# the bounded LRU


def _entry(n=4, fill=0.0, nodes=2):
    return MemoEntry.from_rows(
        {"H": np.full(n, fill, dtype=np.float32)}, nodes)


def test_cache_lru_evicts_oldest_and_get_refreshes_recency():
    cache = MemoCache(max_entries=3, max_bytes=1 << 20)
    for k in "abc":
        assert cache.put(k, _entry(fill=ord(k)))
    assert cache.get("a") is not None         # refresh: "b" is now LRU
    cache.put("d", _entry())
    assert cache.peek("b") is None            # the unrefreshed one went
    assert {k for k in "acd" if cache.peek(k) is not None} == set("acd")
    snap = cache.snapshot()
    assert snap["entries"] == 3 and snap["evictions"] == 1
    assert snap["hits"] == 1


def test_cache_byte_cap_and_oversize_rejection():
    row = _entry(n=8)                          # 32 bytes each
    cache = MemoCache(max_entries=100, max_bytes=3 * row.nbytes)
    for k in range(4):
        assert cache.put(k, _entry(n=8, fill=k))
    assert len(cache) == 3 and cache.nbytes <= 3 * row.nbytes
    assert cache.peek(0) is None               # LRU end paid for entry 3
    # an entry that can never fit is refused outright, evicting nothing
    assert not cache.put("huge", _entry(n=1024))
    assert len(cache) == 3
    snap = cache.snapshot()
    assert snap["rejected"] == 1 and snap["evictions"] == 1

    with pytest.raises(MemoError):
        MemoCache(max_entries=0)
    with pytest.raises(MemoError):
        MemoCache(max_bytes=0)


def test_cache_entries_are_frozen_and_clear_keeps_counters():
    cache = MemoCache(max_entries=4)
    cache.put("k", _entry())
    entry = cache.get("k")
    with pytest.raises(ValueError):
        entry.rows["H"][0] = 99.0              # read-only: no later mutation
    cache.get("missing")
    cache.clear()
    snap = cache.snapshot()
    assert snap["entries"] == 0 and snap["bytes"] == 0
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["insertions"] == 1
    assert snap["hit_rate"] == 0.5


def test_cache_is_thread_safe_under_a_hammer():
    cache = MemoCache(max_entries=32, max_bytes=32 * 64)
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(300):
                k = int(rng.integers(0, 64))
                if rng.random() < 0.5:
                    cache.put(k, _entry(fill=k))
                else:
                    e = cache.get(k)
                    if e is not None:
                        assert e.rows["H"][0] == k
        except Exception as exc:               # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(CHAOS_SEED + i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) <= 32 and cache.nbytes <= 32 * 64
    snap = cache.snapshot()
    assert snap["insertions"] > 0


# ---------------------------------------------------------------------------
# refusal: bitwise identity or a typed no up front


def test_policy_rejects_leaf_sized_entries():
    with pytest.raises(SpliceRefusedError):
        MemoPolicy(min_subtree_nodes=1)


def test_static_batch_compile_refuses_splicing():
    m = api.compile("treernn", DEBUG, hidden=8, vocab=VOCAB)
    reason = splice_refusal(m)
    assert reason is not None and "dynamic batching" in reason
    with pytest.raises(SpliceRefusedError):
        MemoSplicer(m)
    with pytest.raises(SpliceRefusedError):
        m.server(memo="on")


def test_server_validates_memo_arguments():
    m = _small_model("treefc")
    with pytest.raises(ServingError):
        ModelServer(m, memo="off", memo_cache=MemoCache())
    with pytest.raises(ServingError):
        ModelServer(m, memo="off", memo_policy=MemoPolicy())
    with pytest.raises(ServingError):
        ModelServer(m, memo="sometimes")


def test_compile_options_validate_and_route_memo():
    with pytest.raises(ScheduleError):
        api.compile("treernn", CompileOptions(memo="bogus"),
                    hidden=8, vocab=VOCAB)
    m = api.compile("treernn", CompileOptions(memo="on"),
                    hidden=8, vocab=VOCAB)
    srv = m.server(policy=MaxPendingRequests(4))
    assert srv.memo is not None                # options default carried over
    srv2 = m.server(policy=MaxPendingRequests(4), memo="off")
    assert srv2.memo is None                   # explicit kwarg wins


def test_session_rejects_foreign_splicer():
    a, b = _small_model("treernn"), _small_model("treegru")
    splicer = MemoSplicer(a)
    with pytest.raises(MemoError):
        MemoSession(b, splicer=splicer)


# ---------------------------------------------------------------------------
# a reloaded artifact memoizes exactly like the model it was saved from


@pytest.mark.parametrize("target", ["python", "c"])
def test_reloaded_memo_artifact_serves_like_the_in_process_model(
        target, tmp_path):
    """``memo="on"`` survives save -> load: the reloaded model's default
    server memoizes a 200-request Zipf stream with the in-process memo
    server's bits, hits and executed nodes, and so does a MemoSession."""
    if target == "c" and not native_available():
        pytest.skip("no C compiler on the host")
    m = api.compile("treelstm", CompileOptions(memo="on", target=target),
                    hidden=8, vocab=VOCAB)
    dep = load_model(save_model(m, tmp_path / "artifact"))
    assert type(dep) is type(m) is api.CortexModel
    assert splice_refusal(dep) is None
    stream = zipf_tree_stream(200, vocab_size=VOCAB, seed=CHAOS_SEED)
    servers = [model.server(policy=MaxPendingRequests(8))
               for model in (m, dep)]
    assert all(s.memo is not None for s in servers)
    ours, theirs = (s.serve_forever(stream) for s in servers)
    outs = m.default_outputs()
    for ha, hb in zip(ours, theirs):
        for out in outs:
            assert np.array_equal(ha.result().root_output(out),
                                  hb.result().root_output(out)), out
    want, got = (s.metrics_snapshot()["memo"] for s in servers)
    assert got["hits"] > 0 and got["executed_nodes"] < got["total_nodes"]
    for key in ("lookups", "hits", "executed_nodes", "total_nodes"):
        assert got[key] == want[key], key
    sessions = [MemoSession(model) for model in (m, dep)]
    for roots in stream[:40]:
        a, b = (s.run(roots) for s in sessions)
        for out in outs:
            assert np.array_equal(a[out], b[out]), out
    assert sessions[1].stats()["hits"] == sessions[0].stats()["hits"] > 0


def test_reloaded_artifact_refuses_memo_with_the_in_process_reason(tmp_path):
    m = api.compile("treernn", DEBUG, hidden=8, vocab=VOCAB)
    dep = load_model(save_model(m, tmp_path / "artifact"))
    assert "dynamic batching" in splice_refusal(m)
    assert splice_refusal(dep) == splice_refusal(m)
    messages = []
    for model in (m, dep):
        with pytest.raises(SpliceRefusedError) as info:
            model.server(memo="on")
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_artifact_without_splice_verdict_refuses_memo_asking_for_resave(
        tmp_path):
    """A manifest written before the verdict was shipped still loads and
    runs; only memoization is refused, typed, naming the field."""
    m = api.compile("treernn", CompileOptions(memo="on"), hidden=8,
                    vocab=VOCAB)
    path = save_model(m, tmp_path / "artifact")
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["meta"]["splice_refusal"]
    (path / "manifest.json").write_text(json.dumps(manifest))
    dep = load_model(path)
    tree = zipf_tree_stream(1, vocab_size=VOCAB)[0]
    assert np.array_equal(dep.run(tree).root_output("rnn"),
                          m.run(tree).root_output("rnn"))
    resave = r"meta\.splice_refusal is missing.*re-save"
    with pytest.raises(SpliceRefusedError, match=resave):
        dep.server()
    with pytest.raises(SpliceRefusedError, match=resave):
        MemoSession(dep)


# ---------------------------------------------------------------------------
# the tentpole invariant: memo-on serving is bitwise memo-off, zoo-wide


@pytest.mark.parametrize("name", sorted(MODELS))
def test_memo_serving_is_bitwise_identical_to_plain(name):
    """Same stream through memo-on and memo-off servers: equal bits.

    The stream shares Zipf-popular substructures across requests, so the
    memo server actually splices (asserted below) — the comparison is
    cache-path against plain path, not cold cache against cold cache.
    """
    m = _small_model(name)
    stream = _stream(name, 24, CHAOS_SEED)
    plain = m.server(policy=MaxPendingRequests(4))
    memo = m.server(policy=MaxPendingRequests(4), memo="on")
    plain_handles = plain.serve_forever(stream)
    memo_handles = memo.serve_forever(stream)
    outs = m.lowered.module.output_buffers
    for hp, hm in zip(plain_handles, memo_handles):
        for out in outs:
            assert np.array_equal(hp.result().root_output(out),
                                  hm.result().root_output(out)), (name, out)
    snap = memo.metrics_snapshot()["memo"]
    assert snap["hits"] > 0, name              # the cache really engaged
    assert snap["spliced_nodes"] > 0, name
    assert snap["executed_nodes"] < snap["total_nodes"], name


@pytest.mark.skipif(not native_available(),
                    reason="no C compiler on the host")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_memo_on_the_native_target_matches_plain_and_the_oracle(name):
    """Seeded rows feed the native kernels exactly like computed ones.

    Memo-on against memo-off on ``target="c"`` is bitwise (a row's bits
    do not depend on its position or on its batch's extent there either);
    against ``interpret_reference`` it holds to the model's parity class.
    ``seq_lstm`` / ``seq_gru`` are the hard case: their ``pre`` kernel
    ranges over every id, stub rows with ``word = -1`` included.
    """
    m = _small_model(name, target="c")
    assert m.compiled.native is not None
    stream = _stream(name, 24, CHAOS_SEED)
    if name == "dagrnn":
        # the stream's join nodes carry word -1 and dagrnn reads every
        # node's word: the last feature row in NumPy, row 0 natively (an
        # open ROADMAP item) — give them a row the targets agree on
        for node in iter_nodes(stream):
            node.word = max(node.word, 0)
    plain = m.server(policy=MaxPendingRequests(4))
    memo = m.server(policy=MaxPendingRequests(4), memo="on")
    plain_handles = plain.serve_forever(stream)
    memo_handles = memo.serve_forever(stream)
    assert memo.metrics_snapshot()["memo"]["spliced_nodes"] > 0, name
    bitwise = all(c["bitwise"] for c in
                  parity_classification(m.lowered.module).values())
    for roots, hp, hm in zip(stream, plain_handles, memo_handles):
        rs = [roots] if isinstance(roots, Node) else list(roots)
        oracle = interpret_reference(m.program, rs, m.params)
        for i, out in enumerate(m.spec.outputs):
            got = hm.result().root_output(out)
            assert np.array_equal(got, hp.result().root_output(out)), \
                (name, out)
            want = np.stack([oracle[id(r)][i] if m.spec.multi_state
                             else oracle[id(r)] for r in rs])
            if bitwise:
                assert np.array_equal(got, want), (name, out)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6,
                                           err_msg=f"{name}/{out}")


def test_zipf_treelstm_stream_meets_the_hit_rate_gate():
    """The acceptance workload: 200 Zipf(1.1) requests, hit rate >= 30%."""
    m = _small_model("treelstm")
    stream = zipf_tree_stream(200, vocab_size=VOCAB, zipf_a=1.1, seed=42)
    plain = m.server(policy=MaxPendingRequests(16))
    memo = m.server(policy=MaxPendingRequests(16), memo="on")
    plain_handles = plain.serve_forever(stream)
    memo_handles = memo.serve_forever(stream)
    out = m.lowered.module.output_buffers[0]
    for hp, hm in zip(plain_handles, memo_handles):
        assert np.array_equal(hp.result().root_output(out),
                              hm.result().root_output(out))
    snap = memo.metrics_snapshot()["memo"]
    assert snap["requests"] == 200
    assert snap["hit_rate"] >= 0.30
    assert snap["full_hit_requests"] > 0
    assert snap["cache"]["entries"] > 0


def test_eviction_pressure_never_breaks_bitwise_identity():
    """A 6-entry cache thrashes on the stream yet stays bitwise exact."""
    m = _small_model("treegru")
    policy = MemoPolicy(max_entries=6, max_bytes=1 << 20)
    sess = MemoSession(m, policy=policy)
    for roots in zipf_tree_stream(30, vocab_size=VOCAB, seed=CHAOS_SEED):
        got = sess.run(roots)
        for out in m.lowered.module.output_buffers:
            assert np.array_equal(got[out], _solo_rows(m, roots, out))
    snap = sess.stats()
    assert snap["cache"]["evictions"] > 0      # the cap really bit
    assert snap["hits"] > 0


def test_shared_cache_across_models_never_aliases():
    """One MemoCache, two models: keys embed the model fingerprint."""
    cache = MemoCache()
    a, b = _small_model("treernn"), _small_model("treegru")
    tree = _balanced(3, np.random.default_rng(CHAOS_SEED))
    sa, sb = MemoSession(a, cache=cache), MemoSession(b, cache=cache)
    for _ in range(2):                         # second pass is a full hit
        out_a = sa.run(tree)
        out_b = sb.run(tree)
    for out in a.lowered.module.output_buffers:
        assert np.array_equal(out_a[out], _solo_rows(a, tree, out))
    for out in b.lowered.module.output_buffers:
        assert np.array_equal(out_b[out], _solo_rows(b, tree, out))
    # both models populated the one store, under disjoint keys
    per_model = len(cache) // 2
    assert per_model > 0 and sa.last.executed_nodes == 0
    assert sb.last.executed_nodes == 0


# ---------------------------------------------------------------------------
# the pruned forest goes through the model's one linearizer


def test_pruned_forest_layout_is_frozen():
    """The spliced layout, recorded at the commit before the splicer's
    own array builder was folded into ``Linearizer.__call__(stubs=)``:
    every array the kernels index, the per-request root ids, the seed
    rows' ids and the insert rows, byte for byte."""
    m = _small_model("treelstm")
    sess = MemoSession(m)
    t1 = tree_from_nested(((1, 2), (3, (4, 5))))
    sess.run(t1)
    a = tree_from_nested((((1, 2), 6), (3, (4, 5))))   # two cached subtrees
    b = tree_from_nested(((1, 2), 7))      # its (1, 2) shares a's stub
    res = sess.splicer.coalesce([[a], [b, t1]])         # t1: a full hit
    lin = res.lin

    def same(arr, dtype, values):
        return arr.dtype == dtype and arr.tolist() == values

    assert same(lin.child, np.int32, [[1, 3, 3, -1, -1, -1, -1, -1],
                                      [4, 6, 7, -1, -1, -1, -1, -1]])
    assert same(lin.words, np.int32, [-1, -1, -1, -1, -1, -1, 6, 7])
    assert same(lin.num_children, np.int32, [2, 2, 2, 0, 0, 0, 0, 0])
    assert same(lin.batch_begin, np.int32, [6, 1, 0])
    assert same(lin.batch_length, np.int32, [2, 2, 1])
    assert same(lin.roots, np.int32, [0, 2, 5])
    assert (lin.num_nodes, lin.num_leaves, lin.leaf_batch_count,
            lin.leaf_start, lin.max_batch_len) == (8, 2, 1, 6, 2)
    assert [r.dtype for r in res.root_ids] == [np.int64, np.int64]
    assert [r.tolist() for r in res.root_ids] == [[0], [2, 5]]
    assert sorted(res.seeds) == sorted(sess.splicer.buffers)
    for idx, rows in res.seeds.values():
        assert same(idx, np.intp, [3, 4, 5]) and rows.shape == (3, 8)
    assert [(i.row, i.nodes) for i in res.inserts] == [(2, 5), (0, 11),
                                                       (1, 5)]
    assert (res.lookups, res.hits, res.total_nodes, res.executed_nodes,
            res.full_hit_requests) == (7, 4, 25, 5, 0)

    # everything spliced: two stubs, no batch, nothing to execute
    lin = sess.splicer.coalesce([[t1], [t1.left]]).lin
    assert same(lin.child, np.int32, [[-1, -1], [-1, -1]])
    assert same(lin.words, np.int32, [-1, -1])
    assert same(lin.batch_begin, np.int32, [])
    assert same(lin.batch_length, np.int32, [])
    assert same(lin.roots, np.int32, [0, 1])
    assert (lin.num_nodes, lin.num_leaves, lin.leaf_batch_count,
            lin.leaf_start, lin.max_batch_len) == (2, 0, 0, 2, 1)


def test_memo_coalesce_is_the_plain_coalesce_plus_a_splice():
    """One ``coalesce`` for both paths: the same dead-handle guard, the
    same batch type, with the splice bookkeeping attached."""
    m = _small_model("treernn")
    memo = MemoSplicer(m)
    trees = synthetic_treebank(3, vocab_size=VOCAB,
                               rng=np.random.default_rng(CHAOS_SEED))
    reqs = [Request(request_id=i, roots=[t], num_nodes=0, submit_t=0.0)
            for i, t in enumerate(trees)]
    plain = coalesce(reqs, m.fast_linearizer())
    assert plain.splice is None and plain.seeds is None
    batch = coalesce(reqs, m.fast_linearizer(), memo)
    assert batch.splice.lin is batch.lin and batch.seeds == {}   # cold
    assert batch.num_requests == 3 and batch.num_nodes == plain.num_nodes
    assert all(np.array_equal(x, y)
               for x, y in zip(batch.root_ids, plain.root_ids))
    flushes = memo.flushes
    reqs[1].handle.cancel()
    with pytest.raises(ServingError, match="already resolved"):
        coalesce(reqs, m.fast_linearizer(), memo)
    assert memo.flushes == flushes      # refused before the splicer ran
    # coalesce checks no structure, whichever linearizer it is handed:
    # the doors do, before anything is queued or hashed
    shared = leaf(1)
    dag = [branch(shared, shared)]
    for lz in (m.fast_linearizer(), m.lowered.linearizer):
        coalesce([Request(request_id=9, roots=dag, num_nodes=2,
                          submit_t=0.0)], lz, memo)
    with pytest.raises(LinearizationError, match="compiled for a tree"):
        m.server(memo="on").submit(dag)
    with pytest.raises(LinearizationError, match="compiled for a tree"):
        MemoSession(m).run(dag)


@pytest.mark.parametrize("target", ("python", "c"))
def test_minus_one_leaf_word_fails_alone_on_memo_flushes(target):
    """A live leaf's word is gathered from the embedding table, so ``-1``
    (row ``-1`` in NumPy, 64 bytes before the table natively) is refused
    like any out-of-vocabulary word — on memo flushes too, which run the
    same linearizer, on every flush (no flush checks structure).
    """
    if target == "c" and not native_available():
        pytest.skip("no C compiler on the host")
    m = _small_model("treelstm", target=target)
    server = m.server(policy=MaxPendingRequests(4), memo="on")
    warm = synthetic_treebank(4, vocab_size=VOCAB,
                              rng=np.random.default_rng(CHAOS_SEED))
    for h in [server.submit([t]) for t in warm]:
        h.result(timeout=60.0)
    trees = synthetic_treebank(4, vocab_size=VOCAB,
                               rng=np.random.default_rng(CHAOS_SEED))
    hostile = trees[1]
    while hostile.children:
        hostile = hostile.children[0]
    hostile.word = -1
    handles = [server.submit([t]) for t in trees]
    assert all(h.done() for h in handles)
    for i, (t, h) in enumerate(zip(trees, handles)):
        if i == 1:
            with pytest.raises(LinearizationError,
                               match="word index -1 is outside"):
                h.result()
        else:
            _assert_bitwise_solo(m, t, h.result())
    assert server.metrics_snapshot()["memo"]["hits"] > 0
    with pytest.raises(LinearizationError, match="word index -1"):
        MemoSession(m).run(trees[1])


# ---------------------------------------------------------------------------
# incremental inference: sessions and grafts


def test_warm_session_executes_zero_nodes():
    m = _small_model("treelstm")
    sess = MemoSession(m)
    rng = np.random.default_rng(CHAOS_SEED)
    tree = _balanced(4, rng)                   # 31 nodes
    cold = sess.run(tree)
    assert sess.last.executed_nodes == sess.last.total_nodes == 31
    assert sess.last.hits == 0
    # a *structurally equal fresh object*: content addressing, not
    # object identity, drives the hit
    rng2 = np.random.default_rng(CHAOS_SEED)
    warm_tree = _balanced(4, rng2)
    assert warm_tree is not tree
    warm = sess.run(warm_tree)
    assert sess.last.executed_nodes == 0       # fully spliced flush
    assert sess.last.full_hit_requests == 1
    for out in m.lowered.module.output_buffers:
        assert np.array_equal(cold[out], warm[out])
        assert np.array_equal(warm[out], _solo_rows(m, tree, out))


def test_session_checks_structure_before_hashing():
    """A session is a door like ``submit``: the one structure walk runs on
    every call, before the hashing pass — which does not terminate on a
    cycle (the alarm is what lets this fail rather than hang)."""
    import signal

    m = _small_model("treernn")
    sess = MemoSession(m)
    a = branch(leaf(1), leaf(2))
    cyclic = branch(a, leaf(3))
    a.children = (cyclic, leaf(2))
    shared = leaf(1)

    def _hung(signum, frame):
        raise AssertionError("MemoSession.run did not return on a cycle")

    old = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(5)
    try:
        with pytest.raises(LinearizationError, match="contains a cycle"):
            sess.run(cyclic)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(LinearizationError, match="compiled for a tree"):
        sess.run(branch(shared, shared))
    with pytest.raises(LinearizationError, match="max_children=2"):
        sess.run_many([leaf(1), branch(leaf(1), leaf(2), leaf(3))])
    assert sess.stats()["flushes"] == 0        # refused before the splicer
    tree = branch(leaf(1), branch(leaf(2), leaf(3)))
    for out in m.lowered.module.output_buffers:
        assert np.array_equal(sess.run(tree)[out], _solo_rows(m, tree, out))


def test_graft_reexecutes_only_the_dirty_spine():
    m = _small_model("treernn")
    sess = MemoSession(m)
    rng = np.random.default_rng(CHAOS_SEED)
    tree = _balanced(4, rng)                   # depth 4, 31 nodes
    sess.run(tree)

    target = tree.children[0].children[1].children[0]   # a depth-3 branch
    edited = graft(tree, target, branch(leaf(7), leaf(8)))
    assert edited is not tree and tree.children[1] is edited.children[1]
    got = sess.run(edited)
    # only the replacement subtree and the root-ward spine miss: the
    # other 3 depth-1 subtrees (and the untouched sibling) splice
    assert 0 < sess.last.executed_nodes < sess.last.total_nodes // 2
    for out in m.lowered.module.output_buffers:
        assert np.array_equal(got[out], _solo_rows(m, edited, out))

    with pytest.raises(MemoError):
        graft(tree, branch(leaf(1), leaf(2)), leaf(3))   # unreachable
    repl = leaf(9)
    assert graft(tree, tree, repl) is repl


def test_graft_session_docstring_workflow_end_to_end():
    """The documented loop: run, graft a leaf, run, touch ~depth nodes."""
    m = _small_model("treegru")
    sess = MemoSession(m)
    tree = _balanced(5, np.random.default_rng(CHAOS_SEED))   # 63 nodes
    sess.run(tree)
    node = tree
    while node.children:
        node = node.children[0]
    edited = graft(tree, node, leaf((node.word + 1) % VOCAB))
    got = sess.run(edited)
    # the dirty spine is the leaf-to-root path (6 nodes at depth 5);
    # every interior sibling splices from cache, but the replaced leaf's
    # *leaf* sibling sits below min_subtree_nodes and re-executes too
    assert sess.last.executed_nodes == 7
    assert sess.last.hits > 0
    for out in m.lowered.module.output_buffers:
        assert np.array_equal(got[out], _solo_rows(m, edited, out))


# ---------------------------------------------------------------------------
# weights: params_version is the invalidation story


def test_bump_params_version_invalidates_stale_rows():
    m = _small_model("treernn")
    sess = MemoSession(m)
    tree = _balanced(3, np.random.default_rng(CHAOS_SEED))
    out = m.lowered.module.output_buffers[0]
    stale = sess.run(tree)[out].copy()

    name = sorted(m.params)[0]
    m.params[name] += np.float32(0.25)         # in-place weight edit

    # WITHOUT a bump the cache still answers from the old weights — this
    # is the hazard the API pairs with the edit
    assert np.array_equal(sess.run(tree)[out], stale)

    v0 = m.params_version
    assert m.bump_params_version() == v0 + 1
    fresh = sess.run(tree)[out]
    assert sess.last.hits == 0                 # old entries unreachable
    assert not np.array_equal(fresh, stale)
    assert np.array_equal(fresh, _solo_rows(m, tree, out))


# ---------------------------------------------------------------------------
# chaos: faults never poison the cache


def test_chaos_memo_server_bitwise_or_typed_with_verify():
    """Injected faults + verify-every-flush over a memoized server.

    ``MemoPolicy(verify=True)`` re-executes every successful flush
    unmemoized and demands byte equality *before* the cache commit — so
    a fault that left partial rows behind would surface here as a
    ``MemoVerifyError`` (a non-injected failure), which this test
    forbids.  Every request must end bitwise-identical-or-typed, with
    zero unresolved handles.
    """
    rng = np.random.default_rng(CHAOS_SEED)
    m = _small_model("treelstm")
    faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=0.12,
                           arena_failure_rate=0.08)
    srv = m.server(policy=MaxPendingRequests(4), faults=faults,
                   memo="on", memo_policy=MemoPolicy(verify=True))
    stream = zipf_tree_stream(60, vocab_size=VOCAB, seed=CHAOS_SEED)
    handles = [srv.submit(r) for r in stream]
    srv.drain()
    assert all(h.done() for h in handles)      # zero unresolved
    injected = 0
    for roots, h in zip(stream, handles):
        exc = h.exception()
        if exc is None:
            _assert_bitwise_solo(m, roots, h.result())
        else:
            assert not isinstance(exc, MemoVerifyError)
            assert isinstance(exc, CortexError)
            assert getattr(exc, "injected", False)
            injected += 1
    assert faults.kernel_failures + faults.arena_failures > 0
    snap = srv.metrics_snapshot()["memo"]
    assert snap["hits"] > 0                    # chaos didn't disable the cache
    assert snap["cache"]["entries"] > 0


def test_faulted_flush_commits_nothing():
    """A flush that dies mid-execution must not insert any rows."""
    m = _small_model("treefc")
    faults = FaultInjector(seed=CHAOS_SEED, kernel_failure_rate=1.0,
                           max_injections=1)
    srv = m.server(policy=MaxPendingRequests(4), faults=faults)
    # hand-wire the memo splicer so the failing attempt is observable
    splicer = MemoSplicer(m)
    srv.memo = splicer
    tree = _balanced(3, np.random.default_rng(CHAOS_SEED))
    h = srv.submit(tree)
    srv.drain()
    assert h.exception() is None               # retry healed it
    # the failed first attempt committed nothing: every entry present
    # came from the successful retry, and replays bitwise
    assert len(splicer.cache) > 0
    sess = MemoSession(m, splicer=splicer)
    got = sess.run(_balanced(3, np.random.default_rng(CHAOS_SEED)))
    assert sess.last.executed_nodes == 0
    for out in m.lowered.module.output_buffers:
        assert np.array_equal(got[out], _solo_rows(m, tree, out))


def _poison_entry(m, cache, tree):
    """Corrupt the cached rows of ``tree``'s root subtree by hand."""
    key = cache_key(m.memo_model_key(), m.params_version,
                    subtree_digest(tree))
    entry = cache.peek(key)
    assert entry is not None
    poisoned = {name: row.copy() + np.float32(1.0)
                for name, row in entry.rows.items()}
    assert cache.put(key, MemoEntry.from_rows(poisoned, entry.nodes))


def test_verify_mode_catches_a_poisoned_entry():
    """Corrupt a cached row by hand: verify must refuse to serve it."""
    m = _small_model("treernn")
    cache = MemoCache()
    sess = MemoSession(m, cache=cache)
    tree = _balanced(3, np.random.default_rng(CHAOS_SEED))
    sess.run(tree)

    _poison_entry(m, cache, tree)

    checked = MemoSession(m, splicer=MemoSplicer(
        m, cache=cache, policy=MemoPolicy(verify=True)))
    with pytest.raises(MemoVerifyError):
        checked.run(_balanced(3, np.random.default_rng(CHAOS_SEED)))
    # without verify the poison would have been served silently — the
    # point of the check
    assert MemoVerifyError.__mro__.index(CortexError) > 0


def test_failed_verify_returns_the_flush_workspace_to_the_arena():
    """A flush that executed but failed verification still hands its
    slab back to its class: the arena must not shrink across the failure."""
    m = _small_model("treernn")
    cache = MemoCache()
    srv = ModelServer(m, policy=MaxPendingRequests(1), memo="on",
                      memo_cache=cache, memo_policy=MemoPolicy(verify=True))
    tree = lambda: _balanced(3, np.random.default_rng(CHAOS_SEED))
    # the second flush is a full hit, so the third (same pruned shapes)
    # leases exactly the slab the second one returned
    for _ in range(2):
        srv.submit(tree()).result()
    before = m.arena.snapshot()
    assert before["pooled_bytes"] > 0 and before["leased"] == 0

    _poison_entry(m, cache, tree())

    h = srv.submit(tree())
    assert isinstance(h.exception(), MemoVerifyError)
    after = m.arena.snapshot()
    assert after["hits"] == before["hits"] + 1  # it ran in the parked slab
    assert after["pooled_bytes"] == before["pooled_bytes"]
    assert after["leased"] == 0


# ---------------------------------------------------------------------------
# observability: metrics, gauges, trace instants, CLI


def test_memo_metrics_gauges_and_trace_instants():
    m = _small_model("treegru")
    tracer = Tracer()
    srv = m.server(policy=MaxPendingRequests(8), memo="on", tracer=tracer)
    srv.serve_forever(zipf_tree_stream(30, vocab_size=VOCAB,
                                       seed=CHAOS_SEED))
    snap = srv.metrics_snapshot()
    memo = snap["memo"]
    for k in ("flushes", "requests", "lookups", "hits", "hit_rate",
              "total_nodes", "executed_nodes", "spliced_nodes",
              "spliced_fraction", "full_hit_requests", "cache"):
        assert k in memo, k
    assert memo["spliced_nodes"] == memo["total_nodes"] - \
        memo["executed_nodes"]
    text = srv.metrics_prometheus()
    for gauge in ("memo_cache_entries", "memo_cache_bytes", "memo_hits",
                  "memo_spliced_nodes", "memo_full_hit_requests"):
        assert gauge in text, gauge
    doc = srv.trace_export()
    assert validate_chrome_trace(doc) > 0
    names = {ev.get("name") for ev in doc["traceEvents"]}
    assert "memo_splice" in names
    splices = [ev for ev in doc["traceEvents"]
               if ev.get("name") == "memo_splice"]
    assert any(ev["args"].get("hits", 0) > 0 for ev in splices)


def test_cli_memo_reports_the_cache(capsys):
    from repro.tools.cli import main

    assert main(["memo", "treernn", "--hidden", "8",
                 "--requests", "40"]) == 0
    out = capsys.readouterr().out
    assert "subtree hit rate" in out
    assert "insertions / evictions / rejected" in out

    assert main(["memo", "treernn", "--hidden", "8", "--requests", "40",
                 "--json"]) == 0
    memo = json.loads(capsys.readouterr().out)
    assert memo["hits"] > 0 and 0.0 < memo["hit_rate"] <= 1.0


# ---------------------------------------------------------------------------
# odds and ends the layers above rely on


def test_splicer_accepts_mixed_node_and_sequence_root_sets():
    m = _small_model("treefc")
    sess = MemoSession(m)
    rng = np.random.default_rng(CHAOS_SEED)
    single = _balanced(2, rng)
    pair = synthetic_treebank(2, vocab_size=VOCAB, rng=rng)
    outs = sess.run_many([single, pair])
    assert len(outs) == 2
    solo = m.run(pair)
    ids = [solo.lin.node_id(r) for r in pair]
    out = m.lowered.module.output_buffers[0]
    assert np.array_equal(outs[1][out], solo.workspace[out][ids])


def test_memoized_sequences_share_prefixes():
    m = _small_model("seq_gru")
    sess = MemoSession(m)
    words = [int(w) for w in
             np.random.default_rng(CHAOS_SEED).integers(0, VOCAB, 12)]
    base = make_sequence(words)
    sess.run(base)
    extended = Node((base,), words[0])         # one more token on top
    sess.run(extended)
    assert sess.last.executed_nodes == 1       # the new token only
    out = m.lowered.module.output_buffers[0]
    got = sess.run(Node((make_sequence(words),), words[0]))   # fresh objects
    assert np.array_equal(got[out], _solo_rows(m, extended, out))
