"""Plan-based execution, workspace arena, generated kernels, linearizer.

The compiled host plan (``runtime/plan.py``) launching the generated
kernels must be *bit-identical* to the semantic oracle
(``ra/interp.py``) across the model zoo and schedule variants; a run
through the workspace arena must equal a fresh-workspace run of the same
plan buffer for buffer (no state leaks between calls, correct zero-fill
analysis, nothing leaked on failure); and the vectorized linearizer must
lay out exactly what the ``Node`` objects say.
"""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, Validate, api
from repro.data import synthetic_treebank
from repro.errors import ExecutionError
from repro.ir import evaluate
from repro.linearizer import (DagLinearizer, SequenceLinearizer,
                              TreeLinearizer, branch, leaf, sequence,
                              tree_from_nested)
from repro.linearizer.batches import plan_batches
from repro.linearizer.numbering import assign_ids
from repro.linearizer.structures import iter_nodes
from repro.models.registry import MODELS
from repro.ra.interp import interpret_reference
from repro.runtime import V100, WorkspaceArena
from repro.runtime.kernels import einsum2, einsum2_into
from repro.runtime.native import native_available
from repro.runtime.plan import execute_plan, get_host_plan
from repro.tools.artifact import load_model, save_model

VOCAB = 120


def _small_model(name, **options):
    args = dict(hidden=8)
    if name == "dagrnn":
        args["num_cells"] = 64
    else:
        args["vocab"] = VOCAB
    return api.compile(name, CompileOptions(**options), **args)


def _inputs(name, rng, batch=3):
    if name == "dagrnn":
        from repro.data import grid_dag_batch

        return grid_dag_batch(batch, 4, 4)
    if MODELS[name].kind.value == "sequence":
        from repro.models.sequential import make_sequence

        return [make_sequence(list(rng.integers(0, VOCAB, 12)))
                for _ in range(batch)]
    return synthetic_treebank(batch, vocab_size=VOCAB, rng=rng)


def _assert_ws_identical(ref, fast, context=""):
    assert set(ref.workspace) == set(fast.workspace), context
    for name in ref.workspace:
        assert np.array_equal(ref.workspace[name], fast.workspace[name],
                              equal_nan=True), (context, name)


def _assert_matches_oracle(m, roots, res, context=""):
    """Every node's state rows == ``interpret_reference``, zero tolerance."""
    derived = interpret_reference(m.program, roots, m.params)
    for node in iter_nodes(roots):
        nid = res.lin.node_id(node)
        vals = derived[id(node)]
        if not m.spec.multi_state:
            vals = (vals,)
        for out_name, v in zip(m.spec.outputs, vals):
            assert np.array_equal(res.output(out_name)[nid], v), \
                (context, out_name, nid)


def _fresh_run(m, roots):
    """The same plan over a fresh zero-filled workspace (no arena)."""
    return execute_plan(m.plan, m.lowered.linearizer(roots), m.params)


# ---------------------------------------------------------------------------
# plan path == semantic oracle, bit for bit


@pytest.mark.parametrize("name", list(MODELS))
def test_plan_execute_bit_identical_across_zoo(name):
    rng = np.random.default_rng(3)
    m = _small_model(name)
    roots = _inputs(name, rng)
    _assert_matches_oracle(m, roots, _fresh_run(m, roots), name)


@pytest.mark.parametrize("schedule", [
    dict(fusion="none"),
    dict(specialize=False),
    dict(dynamic_batch=False),
    dict(fusion="none", specialize=False,
         dynamic_batch=False),
    dict(dense_intermediates=False),
])
def test_plan_execute_bit_identical_schedule_variants(schedule):
    rng = np.random.default_rng(5)
    m = _small_model("treelstm", **schedule)
    roots = _inputs("treelstm", rng)
    _assert_matches_oracle(m, roots, _fresh_run(m, roots), schedule)


def test_plan_is_cached_on_compiled_module():
    m = _small_model("treernn")
    p1 = get_host_plan(m.lowered, m.compiled)
    p2 = get_host_plan(m.lowered, m.compiled)
    assert p1 is p2
    assert p1 is m.plan  # compile() built it eagerly


def test_plan_partitions_kernels_like_module_steps():
    m = _small_model("treelstm", fusion="none")
    plan = m.plan
    kinds = {k.kind for k in m.lowered.module.kernels}
    assert {"leaf", "level"} <= kinds
    assert len(plan.leaf) + len(plan.level) == len(m.lowered.module.kernels)
    assert not plan.fused
    m2 = _small_model("treelstm")
    assert len(m2.plan.fused) == 1 and not m2.plan.level


def test_plan_zero_analysis_marks_state_not_dense_intermediates():
    m = _small_model("treelstm")
    by_name = {b.name: b for b in m.plan.buffers}
    for state in m.lowered.module.state_buffers:
        assert by_name[state].needs_zero, state
    # dense intermediates are written before every read — no re-zeroing
    assert not by_name["h_tilde"].needs_zero
    assert not by_name["mi"].needs_zero


def test_plan_missing_param_and_bad_shape_errors():
    m = _small_model("treernn")
    roots = _inputs("treernn", np.random.default_rng(0))
    lin = m.lowered.linearizer(roots)
    bad = dict(m.params)
    first = next(iter(bad))
    wrong = {k: v for k, v in bad.items() if k != first}
    with pytest.raises(ExecutionError, match="missing model parameter"):
        execute_plan(m.plan, lin, wrong)
    wrong2 = dict(m.params)
    wrong2[first] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ExecutionError, match="shape"):
        execute_plan(m.plan, lin, wrong2)


# ---------------------------------------------------------------------------
# run / run_many / arena semantics


@pytest.mark.parametrize("name", ["treelstm", "treegru", "dagrnn"])
def test_run_many_bit_identical_to_seed_path(name):
    rng = np.random.default_rng(11)
    m = _small_model(name)
    batches = [_inputs(name, rng, batch=b) for b in (1, 3, 2, 3)]
    results = m.run_many(batches)
    assert len(results) == len(batches)
    # results must all stay valid (copies) even after later calls reused
    # the same workspace buffers
    for roots, br in zip(batches, results):
        ref = _fresh_run(m, roots)
        for out_name in br.outputs:
            assert np.array_equal(br.outputs[out_name],
                                  ref.root_output(out_name)), \
                (name, out_name)


def test_run_reuse_does_not_leak_state_between_inputs():
    rng = np.random.default_rng(23)
    m = _small_model("treelstm")
    a = _inputs("treelstm", rng, batch=2)
    b = _inputs("treelstm", rng, batch=2)  # different trees, similar sizes
    for i, roots in enumerate((a, b, a, b)):
        got = m.run(roots, reuse=True)
        ref = _fresh_run(m, roots)
        for name in _defined(m):
            assert np.array_equal(ref.workspace[name],
                                  got.workspace[name]), (i, name)
    # the second round ran in the slabs the first round dirtied
    assert m.arena.stats.hits >= 2


def _poison(arena):
    """Fill every parked slab with bytes that read as NaN / negative ids."""
    slabs = [slab for parked in arena._free.values() for slab in parked]
    for slab in slabs:
        slab.fill(0xFF)
    return slabs


def _defined(m):
    """Buffers whose whole contents a call defines: the outputs, the state
    and everything the plan re-zeroes (rows of a write-before-read buffer
    that no batch wrote are unspecified by design — they can only matter
    through the others)."""
    return sorted(set(m.default_outputs()) | {
        b.name for b in m.plan.buffers if b.needs_zero})


def _assert_poison_proof(m, roots, context):
    """Poison the whole parked slab, rerun through the arena, and require
    every defined buffer to equal a fresh-workspace run of the plan."""
    m.run(roots, reuse=True)
    m.release()  # return the leased slab to the arena
    assert _poison(m.arena)
    got = m.run(roots, reuse=True)
    assert m.arena.stats.hits > 0  # the poisoned slab was the one reused
    ref = _fresh_run(m, roots)
    for name in _defined(m):
        assert np.array_equal(ref.workspace[name], got.workspace[name]), \
            (context, name)


def test_arena_poisoned_buffers_do_not_change_outputs():
    """Re-acquired buffers may hold garbage; outputs must be unaffected.

    This is the empirical check of the needs_zero analysis: poison the
    parked slab with NaN, rerun, and require bit-identical buffers.
    """
    rng = np.random.default_rng(31)
    for name in ("treelstm", "treegru", "dagrnn"):
        m = _small_model(name)
        _assert_poison_proof(m, _inputs(name, rng, batch=2), name)


@pytest.mark.parametrize("target", ["python", "c"])
@pytest.mark.parametrize("name", ["treelstm", "treegru", "dagrnn"])
def test_arena_poisoned_buffers_do_not_change_outputs_reloaded(
        name, target, tmp_path):
    """The same poison check on a ``load_model(save_model(m))`` handle:
    a reloaded artifact recycles buffers under the recorded ``needs_zero``
    verdicts, not a zero-everything fallback, so they must hold there."""
    if target == "c" and not native_available():
        pytest.skip("no C compiler")
    m = _small_model(name, target=target)
    dep = load_model(save_model(m, tmp_path / "artifact"))
    assert not all(b.needs_zero for b in dep.plan.buffers)
    roots = _inputs(name, np.random.default_rng(31), batch=2)
    _assert_ws_identical(m.run(roots), dep.run(roots), (name, target))
    _assert_poison_proof(dep, roots, (name, target))


@pytest.mark.parametrize("target", ["python", "c"])
@pytest.mark.parametrize("name", list(MODELS))
def test_zoo_bitwise_through_every_path_with_poisoned_slabs(
        name, target, tmp_path):
    """Every way into ``execute_plan`` — ``run``, ``run(reuse=True)``,
    ``run_many``, the server with memo off and on, ``MemoSession`` and a
    reloaded artifact — returns the oracle's root rows (Python target) /
    a fresh-workspace run's (C target), bit for bit, with every parked
    slab poisoned before each call."""
    from repro.memo import MemoSession, splice_refusal

    if target == "c" and not native_available():
        pytest.skip("no C compiler")
    m = _small_model(name, target=target)
    roots = _inputs(name, np.random.default_rng(41))
    ref = _fresh_run(m, roots)
    if target == "python":
        _assert_matches_oracle(m, roots, ref, name)
    names = m.default_outputs()
    want = {n: ref.workspace[n][[ref.lin.node_id(r) for r in roots]]
            for n in names}

    def same(outputs, context):
        for n in names:
            assert np.array_equal(outputs[n], want[n]), (name, context, n)

    def by_root(res):
        return {n: res.workspace[n][[res.lin.node_id(r) for r in roots]]
                for n in names}

    same(by_root(m.run(roots)), "run")
    dep = load_model(save_model(m, tmp_path / "artifact"))
    for model, label in ((m, "in-process"), (dep, "reloaded")):
        for i in range(3):  # the first call parks the slab the next poison
            same(by_root(model.run(roots, reuse=True)), (label, "reuse", i))
            model.release()
            assert _poison(model.arena)
        # run_many orders root rows like the roots, as root_output does
        same(model.run_many([roots, roots])[1].outputs, (label, "run_many"))
        _poison(model.arena)
        memos = ["off"] + (["on"] if splice_refusal(model) is None else [])
        for memo in memos:
            srv = model.server(memo=memo)
            for i in range(3):
                handle = srv.submit(roots)
                srv.flush()
                same(handle.result().outputs, (label, "server", memo, i))
                _poison(model.arena)
            srv.stop()
        if "on" in memos:
            sess = MemoSession(model)
            for i in range(3):
                same(sess.run(roots), (label, "session", i))
                _poison(model.arena)
        assert model.arena.stats.hits >= 6
        assert model.arena.snapshot()["leased"] == 0


def test_failed_workspace_build_returns_leases_to_arena():
    """A typed refusal while building the workspace (a missing parameter)
    happens before the lease, and a failure after it (a bad seed row) hands
    the slab back to its class: a failed call never shrinks the arena."""
    m = _small_model("treelstm")
    roots = _inputs("treelstm", np.random.default_rng(2), batch=2)
    m.run(roots, reuse=True)
    m.release()
    parked = lambda: (m.arena.pooled_bytes, m.arena.snapshot()["leased"])
    before = parked()
    assert before[0] > 0 and before[1] == 0
    kept = m.params.pop("bf")
    with pytest.raises(ExecutionError, match="missing model parameter 'bf'"):
        m.run(roots, reuse=True)
    assert m.arena.stats.hits == 0 and parked() == before  # no lease yet
    m.params["bf"] = kept
    lin = m.lowered.linearizer(roots)
    with pytest.raises(IndexError):
        execute_plan(m.plan, lin, m.params, arena=m.arena, seeds={
            "rnn_h_ph": (np.array([lin.num_nodes]), np.zeros((1, 8)))})
    # the one slab is back in its class, nothing is still out on lease
    assert m.arena.stats.hits == 1 and parked() == before


def test_run_reuse_recycles_previous_workspace():
    rng = np.random.default_rng(7)
    m = _small_model("treernn")
    roots = _inputs("treernn", rng, batch=2)
    r1 = m.run(roots, reuse=True)
    (slab,) = r1.arena_buffers  # a call's lease is one slab
    r2 = m.run(roots, reuse=True)  # same size class: r1's slab is reused
    assert r2.arena_buffers[0] is slab
    assert m.arena.stats.hits == 1 and m.arena.stats.misses == 1


def test_run_paths_take_no_simulated_device():
    """Simulated figures come from ``repro.runtime.estimate`` only."""
    m = _small_model("treernn")
    roots = _inputs("treernn", np.random.default_rng(0), batch=2)
    lin = m.lowered.linearizer(roots)
    for call in (lambda: m.run(roots, device=V100),
                 lambda: m.run_many([roots], device=V100),
                 lambda: execute_plan(m.plan, lin, m.params, device=V100)):
        with pytest.raises(TypeError, match="device"):
            call()


def test_run_many_validate_modes():
    m = _small_model("treernn")
    roots = _inputs("treernn", np.random.default_rng(0), batch=1)
    for mode in (Validate.FIRST, Validate.ALWAYS, Validate.NEVER):
        assert m.run_many([roots, roots], validate=mode)
    with pytest.raises(TypeError, match="Validate"):
        m.run_many([roots], validate="first")
    # validation still fires on the first batch: a DAG fed to a tree model
    shared = leaf(3)
    dag = branch(branch(shared, leaf(1)), shared)
    from repro.errors import LinearizationError

    with pytest.raises(LinearizationError):
        m.run_many([[dag]])


# ---------------------------------------------------------------------------
# arena mechanics


def test_arena_pool_hit_and_zero_fill():
    arena = WorkspaceArena()
    a = arena.lease(5000, zero=64)
    assert a.dtype == np.uint8 and a.ndim == 1 and a.nbytes == 8192
    assert a.ctypes.data % 64 == 0 and not a.any()
    a[:] = 5
    arena.release(a)
    assert arena.pooled_bytes == 8192
    b = arena.lease(8192, zero=64)  # same class: the parked slab, re-zeroed
    assert b is a and not b[:64].any()
    assert b[64:].all()  # garbage allowed past what the plan asked zeroed
    assert arena.pooled_bytes == 0
    c = arena.lease(8193)  # next class up: a fresh slab
    assert c is not a and c.nbytes == 16384
    assert arena.stats.hits == 1 and arena.stats.misses == 2
    assert arena.stats.hit_rate == pytest.approx(1 / 3)


def test_arena_parks_a_bounded_number_of_slabs_per_class():
    from repro.runtime.memory import SLABS_PER_CLASS

    arena = WorkspaceArena()
    assert arena.max_pooled_bytes == 0
    for size in (4096, 1 << 16, 1 << 20):
        slabs = [arena.lease(size) for _ in range(SLABS_PER_CLASS + 3)]
        arena.release_many(slabs)
        assert len(arena._free[size]) == SLABS_PER_CLASS
        assert arena.pooled_bytes <= arena.max_pooled_bytes
    assert arena.max_pooled_bytes == 2 * SLABS_PER_CLASS * (1 << 20)
    assert arena.pooled_bytes == SLABS_PER_CLASS * (4096 + (1 << 16)
                                                    + (1 << 20))


def test_arena_refuses_a_lease_above_the_ceiling(monkeypatch):
    """One fixed ceiling, refused typed before anything is allocated."""
    from repro.runtime import memory

    arena = WorkspaceArena()
    with pytest.raises(ExecutionError, match="lease ceiling"):
        arena.lease(memory.MAX_LEASE_BYTES + 1)      # no 2 GiB allocation
    assert arena.snapshot()["leased"] == 0 and not arena.stats.misses
    assert arena.lease(4096).nbytes == 4096
    # through a call: a forest whose workspace is over the ceiling
    model = _small_model("treelstm")
    trees = synthetic_treebank(8, vocab_size=VOCAB)
    lin = model.lowered.linearizer(trees, check=False)
    need = model.plan.layout(lin.num_nodes, lin.max_batch_len)[2]
    monkeypatch.setattr(memory, "MAX_LEASE_BYTES", need - 1)
    with pytest.raises(ExecutionError, match="split the input batch"):
        model.run(trees, reuse=True)
    assert model.arena.snapshot()["leased"] == 0
    model.run(trees[:1], reuse=True)                 # a smaller one is fine


def test_arena_refuses_double_and_foreign_release():
    """Parking one slab twice would hand it to two later leases at once."""
    arena = WorkspaceArena()
    slab = arena.lease(100)
    arena.release(slab)
    with pytest.raises(ExecutionError, match="not leased out"):
        arena.release(slab)
    with pytest.raises(ExecutionError, match="not leased out"):
        arena.release(np.zeros(128, dtype=np.uint8))
    with pytest.raises(ExecutionError, match="not leased out"):
        WorkspaceArena().release(arena.lease(100))  # another arena's lease
    assert arena.pooled_bytes == 0  # the parked slab went back out
    a, b = arena.lease(100), arena.lease(100)
    assert a is not b


# ---------------------------------------------------------------------------
# the workspace layout: one slab per call, cut by the plan


@functools.lru_cache(maxsize=None)
def _zoo_model(name):
    return _small_model(name)


def _sized(num_nodes, max_batch_len):
    """All of a ``Linearized`` that ``make_workspace`` reads."""
    return types.SimpleNamespace(num_nodes=num_nodes,
                                 max_batch_len=max_batch_len,
                                 uf_arrays=dict)


_SIZES = st.lists(
    st.tuples(st.integers(1, 400), st.integers(1, 64)).map(
        lambda nb: (nb[0], min(nb))),
    min_size=1, max_size=6)


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=20, deadline=None)
@given(sizes=_SIZES)
def test_workspace_layout_over_the_zoo(name, sizes):
    """Every scratch buffer of a call is a view of the one leased slab:
    exactly the declared shape and dtype, C-contiguous, starting on a
    64-byte boundary, inside the slab and disjoint from every other; the
    ``needs_zero`` ones are the slab's prefix and read zero even when the
    slab comes back poisoned; parameters are the caller's own arrays."""
    m = _zoo_model(name)
    plan, module, arena = m.plan, m.lowered.module, WorkspaceArena()
    for num_nodes, max_batch_len in sizes + sizes[:1]:  # ends on a re-lease
        ws, (slab,) = plan.make_workspace(_sized(num_nodes, max_batch_len),
                                          m.params, arena)
        bindings = {"num_nodes": num_nodes, "max_batch_len": max_batch_len}
        _, zero_bytes, total = plan.layout(num_nodes, max_batch_len)
        assert total <= slab.nbytes
        lo = slab.ctypes.data
        spans = []
        for step in plan.buffers:
            view, buf = ws[step.name], module.buffers[step.name]
            if step.required_param:
                assert view is m.params[step.name]
                continue
            assert view.shape == tuple(int(evaluate(d, bindings))
                                       for d in buf.shape), step.name
            assert view.dtype == np.dtype(buf.dtype.to_numpy())
            assert view.flags.c_contiguous and view.flags.writeable
            start = view.ctypes.data
            assert start % 64 == 0 and start >= lo
            assert start + view.nbytes <= lo + total
            if step.needs_zero:
                assert start + view.nbytes <= lo + zero_bytes
                assert not view.any(), step.name
            else:
                assert start >= lo + zero_bytes
            spans.append((start, start + view.nbytes))
        assert len(spans) == len(plan.scratch)
        spans.sort()
        assert all(a_end <= b_start
                   for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
        slab.fill(0xFF)  # poison all of it before it is parked
        arena.release(slab)
        assert arena.snapshot()["leased"] == 0
        assert arena.pooled_bytes <= arena.max_pooled_bytes
    assert arena.stats.hits >= 1


def test_workspace_without_arena_is_the_same_layout_over_fresh_zeros():
    m = _zoo_model("treelstm")
    lin = m.lowered.linearizer(_inputs("treelstm", np.random.default_rng(1)))
    fresh, none = m.plan.make_workspace(lin, m.params)
    leased, (slab,) = m.plan.make_workspace(lin, m.params, WorkspaceArena())
    assert none == [] and list(fresh) == list(leased)
    base = fresh[m.plan.scratch[0].name].ctypes.data
    for step in m.plan.scratch:
        a, b = fresh[step.name], leased[step.name]
        assert (a.shape, a.dtype) == (b.shape, b.dtype) and not a.any()
        assert a.ctypes.data - base == b.ctypes.data - slab.ctypes.data


def test_caller_supplied_scratch_buffer_is_used_in_place():
    m = _zoo_model("treelstm")
    lin = m.lowered.linearizer(_inputs("treelstm", np.random.default_rng(1)))
    mine = np.zeros((lin.num_nodes, 8), dtype=np.float32)
    ws, _ = m.plan.make_workspace(lin, {**m.params, "rnn_h_ph": mine})
    assert ws["rnn_h_ph"] is mine
    with pytest.raises(ExecutionError, match="parameter rnn_h_ph: shape"):
        m.plan.make_workspace(lin, {**m.params, "rnn_h_ph": mine[1:]})


# ---------------------------------------------------------------------------
# launch frames: the native target's host path makes no array it need not


def _eager_workspace(m, lin, seeds=None):
    """A call as an eager host makes it: every linearizer array, every
    scratch buffer (a view of fresh zeros) and every parameter in one dict,
    then each launcher called on it — checking and marshalling every array
    it is handed — in ``execute_plan``'s order."""
    from repro.runtime.memory import aligned_bytes

    plan = m.plan
    c = plan.bind_scalars(lin)
    entries, _, total = plan.layout(lin.num_nodes, lin.max_batch_len)
    slab = aligned_bytes(total, np.zeros)
    ws = lin.uf_arrays()
    for name, dtype, shape, offset in entries:
        ws[name] = np.ndarray(shape, dtype, slab, offset)
    ws.update(m.params)
    for name, (rows_idx, rows) in (seeds or {}).items():
        ws[name][rows_idx] = rows
    begins, lengths = lin.batch_begin.tolist(), lin.batch_length.tolist()
    for _, fn in plan.pre:
        fn(ws, c)
    for _, fn in plan.leaf:
        for lb in range(c["leaf_batch_count"]):
            fn(ws, c, begins[lb], lengths[lb])
    for b in range(c["level_start"], c["num_batches"]):
        for _, fn in plan.level:
            fn(ws, c, begins[b], lengths[b])
    for _, fn in plan.fused + plan.post:
        fn(ws, c)
    return ws


def _assert_same_linearized(lazy, eager):
    """Every array field, row alias and scalar of two ``Linearized``."""
    ufs_a, ufs_b = lazy.uf_arrays(), eager.uf_arrays()
    assert list(ufs_a) == list(ufs_b)
    for name in ufs_b:
        a, b = ufs_a[name], ufs_b[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert lazy.input_roots.tobytes() == eager.input_roots.tobytes()
    for name in ("num_nodes", "num_leaves", "num_batches", "leaf_start",
                 "leaf_batch_count", "max_batch_len", "max_children"):
        assert getattr(lazy, name) == getattr(eager, name), name
    assert all(a is b for a, b in zip(lazy.order, eager.order))


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("preset", ["paper_headline", "unfused_ablation",
                                    "debug"])
@pytest.mark.parametrize("name", list(MODELS))
def test_lazy_views_are_the_eager_arrays(name, preset):
    """On the C target a call's ``Linearized`` cuts its views and its
    workspace makes its buffers on first read; both are bitwise the arrays
    an eager host builds — through ``run``, ``run_many`` and a memoized
    flush with seeds."""
    from repro.errors import MemoError
    from repro.memo import MemoSession
    from repro.options import PRESETS

    m = _small_model(name, **dict(PRESETS[preset].to_dict(), target="c"))
    assert m.plan.addressed
    rng = np.random.default_rng(5)
    roots, more = _inputs(name, rng), _inputs(name, rng, batch=2)

    res = m.run(roots)
    eager_lin = m.lowered.linearizer(roots)
    _assert_same_linearized(res.lin, eager_lin)
    want = _eager_workspace(m, eager_lin)
    assert set(res.workspace) == set(want)
    for key, arr in want.items():
        got = res.workspace[key]
        assert (got.dtype, got.shape) == (arr.dtype, arr.shape), key
        assert got.tobytes() == arr.tobytes(), key

    outs = m.default_outputs()
    for batch, got in zip((roots, more), m.run_many(
            [roots, more], validate=Validate.NEVER)):
        lin = m.lowered.linearizer(batch, check=False)
        _assert_same_linearized(lin, m.lowered.linearizer(batch))
        eager = _eager_workspace(m, lin)
        for out in outs:
            assert got.outputs[out].tobytes() == (
                eager[out][lin.input_roots].tobytes()), out

    try:
        session = MemoSession(m)
    except MemoError:
        return  # a model the splicer refuses has no memoized flush
    session.run(roots[0])
    tree = roots[0] if name == "dagrnn" else more[0]
    got = session.run_many([[roots[0], tree]])[0]
    lin = m.lowered.linearizer([roots[0], tree])
    eager = _eager_workspace(m, lin)
    for out in session._outputs:
        assert got[out].tobytes() == eager[out][lin.input_roots].tobytes()
    assert session.last.seeds or name == "dagrnn"


def _entry_model(m, variant, team):
    """``m`` with a host plan over one ISA variant's own entry points,
    fused kernels split across ``team`` members, and an arena of its own:
    every call runs through the library's host entry."""
    import copy
    import dataclasses

    compiled = copy.copy(m.compiled)
    compiled.native = types.SimpleNamespace(
        fns=m.compiled.native.variant_fns(variant, team=team))
    plan = get_host_plan(m.lowered, compiled)
    assert plan.addressed
    return dataclasses.replace(m, plan=plan, arena=WorkspaceArena())


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize("preset", ["paper_headline", "unfused_ablation",
                                    "debug"])
@pytest.mark.parametrize("name", list(MODELS))
def test_host_entry_is_bitwise_the_launchers_by_hand(name, preset):
    """One call into the library's host entry gives the bits of the same
    launchers called one by one, each marshalling its arrays by hand —
    on every ISA variant the library holds (that this CPU runs), fused
    kernels teamed one and two: through ``run``, ``run_many``, a
    memoized flush with seeds, a coalesced server flush and a buffer the
    caller passes in place of a scratch one."""
    from repro.errors import MemoError
    from repro.memo import MemoSession
    from repro.options import PRESETS
    from repro.runtime.native import cpu_variants
    from repro.serve import MaxPendingRequests

    m = _small_model(name, **dict(PRESETS[preset].to_dict(), target="c"))
    rng = np.random.default_rng(7)
    roots, more = _inputs(name, rng), _inputs(name, rng, batch=2)
    outs = m.default_outputs()
    runs = cpu_variants() or ("base",)
    for variant in [v for v in m.compiled.native.holds if v in runs]:
        for team in (1, 2):
            vm = _entry_model(m, variant, team)
            where = (variant, team)
            res = vm.run(roots)
            want = _eager_workspace(vm, vm.lowered.linearizer(roots))
            for out in outs:
                assert res.workspace[out].tobytes() == want[out].tobytes(), \
                    (where, out)

            for batch, got in zip((roots, more), vm.run_many(
                    [roots, more], validate=Validate.NEVER)):
                lin = vm.lowered.linearizer(batch, check=False)
                eager = _eager_workspace(vm, lin)
                for out in outs:
                    assert got.outputs[out].tobytes() == (
                        eager[out][lin.input_roots].tobytes()), (where, out)

            srv = vm.server(policy=MaxPendingRequests(2))
            handles = [srv.submit(r) for r in (roots, more)]
            srv.flush()
            for batch, h in zip((roots, more), handles):
                lin = vm.lowered.linearizer(batch)
                eager = _eager_workspace(vm, lin)
                for out in outs:
                    assert h.result().root_output(out).tobytes() == (
                        eager[out][lin.input_roots].tobytes()), (where, out)

            lin = vm.lowered.linearizer(roots)
            mine = {out: np.zeros_like(want[out]) for out in outs[:1]}
            res = execute_plan(vm.plan, lin, {**vm.params, **mine})
            for out in outs:
                assert res.workspace[out].tobytes() == want[out].tobytes()
            assert all(res.workspace[k] is v for k, v in mine.items())

            try:
                session = MemoSession(vm)
            except MemoError:
                continue  # a model the splicer refuses has no memoized flush
            session.run(roots[0])
            tree = roots[0] if name == "dagrnn" else more[0]
            got = session.run_many([[roots[0], tree]])[0]
            lin = vm.lowered.linearizer([roots[0], tree])
            eager = _eager_workspace(vm, lin)
            for out in session._outputs:
                assert got[out].tobytes() == (
                    eager[out][lin.input_roots].tobytes()), (where, out)
            assert session.last.seeds or name == "dagrnn"


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_every_call_shape_gets_its_own_addresses():
    """The one host entry serves every call shape: over forty trees of
    many shapes, each launch's addresses (the entry run dry) are its
    workspace arrays' own, its ``S`` vector is ``bind_scalars``', and
    each call's outputs are bitwise the eager host's."""
    from repro.runtime.kernels import data_address, panel_packed

    m = _small_model("treelstm", target="c")
    plan = m.plan
    trees = _inputs("treelstm", np.random.default_rng(2), batch=40)
    shapes = set()
    for t in trees:
        lin = m.lowered.linearizer([t], check=False)
        shapes.add((lin.num_nodes, lin.max_batch_len, lin.num_batches))
        c = plan.bind_scalars(lin)
        ws, (slab,), launches = plan.arguments(lin, m.params, m.arena)
        try:
            for _, fn, addresses, scalars in launches:
                assert addresses == (
                    [ws[n].ctypes.data for n, _ in fn.abi_arrays]
                    + [data_address(panel_packed(ws[n], fn.panel))
                       for n, _ in fn.abi_packed])
                assert scalars == [c[s] for s in fn.signature.scalars]
        finally:
            m.arena.release_many([slab])
        res = m.run([t], reuse=True, validate=Validate.NEVER)
        want = _eager_workspace(m, lin)["rnn_h_ph"][lin.input_roots]
        assert res.root_output("rnn_h_ph").tobytes() == want.tobytes()
    assert len(shapes) > 10


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_replaced_parameters_are_not_kept():
    """A parameter the caller replaces with a new array is let go: once
    the call that read it is released, nothing the plan keeps holds the
    old array (or, through it, its packed panel), whatever shape the
    calls after the swap have."""
    import gc
    import weakref

    m = _small_model("treelstm", target="c")
    fn = m.plan.fused[0][1]
    name = next(n for n, _ in fn.abi_packed)
    before, after = (_inputs("treelstm", np.random.default_rng(s))
                     for s in (3, 4))
    lin = m.run(before, reuse=True, validate=Validate.NEVER).lin
    old = weakref.ref(m.params[name])
    m.params[name] = m.params[name].copy()
    res = m.run(after, reuse=True, validate=Validate.NEVER)
    assert res.lin.num_nodes != lin.num_nodes
    m.release()
    del res, lin
    gc.collect()
    assert old() is None


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_caller_supplied_scratch_buffer_is_launched_in_place():
    """On the C target too, a caller's own scratch buffer is checked and
    written in place, and the call's outputs do not move."""
    from repro.errors import NativeError

    m = _small_model("treelstm", target="c")
    lin = m.lowered.linearizer(_inputs("treelstm", np.random.default_rng(1)),
                               check=False)
    want = execute_plan(m.plan, lin, m.params).workspace["rnn_h_ph"].copy()
    mine = np.zeros_like(want)
    res = execute_plan(m.plan, lin, {**m.params, "rnn_h_ph": mine})
    assert res.workspace["rnn_h_ph"] is mine
    assert mine.tobytes() == want.tobytes()
    with pytest.raises(ExecutionError, match="parameter rnn_h_ph: shape"):
        execute_plan(m.plan, lin, {**m.params, "rnn_h_ph": mine[1:]})
    with pytest.raises(NativeError, match="is not C-contiguous"):
        wide = np.zeros((mine.shape[0], 2 * mine.shape[1]), mine.dtype)
        execute_plan(m.plan, lin, {**m.params, "rnn_h_ph": wide[:, ::2]})


# ---------------------------------------------------------------------------
# fast kernels: einsum2 and the generated fast source


@pytest.mark.parametrize("spec,sa,sb,deviates", [
    ("bc,ac->ab", (7, 5), (3, 5), True),     # canonicalized: operands swap
    ("cd,abd->abc", (6, 4), (3, 2, 4), True),   # canonicalized
    ("ab,bc->ac", (3, 4), (4, 5), False),
    ("ij,jk->ki", (3, 4), (4, 5), True),     # canonicalized
    ("ab,ab->", (3, 4), (3, 4), True),       # scalar output: M = N = 1 edge
    ("abc,c->ab", (2, 3, 4), (4,), True),    # no free axis on b: N = 1 edge
    ("ab,ab->ab", (3, 4), (3, 4), False),    # not BLAS-able: einsum fallback
    ("abd,cd->acb", (2, 3, 4), (5, 4), False),  # perm either way: direct
])
def test_einsum2_bit_identical_to_einsum(spec, sa, sb, deviates):
    rng = np.random.default_rng(17)
    a = rng.standard_normal(sa).astype(np.float32)
    b = rng.standard_normal(sb).astype(np.float32)
    want = np.einsum(spec, a, b, optimize=True)
    got = einsum2(spec, a, b)
    if deviates:
        # deliberate deviations from einsum's own lowering — canonicalized
        # operand order (batch axis on the GEMM's M side) and padded
        # 1-extent edges — both for batch-extent invariance, the serving
        # coalescer's bit-identity guarantee; same math, last-bit changes
        np.testing.assert_allclose(np.asarray(want), np.asarray(got),
                                   rtol=1e-5, atol=1e-6)
    else:
        assert np.array_equal(np.asarray(want), np.asarray(got))


def test_einsum2_into_writes_in_place_and_falls_back():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 5)).astype(np.float32)
    b = rng.standard_normal((3, 5)).astype(np.float32)
    want = np.einsum("bc,ac->ab", a, b, optimize=True)
    buf = np.zeros((10, 10), dtype=np.float32)
    einsum2_into("bc,ac->ab", a, b, buf[0:3, 0:6])
    assert np.array_equal(buf[0:3, 0:6], want)
    # non-contiguous destination: assign path, still correct
    buf2 = np.zeros((10, 20), dtype=np.float32)
    einsum2_into("bc,ac->ab", a, b, buf2[0:3, 0:12:2])
    assert np.array_equal(buf2[0:3, 0:12:2], want)


def test_fast_source_is_emitted_and_distinct():
    """One flavor: the emitted source *is* the plan-cached-einsum,
    branchless-sigmoid one, exec'd once into the one kernel table the
    plan launches."""
    m = _small_model("treelstm")
    mod = m.lowered.module
    assert "_e2(" in mod.python_source or "_e2i(" in mod.python_source
    assert "sigmoid_fast as _sigmoid" in mod.python_source
    assert "np.einsum" not in mod.python_source
    assert m.python_source == mod.python_source
    assert m.compiled["fused"] is m.compiled.fns["fused"]
    assert m.plan.fused == [("fused", m.compiled.fns["fused"])]


# ---------------------------------------------------------------------------
# linearizer: vectorized builder, caches, satellites


def _lin_equal(a, b):
    for f in ("child", "num_children", "words", "batch_begin",
              "batch_length", "roots"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    assert a.num_nodes == b.num_nodes
    assert a.num_leaves == b.num_leaves
    assert a.leaf_start == b.leaf_start
    assert a.leaf_batch_count == b.leaf_batch_count
    assert [id(x) for x in a.order] == [id(x) for x in b.order]


def _assert_layout_matches_nodes(lz, roots):
    """The bulk array builder against the ``Node`` objects themselves.

    The reference is the definition, not a second builder: under the
    Appendix-B ids, every per-node array entry is that node's own field,
    every batch row is that batch's id range, and ``leaf_start`` is set
    exactly when the leaves own the top id block.
    """
    lin = lz(roots)
    plan = plan_batches(roots, dynamic_batch=lz.dynamic_batch,
                        specialize_leaves=lz.specialize_leaves)
    ids = assign_ids(plan)
    nodes = list(iter_nodes(roots))
    n = len(nodes)
    assert lin.num_nodes == n == len(lin.order) == len(ids)
    assert lin.child.shape == (lz.max_children, n)
    for node in nodes:
        nid = ids[id(node)]
        assert lin.order[nid] is node
        assert lin.words[nid] == node.word
        assert lin.num_children[nid] == len(node.children)
        for k in range(lz.max_children):
            want = (ids[id(node.children[k])] if k < len(node.children)
                    else -1)
            assert lin.child[k, nid] == want, (nid, k)
    assert lin.num_batches == len(plan.batches)
    for i, batch in enumerate(plan.batches):
        assert lin.batch_begin[i] == min(ids[id(x)] for x in batch)
        assert lin.batch_length[i] == len(batch)
    assert lin.leaf_batch_count == plan.leaf_batch_count
    assert lin.roots.tolist() == sorted(ids[id(r)] for r in roots)
    leaf_ids = sorted(ids[id(x)] for x in nodes if x.is_leaf)
    assert lin.num_leaves == len(leaf_ids)
    top_block = list(range(n - len(leaf_ids), n))
    assert lin.leaf_start == (top_block[0] if leaf_ids == top_block
                              else None)


@pytest.mark.parametrize("maker,arg", [
    (lambda: [tree_from_nested(((0, 1), (2, (3, 4))))], None),
    (lambda: [sequence([1, 2, 3, 4, 5])], None),
    (lambda: synthetic_treebank(6, vocab_size=50,
                                rng=np.random.default_rng(2)), None),
])
def test_vectorized_linearizer_matches_reference(maker, arg):
    roots = maker()
    for lz in (TreeLinearizer(), TreeLinearizer(dynamic_batch=False),
               TreeLinearizer(dynamic_batch=False, specialize_leaves=False)):
        _assert_layout_matches_nodes(lz, roots)


def test_vectorized_linearizer_matches_reference_dag_and_seq():
    shared = leaf(7)
    dag = branch(branch(shared, leaf(1), word=2), shared, word=5)
    _assert_layout_matches_nodes(DagLinearizer(max_children=2), [dag])
    _assert_layout_matches_nodes(SequenceLinearizer(),
                                 [sequence(list(range(20)))])


def test_linearized_rev_is_a_dataclass_field():
    import dataclasses

    from repro.linearizer.linearize import Linearized

    names = {f.name for f in dataclasses.fields(Linearized)}
    assert "_rev" in names and "_max_batch_len" in names
    lin = TreeLinearizer()([tree_from_nested((0, 1))])
    # node_id answers from the map the builder numbered the nodes with
    built = lin._rev
    assert built == {id(n): i for i, n in enumerate(lin.order)}
    root = lin.order[0]
    assert lin.node_id(root) == 0
    assert lin._rev is built
    lin.invalidate_caches()
    assert lin._rev is None and lin._max_batch_len is None
    assert lin.node_id(root) == 0  # rebuilt safely
    assert lin._rev == built and lin._rev is not built


def test_linearized_max_batch_len_cached():
    lin = TreeLinearizer()([tree_from_nested(((0, 1), 2))])
    assert lin._max_batch_len is None
    first = lin.max_batch_len
    assert lin._max_batch_len == first
    # cached value served even if the backing array changes, until
    # invalidated (documented contract)
    lin.batch_length[0] = 99
    assert lin.max_batch_len == first
    lin.invalidate_caches()
    assert lin.max_batch_len == 99


def test_uf_arrays_deduped_and_cached():
    lz = TreeLinearizer(max_children=5)
    root = branch(leaf(0), leaf(1), leaf(2), leaf(3), leaf(4))
    lin = lz([root])
    ufs = lin.uf_arrays()
    # aliases and child{k} present exactly once each, sharing storage
    for alias, k in (("left", 0), ("right", 1), ("child2", 2), ("child3", 3)):
        assert ufs[alias] is ufs[f"child{k}"]
    assert "child4" in ufs
    # the returned mapping is a defensive copy over a cached dict
    ufs["extra"] = np.zeros(1)
    assert "extra" not in lin.uf_arrays()
    assert lin.uf_arrays()["child"] is lin.child


def test_execution_order_matches_assign_ids():
    from repro.linearizer.batches import plan_batches
    from repro.linearizer.numbering import assign_ids, execution_order

    roots = synthetic_treebank(4, vocab_size=30,
                               rng=np.random.default_rng(8))
    plan = plan_batches(roots, dynamic_batch=True, specialize_leaves=True)
    ids = assign_ids(plan)
    order = execution_order(plan)
    for i, node in enumerate(order):
        assert ids[id(node)] == i


@pytest.mark.parametrize("knobs", [dict(), dict(dynamic_batch=False),
                                   dict(dynamic_batch=False,
                                        specialize_leaves=False)],
                         ids=["height", "recursion", "unspecialized"])
def test_checked_and_unchecked_calls_share_one_layout(knobs):
    """``check`` only decides whether the call is verified: the one
    linearizer lays a forest out the same either way, coalesced too."""
    lz = TreeLinearizer(**knobs)
    roots = synthetic_treebank(3, vocab_size=40,
                               rng=np.random.default_rng(4))
    _lin_equal(lz(roots), lz(roots, check=False))
    sets = [roots[:2], roots[1:]]
    (got, got_ids), (want, want_ids) = (lz.coalesce(sets, check=False),
                                        lz.coalesce(sets))
    _lin_equal(got, want)
    assert all(np.array_equal(a, b) for a, b in zip(got_ids, want_ids))


# ---------------------------------------------------------------------------
# artifact round trip: the reloaded plan is the in-process plan


def _plan_shape(plan):
    """What a plan launches and zeroes, by name (callables differ)."""
    kinds = {g: [name for name, _ in getattr(plan, g)]
             for g in ("pre", "leaf", "level", "fused", "post")}
    return kinds, [(b.name, b.needs_zero) for b in plan.buffers]


@pytest.mark.parametrize("schedule",
                         [dict(), dict(fusion="none")],
                         ids=["headline", "unfused"])
@pytest.mark.parametrize("name", list(MODELS))
def test_artifact_roundtrip_plan_parity(name, schedule, tmp_path):
    """save -> load yields the same launch records and the same per-buffer
    ``needs_zero`` as ``m.plan``, bitwise-equal outputs, and the same
    splice verdict (recomputed from the reloaded nests)."""
    from repro.memo import splice_refusal

    m = _small_model(name, **schedule)
    roots = _inputs(name, np.random.default_rng(13), batch=2)
    dep = load_model(save_model(m, tmp_path / "artifact"))
    assert _plan_shape(dep.plan) == _plan_shape(m.plan)
    assert dep.python_source == m.python_source
    _assert_ws_identical(m.run(roots), dep.run(roots), name)
    assert splice_refusal(dep) == splice_refusal(m)
    assert dep.lowered.module.meta["splice_refusal"] == \
        m.lowered.module.meta["splice_refusal"]
