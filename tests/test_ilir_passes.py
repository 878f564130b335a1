"""Tests for ILIR statements, the barrier pass and the interpreter."""

import numpy as np
import pytest

from repro.errors import IRError
from repro.ilir import (Barrier, Block, For, ILBuffer, IfThenElse, Let,
                        Store, count_barriers, run_stmt)
from repro.ilir.passes import dependence_carrying_loops, insert_barriers
from repro.ir import TensorRead, Var, float32, int32, tanh, uf


def _simple_loop(n=8):
    """for i in [0,n): buf[i] = i * 2  (as a statement tree)."""
    buf = ILBuffer("t", (n,), int32)
    i = Var("i")
    return buf, For(i, 0, n, Store(buf, [i], i * 2))


# -- interpreter ------------------------------------------------------------

def test_interpreter_runs_loop():
    buf, loop = _simple_loop()
    ws = {"t": np.zeros(8, np.int32)}
    run_stmt(loop, ws)
    assert list(ws["t"]) == [0, 2, 4, 6, 8, 10, 12, 14]


def test_interpreter_let_and_if():
    buf = ILBuffer("t", (4,), int32)
    i = Var("i")
    x = Var("x")
    body = Let(x, i + 1, IfThenElse(x < 3, Store(buf, [i], x)))
    ws = {"t": np.full(4, -1, np.int32)}
    run_stmt(For(i, 0, 4, body), ws)
    assert list(ws["t"]) == [1, 2, -1, -1]


def test_interpreter_reduce_store():
    buf = ILBuffer("acc", (1,), float32)
    k = Var("k")
    ws = {"acc": np.zeros(1, np.float32)}
    run_stmt(For(k, 0, 5, Store(buf, [0], Var("k") * 1.0 if False else
                                 __import__("repro.ir", fromlist=["Cast"]).Cast(k, float32),
                                 reduce_op="sum")), ws)
    assert ws["acc"][0] == pytest.approx(10.0)


def test_interpreter_counts_barriers():
    buf, loop = _simple_loop(3)
    stmt = For(loop.var, 0, 3, Block([Barrier("global"), loop.body]))
    ws = {"t": np.zeros(3, np.int32)}
    it = run_stmt(stmt, ws)
    assert it.barriers_executed == 3


def test_interpreter_unbound_variable_errors():
    from repro.errors import ExecutionError

    buf = ILBuffer("t", (2,), int32)
    with pytest.raises(ExecutionError, match="unbound"):
        run_stmt(Store(buf, [Var("nope")], 1), {"t": np.zeros(2, np.int32)})


# -- barrier insertion (App. A.4) ----------------------------------------------

def _level_loop_stmt():
    """A fused-kernel shape: level loop over batches, inner node loop."""
    rnn = ILBuffer("rnn", (Var("num_nodes"), 4))
    left = uf("left", 1, range=(0, Var("num_nodes")))
    b, n_idx, i = Var("b"), Var("n_idx"), Var("i")
    bl = uf("batch_length", 1, range=(1, Var("num_nodes") + 1))
    bb = uf("batch_begin", 1, range=(0, Var("num_nodes")))
    node = Var("node")
    store = Store(rnn, [node, i], tanh(TensorRead(rnn, [left(node), i])))
    inner = For(n_idx, 0, bl(b),
                Let(node, bb(b) + n_idx, For(i, 0, 4, store)))
    return For(b, 0, Var("num_batches"), inner)


def test_dependence_carrying_loop_found():
    stmt = _level_loop_stmt()
    loops = dependence_carrying_loops(stmt, independent={"n_idx"})
    assert [l.var.name for l in loops] == ["b"]


def test_cortex_barrier_placement_outer_loop():
    stmt = _level_loop_stmt()
    out = insert_barriers(stmt, independent={"n_idx"}, mode="cortex")
    ws = {"rnn": np.zeros((6, 4), np.float32),
          "left": np.array([1, 2, 3, 4, 5, 0], np.int32),
          "batch_begin": np.array([0, 2], np.int32),
          "batch_length": np.array([2, 2], np.int32)}
    it = run_stmt(out, ws, {"num_batches": 2, "num_nodes": 6})
    assert it.barriers_executed == 2  # one per level


def test_conservative_barrier_placement_inner_loop():
    """TVM-like placement syncs in the innermost loop: per element here
    (2 levels x 2 nodes x 4 hidden = 16), vs 2 for the Cortex placement —
    exactly the inflation Appendix A.4 describes."""
    stmt = _level_loop_stmt()
    out = insert_barriers(stmt, independent=set(), mode="conservative")
    ws = {"rnn": np.zeros((6, 4), np.float32),
          "left": np.array([1, 2, 3, 4, 5, 0], np.int32),
          "batch_begin": np.array([0, 2], np.int32),
          "batch_length": np.array([2, 2], np.int32)}
    it = run_stmt(out, ws, {"num_batches": 2, "num_nodes": 6})
    assert it.barriers_executed == 16


def test_no_barrier_without_dependence():
    _, loop = _simple_loop()
    out = insert_barriers(loop, mode="cortex")
    assert count_barriers(out) == 0


def test_unknown_barrier_mode():
    with pytest.raises(IRError):
        insert_barriers(_level_loop_stmt(), mode="aggressive")
