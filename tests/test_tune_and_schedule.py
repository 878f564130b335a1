"""Tests for the grid-search autotuner and the loop-scheduling transforms."""

import numpy as np
import pytest

import repro
from repro.data import grid_dag_batch, synthetic_treebank
from repro.errors import ScheduleError
from repro.ilir import Block, For, ILBuffer, Store, run_stmt
from repro.ilir.schedule import (bind_thread, parallelize, reorder, tile,
                                 unroll, vectorize)
from repro.ir import Const, Var, int32
from repro.runtime import V100
from repro.tune import grid_search

VOCAB = 100
TREES = synthetic_treebank(3, vocab_size=VOCAB, rng=np.random.default_rng(2))


# -- autotuner ---------------------------------------------------------------

def test_grid_search_picks_full_optimizations_for_trees():
    result = grid_search("treegru", 64, TREES, V100, vocab=VOCAB)
    best = result.best
    assert best.config["fusion"] == "max"
    assert best.config["persistence"] is True
    # the sweep really explored both good and bad points
    assert result.worst.latency_ms > 2 * best.latency_ms
    assert "grid search" in result.summary()


def test_grid_search_respects_dag_restrictions():
    dags = grid_dag_batch(1, 5, 5)
    result = grid_search("dagrnn", 64, dags, V100)
    # unroll/refactor points are recorded as illegal, not crashed
    illegal = [t for t in result.trials if not t.ok]
    assert illegal, "DAG restrictions should reject some points"
    assert all("trees and sequences" in t.error for t in illegal)
    assert result.best.config["unroll"] is False


def test_grid_search_prefers_refactor_for_simple_treegru():
    space = {"fusion": ("max",), "specialize": (True,),
             "persistence": (True,), "refactor": (False, True)}
    result = grid_search("simple_treegru", 128, TREES, V100, vocab=VOCAB,
                         space=space)
    assert result.best.config["refactor"] is True


def test_grid_search_unroll_needs_per_block_for_treernn():
    space = {"fusion": ("max",), "specialize": (True,),
             "persistence": (False,), "unroll": (False, True),
             "per_block": (False, True)}
    result = grid_search("treernn", 64, TREES, V100, vocab=VOCAB, space=space)
    best = result.best
    if best.config["unroll"]:
        assert best.config["per_block"] is True  # Fig. 10b


# -- loop scheduling ----------------------------------------------------------

def _loops_2d(n=4, m=6):
    buf = ILBuffer("t", (n, m), int32)
    i, j = Var("i"), Var("j")
    inner = For(j, 0, m, Store(buf, [i, j], i * 10 + j))
    outer = For(i, 0, n, inner)
    return buf, outer


def _run(stmt, n=4, m=6):
    ws = {"t": np.zeros((n, m), np.int32)}
    run_stmt(stmt, ws)
    return ws["t"]


def test_reorder_preserves_semantics():
    _, loop = _loops_2d()
    ref = _run(loop)
    out = reorder(loop, loop)
    assert np.array_equal(_run(out), ref)
    assert isinstance(out, For) and out.var.name == "j"


def test_reorder_rejects_imperfect_nesting():
    buf = ILBuffer("t", (4,), int32)
    i = Var("i")
    loop = For(i, 0, 4, Store(buf, [i], i))
    with pytest.raises(ScheduleError):
        reorder(loop, loop)


def test_reorder_rejects_dependent_bounds():
    buf = ILBuffer("t", (4, 4), int32)
    i, j = Var("i"), Var("j")
    tri = For(i, 0, 4, For(j, 0, i + 1, Store(buf, [i, j], 1)))
    with pytest.raises(ScheduleError):
        reorder(tri, tri)


@pytest.mark.parametrize("fo,fi", [(2, 2), (3, 4), (2, 5)])
def test_tile_preserves_semantics(fo, fi):
    _, loop = _loops_2d()
    ref = _run(loop)
    out = tile(loop, loop, fo, fi)
    assert np.array_equal(_run(out), ref)


def test_unroll_full():
    buf = ILBuffer("t", (4,), int32)
    i = Var("i")
    loop = For(i, 0, 4, Store(buf, [i], i * 3))
    out = unroll(loop, loop)
    assert isinstance(out, Block) and len(out.stmts) == 4
    ws = {"t": np.zeros(4, np.int32)}
    run_stmt(out, ws)
    assert list(ws["t"]) == [0, 3, 6, 9]


def test_unroll_rejects_variable_extent():
    buf = ILBuffer("t", (4,), int32)
    i = Var("i")
    loop = For(i, 0, Var("n"), Store(buf, [i], i))
    with pytest.raises(ScheduleError):
        unroll(loop, loop)


def test_unroll_rejects_huge_loops():
    buf = ILBuffer("t", (1000,), int32)
    i = Var("i")
    loop = For(i, 0, 1000, Store(buf, [i], i))
    with pytest.raises(ScheduleError, match="refusing"):
        unroll(loop, loop)


def test_annotations_change_kind_only():
    _, loop = _loops_2d()
    ref = _run(loop)
    v = vectorize(loop, loop)
    p = parallelize(loop, loop)
    b = bind_thread(loop, loop, "block")
    assert isinstance(v, For) and v.kind == "vectorize"
    assert isinstance(p, For) and p.kind == "parallel"
    assert isinstance(b, For) and b.kind == "block"
    assert np.array_equal(_run(v), ref)
    with pytest.raises(ScheduleError):
        bind_thread(loop, loop, "warp")


# -- module verifier -----------------------------------------------------------

def test_verifier_accepts_all_zoo_modules():
    from repro.ilir import verify_module

    for name in ("treernn", "treelstm", "mvrnn"):
        m = repro.compile(name, hidden=8, vocab=VOCAB)
        assert verify_module(m.lowered.module) == []


def test_verifier_flags_unknown_buffer():
    from repro.ilir import verify_module

    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    mod = m.lowered.module
    # sabotage: drop a buffer from the map
    victim = mod.fused_kernel.nests[0].out.name
    removed = mod.buffers.pop(victim)
    problems = verify_module(mod)
    assert any(victim in p for p in problems)
    mod.buffers[victim] = removed
