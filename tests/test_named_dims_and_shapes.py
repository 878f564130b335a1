"""Tests for named-dimension relations (A.2) and shape inference."""

import numpy as np
import pytest

import repro
from repro.ilir.bounds import (Facts, default_linearizer_facts, infer_shape,
                               set_symbolic_extent)
from repro.ir import Interval, TensorRead, Var, structural_equal, uf
from repro.ra.tensor import NUM_NODES

VOCAB = 40


def test_lowering_registers_listing3_relation():
    """d_node <- (d_all_batches, d_batch) via batch_begin(b) + n_idx."""
    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    dims = m.lowered.module.dims
    d_node = dims.lookup("d_node")
    assert d_node is not None
    rels = dims.relations_for(d_node)
    assert rels, "lowering must register the node-dim relation"
    src_names = {d.name for d in dims.source_dims(d_node)}
    assert src_names == {"d_all_batches", "d_batch"}
    # the index expression is the Appendix-B affine form
    assert "batch_begin(b_idx) + " in repr(rels[0].index_expr)


def test_axes_carry_named_dims():
    m = repro.compile("treegru", hidden=8, vocab=VOCAB)
    fused = m.lowered.module.fused_kernel
    node_axes = [n.node_axis for n in fused.nests if n.node_axis]
    assert node_axes
    assert all(a.dim is not None and a.dim.name == "d_batch"
               for a in node_axes)


def test_infer_shape_recovers_node_extent():
    """Consumer regions -> producer extents (§5.1): a tensor read at
    ``batch_begin(b) + n_idx`` rows must be sized num_nodes."""
    facts = default_linearizer_facts(NUM_NODES)
    facts.env["num_nodes"] = Interval(1, float("inf"))
    bb = uf("batch_begin", 1, range=(0, NUM_NODES))
    bl = uf("batch_length", 1, range=(1, NUM_NODES + 1))
    b, n_idx, i = Var("b_idx"), Var("n_idx"), Var("i")
    set_symbolic_extent(n_idx, bl(b))
    facts.env["i"] = Interval(0, 7)

    class Buf:
        name, shape = "t", (NUM_NODES, 8)
        from repro.ir import float32 as dtype

    read = TensorRead(Buf, [bb(b) + n_idx, i])
    extents = infer_shape([read], 2, facts, fallback=[NUM_NODES, 8])
    assert structural_equal(extents[0], NUM_NODES)
    assert int(extents[1].value) == 8


def test_infer_shape_via_uf_range():
    facts = default_linearizer_facts(NUM_NODES)
    left = uf("left", 1, range=(0, NUM_NODES))
    n, i = Var("node"), Var("i")
    facts.env["i"] = Interval(0, 3)

    class Buf:
        name, shape = "t", (NUM_NODES, 4)
        from repro.ir import float32 as dtype

    read = TensorRead(Buf, [left(n), i])
    extents = infer_shape([read], 2, facts, fallback=[NUM_NODES, 4])
    assert structural_equal(extents[0], NUM_NODES)


def test_infer_shape_falls_back_when_unbounded():
    facts = Facts()
    x, i = Var("mystery"), Var("i")
    facts.env["i"] = Interval(0, 3)

    class Buf:
        name, shape = "t", (NUM_NODES, 4)
        from repro.ir import float32 as dtype

    read = TensorRead(Buf, [x, i])
    extents = infer_shape([read], 2, facts, fallback=[NUM_NODES, 4])
    # dimension 0 unprovable -> fallback extent
    assert structural_equal(extents[0], NUM_NODES)


def test_seq_gru_refactor_halves_barriers():
    from repro.data import random_binary_tree
    from repro.models.sequential import make_sequence
    from repro.runtime import SimSchedule, V100, estimate

    rng = np.random.default_rng(0)
    seqs = [make_sequence(list(rng.integers(0, VOCAB, 20)))]
    model = repro.compile("seq_gru", hidden=16, vocab=VOCAB)
    b1 = estimate(model, seqs, V100).barriers
    b2 = estimate(model, seqs, V100, SimSchedule(refactor=True)).barriers
    assert b1 == 2 * b2  # 2 barriers/step -> 1 (GRNN GRU optimization)
