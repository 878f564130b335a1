"""Tests for the Recursive API: graph construction, validation, scheduling."""

import numpy as np
import pytest

from repro.errors import IRError, ScheduleError
from repro.ir import tanh
from repro.linearizer import StructureKind
from repro.ra import (NUM_NODES, Program, dynamic_batch, isleaf, lower,
                      set_fusion, specialize_if_else)
from repro.ra.analysis import partition, reduction_depth, toposort
from repro.models import get_model


def simple_program():
    with Program("m", StructureKind.TREE, 2) as p:
        Emb = p.input_tensor((10, 4), "Emb")
        ph = p.placeholder((NUM_NODES, 4), "h_ph")
        leaf = p.compute((NUM_NODES, 4), lambda n, i: Emb[n.word, i], "leaf")
        lh = p.compute((NUM_NODES, 4), lambda n, i: ph[n.left, i], "lh")
        rh = p.compute((NUM_NODES, 4), lambda n, i: ph[n.right, i], "rh")
        rec = p.compute((NUM_NODES, 4),
                        lambda n, i: tanh(lh[n, i] + rh[n, i]), "rec")
        body = p.if_then_else((NUM_NODES, 4),
                              lambda n, i: (isleaf(n), leaf, rec), "body")
        p.recursion_op(ph, body, "out")
    return p


def test_program_requires_context():
    from repro.ra.ops import compute

    with pytest.raises(IRError):
        compute((4,), lambda i: i)


def test_duplicate_tensor_names_rejected():
    with Program("m", StructureKind.TREE, 2) as p:
        p.input_tensor((4,), "w")
        with pytest.raises(IRError):
            p.input_tensor((4,), "w")


def test_placeholder_needs_node_dimension():
    with Program("m", StructureKind.TREE, 2) as p:
        with pytest.raises(IRError):
            p.placeholder((4, 4), "ph")


def test_unbound_placeholder_rejected_at_finalize():
    with Program("m", StructureKind.TREE, 2) as p:
        p.placeholder((NUM_NODES, 4), "ph")
    with pytest.raises(IRError):
        p.finalize()


def test_placeholder_read_must_go_through_children():
    """Property P.1-P.3 enforcement (§2): ph[n] directly is illegal."""
    with Program("m", StructureKind.TREE, 2) as p:
        ph = p.placeholder((NUM_NODES, 4), "ph")
        with pytest.raises(IRError, match="child"):
            p.compute((NUM_NODES, 4), lambda n, i: ph[n, i], "bad")


def test_placeholder_read_via_child_ok():
    with Program("m", StructureKind.TREE, 2) as p:
        ph = p.placeholder((NUM_NODES, 4), "ph")
        t = p.compute((NUM_NODES, 4), lambda n, i: ph[n.left, i], "ok")
        assert t.is_recursive


def test_if_then_else_requires_leaf_check():
    with Program("m", StructureKind.TREE, 2) as p:
        a = p.input_tensor((10, 4), "a")
        t1 = p.compute((NUM_NODES, 4), lambda n, i: a[n.word, i], "t1")
        t2 = p.compute((NUM_NODES, 4), lambda n, i: a[n.word, i] * 2.0, "t2")
        with pytest.raises(IRError, match="leaf-check"):
            p.if_then_else((NUM_NODES, 4),
                           lambda n, i: (n.arity.equal(0), t1, t2), "bad")


def test_two_recursions_rejected():
    p = simple_program()
    with Program("m2", StructureKind.TREE, 2) as q:
        ph = q.placeholder((NUM_NODES, 4), "ph")
        t = q.compute((NUM_NODES, 4), lambda n, i: ph[n.left, i], "t")
        q.recursion_op(ph, t, "r1")
        ph2 = q.placeholder((NUM_NODES, 4), "ph2")
        t2 = q.compute((NUM_NODES, 4), lambda n, i: ph2[n.left, i], "t2")
        with pytest.raises(IRError):
            q.recursion_op(ph2, t2, "r2")


def test_toposort_children_before_parents():
    p = simple_program()
    order = [op.name for op in toposort(p)]
    assert order.index("lh") < order.index("rec")
    assert order.index("rec") < order.index("body")


def test_partition_classifies_phases():
    p = get_model("seq_lstm").build(hidden=8, vocab=20)
    part = partition(p)
    pre_names = {op.output.name for op in part.pre}
    body_names = {op.output.name for op in part.body}
    # input projections run before the recursion; gates inside it
    assert {"xi", "xo", "xf", "xu"} <= pre_names
    assert {"gi", "rec_c", "rec_h"} <= body_names
    # zero leaf computes live in the body (then-branch subgraph)
    assert "leaf_h" in body_names


def test_schedule_primitives_set_flags():
    p = simple_program()
    with p:
        dynamic_batch(p)
        specialize_if_else(p)
        set_fusion(p, "none")
    assert p.schedule.dynamic_batch
    assert p.schedule.specialize
    assert p.schedule.fusion == "none"


def _dag_estimate(schedule):
    import repro
    from repro.data import grid_dag_batch
    from repro.runtime import V100, estimate

    m = repro.compile("dagrnn", hidden=8, num_cells=64)
    return estimate(m, grid_dag_batch(1, 3, 3), V100, schedule)


def test_unroll_rejected_for_dags():
    from repro.runtime import SimSchedule

    with pytest.raises(ScheduleError, match="trees and sequences"):
        _dag_estimate(SimSchedule(unroll=True))


def test_refactor_rejected_for_dags():
    from repro.runtime import SimSchedule

    with pytest.raises(ScheduleError, match="trees and sequences"):
        _dag_estimate(SimSchedule(refactor=True))


def test_persistence_requires_fusion():
    """Parameters stay on chip only while one persistent kernel runs:
    lowering pins the broadcast-read ones under maximal fusion only."""
    for fusion, scope in (("max", "register"), ("none", "param")):
        p = get_model("treefc").build(hidden=8, vocab=30)
        set_fusion(p, fusion)
        assert lower(p, codegen=False).module.buffers["Wl"].scope == scope


def test_unknown_fusion_level():
    p = simple_program()
    with pytest.raises(ScheduleError):
        set_fusion(p, "sideways")


def test_reduction_depth_per_model():
    """The barrier-structure analysis matches the paper's observations."""
    expected = {"treernn": 0, "treefc": 1, "treelstm": 1, "treegru": 2,
                "simple_treegru": 2, "seq_gru": 2, "seq_lstm": 1,
                "dagrnn": 1, "mvrnn": 2}
    for name, rd in expected.items():
        spec = get_model(name)
        prog = spec.build(hidden=8) if name == "dagrnn" else \
            spec.build(hidden=8, vocab=30)
        assert reduction_depth(partition(prog)) == rd, name


def test_refactor_saving_matches_footnote4():
    from repro.ra.analysis import refactor_barrier_saving

    gru = get_model("treegru").build(hidden=8, vocab=30)
    sgru = get_model("simple_treegru").build(hidden=8, vocab=30)
    seq = get_model("seq_gru").build(hidden=8, vocab=30)
    assert refactor_barrier_saving(gru) == 0      # z * h_sum blocks it
    assert refactor_barrier_saving(sgru) == 1     # (1-z) * h' allows it
    assert refactor_barrier_saving(seq) == 1      # GRNN GRU optimization
