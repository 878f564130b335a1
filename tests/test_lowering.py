"""Tests for RA -> ILIR lowering: structure, optimization passes, bounds."""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import synthetic_treebank
from repro.errors import LoweringError
from repro.ir import tanh
from repro.linearizer import StructureKind
from repro.models import get_model
from repro.ra import NUM_NODES, Program, isleaf, lower
from repro.runtime import SimSchedule, V100, estimate


def test_lowering_requires_recursion():
    with Program("m", StructureKind.TREE, 2) as p:
        p.input_tensor((4, 4), "w")
    with pytest.raises(LoweringError):
        lower(p, CompileOptions(specialize=False, dynamic_batch=False))


def test_fused_kernel_structure():
    m = repro.compile("treefc", hidden=8, vocab=30)
    mod = m.lowered.module
    fused = mod.fused_kernel
    assert fused is not None
    phases = {n.phase for n in fused.nests}
    assert phases == {"leaf", "level"}
    # exactly one launchable kernel for the recursive portion
    assert [k.kind for k in mod.kernels] == ["fused"]


def test_no_fusion_one_kernel_per_operator():
    m = repro.compile("treefc",
                      CompileOptions(fusion="none"),
                      hidden=8, vocab=30)
    kinds = [k.kind for k in m.lowered.module.kernels]
    assert "fused" not in kinds
    # operators: lh, rh, ml, mr, rec_h -> 5 level kernels; leaf_h -> 1 leaf
    assert kinds.count("level") == 5
    assert kinds.count("leaf") == 1


def test_specialization_splits_leaf_and_level_nests():
    m = repro.compile("treernn", hidden=8, vocab=30)
    fused = m.lowered.module.fused_kernel
    leaf = [n for n in fused.nests if n.phase == "leaf"]
    level = [n for n in fused.nests if n.phase == "level"]
    assert len(leaf) == 1 and leaf[0].name == "leaf_h"
    assert {n.name for n in level} == {"lh", "rh", "rec_h"}
    # leaf/branch writes go straight into the recursion state (Listing 2)
    assert leaf[0].out.name == "rnn"


def test_conditional_operator_without_specialization():
    m = repro.compile("treernn", CompileOptions(specialize=False), hidden=8,
                      vocab=30)
    fused = m.lowered.module.fused_kernel
    names = [n.name for n in fused.nests]
    assert "body_h" in names  # the select nest exists
    body = next(n for n in fused.nests if n.name == "body_h")
    assert body.tag == "select"
    # branch producers are predicated on the leaf check
    leaf_nest = next(n for n in fused.nests if n.name == "leaf_h")
    assert leaf_nest.predicate is not None


def test_zero_leaf_state_is_constant_folded():
    m = repro.compile("treelstm", hidden=8, vocab=30)
    assert "leaf_c" in m.lowered.module.meta["zero_folded"]
    fused = m.lowered.module.fused_kernel
    assert all(n.name != "leaf_c" for n in fused.nests)


def test_node_independent_leaf_value_is_hoisted():
    m = repro.compile("mvrnn", hidden=8, vocab=30)
    mod = m.lowered.module
    hoisted = [k for k in mod.kernels if k.kind == "hoisted"]
    assert len(hoisted) == 1
    assert hoisted[0].nests[0].name == "leaf_M_hoisted"
    # the in-recursion nest became a broadcast copy
    fused = mod.fused_kernel
    leaf_m = next(n for n in fused.nests if n.name == "leaf_M")
    assert leaf_m.tag == "broadcast"


def test_dense_indexing_applied_to_intermediates():
    m = repro.compile("treefc", hidden=8, vocab=30)
    bufs = m.lowered.module.buffers
    for name in ("lh", "rh", "ml", "mr"):
        assert bufs[name].dense_indexed, name
        assert bufs[name].scope == "shared"
        assert str(bufs[name].shape[0]) == "max_batch_len"
    # recursion state must never be densified (crosses levels)
    assert not bufs["rnn"].dense_indexed
    assert bufs["rnn"].scope == "global"


def test_dense_indexing_disabled_without_fusion():
    m = repro.compile("treefc",
                      CompileOptions(fusion="none"),
                      hidden=8, vocab=30)
    bufs = m.lowered.module.buffers
    assert not bufs["lh"].dense_indexed
    assert bufs["lh"].scope == "global"


def test_persistence_moves_params_to_registers():
    m = repro.compile("treefc", hidden=8, vocab=30)
    bufs = m.lowered.module.buffers
    assert bufs["Wl"].scope == "register"
    assert bufs["Emb"].scope == "param"  # gathered per node: stays in DRAM
    m2 = repro.compile("treefc", CompileOptions(fusion="none"), hidden=8,
                       vocab=30)
    assert m2.lowered.module.buffers["Wl"].scope == "param"


def test_barriers_per_level_from_reduction_depth():
    assert repro.compile("treernn", hidden=8, vocab=30) \
        .lowered.module.meta["barriers_per_level"] == 1
    assert repro.compile("treegru", hidden=8, vocab=30) \
        .lowered.module.meta["barriers_per_level"] == 2
    assert repro.compile("treelstm", hidden=8, vocab=30) \
        .lowered.module.meta["barriers_per_level"] == 1


def test_refactoring_reduces_barriers_only_when_legal():
    """The saving is a property of the program (footnote 4), recorded in
    ``meta``; the simulated refactoring what-if spends it."""
    trees = synthetic_treebank(3, vocab_size=30,
                               rng=np.random.default_rng(0))
    for name, saving in (("treegru", 0), ("simple_treegru", 1)):
        m = repro.compile(name, hidden=8, vocab=30)
        meta = m.lowered.module.meta
        assert meta["barriers_per_level"] == 2
        assert meta["refactor_saving"] == saving
        lin = m.lowered.linearizer(trees)
        levels = lin.num_batches - lin.leaf_batch_count
        refactored = estimate(m, trees, V100, SimSchedule(refactor=True))
        assert refactored.barriers == levels * (2 - saving), name


def test_unroll_pairs_levels_per_block_and_doubles_barriers_otherwise():
    """Fig. 3 / Fig. 11 as the simulated device charges them: per-block
    unrolling shares one barrier interval between two levels; unrolling
    with the hidden dimension across blocks needs twice the barriers."""
    trees = synthetic_treebank(3, vocab_size=30,
                               rng=np.random.default_rng(0))
    for name in ("treernn", "treelstm"):
        m = repro.compile(name, hidden=8, vocab=30)
        per_level = m.lowered.module.fused_kernel.barriers_per_level
        lin = m.lowered.linearizer(trees)
        levels = lin.num_batches - lin.leaf_batch_count
        paired = estimate(m, trees, V100,
                          SimSchedule(unroll=True, per_block=True))
        split = estimate(m, trees, V100, SimSchedule(unroll=True))
        assert paired.barriers == -(-levels // 2) * per_level, name
        assert split.barriers == 2 * levels * per_level, name


def test_all_bound_checks_eliminated_for_zoo():
    """Every access of every model is proven in bounds (App. A.1 story)."""
    for name in ("treernn", "treefc", "treegru", "treelstm", "mvrnn",
                 "dagrnn", "seq_lstm", "seq_gru"):
        m = repro.compile(name, hidden=8, vocab=30) if name != "dagrnn" \
            else repro.compile(name, hidden=8)
        for nest_name, rep in m.lowered.bounds.items():
            assert rep.all_proven, f"{name}.{nest_name}: {rep.residual}"


def test_pre_ops_become_upfront_matmul_kernels():
    m = repro.compile("seq_lstm", hidden=8, vocab=30)
    pre = [k for k in m.lowered.module.kernels if k.kind == "pre"]
    assert {k.name for k in pre} == {"xi", "xo", "xf", "xu"}


def test_state_buffers_listed():
    m = repro.compile("treelstm", hidden=8, vocab=30)
    assert set(m.lowered.module.state_buffers) == {"rnn_h_ph", "rnn_c_ph"}
