"""Additional property-based and failure-injection tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data import random_binary_tree, synthetic_treebank
from repro.errors import ExecutionError, LinearizationError
from repro.ir import Interval, simplify, structural_equal
from repro.linearizer import (BatchPlan, TreeLinearizer, assign_ids,
                              check_numbering, plan_batches)
from repro.ra.printer import op_to_str, program_to_str
from repro.runtime import V100
from repro.runtime.plan import execute_plan

VOCAB = 60


# -- simplifier properties ------------------------------------------------------

from tests.test_ir_simplify import int_exprs  # reuse the strategy


@given(e=int_exprs())
@settings(max_examples=150, deadline=None)
def test_simplify_is_idempotent(e):
    once = simplify(e)
    twice = simplify(once)
    assert structural_equal(once, twice)


# -- interval edge cases -----------------------------------------------------------

def test_interval_union_intersect():
    a, b = Interval(0, 5), Interval(3, 9)
    assert a.union(b) == Interval(0, 9)
    assert a.intersect(b) == Interval(3, 5)
    assert Interval(0, 1).intersect(Interval(2, 3)) is None


def test_interval_unbounded_mul():
    top = Interval.top()
    z = Interval.point(0)
    assert (top * z).contains(0)


# -- cost-model monotonicity --------------------------------------------------------

def test_latency_monotone_in_batch_size():
    m = repro.compile("treegru", hidden=32, vocab=VOCAB)
    rng = np.random.default_rng(0)
    trees = synthetic_treebank(8, vocab_size=VOCAB, rng=rng)
    t2 = m.run(trees[:2], device=V100).simulated_time_s
    t8 = m.run(trees, device=V100).simulated_time_s
    assert t8 >= t2


def test_flops_monotone_in_hidden_size():
    rng = np.random.default_rng(0)
    trees = synthetic_treebank(3, vocab_size=VOCAB, rng=rng)
    f = {}
    for h in (16, 64):
        m = repro.compile("treegru", hidden=h, vocab=VOCAB)
        f[h] = m.run(trees, device=V100).cost.flops
    assert f[64] > 4 * f[16]  # matvecs are quadratic in hidden size


@given(n_trees=st.integers(1, 6), seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_barriers_equal_levels_times_depth(n_trees, seed):
    rng = np.random.default_rng(seed)
    trees = synthetic_treebank(n_trees, vocab_size=VOCAB, rng=rng)
    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    res = m.run(trees, device=V100)
    lin = res.lin
    levels = lin.num_batches - lin.leaf_batch_count
    assert res.cost.barriers == levels  # barriers_per_level == 1


# -- numbering failure injection -----------------------------------------------------

def test_check_numbering_rejects_shuffled_ids():
    rng = np.random.default_rng(4)
    t = random_binary_tree(6, vocab_size=VOCAB, rng=rng)
    plan = plan_batches([t], dynamic_batch=True, specialize_leaves=True)
    ids = assign_ids(plan)
    # corrupt: swap a parent with its child
    child_id = ids[id(t.left)]
    ids[id(t.left)] = ids[id(t)]
    ids[id(t)] = child_id
    with pytest.raises(LinearizationError):
        check_numbering(plan, ids)


def test_check_numbering_rejects_non_consecutive_batches():
    rng = np.random.default_rng(4)
    t = random_binary_tree(8, vocab_size=VOCAB, rng=rng)
    plan = plan_batches([t], dynamic_batch=True, specialize_leaves=True)
    ids = assign_ids(plan)
    leaves = plan.batches[0]
    if len(leaves) >= 2:
        a, b = id(leaves[0]), id(leaves[-1])
        # tear a hole in the leaf id block by moving one leaf far away
        ids[a] = max(ids.values()) + 5
        with pytest.raises(LinearizationError):
            check_numbering(plan, ids)


def test_duplicate_node_in_batches_rejected():
    rng = np.random.default_rng(4)
    t = random_binary_tree(4, vocab_size=VOCAB, rng=rng)
    plan = plan_batches([t], dynamic_batch=True, specialize_leaves=True)
    plan.batches[0].append(plan.batches[0][0])  # duplicate a leaf
    with pytest.raises(LinearizationError):
        assign_ids(plan)


# -- executor failure injection -------------------------------------------------------

def test_missing_parameter_raises():
    m = repro.compile("treefc", hidden=8, vocab=VOCAB)
    params = dict(m.params)
    del params["Wl"]
    rng = np.random.default_rng(0)
    trees = synthetic_treebank(1, vocab_size=VOCAB, rng=rng)
    with pytest.raises(ExecutionError, match="missing model parameter"):
        execute_plan(m.plan, m.lowered.linearizer(trees), params)


def test_word_id_out_of_vocab_is_runtime_error():
    m = repro.compile("treernn", hidden=8, vocab=10)
    rng = np.random.default_rng(0)
    tree = random_binary_tree(3, vocab_size=5000, rng=rng)  # ids >> vocab
    with pytest.raises(Exception):
        m.run([tree])


# -- RA printer -----------------------------------------------------------------------

def test_program_printer_roundtrips_structure():
    prog = repro.compile("treernn", hidden=8, vocab=VOCAB).program
    text = program_to_str(prog)
    assert "input_tensor" in text
    assert "placeholder" in text
    assert "recursion_op" in text
    assert "if_then_else" in text
    assert "schedule: fusion=max" in text
    # each op prints on one line
    ops = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(ops) == len(prog.ops)


def test_op_printer_compute_body():
    prog = repro.compile("treernn", hidden=8, vocab=VOCAB).program
    lh = next(op for op in prog.ops if op.output.name == "lh")
    s = op_to_str(lh)
    assert "h_ph[left(" in s
