"""Numeric equivalence: compiled models == recursive NumPy references.

Every model in the zoo is compiled under several schedules and must produce
identical results (to float32 tolerance) to its recursive reference on
random inputs — the core correctness property of the whole compiler.
"""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import grid_dag_batch, random_binary_tree, synthetic_treebank
from repro.models import MODELS, get_model
from repro.models.sequential import make_sequence

HIDDEN = 16
VOCAB = 120
ATOL = 1e-4

TREE_MODELS = ["treernn", "treefc", "treegru", "simple_treegru", "treelstm",
               "mvrnn"]

SCHEDULES = {
    "full": dict(),
    "no_specialize": dict(specialize=False),
    "no_fusion": dict(fusion="none", persistence=False),
    "no_dynamic_batch": dict(dynamic_batch=False),
    "no_persistence": dict(persistence=False),
    "bare": dict(specialize=False, fusion="none", persistence=False,
                 dynamic_batch=False),
}


def _roots_for(name, rng):
    if name == "dagrnn":
        return grid_dag_batch(2, 5, 5)
    if name.startswith("seq"):
        return [make_sequence(list(rng.integers(0, VOCAB, 15)))
                for _ in range(3)]
    return synthetic_treebank(4, vocab_size=VOCAB, rng=rng)


def _check(name, schedule_kw, rng):
    spec = get_model(name)
    kw = dict(schedule_kw)
    if name == "dagrnn":
        model = repro.compile(name, CompileOptions(**kw), hidden=HIDDEN)
    else:
        model = repro.compile(name, CompileOptions(**kw), hidden=HIDDEN,
                              vocab=VOCAB)
    roots = _roots_for(name, rng)
    res = model.run(roots)
    ref = spec.reference_h(roots, model.params)
    got = res.root_output(spec.outputs[0])
    order = np.argsort([res.lin.node_id(r) for r in roots])
    exp = np.stack([ref[id(roots[i])] for i in order])
    np.testing.assert_allclose(got, exp, atol=ATOL)


@pytest.mark.parametrize("name", list(MODELS))
def test_model_matches_reference_full_schedule(name):
    _check(name, SCHEDULES["full"], np.random.default_rng(1))


@pytest.mark.parametrize("name", TREE_MODELS)
@pytest.mark.parametrize("sched", list(SCHEDULES))
def test_tree_models_all_schedules(name, sched):
    _check(name, SCHEDULES[sched], np.random.default_rng(2))


@pytest.mark.parametrize("sched", ["full", "no_specialize", "no_fusion"])
def test_dagrnn_schedules(sched):
    _check("dagrnn", SCHEDULES[sched], np.random.default_rng(3))


@pytest.mark.parametrize("name", ["seq_lstm", "seq_gru"])
@pytest.mark.parametrize("sched", ["full", "no_fusion", "bare"])
def test_sequential_schedules(name, sched):
    _check(name, SCHEDULES[sched], np.random.default_rng(4))


def test_refactor_schedule_preserves_numerics():
    _check("simple_treegru", dict(refactor=True), np.random.default_rng(5))
    _check("seq_gru", dict(refactor=True), np.random.default_rng(5))


def test_unroll_schedule_preserves_numerics():
    _check("treernn", dict(unroll=True, per_block=True),
           np.random.default_rng(6))
    _check("treelstm", dict(unroll=True), np.random.default_rng(6))


def test_single_leaf_tree():
    """Degenerate input: one leaf node (root is the leaf)."""
    spec = get_model("treernn")
    model = repro.compile("treernn", hidden=HIDDEN, vocab=VOCAB)
    from repro.linearizer import leaf

    t = leaf(7)
    res = model.run([t])
    ref = spec.reference_h([t], model.params)
    np.testing.assert_allclose(res.root_output("rnn")[0], ref[id(t)],
                               atol=ATOL)


def test_deep_unbalanced_tree():
    """Left-spine trees produce many single-node batches."""
    from repro.data import left_chain_tree

    spec = get_model("treegru")
    model = repro.compile("treegru", hidden=8, vocab=VOCAB)
    t = left_chain_tree(12, vocab_size=VOCAB)
    res = model.run([t])
    ref = spec.reference_h([t], model.params)
    np.testing.assert_allclose(res.root_output("rnn")[0], ref[id(t)],
                               atol=ATOL)


def test_all_states_of_multi_state_models():
    """TreeLSTM c-state and MV-RNN matrix state are also correct."""
    rng = np.random.default_rng(7)
    trees = synthetic_treebank(3, vocab_size=VOCAB, rng=rng)

    m = repro.compile("treelstm", hidden=HIDDEN, vocab=VOCAB)
    res = m.run(trees)
    ref = get_model("treelstm").reference(trees, m.params)
    order = np.argsort([res.lin.node_id(t) for t in trees])
    exp_c = np.stack([ref[id(trees[i])][1] for i in order])
    np.testing.assert_allclose(res.root_output("rnn_c_ph"), exp_c, atol=ATOL)

    m2 = repro.compile("mvrnn", hidden=8, vocab=VOCAB)
    res2 = m2.run(trees)
    ref2 = get_model("mvrnn").reference(trees, m2.params)
    exp_m = np.stack([ref2[id(trees[i])][1] for i in order])
    np.testing.assert_allclose(res2.root_output("rnn_M_ph"), exp_m, atol=ATOL)


def test_rational_approximation_is_close_but_inexact():
    rng = np.random.default_rng(8)
    trees = synthetic_treebank(2, vocab_size=VOCAB, rng=rng)
    exact = repro.compile("treernn", hidden=HIDDEN, vocab=VOCAB)
    approx = repro.compile("treernn", CompileOptions(rational_approx=True),
                           hidden=HIDDEN, vocab=VOCAB)
    r1 = exact.run(trees).root_output("rnn")
    r2 = approx.run(trees).root_output("rnn")
    assert np.max(np.abs(r1 - r2)) < 0.1
    assert "tanh_rational" in approx.python_source


def test_batch_of_identical_trees():
    rng = np.random.default_rng(9)
    t = random_binary_tree(6, vocab_size=VOCAB, rng=rng)
    spec = get_model("treefc")
    model = repro.compile("treefc", hidden=HIDDEN, vocab=VOCAB)
    # same shape, shared nothing: two distinct trees built the same way
    t2 = random_binary_tree(6, vocab_size=VOCAB, rng=np.random.default_rng(9))
    res = model.run([t, t2])
    ref = spec.reference_h([t, t2], model.params)
    order = np.argsort([res.lin.node_id(x) for x in (t, t2)])
    exp = np.stack([ref[id((t, t2)[i])] for i in order])
    np.testing.assert_allclose(res.root_output("rnn"), exp, atol=ATOL)
