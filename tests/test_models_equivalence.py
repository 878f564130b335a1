"""Numeric equivalence: compiled models == recursive NumPy references.

Every model in the zoo is compiled under several schedules and must produce
identical results (to float32 tolerance) to its recursive reference on
random inputs — the core correctness property of the whole compiler.
The simulated device's schedule what-ifs (:class:`repro.runtime
.SimSchedule`) change no code; estimating under one first must leave the
run's numerics exactly as they are.
"""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import grid_dag_batch, random_binary_tree, synthetic_treebank
from repro.models import MODELS, get_model
from repro.models.sequential import make_sequence
from repro.runtime import SimSchedule, V100, estimate

HIDDEN = 16
VOCAB = 120
ATOL = 1e-4

TREE_MODELS = ["treernn", "treefc", "treegru", "simple_treegru", "treelstm",
               "mvrnn"]

SCHEDULES = {
    "full": dict(),
    "no_specialize": dict(specialize=False),
    "no_fusion": dict(fusion="none"),
    "no_dynamic_batch": dict(dynamic_batch=False),
    "no_persistence": SimSchedule(persistence=False),
    "bare": dict(specialize=False, fusion="none", dynamic_batch=False),
}


def _roots_for(name, rng):
    if name == "dagrnn":
        return grid_dag_batch(2, 5, 5)
    if name.startswith("seq"):
        return [make_sequence(list(rng.integers(0, VOCAB, 15)))
                for _ in range(3)]
    return synthetic_treebank(4, vocab_size=VOCAB, rng=rng)


def _check(name, schedule, rng):
    """``schedule`` is CompileOptions fields, or a SimSchedule estimated
    on the headline model before it runs."""
    spec = get_model(name)
    kw = {} if isinstance(schedule, SimSchedule) else dict(schedule)
    if name == "dagrnn":
        model = repro.compile(name, CompileOptions(**kw), hidden=HIDDEN)
    else:
        model = repro.compile(name, CompileOptions(**kw), hidden=HIDDEN,
                              vocab=VOCAB)
    roots = _roots_for(name, rng)
    if isinstance(schedule, SimSchedule):
        assert estimate(model, roots, V100, schedule).total_time_s > 0
    res = model.run(roots)
    ref = spec.reference_h(roots, model.params)
    got = res.root_output(spec.outputs[0])
    exp = np.stack([ref[id(r)] for r in roots])
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
    _check("simple_treegru", SimSchedule(refactor=True),
           np.random.default_rng(5))
    _check("seq_gru", SimSchedule(refactor=True), np.random.default_rng(5))


def test_unroll_schedule_preserves_numerics():
    _check("treernn", SimSchedule(unroll=True, per_block=True),
           np.random.default_rng(6))
    _check("treelstm", SimSchedule(unroll=True), np.random.default_rng(6))


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
    exp_c = np.stack([ref[id(t)][1] for t in trees])
    np.testing.assert_allclose(res.root_output("rnn_c_ph"), exp_c, atol=ATOL)

    m2 = repro.compile("mvrnn", hidden=8, vocab=VOCAB)
    res2 = m2.run(trees)
    ref2 = get_model("mvrnn").reference(trees, m2.params)
    exp_m = np.stack([ref2[id(t)][1] for t in trees])
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
    exp = np.stack([ref[id(x)] for x in (t, t2)])
    np.testing.assert_allclose(res.root_output("rnn"), exp, atol=ATOL)
