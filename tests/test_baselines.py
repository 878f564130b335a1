"""Tests for the baseline frameworks: numerics, overheads, capability matrix."""

import numpy as np
import pytest

import repro
from repro.baselines import (FEATURE_MATRIX, cavs_like, dynet_like, get_cell,
                             grnn_like, pytorch_like)
from repro.baselines.framework import Ledger, VendorKernels
from repro.data import grid_dag_batch, synthetic_treebank
from repro.models import get_model
from repro.models.sequential import make_sequence
from repro.runtime import ARM, INTEL, V100, estimate

VOCAB = 100
HIDDEN = 16
RNG = np.random.default_rng(11)
TREES = synthetic_treebank(4, vocab_size=VOCAB, rng=RNG)

TREE_MODELS = ["treernn", "treefc", "treegru", "simple_treegru", "treelstm",
               "mvrnn"]


def _params(name):
    spec = get_model(name)
    if name == "dagrnn":
        return spec, spec.random_params(hidden=HIDDEN)
    return spec, spec.random_params(hidden=HIDDEN, vocab=VOCAB)


@pytest.mark.parametrize("name", TREE_MODELS)
@pytest.mark.parametrize("runner", [pytorch_like, dynet_like, cavs_like])
def test_baselines_match_reference(name, runner):
    spec, params = _params(name)
    res = runner.run(name, params, TREES, V100)
    ref = spec.reference_h(TREES, params)
    for t in TREES:
        np.testing.assert_allclose(res.states[0][res.lin.node_id(t)],
                                   ref[id(t)], atol=1e-4)


@pytest.mark.parametrize("runner", [pytorch_like, dynet_like])
def test_baselines_dag_model(runner):
    spec, params = _params("dagrnn")
    dags = grid_dag_batch(2, 5, 5)
    res = runner.run("dagrnn", params, dags, V100)
    ref = spec.reference_h(dags, params)
    for d in dags:
        np.testing.assert_allclose(res.states[0][res.lin.node_id(d)],
                                   ref[id(d)], atol=1e-4)


@pytest.mark.parametrize("name", ["seq_lstm", "seq_gru"])
def test_baselines_sequences(name):
    spec, params = _params(name)
    seqs = [make_sequence(list(RNG.integers(0, VOCAB, 12))) for _ in range(2)]
    res = dynet_like.run(name, params, seqs, V100)
    ref = spec.reference_h(seqs, params)
    for s in seqs:
        np.testing.assert_allclose(res.states[0][res.lin.node_id(s)],
                                   ref[id(s)], atol=1e-4)


def test_pytorch_no_batching_many_kernels():
    _, params = _params("treernn")
    pt = pytorch_like.run("treernn", params, TREES, V100)
    dy = dynet_like.run("treernn", params, TREES, V100)
    # eager execution launches a kernel per op per *node*; dynamic batching
    # launches per op per *level*
    assert pt.ledger.kernel_calls > 3 * dy.ledger.kernel_calls


def test_dynet_graph_construction_cost_scales_with_ops():
    _, params = _params("treelstm")
    small = dynet_like.run("treelstm", params, TREES[:1], V100)
    big = dynet_like.run("treelstm", params, TREES, V100)
    assert big.ledger.graph_construction_s > small.ledger.graph_construction_s
    assert big.ledger.dynamic_batching_s > 0


def test_cavs_has_no_graph_construction():
    _, params = _params("treelstm")
    cv = cavs_like.run("treelstm", params, TREES, V100)
    assert cv.ledger.graph_construction_s == 0.0
    assert cv.ledger.dynamic_batching_s > 0


def test_cavs_partial_fusion_fewer_kernels_than_dynet():
    _, params = _params("treelstm")
    cv = cavs_like.run("treelstm", params, TREES, V100)
    dy = dynet_like.run("treelstm", params, TREES, V100)
    assert cv.ledger.kernel_calls < dy.ledger.kernel_calls


def test_contiguity_copies_charged_for_batched_frameworks():
    _, params = _params("treegru")
    dy = dynet_like.run("treegru", params, TREES, V100)
    assert dy.ledger.memcpy_calls > 0
    assert dy.ledger.memcpy_s > 0


def test_cortex_beats_all_baselines_on_gpu():
    """The headline result: lowest latency across frameworks (Table 4/5)."""
    for name in ("treefc", "treegru", "treelstm"):
        m = repro.compile(name, hidden=256, vocab=VOCAB)
        cortex = estimate(m, TREES, V100).total_time_s
        for runner in (pytorch_like, dynet_like, cavs_like):
            base = runner.run(name, m.params, TREES, V100).latency_s
            assert cortex < base, (name, runner.__name__)


def test_speedup_grows_with_batch_size_vs_pytorch():
    """Fig. 6: the PyTorch gap widens with batch size."""
    name = "treegru"
    m = repro.compile(name, hidden=256, vocab=VOCAB)
    rng = np.random.default_rng(3)
    t1 = synthetic_treebank(1, vocab_size=VOCAB, rng=rng)
    t10 = synthetic_treebank(10, vocab_size=VOCAB, rng=rng)
    s1 = (pytorch_like.run(name, m.params, t1, V100).latency_s
          / estimate(m, t1, V100).total_time_s)
    s10 = (pytorch_like.run(name, m.params, t10, V100).latency_s
           / estimate(m, t10, V100).total_time_s)
    assert s10 > s1 > 1


def test_dynet_inference_mode_uses_less_memory():
    _, params = _params("treelstm")
    train = dynet_like.run("treelstm", params, TREES, V100)
    infer = dynet_like.run("treelstm", params, TREES, V100,
                           inference_mode=True)
    assert infer.ledger.peak_bytes < train.ledger.peak_bytes


def test_pytorch_lowest_memory():
    """Fig. 12 ordering: eager freeing beats graph-retaining frameworks."""
    _, params = _params("treelstm")
    pt = pytorch_like.run("treelstm", params, TREES, V100)
    dy = dynet_like.run("treelstm", params, TREES, V100)
    cv = cavs_like.run("treelstm", params, TREES, V100)
    assert pt.ledger.peak_bytes < dy.ledger.peak_bytes
    assert pt.ledger.peak_bytes < cv.ledger.peak_bytes


def test_grnn_latency_model():
    dev = V100
    lock_free = grnn_like.latency("lstm", 100, 10, 256, dev, lock_free=True)
    lock = grnn_like.latency("lstm", 100, 10, 256, dev, lock_free=False)
    assert lock.total_time_s > lock_free.total_time_s
    gru = grnn_like.latency("gru", 100, 10, 256, dev)
    assert gru.total_time_s > 0


def test_grnn_run_outputs_match_reference():
    spec, params = _params("seq_lstm")
    seqs = [make_sequence(list(RNG.integers(0, VOCAB, 10)))]
    res = grnn_like.run("lstm", params, seqs, V100)
    assert res.latency_s > 0
    ref = spec.reference_h(seqs, params)
    got = res.outputs[id(seqs[0])][0]
    np.testing.assert_allclose(got, ref[id(seqs[0])], atol=1e-5)


def test_feature_matrix_table1():
    """Table 1 as data: what each framework can and cannot do."""
    assert FEATURE_MATRIX["cortex"]["kernel_fusion"] == "full"
    assert not FEATURE_MATRIX["cortex"]["vendor_libraries"]
    assert FEATURE_MATRIX["cortex"]["model_persistence"]
    assert FEATURE_MATRIX["dynet"]["dynamic_batching"]
    assert FEATURE_MATRIX["dynet"]["kernel_fusion"] == "none"
    assert FEATURE_MATRIX["cavs"]["kernel_fusion"] == "partial"
    assert not FEATURE_MATRIX["pytorch"]["dynamic_batching"]


def test_vendor_kernel_costs_accumulate():
    ledger = Ledger(device=INTEL)
    vk = VendorKernels(ledger)
    a = np.ones((4, 8), np.float32)
    W = np.ones((8, 8), np.float32)
    vk.linear(W, a)
    vk.tanh(a)
    assert ledger.kernel_calls == 2
    assert ledger.flops > 0
    assert ledger.launch_s == 2 * INTEL.kernel_launch_s


def test_unknown_cell_raises():
    with pytest.raises(KeyError):
        get_cell("transformer")
