"""Tests for extension features: Nimble baseline, N-ary TreeLSTM, reports."""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.analysis import (compilation_report, kernel_report,
                            placement_report)
from repro.baselines import dynet_like, nimble_like, pytorch_like
from repro.data import synthetic_treebank
from repro.models import get_model
from repro.runtime import V100

VOCAB = 80
RNG = np.random.default_rng(21)
TREES = synthetic_treebank(3, vocab_size=VOCAB, rng=RNG)


# -- Nimble-like baseline ------------------------------------------------------

@pytest.mark.parametrize("name", ["treernn", "treegru", "treelstm"])
def test_nimble_matches_reference(name):
    spec = get_model(name)
    params = spec.random_params(hidden=16, vocab=VOCAB)
    res = nimble_like.run(name, params, TREES, V100)
    ref = spec.reference_h(TREES, params)
    for t in TREES:
        np.testing.assert_allclose(res.states[0][res.lin.node_id(t)],
                                   ref[id(t)], atol=1e-4)


def test_nimble_faster_than_pytorch_slower_than_dynet():
    """Table 1: compiled kernels beat eager dispatch, but the lack of
    dynamic batching keeps Nimble behind batching frameworks at batch 10."""
    spec = get_model("treelstm")
    params = spec.random_params(hidden=256, vocab=VOCAB)
    trees = synthetic_treebank(10, vocab_size=VOCAB,
                               rng=np.random.default_rng(1))
    nb = nimble_like.run("treelstm", params, trees, V100)
    pt = pytorch_like.run("treelstm", params, trees, V100)
    dy = dynet_like.run("treelstm", params, trees, V100)
    assert nb.latency_s < pt.latency_s
    assert nb.latency_s > dy.latency_s


def test_nimble_partial_fusion_reduces_kernels():
    spec = get_model("treegru")
    params = spec.random_params(hidden=16, vocab=VOCAB)
    nb = nimble_like.run("treegru", params, TREES, V100)
    pt = pytorch_like.run("treegru", params, TREES, V100)
    assert nb.ledger.kernel_calls < pt.ledger.kernel_calls


def test_nimble_no_batching_no_graph():
    spec = get_model("treernn")
    params = spec.random_params(hidden=8, vocab=VOCAB)
    nb = nimble_like.run("treernn", params, TREES, V100)
    assert nb.ledger.graph_construction_s == 0.0
    assert nb.ledger.dynamic_batching_s == 0.0


# -- N-ary TreeLSTM -------------------------------------------------------------

def test_nary_treelstm_matches_reference():
    spec = get_model("treelstm_nary")
    m = repro.compile("treelstm_nary", hidden=12, vocab=VOCAB)
    res = m.run(TREES)
    ref = spec.reference(TREES, m.params)
    for t in TREES:
        nid = res.lin.node_id(t)
        np.testing.assert_allclose(res.output("rnn_h_ph")[nid],
                                   ref[id(t)][0], atol=1e-4)
        np.testing.assert_allclose(res.output("rnn_c_ph")[nid],
                                   ref[id(t)][1], atol=1e-4)


def test_nary_treelstm_differs_from_childsum():
    """Per-slot forget weights: a genuinely different model."""
    m1 = repro.compile("treelstm", hidden=12, vocab=VOCAB)
    m2 = repro.compile("treelstm_nary", hidden=12, vocab=VOCAB)
    r1 = m1.run(TREES).root_output("rnn_h_ph")
    r2 = m2.run(TREES).root_output("rnn_h_ph")
    assert not np.allclose(r1, r2, atol=1e-3)


@pytest.mark.parametrize("sched", [dict(specialize=False),
                                   dict(fusion="none", persistence=False)])
def test_nary_treelstm_schedules(sched):
    spec = get_model("treelstm_nary")
    m = repro.compile("treelstm_nary", CompileOptions(**sched), hidden=8,
                      vocab=VOCAB)
    res = m.run(TREES)
    ref = spec.reference_h(TREES, m.params)
    for t in TREES:
        np.testing.assert_allclose(res.output("rnn_h_ph")[res.lin.node_id(t)],
                                   ref[id(t)], atol=1e-4)


def test_nary_treelstm_single_barrier_per_level():
    m = repro.compile("treelstm_nary", hidden=8, vocab=VOCAB)
    assert m.lowered.module.meta["barriers_per_level"] == 1


# -- compilation reports ---------------------------------------------------------

def test_placement_report_scopes():
    m = repro.compile("treefc", hidden=8, vocab=VOCAB)
    rep = placement_report(m.lowered.module)
    assert "registers (persistent)" in rep
    assert "shared memory (dense-indexed)" in rep
    assert "[state]" in rep


def test_kernel_report_lists_nests_and_stages():
    m = repro.compile("treegru", hidden=8, vocab=VOCAB)
    rep = kernel_report(m.lowered.module)
    assert "fused" in rep
    assert "2 barrier(s)/level" in rep
    assert "[level/s1]" in rep  # the second-stage matvec


def test_compilation_report_mentions_folding():
    m = repro.compile("treelstm", hidden=8, vocab=VOCAB)
    rep = compilation_report(m.lowered.module)
    assert "leaf_c" in rep  # constant-folded zero leaf state
    assert "schedule: fusion=max" in rep


def test_cli_report_flag(capsys):
    from repro.tools.cli import main

    assert main(["compile", "treernn", "--hidden", "8", "--report"]) == 0
    out = capsys.readouterr().out
    assert "memory placement" in out
