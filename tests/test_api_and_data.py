"""Tests for the high-level API, the data generators and the CLI."""

import numpy as np
import pytest

import repro
from repro import CompileOptions, CortexModel
from repro.data import (grid_dag, grid_dag_batch, left_chain_tree,
                        perfect_binary_tree, random_binary_tree, random_dag,
                        synthetic_treebank)
from repro.data.trees import SST_MAX_LEN, SST_MEAN_LEN, SST_MIN_LEN
from repro.errors import LinearizationError
from repro.linearizer import count_nodes, detect_kind, StructureKind, node_heights
from repro.tools.cli import build_parser, main

VOCAB = 50


# -- api -----------------------------------------------------------------------

def test_compile_returns_cortex_model():
    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    assert isinstance(m, CortexModel)
    assert m.outputs == ["rnn"]
    assert "def k_fused" in m.python_source
    # the C source is the native (executable) rendering: a self-contained
    # translation unit with the uniform kernel-launch ABI
    assert "void k_fused(" in m.c_source
    assert "#include <math.h>" in m.c_source


def test_compile_unknown_name():
    with pytest.raises(KeyError, match="unknown model"):
        repro.compile("transformer")


def test_compile_schedule_knobs_reach_module():
    m = repro.compile("treernn", CompileOptions(
        fusion="none", persistence=False, specialize=False,
        dynamic_batch=False), hidden=8, vocab=VOCAB)
    meta = m.lowered.module.meta
    assert meta["fusion"] == "none"
    assert meta["specialize"] is False
    assert meta["dynamic_batch"] is False


def test_compile_accepts_custom_params():
    spec_params = {"Emb": np.ones((VOCAB, 8), np.float32)}
    m = repro.compile("treernn", hidden=8, vocab=VOCAB, params=spec_params)
    assert m.params["Emb"][0, 0] == 1.0


def test_run_accepts_single_root():
    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    t = random_binary_tree(4, vocab_size=VOCAB)
    res = m.run(t)
    assert res.root_output("rnn").shape == (1, 8)


# -- data generators ------------------------------------------------------------

def test_perfect_binary_tree_shape():
    t = perfect_binary_tree(5, vocab_size=VOCAB)
    assert count_nodes([t]) == 2 ** 6 - 1
    heights = node_heights([t])
    assert heights[id(t)] == 5


def test_random_binary_tree_leaf_count():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 20):
        t = random_binary_tree(n, vocab_size=VOCAB, rng=rng)
        assert count_nodes([t]) == 2 * n - 1


def test_synthetic_treebank_statistics():
    rng = np.random.default_rng(0)
    trees = synthetic_treebank(300, vocab_size=VOCAB, rng=rng)
    lens = [(count_nodes([t]) + 1) // 2 for t in trees]
    assert SST_MIN_LEN <= min(lens)
    assert max(lens) <= SST_MAX_LEN
    assert abs(np.mean(lens) - SST_MEAN_LEN) < 2.0


def test_left_chain_tree_is_maximally_deep():
    t = left_chain_tree(6, vocab_size=VOCAB)
    assert node_heights([t])[id(t)] == 5


def test_grid_dag_structure():
    g = grid_dag(4, 4)
    assert detect_kind([g]) is StructureKind.DAG
    assert count_nodes([g]) == 16
    gd = grid_dag(3, 3, diagonal=True)
    assert max(len(n.children) for n in [gd]) <= 3


def test_grid_dag_batch_disjoint_features():
    batch = grid_dag_batch(2, 3, 3)
    words0 = {n.word for n in _nodes(batch[0])}
    words1 = {n.word for n in _nodes(batch[1])}
    assert not (words0 & words1)


def _nodes(root):
    from repro.linearizer import iter_nodes

    return list(iter_nodes([root]))


def test_grid_dag_rejects_empty():
    with pytest.raises(LinearizationError):
        grid_dag(0, 3)


def test_random_dag_is_acyclic_dag():
    rng = np.random.default_rng(1)
    root = random_dag(25, rng=rng)
    detect_kind([root])  # raises on cycles


# -- CLI -------------------------------------------------------------------------

def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "treernn", "--batch", "2"])
    assert args.cmd == "run" and args.model == "treernn"


def test_cli_models(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "treelstm" in out and "dagrnn" in out


def test_cli_compile(capsys):
    assert main(["compile", "treernn", "--hidden", "8"]) == 0
    out = capsys.readouterr().out
    assert "bound checks eliminated" in out
    assert "kernels" in out


def test_cli_run(capsys):
    assert main(["run", "treernn", "--hidden", "8", "--batch", "2"]) == 0
    out = capsys.readouterr().out
    assert "simulated latency" in out


def test_cli_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


# -- analysis -------------------------------------------------------------------

def test_roofline_formulas():
    from repro.analysis import (asymptotic_intensities, treefc_flops,
                                treefc_rooflines)

    F = treefc_flops(255, 10, 256)
    assert F == 10 * 255 * (4 * 256 * 256 + 256)
    r = treefc_rooflines(255, 10, 256)
    assert r["cortex"].intensity > r["dynet"].intensity \
        > r["pytorch"].intensity
    asym = asymptotic_intensities(256, 10)
    assert asym["pytorch"] == pytest.approx(0.5)
    assert asym["cortex"] > asym["dynet"]


def test_memory_comparison_keys():
    from repro.analysis import memory_comparison
    from repro.runtime import V100

    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    trees = synthetic_treebank(2, vocab_size=VOCAB,
                               rng=np.random.default_rng(0))
    mem = memory_comparison(m, trees, V100)
    assert set(mem) == {"PyTorch", "DyNet", "DyNet (inference)", "Cavs",
                        "Cortex"}
    assert all(v > 0 for v in mem.values())
