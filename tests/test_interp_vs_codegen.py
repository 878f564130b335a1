"""Cross-check: scalar interpreter == vectorized generated code.

The ILIR statement trees (interpreted element-by-element) and the generated
NumPy kernels are two independent consumers of the same lowered program;
running whole models through both and comparing every buffer is the
strongest end-to-end semantic check in the suite.
"""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import grid_dag_batch, synthetic_treebank
from repro.ilir.interp import run_module

VOCAB = 60
HIDDEN = 6
RNG = np.random.default_rng(13)
TREES = synthetic_treebank(2, vocab_size=VOCAB, rng=RNG)


def _interp_vs_codegen(name, roots, **schedule):
    if name == "dagrnn":
        model = repro.compile(name, CompileOptions(**schedule), hidden=HIDDEN)
    else:
        model = repro.compile(name, CompileOptions(**schedule), hidden=HIDDEN,
                              vocab=VOCAB)
    module = model.lowered.module
    lin = model.lowered.linearizer(roots)
    res = model.run(roots)

    c = model.plan.bind_scalars(lin)
    ws_int, _ = model.plan.make_workspace(lin, model.params)
    run_module(module, ws_int, c)

    for state in module.state_buffers:
        np.testing.assert_allclose(ws_int[state], res.output(state),
                                   atol=1e-5, err_msg=f"{name}:{state}")


@pytest.mark.parametrize("name", ["treernn", "treefc", "treegru", "treelstm"])
def test_interpreter_matches_codegen_fused(name):
    _interp_vs_codegen(name, TREES)


def test_interpreter_matches_codegen_mvrnn():
    _interp_vs_codegen("mvrnn", TREES)


def test_interpreter_matches_codegen_dag():
    _interp_vs_codegen("dagrnn", grid_dag_batch(1, 4, 4))


def test_interpreter_matches_codegen_no_fusion():
    _interp_vs_codegen("treefc", TREES, fusion="none", persistence=False)


def test_interpreter_matches_codegen_no_specialization():
    _interp_vs_codegen("treernn", TREES, specialize=False)


def test_interpreter_counts_fused_barriers():
    model = repro.compile("treegru", hidden=HIDDEN, vocab=VOCAB)
    module = model.lowered.module
    lin = model.lowered.linearizer(TREES)
    c = model.plan.bind_scalars(lin)
    ws, _ = model.plan.make_workspace(lin, model.params)
    it = run_module(module, ws, c)
    levels = c["num_batches"] - c["level_start"]
    assert it.barriers_executed == levels * module.meta["barriers_per_level"]
