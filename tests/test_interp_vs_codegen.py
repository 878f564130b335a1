"""Cross-check: the RA interpreter == the generated code, bit for bit.

The reference interpreter (``interpret_reference``, node by node over the
user's program) and the generated NumPy kernels share no lowering, nests,
linearizer or host plan; running whole models through both and comparing
every node's row of every state buffer at zero tolerance is the strongest
end-to-end semantic check in the suite.
"""

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.data import grid_dag_batch, synthetic_treebank
from repro.linearizer import iter_nodes
from repro.ra.interp import interpret_reference

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
    res = model.run(roots)
    oracle = interpret_reference(model.program, roots, model.params)

    states = model.lowered.module.state_buffers
    for node in iter_nodes(roots):
        nid = res.lin.node_id(node)
        want = oracle[id(node)]
        if len(states) == 1:
            want = (want,)
        for state, rows in zip(states, want):
            assert np.array_equal(res.output(state)[nid], rows), \
                (name, state, nid)


@pytest.mark.parametrize("name", ["treernn", "treefc", "treegru", "treelstm"])
def test_interpreter_matches_codegen_fused(name):
    _interp_vs_codegen(name, TREES)


def test_interpreter_matches_codegen_mvrnn():
    _interp_vs_codegen("mvrnn", TREES)


def test_interpreter_matches_codegen_dag():
    _interp_vs_codegen("dagrnn", grid_dag_batch(1, 4, 4))


def test_interpreter_matches_codegen_no_fusion():
    _interp_vs_codegen("treefc", TREES, fusion="none")


def test_interpreter_matches_codegen_no_specialization():
    _interp_vs_codegen("treernn", TREES, specialize=False)
