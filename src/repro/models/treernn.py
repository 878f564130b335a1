"""TreeRNN — the paper's running example (Fig. 1, Listing 1).

``h(n) = Emb[word(n)]`` at leaves, ``h(n) = tanh(h(l) + h(r))`` internally.
Used in §7.4 to evaluate unrolling with one-node-per-thread-block
scheduling.

Authored declaratively (:mod:`repro.authoring`): parameters and the
recursive reference derive from the single cell definition below.
"""

from __future__ import annotations

from ..authoring import model
from ..ir import tanh
from ..linearizer import StructureKind
from ..ra.node_ref import isleaf
from ..ra.tensor import NUM_NODES

DEFAULT_HIDDEN = 256


@model("treernn", name="TreeRNN", kind=StructureKind.TREE, max_children=2)
def MODEL(p, hidden: int = DEFAULT_HIDDEN, vocab: int = 1000):
    Emb = p.input_tensor((vocab, hidden), "Emb")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")
    leaf_h = p.compute((NUM_NODES, hidden),
                       lambda n, i: Emb[n.word, i], "leaf_h")
    lh = p.compute((NUM_NODES, hidden), lambda n, i: ph[n.left, i], "lh")
    rh = p.compute((NUM_NODES, hidden), lambda n, i: ph[n.right, i], "rh")
    rec_h = p.compute((NUM_NODES, hidden),
                      lambda n, i: tanh(lh[n, i] + rh[n, i]), "rec_h")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec_h), "body_h")
    p.recursion_op(ph, body, "rnn")


build = MODEL.build
random_params = MODEL.random_params
reference = MODEL.reference


#: output state buffer name (recursion output of ``h_ph``)
OUTPUT = "rnn"
