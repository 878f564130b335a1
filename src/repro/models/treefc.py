"""TreeFC — the benchmarking model of Looks et al. 2017 (Table 2).

One fully-connected layer per node over the concatenated children states:
``h(n) = relu(W . [h(l); h(r)] + b)``, expressed as two half-matvecs (the
concat is folded into the weight split, keeping every operator a clean
reduction).  Leaves read the embedding table.  Evaluated on perfect binary
trees of height 7.

Authored declaratively: :data:`MODEL` holds the cell written once; the
program builder, seeded parameters and the recursive reference are all
derived from it (:mod:`repro.authoring`).
"""

from __future__ import annotations

from ..authoring import model
from ..ir import relu
from ..linearizer import StructureKind
from ..ra.node_ref import isleaf
from ..ra.tensor import NUM_NODES
from .cells import matvec

DEFAULT_HIDDEN = 256


@model("treefc", name="TreeFC", kind=StructureKind.TREE, max_children=2)
def MODEL(p, hidden: int = DEFAULT_HIDDEN, vocab: int = 1000):
    Emb = p.input_tensor((vocab, hidden), "Emb")
    Wl = p.input_tensor((hidden, hidden), "Wl")
    Wr = p.input_tensor((hidden, hidden), "Wr")
    b = p.input_tensor((hidden,), "b")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")

    leaf_h = p.compute((NUM_NODES, hidden),
                       lambda n, i: Emb[n.word, i], "leaf_h")
    lh = p.compute((NUM_NODES, hidden), lambda n, i: ph[n.left, i], "lh")
    rh = p.compute((NUM_NODES, hidden), lambda n, i: ph[n.right, i], "rh")
    ml = matvec(p, Wl, lh, "ml")
    mr = matvec(p, Wr, rh, "mr")
    rec_h = p.compute((NUM_NODES, hidden),
                      lambda n, i: relu(ml[n, i] + mr[n, i] + b[i]),
                      "rec_h")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec_h), "body_h")
    p.recursion_op(ph, body, "rnn")
