"""Child-sum TreeGRU and SimpleTreeGRU (Table 2, §7.4).

Child-sum GRU over a node's children::

    h_sum = sum_k h(child k)
    z = sigmoid(Uz . h_sum + bz)
    r = sigmoid(Ur . h_sum + br)
    h' = tanh(Uh . (r * h_sum) + bh)
    h  = z * h_sum + (1 - z) * h'        # TreeGRU
    h  = (1 - z) * h'                    # SimpleTreeGRU (footnote 4)

The only difference — whether the h-gate re-reads the children state — is
exactly what gates the benefit of recursive refactoring in Fig. 10c: the
``z * h_sum`` term forces the final combine to consume placeholder data, so
the moved reduction cannot drop a barrier.

Both variants share one authored cell (:func:`_cell`); :data:`MODEL` and
:data:`SIMPLE_MODEL` are its two :class:`~repro.authoring.ModelDef`
instances.
"""

from __future__ import annotations

import functools

from ..authoring import define_model
from ..ir import sigmoid, tanh
from ..linearizer import StructureKind
from ..ra.node_ref import isleaf
from ..ra.tensor import NUM_NODES
from .cells import child_sum, matvec

DEFAULT_HIDDEN = 256


def _cell(p, hidden: int = DEFAULT_HIDDEN, vocab: int = 1000, *,
          simple: bool = False):
    Emb = p.input_tensor((vocab, hidden), "Emb")
    Uz = p.input_tensor((hidden, hidden), "Uz")
    Ur = p.input_tensor((hidden, hidden), "Ur")
    Uh = p.input_tensor((hidden, hidden), "Uh")
    bz = p.input_tensor((hidden,), "bz")
    br = p.input_tensor((hidden,), "br")
    bh = p.input_tensor((hidden,), "bh")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")

    leaf_h = p.compute((NUM_NODES, hidden),
                       lambda n, i: Emb[n.word, i], "leaf_h")
    h_sum = child_sum(p, ph, "h_sum", hidden)
    mz = matvec(p, Uz, h_sum, "mz")
    mr = matvec(p, Ur, h_sum, "mr")
    z = p.compute((NUM_NODES, hidden),
                  lambda n, i: sigmoid(mz[n, i] + bz[i]), "z")
    r = p.compute((NUM_NODES, hidden),
                  lambda n, i: sigmoid(mr[n, i] + br[i]), "r")
    rh_in = p.compute((NUM_NODES, hidden),
                      lambda n, i: r[n, i] * h_sum[n, i], "rh_in")
    mh = matvec(p, Uh, rh_in, "mh")
    hprime = p.compute((NUM_NODES, hidden),
                       lambda n, i: tanh(mh[n, i] + bh[i]), "hprime")
    if simple:
        rec_h = p.compute(
            (NUM_NODES, hidden),
            lambda n, i: (1.0 - z[n, i]) * hprime[n, i], "rec_h")
    else:
        rec_h = p.compute(
            (NUM_NODES, hidden),
            lambda n, i: z[n, i] * h_sum[n, i]
            + (1.0 - z[n, i]) * hprime[n, i], "rec_h")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec_h), "body_h")
    p.recursion_op(ph, body, "rnn")


MODEL = define_model("treegru", _cell, name="TreeGRU",
                     kind=StructureKind.TREE, max_children=2)
SIMPLE_MODEL = define_model(
    "simple_treegru", functools.partial(_cell, simple=True),
    name="SimpleTreeGRU", kind=StructureKind.TREE, max_children=2)
