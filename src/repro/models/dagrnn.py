"""DAG-RNN (Shuai et al. 2015) — recursive portion over grid DAGs (Table 2).

Scene-labeling sweep over a pixel grid: cell state depends on the already
processed neighbours (its "children" in dependence order)::

    h(n) = tanh(U . sum_k h(child k) + x(n))

where ``x(n)`` is the per-cell feature projection, read from a feature
table by the cell's payload index.  Only cell (0, 0) is a leaf, which is
why leaf specialization buys nothing for this model (§7.3) — the benchmark
asserts exactly that.  Unrolling and refactoring are rejected for DAGs
(§3.1), which the tests assert too.
"""

from __future__ import annotations

from ..authoring import model
from ..ir import tanh
from ..linearizer import StructureKind
from ..ra.node_ref import isleaf
from ..ra.tensor import NUM_NODES
from .cells import child_sum, matvec

DEFAULT_HIDDEN = 256
MAX_CHILDREN = 2


@model("dagrnn", name="DAG-RNN", kind=StructureKind.DAG,
       max_children=MAX_CHILDREN)
def MODEL(p, hidden: int = DEFAULT_HIDDEN, num_cells: int = 4000,
          max_children: int = MAX_CHILDREN):
    """``num_cells`` sizes the feature table (cells across the batch)."""
    Feat = p.input_tensor((num_cells, hidden), "Feat")
    U = p.input_tensor((hidden, hidden), "U")
    b = p.input_tensor((hidden,), "b")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")

    leaf_h = p.compute((NUM_NODES, hidden),
                       lambda n, i: tanh(Feat[n.word, i] + b[i]), "leaf_h")
    h_sum = child_sum(p, ph, "h_sum", hidden)
    mu = matvec(p, U, h_sum, "mu")
    rec_h = p.compute(
        (NUM_NODES, hidden),
        lambda n, i: tanh(mu[n, i] + Feat[n.word, i] + b[i]), "rec_h")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec_h), "body_h")
    p.recursion_op(ph, body, "rnn")
