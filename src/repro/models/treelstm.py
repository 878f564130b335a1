"""Child-sum TreeLSTM (Tai et al. 2015) — recursive portion (Table 2).

Mutually recursive ``h`` and ``c`` state per node::

    h~   = sum_k h(child k)                       (child-sum)
    i    = sigmoid(Ui . h~ + bi)
    o    = sigmoid(Uo . h~ + bo)
    u    = tanh(Uu . h~ + bu)
    f_k  = sigmoid(Uf . h(child k) + bf)          (per-child forget gate)
    c    = i * u + sum_k f_k * c(child k)
    h    = o * tanh(c)

Leaves carry the word embedding as ``h`` and a zero ``c`` — the zero leaf
state is folded away entirely by constant propagation (§4.3), which the
tests assert.  As in the paper's evaluation, input matrix-vector products
are not part of the recursive portion (GRNN-style upfront matmuls).

The child-sum cell is authored declaratively (:data:`MODEL`).  The N-ary
variant below still uses the classic hand-written triple (build /
random_params / reference).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..authoring import model
from ..ir import reduce_axis, reduce_sum, sigmoid, tanh
from ..linearizer import Node, StructureKind
from ..ra.ops import Program
from ..ra.node_ref import isleaf
from ..ra.tensor import NUM_NODES
from .cells import (child_matvec, child_sum, matvec, np_sigmoid,
                    random_matrix, random_vector)

DEFAULT_HIDDEN = 256
MAX_CHILDREN = 2


@model("treelstm", name="TreeLSTM", kind=StructureKind.TREE,
       max_children=MAX_CHILDREN)
def MODEL(p, hidden: int = DEFAULT_HIDDEN, vocab: int = 1000,
          max_children: int = MAX_CHILDREN):
    Emb = p.input_tensor((vocab, hidden), "Emb")
    Ui = p.input_tensor((hidden, hidden), "Ui")
    Uo = p.input_tensor((hidden, hidden), "Uo")
    Uu = p.input_tensor((hidden, hidden), "Uu")
    Uf = p.input_tensor((hidden, hidden), "Uf")
    bi = p.input_tensor((hidden,), "bi")
    bo = p.input_tensor((hidden,), "bo")
    bu = p.input_tensor((hidden,), "bu")
    bf = p.input_tensor((hidden,), "bf")
    ph_h = p.placeholder((NUM_NODES, hidden), "h_ph")
    ph_c = p.placeholder((NUM_NODES, hidden), "c_ph")

    leaf_h = p.compute((NUM_NODES, hidden),
                       lambda n, i: Emb[n.word, i], "leaf_h")
    leaf_c = p.compute((NUM_NODES, hidden), lambda n, i: 0.0, "leaf_c")

    h_tilde = child_sum(p, ph_h, "h_tilde", hidden)
    mi = matvec(p, Ui, h_tilde, "mi")
    mo = matvec(p, Uo, h_tilde, "mo")
    mu = matvec(p, Uu, h_tilde, "mu")
    gi = p.compute((NUM_NODES, hidden),
                   lambda n, i: sigmoid(mi[n, i] + bi[i]), "gi")
    go_ = p.compute((NUM_NODES, hidden),
                    lambda n, i: sigmoid(mo[n, i] + bo[i]), "go")
    gu = p.compute((NUM_NODES, hidden),
                   lambda n, i: tanh(mu[n, i] + bu[i]), "gu")

    # per-child forget gates: (N, K, H) tensor; invalid slots are
    # garbage rows masked out by the child-sum consumer below
    mf = child_matvec(p, Uf, ph_h, "mf", max_children)
    gf = p.compute((NUM_NODES, max_children, hidden),
                   lambda n, k, i: sigmoid(mf[n, k, i] + bf[i]), "gf")

    def c_body(n, i):
        k = reduce_axis(n.arity, p.fresh("k"))
        return reduce_sum(gf[n, k.var, i] * ph_c[n.child_at(k.var), i], k)

    fc_sum = p.compute((NUM_NODES, hidden), c_body, "fc_sum")
    rec_c = p.compute((NUM_NODES, hidden),
                      lambda n, i: gi[n, i] * gu[n, i] + fc_sum[n, i],
                      "rec_c")
    body_c = p.if_then_else((NUM_NODES, hidden),
                            lambda n, i: (isleaf(n), leaf_c, rec_c),
                            "body_c")
    rec_h = p.compute((NUM_NODES, hidden),
                      lambda n, i: go_[n, i] * tanh(rec_c[n, i]), "rec_h")
    body_h = p.if_then_else((NUM_NODES, hidden),
                            lambda n, i: (isleaf(n), leaf_h, rec_h),
                            "body_h")
    p.recursion_op([(ph_h, body_h), (ph_c, body_c)], name="rnn")


build = MODEL.build
random_params = MODEL.random_params
reference = MODEL.reference


# ---------------------------------------------------------------------------
# N-ary variant (Tai et al. §3.2): positional children, per-slot forget
# weights Uf_k — the binary-parse-tree formulation.  Same recursion
# structure, but every child position gets its own parameter matrix, so
# forget gates use the fixed per-position accessors (n.left / n.right)
# instead of a child-sum reduction.


def build_nary(hidden: int = DEFAULT_HIDDEN, vocab: int = 1000) -> Program:
    with Program("treelstm_nary", StructureKind.TREE, 2) as p:
        Emb = p.input_tensor((vocab, hidden), "Emb")
        Ui = p.input_tensor((hidden, hidden), "Ui")
        Uo = p.input_tensor((hidden, hidden), "Uo")
        Uu = p.input_tensor((hidden, hidden), "Uu")
        Uf0 = p.input_tensor((hidden, hidden), "Uf0")
        Uf1 = p.input_tensor((hidden, hidden), "Uf1")
        bi = p.input_tensor((hidden,), "bi")
        bo = p.input_tensor((hidden,), "bo")
        bu = p.input_tensor((hidden,), "bu")
        bf = p.input_tensor((hidden,), "bf")
        ph_h = p.placeholder((NUM_NODES, hidden), "h_ph")
        ph_c = p.placeholder((NUM_NODES, hidden), "c_ph")

        leaf_h = p.compute((NUM_NODES, hidden),
                           lambda n, i: Emb[n.word, i], "leaf_h")
        leaf_c = p.compute((NUM_NODES, hidden), lambda n, i: 0.0, "leaf_c")

        hl = p.compute((NUM_NODES, hidden), lambda n, i: ph_h[n.left, i], "hl")
        hr = p.compute((NUM_NODES, hidden), lambda n, i: ph_h[n.right, i], "hr")
        cl = p.compute((NUM_NODES, hidden), lambda n, i: ph_c[n.left, i], "cl")
        cr = p.compute((NUM_NODES, hidden), lambda n, i: ph_c[n.right, i], "cr")
        h_cat = p.compute((NUM_NODES, hidden),
                          lambda n, i: hl[n, i] + hr[n, i], "h_cat")
        mi = matvec(p, Ui, h_cat, "mi")
        mo = matvec(p, Uo, h_cat, "mo")
        mu = matvec(p, Uu, h_cat, "mu")
        mf0 = matvec(p, Uf0, hl, "mf0")
        mf1 = matvec(p, Uf1, hr, "mf1")
        gi = p.compute((NUM_NODES, hidden),
                       lambda n, i: sigmoid(mi[n, i] + bi[i]), "gi")
        go_ = p.compute((NUM_NODES, hidden),
                        lambda n, i: sigmoid(mo[n, i] + bo[i]), "go")
        gu = p.compute((NUM_NODES, hidden),
                       lambda n, i: tanh(mu[n, i] + bu[i]), "gu")
        gf0 = p.compute((NUM_NODES, hidden),
                        lambda n, i: sigmoid(mf0[n, i] + bf[i]), "gf0")
        gf1 = p.compute((NUM_NODES, hidden),
                        lambda n, i: sigmoid(mf1[n, i] + bf[i]), "gf1")
        rec_c = p.compute((NUM_NODES, hidden),
                          lambda n, i: gi[n, i] * gu[n, i]
                          + gf0[n, i] * cl[n, i] + gf1[n, i] * cr[n, i],
                          "rec_c")
        body_c = p.if_then_else((NUM_NODES, hidden),
                                lambda n, i: (isleaf(n), leaf_c, rec_c),
                                "body_c")
        rec_h = p.compute((NUM_NODES, hidden),
                          lambda n, i: go_[n, i] * tanh(rec_c[n, i]), "rec_h")
        body_h = p.if_then_else((NUM_NODES, hidden),
                                lambda n, i: (isleaf(n), leaf_h, rec_h),
                                "body_h")
        p.recursion_op([(ph_h, body_h), (ph_c, body_c)], name="rnn")
    return p


def random_params_nary(hidden: int = DEFAULT_HIDDEN, vocab: int = 1000,
                       rng: np.random.Generator | None = None
                       ) -> Dict[str, np.ndarray]:
    rng = rng or np.random.default_rng(0)
    out = {"Emb": random_matrix(rng, vocab, hidden, scale=0.5)}
    for g in ("i", "o", "u"):
        out[f"U{g}"] = random_matrix(rng, hidden, hidden)
        out[f"b{g}"] = random_vector(rng, hidden)
    out["Uf0"] = random_matrix(rng, hidden, hidden)
    out["Uf1"] = random_matrix(rng, hidden, hidden)
    out["bf"] = random_vector(rng, hidden)
    return out


def reference_nary(roots: Sequence[Node], params: Dict[str, np.ndarray]
                   ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    emb = params["Emb"]

    def go(node: Node) -> Tuple[np.ndarray, np.ndarray]:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
            c = np.zeros_like(h)
        else:
            hl, cl = go(node.left)
            hr, cr = go(node.right)
            h_cat = hl + hr
            gi = np_sigmoid(params["Ui"] @ h_cat + params["bi"])
            go_ = np_sigmoid(params["Uo"] @ h_cat + params["bo"])
            gu = np.tanh(params["Uu"] @ h_cat + params["bu"])
            gf0 = np_sigmoid(params["Uf0"] @ hl + params["bf"])
            gf1 = np_sigmoid(params["Uf1"] @ hr + params["bf"])
            c = (gi * gu + gf0 * cl + gf1 * cr).astype(np.float32)
            h = (go_ * np.tanh(c)).astype(np.float32)
        out[id(node)] = (h, c)
        return h, c

    for r in roots:
        go(r)
    return out


OUTPUT_H = "rnn_h_ph"
OUTPUT_C = "rnn_c_ph"
