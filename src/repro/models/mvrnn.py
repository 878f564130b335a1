"""MV-RNN (Socher et al. 2012b) — matrix-vector recursive network (Table 2).

Every node carries a vector ``h`` and a matrix ``M`` (mutually recursive
state, like TreeLSTM's ``h``/``c``)::

    a = M(r) . h(l)          b = M(l) . h(r)
    h = tanh(Wa . a + Wb . b + bh)
    M = WMl . M(l) + WMr . M(r)

Leaves: ``h = Emb[word]`` and a *shared* initial matrix ``Minit`` — the
standard practical choice (a per-word matrix table would be V x H x H).
Because ``Minit`` is the same for every leaf, the leaf-matrix computation is
node-independent and exercises Cortex's computation hoisting (§4.3).

The paper evaluates MV-RNN at hidden sizes 64/128 (hs/hl) since the state
is quadratic in H.  ``Minit`` draws as the identity plus noise, and the
matrix-composition weights ``WMl``/``WMr`` at scale 0.05 rather than the
default 0.1.
"""

from __future__ import annotations

from ..authoring import init, model
from ..ir import reduce_axis, reduce_sum, tanh
from ..linearizer import StructureKind
from ..ra.node_ref import isleaf
from ..ra.tensor import NUM_NODES
from .cells import matvec

DEFAULT_HIDDEN = 64


@model("mvrnn", name="MV-RNN", kind=StructureKind.TREE, max_children=2,
       hs=64, hl=128,
       inits={"Minit": init.eye_plus_noise(0.05), "WMl": init.normal(0.05),
              "WMr": init.normal(0.05)})
def MODEL(p, hidden: int = DEFAULT_HIDDEN, vocab: int = 1000):
    H = hidden
    Emb = p.input_tensor((vocab, H), "Emb")
    Minit = p.input_tensor((H, H), "Minit")
    Wa = p.input_tensor((H, H), "Wa")
    Wb = p.input_tensor((H, H), "Wb")
    WMl = p.input_tensor((H, H), "WMl")
    WMr = p.input_tensor((H, H), "WMr")
    bh = p.input_tensor((H,), "bh")
    ph_h = p.placeholder((NUM_NODES, H), "h_ph")
    ph_M = p.placeholder((NUM_NODES, H, H), "M_ph")

    leaf_h = p.compute((NUM_NODES, H), lambda n, i: Emb[n.word, i], "leaf_h")
    leaf_M = p.compute((NUM_NODES, H, H),
                       lambda n, i, j: Minit[i, j], "leaf_M")

    def a_body(n, i):
        j = reduce_axis(H, p.fresh("k"))
        return reduce_sum(ph_M[n.right, i, j.var] * ph_h[n.left, j.var], j)

    def b_body(n, i):
        j = reduce_axis(H, p.fresh("k"))
        return reduce_sum(ph_M[n.left, i, j.var] * ph_h[n.right, j.var], j)

    a = p.compute((NUM_NODES, H), a_body, "a_vec")
    b = p.compute((NUM_NODES, H), b_body, "b_vec")
    ma = matvec(p, Wa, a, "ma")
    mb = matvec(p, Wb, b, "mb")
    rec_h = p.compute((NUM_NODES, H),
                      lambda n, i: tanh(ma[n, i] + mb[n, i] + bh[i]),
                      "rec_h")

    def ml_body(n, i, j):
        k = reduce_axis(H, p.fresh("k"))
        return reduce_sum(WMl[i, k.var] * ph_M[n.left, k.var, j], k)

    def mr_body(n, i, j):
        k = reduce_axis(H, p.fresh("k"))
        return reduce_sum(WMr[i, k.var] * ph_M[n.right, k.var, j], k)

    Ml = p.compute((NUM_NODES, H, H), ml_body, "Ml")
    Mr = p.compute((NUM_NODES, H, H), mr_body, "Mr")
    rec_M = p.compute((NUM_NODES, H, H),
                      lambda n, i, j: Ml[n, i, j] + Mr[n, i, j], "rec_M")

    body_h = p.if_then_else((NUM_NODES, H),
                            lambda n, i: (isleaf(n), leaf_h, rec_h),
                            "body_h")
    body_M = p.if_then_else((NUM_NODES, H, H),
                            lambda n, i, j: (isleaf(n), leaf_M, rec_M),
                            "body_M")
    p.recursion_op([(ph_h, body_h), (ph_M, body_M)], name="rnn")
