"""Sequential LSTM and GRU models (Fig. 9, GRNN comparison).

Sequences are modeled as unary chains whose first node is a *virtual
initial step* with zero state (the paper's hidden-state initialization);
real time steps start at the second node.  Use :func:`make_sequence` to
build inputs in this convention.

The input projections ``W_x . x_t`` for all gates run as upfront matmul
kernels before the recursion, exactly like GRNN / the paper's evaluation
setup (§7.1).  The zero initial state is eliminated by constant
propagation (§4.3), which the tests assert.

The sequential GRU has a two-deep reduction chain (the reset gate feeds the
candidate matvec), so a fused persistent kernel pays two global barriers
per step; recursive refactoring moves the gate matvec across the backedge
and saves one — the GRNN GRU optimization (§7.4).
"""

from __future__ import annotations

from typing import Sequence

from ..authoring import model
from ..ir import reduce_axis, reduce_sum, sigmoid, tanh
from ..linearizer import Node, StructureKind
from ..linearizer.structures import sequence as _chain
from ..ra.ops import Program
from ..ra.node_ref import isleaf
from ..ra.tensor import NUM_NODES
from .cells import matvec

DEFAULT_HIDDEN = 256


def make_sequence(words: Sequence[int]) -> Node:
    """Chain with a leading virtual step holding the zero initial state."""
    return _chain([0] + list(words))


def _input_projection(p: Program, W, X, name: str, hidden: int):
    """Pre-recursion op: ``out[n, i] = sum_k W[i, k] * X[word(n), k]``."""

    def body(n, i):
        k = reduce_axis(int(W.shape[1].value), p.fresh("k"))
        return reduce_sum(W[i, k.var] * X[n.word, k.var], k)

    return p.compute((NUM_NODES, hidden), body, name)


# ---------------------------------------------------------------------------
# LSTM


@model("seq_lstm", name="Sequential LSTM", kind=StructureKind.SEQUENCE,
       max_children=1)
def LSTM_MODEL(p, hidden: int = DEFAULT_HIDDEN,
               input_size: int = DEFAULT_HIDDEN, vocab: int = 1000):
    H = hidden
    X = p.input_tensor((vocab, input_size), "X")
    ph_h = p.placeholder((NUM_NODES, H), "h_ph")
    ph_c = p.placeholder((NUM_NODES, H), "c_ph")
    Ws = {g: p.input_tensor((H, input_size), f"Wx{g}") for g in "iofu"}
    Us = {g: p.input_tensor((H, H), f"U{g}") for g in "iofu"}
    bs = {g: p.input_tensor((H,), f"b{g}") for g in "iofu"}

    xp = {g: _input_projection(p, Ws[g], X, f"x{g}", H) for g in "iofu"}

    leaf_h = p.compute((NUM_NODES, H), lambda n, i: 0.0, "leaf_h")
    leaf_c = p.compute((NUM_NODES, H), lambda n, i: 0.0, "leaf_c")

    hp = p.compute((NUM_NODES, H), lambda n, i: ph_h[n.left, i], "hp")
    cp = p.compute((NUM_NODES, H), lambda n, i: ph_c[n.left, i], "cp")
    m = {g: matvec(p, Us[g], hp, f"m{g}") for g in "iofu"}
    gi = p.compute((NUM_NODES, H), lambda n, i:
                   sigmoid(m["i"][n, i] + xp["i"][n, i] + bs["i"][i]), "gi")
    gf = p.compute((NUM_NODES, H), lambda n, i:
                   sigmoid(m["f"][n, i] + xp["f"][n, i] + bs["f"][i]), "gf")
    go_ = p.compute((NUM_NODES, H), lambda n, i:
                    sigmoid(m["o"][n, i] + xp["o"][n, i] + bs["o"][i]), "go")
    gu = p.compute((NUM_NODES, H), lambda n, i:
                   tanh(m["u"][n, i] + xp["u"][n, i] + bs["u"][i]), "gu")
    rec_c = p.compute((NUM_NODES, H), lambda n, i:
                      gf[n, i] * cp[n, i] + gi[n, i] * gu[n, i], "rec_c")
    rec_h = p.compute((NUM_NODES, H), lambda n, i:
                      go_[n, i] * tanh(rec_c[n, i]), "rec_h")
    body_c = p.if_then_else((NUM_NODES, H),
                            lambda n, i: (isleaf(n), leaf_c, rec_c),
                            "body_c")
    body_h = p.if_then_else((NUM_NODES, H),
                            lambda n, i: (isleaf(n), leaf_h, rec_h),
                            "body_h")
    p.recursion_op([(ph_h, body_h), (ph_c, body_c)], name="rnn")


# ---------------------------------------------------------------------------
# GRU


@model("seq_gru", name="Sequential GRU", kind=StructureKind.SEQUENCE,
       max_children=1)
def GRU_MODEL(p, hidden: int = DEFAULT_HIDDEN,
              input_size: int = DEFAULT_HIDDEN, vocab: int = 1000):
    H = hidden
    X = p.input_tensor((vocab, input_size), "X")
    ph = p.placeholder((NUM_NODES, H), "h_ph")
    Wxz = p.input_tensor((H, input_size), "Wxz")
    Wxr = p.input_tensor((H, input_size), "Wxr")
    Wxh = p.input_tensor((H, input_size), "Wxh")
    Uz = p.input_tensor((H, H), "Uz")
    Ur = p.input_tensor((H, H), "Ur")
    Uh = p.input_tensor((H, H), "Uh")
    bz = p.input_tensor((H,), "bz")
    br = p.input_tensor((H,), "br")
    bh = p.input_tensor((H,), "bh")

    xz = _input_projection(p, Wxz, X, "xz", H)
    xr = _input_projection(p, Wxr, X, "xr", H)
    xh = _input_projection(p, Wxh, X, "xh", H)

    leaf_h = p.compute((NUM_NODES, H), lambda n, i: 0.0, "leaf_h")
    hp = p.compute((NUM_NODES, H), lambda n, i: ph[n.left, i], "hp")
    mz = matvec(p, Uz, hp, "mz")
    mr = matvec(p, Ur, hp, "mr")
    z = p.compute((NUM_NODES, H), lambda n, i:
                  sigmoid(mz[n, i] + xz[n, i] + bz[i]), "z")
    r = p.compute((NUM_NODES, H), lambda n, i:
                  sigmoid(mr[n, i] + xr[n, i] + br[i]), "r")
    rh = p.compute((NUM_NODES, H), lambda n, i: r[n, i] * hp[n, i], "rh")
    mh = matvec(p, Uh, rh, "mh")
    hprime = p.compute((NUM_NODES, H), lambda n, i:
                       tanh(mh[n, i] + xh[n, i] + bh[i]), "hprime")
    rec_h = p.compute((NUM_NODES, H), lambda n, i:
                      z[n, i] * hp[n, i]
                      + (1.0 - z[n, i]) * hprime[n, i], "rec_h")
    body = p.if_then_else((NUM_NODES, H),
                          lambda n, i: (isleaf(n), leaf_h, rec_h), "body_h")
    p.recursion_op(ph, body, "rnn")
