"""Hand-written recursive NumPy references for every zoo model.

Test oracles only: ``tests/test_authoring.py`` checks each model's derived
reference (the RA interpreter over its program) against these
independent recursions, one per :data:`repro.models.MODELS` entry.  Each
returns ``id(node) -> h`` (a tuple of states for the multi-state models:
``(h, c)`` for the LSTMs, ``(h, M)`` for MV-RNN) and shares subtrees by
identity.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.linearizer import Node


def np_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def treefc(roots: Sequence[Node], params: Dict[str, np.ndarray]
           ) -> Dict[int, np.ndarray]:
    """Hand-written recursive NumPy reference (parity cross-check only)."""
    emb, wl, wr, b = params["Emb"], params["Wl"], params["Wr"], params["b"]
    out: Dict[int, np.ndarray] = {}

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
        else:
            z = wl @ go(node.left) + wr @ go(node.right) + b
            h = np.maximum(z, 0).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out


def treernn(roots: Sequence[Node], params: Dict[str, np.ndarray]
            ) -> Dict[int, np.ndarray]:
    """Hand-written recursive NumPy reference (parity cross-check only)."""
    emb = params["Emb"]
    out: Dict[int, np.ndarray] = {}

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
        else:
            h = np.tanh(go(node.left) + go(node.right)).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out


def treegru(roots: Sequence[Node], params: Dict[str, np.ndarray], *,
            simple: bool = False) -> Dict[int, np.ndarray]:
    """Hand-written recursive NumPy reference (parity cross-check only)."""
    out: Dict[int, np.ndarray] = {}
    emb = params["Emb"]

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
        else:
            h_sum = np.sum([go(c) for c in node.children], axis=0)
            z = np_sigmoid(params["Uz"] @ h_sum + params["bz"])
            r = np_sigmoid(params["Ur"] @ h_sum + params["br"])
            hp = np.tanh(params["Uh"] @ (r * h_sum) + params["bh"])
            if simple:
                h = ((1.0 - z) * hp).astype(np.float32)
            else:
                h = (z * h_sum + (1.0 - z) * hp).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out


def simple_treegru(roots, params):
    return treegru(roots, params, simple=True)


def treelstm(roots: Sequence[Node], params: Dict[str, np.ndarray]
             ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Hand-written reference, ``id(node) -> (h, c)`` (cross-check only)."""
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    emb = params["Emb"]

    def go(node: Node) -> Tuple[np.ndarray, np.ndarray]:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
            c = np.zeros_like(h)
        else:
            hs = [go(ch)[0] for ch in node.children]
            cs = [go(ch)[1] for ch in node.children]
            h_tilde = np.sum(hs, axis=0)
            gi = np_sigmoid(params["Ui"] @ h_tilde + params["bi"])
            go_ = np_sigmoid(params["Uo"] @ h_tilde + params["bo"])
            gu = np.tanh(params["Uu"] @ h_tilde + params["bu"])
            c = gi * gu
            for hk, ck in zip(hs, cs):
                fk = np_sigmoid(params["Uf"] @ hk + params["bf"])
                c = c + fk * ck
            c = c.astype(np.float32)
            h = (go_ * np.tanh(c)).astype(np.float32)
        out[id(node)] = (h, c)
        return h, c

    for r in roots:
        go(r)
    return out


def treelstm_nary(roots: Sequence[Node], params: Dict[str, np.ndarray]
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


def mvrnn(roots: Sequence[Node], params: Dict[str, np.ndarray]
          ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Returns ``id(node) -> (h, M)``."""
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def go(node: Node) -> Tuple[np.ndarray, np.ndarray]:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = params["Emb"][node.word].astype(np.float32)
            M = params["Minit"].copy()
        else:
            hl, Ml = go(node.left)
            hr, Mr = go(node.right)
            a = Mr @ hl
            b = Ml @ hr
            h = np.tanh(params["Wa"] @ a + params["Wb"] @ b
                        + params["bh"]).astype(np.float32)
            M = (params["WMl"] @ Ml + params["WMr"] @ Mr).astype(np.float32)
        out[id(node)] = (h, M)
        return h, M

    for r in roots:
        go(r)
    return out


def dagrnn(roots: Sequence[Node], params: Dict[str, np.ndarray]
           ) -> Dict[int, np.ndarray]:
    out: Dict[int, np.ndarray] = {}
    feat, U, b = params["Feat"], params["U"], params["b"]

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = np.tanh(feat[node.word] + b).astype(np.float32)
        else:
            h_sum = np.sum([go(c) for c in node.children], axis=0)
            h = np.tanh(U @ h_sum + feat[node.word] + b).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out


def seq_lstm(roots: Sequence[Node], params: Dict[str, np.ndarray]
             ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    H = params["Ui"].shape[0]

    def go(node: Node) -> Tuple[np.ndarray, np.ndarray]:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = np.zeros(H, np.float32)
            c = np.zeros(H, np.float32)
        else:
            hp, cp = go(node.children[0])
            x = params["X"][node.word]
            gate = {}
            for g in "iofu":
                z = (params[f"U{g}"] @ hp + params[f"Wx{g}"] @ x
                     + params[f"b{g}"])
                gate[g] = np.tanh(z) if g == "u" else np_sigmoid(z)
            c = (gate["f"] * cp + gate["i"] * gate["u"]).astype(np.float32)
            h = (gate["o"] * np.tanh(c)).astype(np.float32)
        out[id(node)] = (h, c)
        return h, c

    for r in roots:
        go(r)
    return out


def seq_gru(roots: Sequence[Node], params: Dict[str, np.ndarray]
            ) -> Dict[int, np.ndarray]:
    out: Dict[int, np.ndarray] = {}
    H = params["Uz"].shape[0]

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = np.zeros(H, np.float32)
        else:
            hp = go(node.children[0])
            x = params["X"][node.word]
            z = np_sigmoid(params["Uz"] @ hp + params["Wxz"] @ x + params["bz"])
            r = np_sigmoid(params["Ur"] @ hp + params["Wxr"] @ x + params["br"])
            hp2 = np.tanh(params["Uh"] @ (r * hp) + params["Wxh"] @ x
                          + params["bh"])
            h = (z * hp + (1.0 - z) * hp2).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out
